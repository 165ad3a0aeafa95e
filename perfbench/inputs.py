"""Workload inputs, built from the workload seed alone.

The set-up timing subprocess imports this module and calls ``build``, so
it imports nothing beyond numpy and ``clfrd``: whatever ``import clfrd``
pulls in is what set-up time measures.
"""

from __future__ import annotations

import numpy as np

import clfrd

# study: set 1 (the lambda-ridge set where local fits fail) and set 8, at
# the smallest and largest published sample sizes.  A round makes one
# run_study call per cell with STUDY_REPS replications; the published
# means are checked on pooled blocks of STUDY_BLOCK_REPS replications per
# cell, the replication count of the published table
STUDY_SETS = (1, 8)
STUDY_SIZES = (100, 300)
STUDY_REPS = 25
STUDY_BLOCK_REPS = 500

DATASETS = ("students", "appliances", "devices")

# surface: array length for the bulk kernels and both samplers, sized so
# that kernels and reliability measures take comparable shares of an op
SURFACE_POINTS = 100_000
AGE = 0.5


def substream_seed(seed: int, *key: int) -> int:
    """A 64-bit seed keyed by (workload seed, key), independent per key."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def study_cells() -> list[tuple[int, int]]:
    return [(label, n) for label in STUDY_SETS for n in STUDY_SIZES]


def study_config(seed: int, round_index: int, label: int, n: int) -> clfrd.StudyConfig:
    """One cell of one round; the round's seed keys every cell's stream."""
    return clfrd.StudyConfig(
        parameter_sets=(clfrd.DEFAULT_PARAMETER_SETS[label - 1],),
        sample_sizes=(n,),
        replications=STUDY_REPS,
        base_seed=substream_seed(seed, 0, round_index),
        set_labels=(label,),
    )


def compare_argvs(seed: int) -> list[list[str]]:
    """One ``clfrd compare`` command line per dataset, in seed-set order."""
    order = np.random.default_rng(substream_seed(seed, 1)).permutation(len(DATASETS))
    return [["compare", "--data", f"builtin:{DATASETS[i]}", "--format", "json", "--no-meta"]
            for i in order]


def surface_inputs(seed: int):
    """Probabilities for the bulk kernels, and (model, sampler seeds) per triple."""
    q = np.random.default_rng(substream_seed(seed, 2)).random(SURFACE_POINTS)
    order = np.random.default_rng(substream_seed(seed, 3)).permutation(len(clfrd.DEFAULT_PARAMETER_SETS))
    triples = [
        (clfrd.DEFAULT_PARAMETER_SETS[i], substream_seed(seed, 4, i), substream_seed(seed, 5, i))
        for i in order
    ]
    return q, triples


def build(workload: str, seed: int):
    if workload == "study":
        return [study_config(seed, 0, label, n) for label, n in study_cells()]
    if workload == "compare":
        import clfrd.cli  # noqa: F401  (the entry point the workload calls)

        return compare_argvs(seed)
    if workload == "surface":
        return surface_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
