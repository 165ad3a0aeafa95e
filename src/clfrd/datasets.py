"""Embedded benchmark datasets and external data ingestion.

Three classic lifetime datasets ship with the package: mathematics marks
of 48 students, failure times of 36 appliances on an automatic life test
(stored in thousands of cycles: each raw value divided by 1000), and
lifetimes of 50 devices.  They drive the golden-value tests and the CLI
examples.

External data loads from CSV (the first column, after an optional header
row) or from a JSON array.  Values must be strictly positive;
offending rows are reported by number.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset", "builtin", "load_csv", "load_json", "BUILTIN_NAMES"]

_STUDENTS = (
    4, 5, 6, 6, 7, 7, 8, 11, 12, 12, 13, 14,
    14, 15, 15, 15, 15, 15, 18, 18, 18, 19, 19, 19,
    20, 21, 21, 23, 23, 23, 25, 27, 28, 29, 31, 34,
    34, 37, 39, 40, 44, 50, 50, 58, 60, 65, 70, 86,
)

_APPLIANCES_RAW = (
    11, 35, 49, 170, 329, 381, 708, 958, 1062,
    1167, 1594, 1925, 1990, 2223, 2327, 2400, 2451, 2471,
    2551, 2565, 2568, 2694, 2702, 2761, 2831, 3034, 3059,
    3112, 3214, 3478, 3504, 4329, 6367, 6976, 7846, 13403,
)

_DEVICES = (
    0.1, 0.2, 1, 1, 1, 1, 1, 2, 3, 6,
    7, 11, 12, 18, 18, 18, 18, 18, 21, 32,
    36, 40, 45, 46, 47, 50, 55, 60, 63, 63,
    67, 67, 67, 67, 72, 75, 79, 82, 82, 83,
    84, 84, 84, 85, 85, 85, 85, 85, 86, 86,
)

BUILTIN_NAMES = ("students", "appliances", "devices")


@dataclass(frozen=True)
class Dataset:
    name: str
    values: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if np.any(self.values <= 0.0) or np.any(~np.isfinite(self.values)):
            raise ValueError(f"Dataset {self.name!r}: values must be finite and strictly positive")

    def __len__(self) -> int:
        return int(self.values.size)


def builtin(name: str, raw: bool = False) -> Dataset:
    """One of the embedded datasets: students, appliances or devices.

    ``raw=True`` disables the appliances 1/1000 scaling (the other two are
    never scaled).
    """
    if name == "students":
        return Dataset("students", np.array(_STUDENTS, dtype=float))
    if name == "appliances":
        values = np.array(_APPLIANCES_RAW, dtype=float)
        return Dataset("appliances", values if raw else values / 1000.0)
    if name == "devices":
        return Dataset("devices", np.array(_DEVICES, dtype=float))
    raise KeyError(f"unknown builtin dataset {name!r}; expected one of {BUILTIN_NAMES}")


def _parse_positive(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{where}: {token!r} is not numeric") from None
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{where}: value {value!r} must be finite and strictly positive")
    return value


def load_csv(path) -> Dataset:
    """Load the first column of a CSV file.

    A non-numeric first row is treated as a header.  Errors carry
    one-based row numbers.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        records = [r for r in csv.reader(fh) if r and any(cell.strip() for cell in r)]
    if not records:
        raise ValueError(f"{path}: empty dataset")
    try:
        float(records[0][0])
        header_rows = 0
    except ValueError:
        header_rows = 1
    values = [_parse_positive(record[0].strip(), f"row {row_no}")
              for row_no, record in enumerate(records[header_rows:], start=1 + header_rows)]
    if not values:
        raise ValueError(f"{path}: empty dataset")
    return Dataset(str(path), np.array(values))


def load_json(path) -> Dataset:
    """Load a JSON array of positive numbers."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{path}: expected a non-empty JSON array of numbers")
    values = []
    for pos, item in enumerate(payload, start=1):
        if not isinstance(item, (int, float)):
            raise ValueError(f"element {pos}: {item!r} is not numeric")
        values.append(_parse_positive(str(item), f"element {pos}"))
    return Dataset(str(path), np.array(values))
