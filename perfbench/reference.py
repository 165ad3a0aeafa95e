"""Published reference values the benchmark checks its outputs against.

These are the tables of the source paper: the recovery-study means and
standard deviations, the five-model comparison tables on the three
built-in datasets, and the mean residual life / mean inactivity time
tables at age 0.5.  The tolerances are the acceptance criteria's.
"""

# recovery study: set id -> n -> ((mean alpha, beta, lambda), (sd alpha, beta, lambda));
# only the cells the study workload runs
STUDY_TABLE = {
    1: {100: ((2.6488, 2.4092, 4.0689), (1.1007, 2.0918, 18.2388)),
        300: ((2.4934, 1.9348, 1.9618), (1.0252, 1.2478, 1.9201))},
    8: {100: ((0.5121, 0.4825, 0.7693), (0.2283, 0.1878, 1.1003)),
        300: ((0.5294, 0.4676, 0.6688), (0.2027, 0.1141, 0.9658))},
}
STUDY_MEAN_SDS = 4.0  # criterion 6: |mean - published| <= 4 * SD / sqrt(reps)
IDENTITY_TOL = 1e-9   # criterion 6: mse = bias^2 + sd^2 and ciw = 2 z sd
Z_975 = 1.959963984540054

# comparison tables: dataset -> model -> (neg2, ks, pvalue, aic_reduced, ad, cm)
COMPARISON_TABLES = {
    "students": {
        "lfrd": (400.32, 0.1365, 0.3326, 402.321, 0.9246, 0.1615),
        "rd": (404.30, 0.2171, 0.0216, 404.309, 3.0924, 0.5876),
        "ed": (408.40, 0.2042, 0.0365, 408.392, 2.5876, 0.4469),
        "ged": (393.62, 0.0937, 0.7935, 395.616, 0.3521, 0.0594),
        "clfrd": (396.10, 0.1190, 0.5048, 400.108, 0.7048, 0.1197),
    },
    "appliances": {
        "lfrd": (144.72, 0.1743, 0.1993, 146.719, 1.3549, 0.2536),
        "rd": (182.12, 0.2841, 0.0046, 182.117, 7.6518, 0.9272),
        "ed": (145.02, 0.1970, 0.1064, 145.013, 1.4970, 0.2995),
        "ged": (144.98, 0.2021, 0.0914, 146.977, 1.5298, 0.3145),
        "clfrd": (143.28, 0.1551, 0.3181, 147.285, 1.2365, 0.2017),
    },
    "devices": {
        "lfrd": (476.12, 0.1769, 0.0876, 478.127, 4.0346, 0.4627),
        "rd": (528.10, 0.2621, 0.0021, 528.106, 13.3206, 0.7913),
        "ed": (482.18, 0.1913, 0.0515, 482.179, 3.6542, 0.5199),
        "ged": (480.00, 0.2044, 0.0307, 481.990, 3.2585, 0.5667),
        "clfrd": (476.84, 0.1744, 0.0956, 480.829, 3.6818, 0.4420),
    },
}
# criterion 4 column tolerances, in table order after neg2
COMPARISON_TOLS = {"ks_stat": 0.002, "ks_pvalue": 0.03, "aic_reduced": 0.05,
                   "ad_stat": 0.05, "cm_stat": 0.01}
# criterion 3: the fitted compounded model reaches the published -2 log L
NEG2_SLACK = 0.05

# MRL and MIT at age 0.5 for the eight published triples (criteria 1 and 2)
MRL_TABLE = {
    (2.0, 2.0, 2.0): 0.2211234,
    (2.0, 2.0, 0.5): 0.2668270,
    (2.0, 0.5, 2.0): 0.2994618,
    (2.0, 0.5, 0.5): 0.3773817,
    (0.5, 2.0, 2.0): 0.2831307,
    (0.5, 2.0, 0.5): 0.3962282,
    (0.5, 0.5, 2.0): 0.5214610,
    (0.5, 0.5, 0.5): 0.7728661,
}
MIT_TABLE = {
    (2.0, 2.0, 2.0): 0.3592062,
    (2.0, 2.0, 0.5): 0.3090133,
    (2.0, 0.5, 2.0): 0.3578331,
    (2.0, 0.5, 0.5): 0.3114150,
    (0.5, 2.0, 2.0): 0.2714062,
    (0.5, 2.0, 0.5): 0.2417515,
    (0.5, 0.5, 2.0): 0.2763928,
    (0.5, 0.5, 0.5): 0.2556945,
}
TABLE_TOL = 1e-4
