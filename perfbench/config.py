"""Workload sizes and scenario, shared by ``run.py`` and ``worker.py``.

Imports nothing from cfrkit, so ``run.py`` can read it without loading the
program under test.
"""

WORKLOADS = ("linelist-1m", "study-known", "study-estimated", "study-final-day")

# Work per pass: input rows for the line list, replicates for the studies.
# "tiny" is for the smoke check only.
SIZES = {
    "default": {
        "linelist-1m": 1_000_000,
        "study-known": 2,
        "study-estimated": 4,
        "study-final-day": 100,
    },
    "tiny": {
        "linelist-1m": 20_000,
        "study-known": 2,
        "study-estimated": 2,
        "study-final-day": 20,
    },
}

# The acceptance-test step scenario: bundled arm [:158] mirrored, horizon
# 465, so 466 days and ~360k cases per replicate.
SCENARIO = {"arm_days": 158, "c1": 0.1, "c2": 0.05, "d_star": 120,
            "mu": 10.79, "r": 0.88, "horizon": 465}

EPOCH = "2020-03-03"

# Seed whose outputs reference.json holds.
REFERENCE_SEED = 0

# On a shared host, wall times drift by up to 2x over minutes as other
# tenants load it, and a fixed kernel (``workloads.calibrate``) timed in the
# same process slows down by about the same factor. End-to-end times are
# therefore reported scaled to a reference machine speed: wall time *
# CALIBRATION_REF_S / the kernel's median time over the same run. The value
# is the kernel's typical time on the machine that recorded BENCH_0.json.
CALIBRATION_REF_S = 0.017
