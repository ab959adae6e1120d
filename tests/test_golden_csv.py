"""Byte-exact regression of ``ris-sop sweep`` output.

A sweep's CSV is a pure function of its config and seed, whatever the
worker count.  This file pins the whole text of two small sweeps at one and
two sweep workers: an OUS-only grid with all five evaluators, and a grid
that mixes OUS with both NOMA schemes, where each M >= 2 point's three
Monte Carlo rows come from one paired pass and the M = 1 points have no
NOMA pair (their NOMA rows are empty).  It also pins the sha256 of the two
analytic benchmark workloads' seed-1 CSVs, over every order 1..16 and
geometry they sweep.  A change that moves one printed digit, one row or one
column fails here.
"""

import hashlib
import json

import pytest

from ris_sop.cli import emit_csv, parse_config, run_sweep

OUS_ONLY = {
    "base": {"n_elements": 16},
    "sweep": {"gamma0_db": [10.0, 30.0], "n_users": [1, 4]},
    "schemes": ["OUS"],
    "mc_trials": 3000,
    "seed": 3,
}

OUS_ONLY_CSV = (
    "gamma0_db,n_elements,n_users,d_sr,d_rd,d_re,r_th,scheme,sop_closed,sop_asym,sop_quad_exact,sop_quad_approx,sop_mc,sop_mc_ci_low,sop_mc_ci_high,mc_trials,seed\n"
    "10.0,16,1,45.0,45.0,30.0,1.0,OUS,0.8205728643984388,0.25752471385033326,0.8203626320302824,0.8205728643984357,0.847,0.8336750823800063,0.8594373966046174,3000,2092789425003139053\n"
    "10.0,16,4,45.0,45.0,30.0,1.0,OUS,0.5737400246636181,0.18569862384703756,0.5727005090002684,0.5737400246636157,0.6646666666666666,0.6475717587727391,0.6813404070470536,3000,12918135221727111561\n"
    "30.0,16,1,45.0,45.0,30.0,1.0,OUS,0.32444033080996687,0.2575247138503332,0.3244403316159128,0.32444033080996537,0.316,0.29960789559405887,0.3328627207368611,3000,11307387092600937729\n"
    "30.0,16,4,45.0,45.0,30.0,1.0,OUS,0.1897776567224146,0.18569862384703753,0.18951778504988848,0.18977765672241342,0.20133333333333334,0.18737016215290356,0.21606040348569114,3000,1344154044715485647\n"
)

MIXED = {
    "base": {"n_elements": 16, "r_th": 0.05},
    "sweep": {"gamma0_db": [10.0, 30.0], "n_users": [1, 3]},
    "schemes": ["OUS", "NOMA_BU", "NOMA_WU"],
    "evaluators": ["closed", "mc"],
    "mc_trials": 3000,
    "seed": 11,
}

MIXED_CSV = (
    "gamma0_db,n_elements,n_users,d_sr,d_rd,d_re,r_th,scheme,sop_closed,sop_asym,sop_quad_exact,sop_quad_approx,sop_mc,sop_mc_ci_low,sop_mc_ci_high,mc_trials,seed\n"
    "10.0,16,1,45.0,45.0,30.0,0.05,OUS,0.14059982683598132,,,,0.12833333333333333,0.11683855494280439,0.14077872260968788,3000,5833679380957638813\n"
    "10.0,16,1,45.0,45.0,30.0,0.05,NOMA_BU,,,,,,,,,\n"
    "10.0,16,1,45.0,45.0,30.0,0.05,NOMA_WU,,,,,,,,,\n"
    "10.0,16,3,45.0,45.0,30.0,0.05,OUS,0.0591230874006305,,,,0.06966666666666667,0.06109618811882249,0.07933780768410804,3000,4839782808629744545\n"
    "10.0,16,3,45.0,45.0,30.0,0.05,NOMA_BU,,,,,0.07466666666666667,0.06579500409098284,0.08462620322469445,3000,4839782808629744545\n"
    "10.0,16,3,45.0,45.0,30.0,0.05,NOMA_WU,,,,,0.9836666666666667,0.9784732770000629,0.9876229833329718,3000,4839782808629744545\n"
    "30.0,16,1,45.0,45.0,30.0,0.05,OUS,0.13032974855685403,,,,0.12266666666666666,0.11140775443972471,0.13489068339832125,3000,11769803791402734189\n"
    "30.0,16,1,45.0,45.0,30.0,0.05,NOMA_BU,,,,,,,,,\n"
    "30.0,16,1,45.0,45.0,30.0,0.05,NOMA_WU,,,,,,,,,\n"
    "30.0,16,3,45.0,45.0,30.0,0.05,OUS,0.054804271215258916,,,,0.061,0.05298433102545966,0.07013849815537654,3000,9308485889748266480\n"
    "30.0,16,3,45.0,45.0,30.0,0.05,NOMA_BU,,,,,0.061,0.05298433102545966,0.07013849815537654,3000,9308485889748266480\n"
    "30.0,16,3,45.0,45.0,30.0,0.05,NOMA_WU,,,,,0.927,0.917135178308827,0.9357726848797449,3000,9308485889748266480\n"
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("doc,text", [(OUS_ONLY, OUS_ONLY_CSV), (MIXED, MIXED_CSV)],
                         ids=["ous-only", "mixed"])
def test_sweep_csv_is_pinned(doc, text, workers):
    assert emit_csv(run_sweep(parse_config(json.dumps(doc)), workers=workers)) == text


# The analytic workloads of bench/run.py, copied here, at seed 1: (document,
# rows, sha256 of the CSV).
WORKLOADS = {
    "design-grid": (
        {
            "sweep": {
                "gamma0_db": list(range(-10, 55, 5)),
                "n_elements": [64, 256],
                "n_users": [1, 3, 8, 16],
            },
            "schemes": ["OUS"],
            "evaluators": ["closed", "asymptotic", "quad_exact", "quad_approx"],
            "seed": 1,
        },
        104,
        "cc180618d06771217e764b7c0bf45b8dd139933679a7fcfac90fc4252a8ed675",
    ),
    "eav-distance": (
        {
            "sweep": {
                "gamma0_db": [-10, 0],
                "n_elements": [64, 256],
                "n_users": [1, 3],
                "d_re": [10, 20, 30, 34, 38],
            },
            "schemes": ["OUS"],
            "evaluators": ["closed", "quad_exact", "quad_approx"],
            "seed": 1,
        },
        40,
        "8968e27ded7a816c9b779b213eadecf7baa29355eff91ea707ff7d6b29b6bcaf",
    ),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_benchmark_workload_csv_is_pinned(name):
    doc, n_rows, sha256 = WORKLOADS[name]
    rows = run_sweep(parse_config(json.dumps(doc)))
    assert len(rows) == n_rows
    assert hashlib.sha256(emit_csv(rows).encode()).hexdigest() == sha256
