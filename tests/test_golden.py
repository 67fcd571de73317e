"""Golden pins: exact trial outcomes and plan supports for fixed seeds.

Any change to how channels are sampled, rounds are built or measurements
are decoded that alters a single draw or tie-break shows up here.
"""

import hashlib

import pytest

from irsbeam.arrays import ArrayConfig
from irsbeam.codebook import CONSTANT_MODULUS, build_scan_plan, plan_from_json, plan_to_json
from irsbeam.harness import ExperimentConfig, run_trial

ACCEPTANCE = ArrayConfig(n_t=128, m_y=16, m_z=16, r=8)
SEED = 2024
ALL_ROUNDS = (0, 1, 2, 3, 4, 5, 6)

# (scenario, snr_db) -> per trial t = 0..7:
# (i_star, j_star, success, candidate_count, nm_rounds)
TRIALS = {
    ("los", -20.0): [
        (159, 24, True, 24276, None), (219, 51, True, 23683, None),
        (0, 112, True, 26491, None), (147, 24, True, 29001, None),
        (148, 73, True, 28755, None), (57, 69, True, 23394, None),
        (93, 95, True, 26797, None), (208, 53, True, 26701, None),
    ],
    ("los", None): [
        (159, 24, True, 32768, None), (219, 51, True, 32768, None),
        (0, 112, True, 32768, None), (147, 24, True, 32768, None),
        (148, 73, True, 32768, None), (57, 69, True, 32768, None),
        (93, 95, True, 32768, None), (208, 53, True, 32768, None),
    ],
    ("nlos", -20.0): [
        (6, 14, False, 7552, (5,)), (20, 2, False, 6656, (3,)),
        (0, 15, False, 8832, (4,)), (0, 1, False, 11264, (6,)),
        (11, 11, False, 9984, (5,)), (15, 54, False, 6144, (1,)),
        (32, 6, False, 7808, (3,)), (23, 1, False, 8576, (0,)),
    ],
    ("nlos", None): [
        (159, 24, True, 32768, ALL_ROUNDS), (219, 51, True, 32768, ALL_ROUNDS),
        (0, 112, True, 32768, ALL_ROUNDS), (65, 24, True, 32768, ALL_ROUNDS),
        (20, 73, True, 32768, ALL_ROUNDS), (57, 69, True, 32768, ALL_ROUNDS),
        (93, 95, True, 32768, ALL_ROUNDS), (208, 53, True, 32768, ALL_ROUNDS),
    ],
}


@pytest.mark.parametrize("scenario,snr_db", list(TRIALS))
def test_trial_outcomes_pinned(scenario, snr_db):
    cfg = ExperimentConfig(
        array=ACCEPTANCE, q=16, l=7, scenario=scenario, snr_db=snr_db,
        trials=8, seed=SEED, compute_bgr=False,
    )
    got = []
    for t in range(8):
        rec = run_trial(cfg, t)
        e = rec.estimate
        got.append((e.i_star, e.j_star, rec.success, e.candidate_count, e.nm_rounds))
    assert got == TRIALS[scenario, snr_db]


# A constant-modulus plan whose effective supports overlap, so some rows
# are claimed twice or not at all and go to their strongest bin.
CM_C_SUPPORTS = [
    [[0, 2, 4, 8, 9, 10, 11, 13], [0, 1, 2, 3, 5, 9, 11, 12]],
    [[1, 2, 6, 7, 9, 11, 12, 14], [0, 3, 4, 5, 8, 10, 13, 15]],
]
CM_ROW_BIN = [
    [1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0],
    [1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1],
]


def test_constant_modulus_supports_pinned():
    plan = build_scan_plan(
        ArrayConfig(n_t=8, m_y=4, m_z=4, r=2), 8, 2, CONSTANT_MODULUS, rng=6
    )
    for p in (plan, plan_from_json(plan_to_json(plan))):
        assert [[s.tolist() for s in r.c_supports] for r in p.rounds] == CM_C_SUPPORTS
        assert [r.row_bin.tolist() for r in p.rounds] == CM_ROW_BIN


# sha256 of plan_to_json for one small ideal-sparse plan: pins the draw
# order (round by round, the rows' permutation, then the columns') and
# every set's sort, not only through the trial outcomes above
IDEAL_SPARSE_PLAN_SHA256 = "40c86169a43b8f21a1a959b79813976a270a4212315711ded9972075c19af803"


def test_ideal_sparse_plan_json_pinned():
    text = plan_to_json(build_scan_plan(ArrayConfig(n_t=16, m_y=4, m_z=4, r=4), 4, 3, rng=2024))
    assert hashlib.sha256(text.encode()).hexdigest() == IDEAL_SPARSE_PLAN_SHA256
