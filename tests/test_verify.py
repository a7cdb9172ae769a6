"""Smoke tier for the claim harness: small walk counts, coarse areas, tiny corpora.

"fattening" and "omega" are left out: their RectSet distance queries
exhaust memory (ROADMAP item 4).
"""

import pytest

from hypcap import verify
from hypcap.capacity import ring
from hypcap.hyperbolic import filled_region
from hypcap.verify import VerifyConfig, _limit_verdict, run_claim

SMOKE = VerifyConfig(n_walks=2000, tol_area=1e-2, corpus_size=3, hp_corpus_size=3, omega_corpus_size=1)


@pytest.mark.parametrize(
    "claim", ["t1", "t2", "prop1", "prop1-induction", "hcap-crad", "corollary", "remark"]
)
def test_claim_smoke(claim):
    out = run_claim(claim, SMOKE)
    assert out
    assert [r.name for r in out if r.failed] == []


def test_limit_verdict_accounts_for_noise():
    assert _limit_verdict(2.05, 0.01, 0.1)[0] == "pass"
    assert _limit_verdict(1.8, 0.01, 0.1)[0] == "fail"
    # 3 sigma >= delta: a miss cannot be told from noise
    assert _limit_verdict(1.8, 0.2, 0.1)[0] == "inconclusive"
    assert _limit_verdict(2.05, 0.2, 0.1)[0] == "pass"


def test_unmet_area_tolerance_is_inconclusive(monkeypatch):
    # a depth-6 quadtree cannot reach the 2e-3 area tolerance: every row that
    # consumes a filled region must say so instead of passing or failing
    monkeypatch.setattr(verify, "filled_region", lambda B, rho, tol: filled_region(B, rho, tol, max_depth=6))
    cfg = VerifyConfig(n_walks=128)
    rows = verify.fattening_check(ring(0.7), cfg, iterated=True) + verify.smoothed_omega_check(ring(0.7), cfg)
    assert [r.name for r in rows][:3] == ["ratio", "schwarz", "iterated"]
    assert len(rows) > 3
    for r in rows:
        assert r.verdict == "inconclusive"
        assert "tolerance not met" in r.note
        assert r.values["area_gap"] > 2e-3
