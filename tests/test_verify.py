"""Smoke tier for the claim harness: small walk counts, coarse areas, tiny corpora.

"fattening" and "omega" are left out until their filled regions certify in
bounded memory (ROADMAP item 1); their RectSet distance queries are already
cheap and bounded.  At this config, on a 2-core x86 VM, "fattening" takes
about 226 s: 155 s go to filled_region on the RectSet obstacles of the
iterated arcbox fattenings, and the radial-slit corpus element peaks at
2.5 GB RSS (7.7M leaves, 1.6M frontier cells).  "omega" takes 17 s and
peaks at 1.4 GB RSS in filled_region on the ring at rho = 0.125 (9.3M
leaves).
"""

import pytest

from hypcap import verify
from hypcap.capacity import ring
from hypcap.hyperbolic import filled_region, neighborhood_area
from hypcap.verify import VerifyConfig, _limit_verdict, run_claim

SMOKE = VerifyConfig(n_walks=2000, tol_area=1e-2, corpus_size=3, hp_corpus_size=3, omega_corpus_size=1)


@pytest.mark.parametrize(
    "claim", ["t1", "t2", "prop1", "prop1-induction", "hcap-crad", "corollary", "remark"]
)
def test_claim_smoke(claim):
    out = run_claim(claim, SMOKE)
    assert out
    assert [r.name for r in out if r.failed] == []


def test_claims_compute_each_area_once(monkeypatch):
    # one |N| bracket per corpus element feeds its ratio, scale-consistency
    # and comparator rows; t1 adds the area of 2A for each of 3 scale rows
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return neighborhood_area(*args, **kwargs)

    monkeypatch.setattr(verify, "neighborhood_area", counting)
    run_claim("t1", SMOKE)
    assert len(calls) == 6
    calls.clear()
    run_claim("t2", SMOKE)
    assert len(calls) == 3


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


def test_iterated_fattening_without_passable_cell_is_inconclusive(monkeypatch):
    # at depth 5 the fourth quarter-radius fattening of the ring certifies no
    # cell free and connected to 0, so there is no frontier to walk against
    monkeypatch.setattr(verify, "filled_region", lambda B, rho, tol: filled_region(B, rho, tol, max_depth=5))
    rows = verify.fattening_check(ring(0.7), VerifyConfig(n_walks=128), iterated=True)
    assert [r.name for r in rows] == ["ratio", "schwarz", "iterated"]
    it = rows[-1]
    assert it.verdict == "inconclusive"
    assert "fattening 4 has no passable cell" in it.note
    assert it.values["area_gap"] > 4e-3
