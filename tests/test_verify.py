"""Smoke tier for the claim harness: small walk counts, coarse areas, tiny corpora.

"fattening" and "omega" each run in a child process under a 1 GB max-RSS
gate.  At this config, on a 2-core x86 VM with 7.8 GB, one run each,
"fattening" takes 3.7 s at 192 MB max RSS (4 pass, 3 inconclusive) and
"omega" 1.1 s at 156 MB (4 pass).
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import hypcap
from hypcap import quadtree, verify
from hypcap.capacity import crad_halfplane, ring
from hypcap.corpus import mixed_halfplane_corpus
from hypcap.dyadic import DyadicSquare
from hypcap.geom import DiskCompact, HalfPlaneHull, RadialSlit, VSlit
from hypcap.hyperbolic import neighborhood_area
from hypcap.verify import CLAIMS, VerifyConfig, _limit_verdict, run_all, run_claim

SMOKE = VerifyConfig(n_walks=2000, tol_area=1e-2, corpus_size=3, hp_corpus_size=3, omega_corpus_size=1)
# hcap-crad's mc rows are judged against brackets down to 0.09 up to 3 sigma;
# at 2000 walks sigma is too wide for that, at 100,000 (about 1 s) it is not
HCAP_CRAD_SMOKE = dataclasses.replace(SMOKE, n_walks=100_000)
# claims run through dcap_transport, whose half-circle starts leave no row
# inconclusive
TRANSPORT_CLAIMS = ("hcap-crad", "corollary", "remark")


@pytest.mark.parametrize(
    "claim", ["t1", "t2", "prop1", "prop1-induction", "hcap-crad", "corollary", "remark"]
)
def test_claim_smoke(claim):
    out = run_claim(claim, HCAP_CRAD_SMOKE if claim == "hcap-crad" else SMOKE)
    assert out
    assert [r.name for r in out if r.failed] == []
    if claim in TRANSPORT_CLAIMS:
        assert [r.name for r in out if r.verdict == "inconclusive"] == []


# run in a fresh interpreter so that ru_maxrss is this claim's peak alone
_CLAIM_CHILD = """
import json, resource
from hypcap.verify import VerifyConfig, run_claim
claim, cfg = json.loads(input())
rows = {r.name: r.verdict for r in run_claim(claim, VerifyConfig(**cfg))}
print(json.dumps({"rows": rows, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _smoke_in_child(claim):
    """(rows by name, max RSS in KB) of the claim at SMOKE in a child process."""
    src = os.path.dirname(os.path.dirname(hypcap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _CLAIM_CHILD],
        input=json.dumps([claim, dataclasses.asdict(SMOKE)]),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    out = json.loads(child.stdout.splitlines()[-1])
    return out["rows"], out["maxrss_kb"]


def test_fattening_smoke_in_bounded_memory():
    rows, maxrss_kb = _smoke_in_child("fattening")
    assert [name for name, v in rows.items() if v == "fail"] == []
    for tag in ("[arcbox]", "[ring]"):
        assert rows[f"ratio{tag}"] == rows[f"schwarz{tag}"] == "pass"
    # ru_maxrss is in KB on Linux
    assert maxrss_kb < 1 << 20


def test_omega_smoke_in_bounded_memory():
    rows, maxrss_kb = _smoke_in_child("omega")
    assert rows
    assert [name for name, v in rows.items() if v != "pass"] == []
    assert maxrss_kb < 1 << 20


def test_theorem_reports_skip_empty_elements():
    cfg = dataclasses.replace(SMOKE, n_walks=400)
    rows = verify.thm1_report([HalfPlaneHull([]), HalfPlaneHull([VSlit(0, 1)])], cfg)
    names = [r.name for r in rows]
    assert not any("[0]" in n for n in names)
    assert {"ratio[1]", "whitney-over-n[1]", "lipschitz-over-n[1]"} <= set(names)
    rows = verify.thm2_report([DiskCompact([]), DiskCompact([RadialSlit(0.5, 0.7)])], cfg)
    names = [r.name for r in rows]
    assert not any("[0]" in n for n in names)
    assert {"ratio[1]", "qb-over-n[1]"} <= set(names)


def test_hcap_crad_mc_rows_fail_on_a_wrong_crad(monkeypatch):
    # crad 1% low moves every residual by about 0.02 / hcap, well past the
    # brackets HCAP_CRAD_C * eps for eps <= 0.1
    def scaled(*args):
        crad, est = crad_halfplane(*args)
        return 0.99 * crad, est

    monkeypatch.setattr(verify, "crad_halfplane", scaled)
    rows = {r.name: r.verdict for r in run_claim("hcap-crad", HCAP_CRAD_SMOKE)}
    for kind in ("halfdisk", "vslit"):
        for eps in (0.1, 0.03):
            assert rows[f"mc[{kind},{eps}]"] == "fail"


def test_induction_rejects_overlapping_squares():
    cfg = VerifyConfig(n_walks=64)
    for squares in ([DyadicSquare(2, 1), DyadicSquare(3, 1)], [DyadicSquare(2, 1), DyadicSquare(2, 1)]):
        with pytest.raises(ValueError, match="disjoint"):
            verify.prop1_induction_check(squares, cfg)
    # adjacent squares share only a boundary
    assert len(verify.prop1_induction_check([DyadicSquare(2, 1), DyadicSquare(2, 2)], cfg)) == 2


def test_unknown_claim_lists_exactly_the_claims():
    with pytest.raises(ValueError) as err:
        run_claim("all", SMOKE)
    assert str(err.value).split("valid: ")[1].split(", ") == list(CLAIMS)


def test_run_all_follows_claims_order(monkeypatch):
    for claim in CLAIMS:
        monkeypatch.setitem(verify._CLAIM_TABLE, claim, lambda cfg, claim=claim: [claim])
    assert run_all(SMOKE) == list(CLAIMS)


def test_claims_compute_each_area_once(monkeypatch):
    # one |N| bracket per corpus element feeds its ratio, scale-consistency
    # and comparator rows; the scale rows take 4 times it for the area of 2A
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return neighborhood_area(*args, **kwargs)

    monkeypatch.setattr(verify, "neighborhood_area", counting)
    run_claim("t1", SMOKE)
    assert len(calls) == 3
    calls.clear()
    run_claim("t2", SMOKE)
    assert len(calls) == 3


@pytest.mark.parametrize("tol", [SMOKE.tol_area, VerifyConfig().tol_area])
def test_doubled_hull_area_is_four_times_the_area(tol):
    # N(2A) = 2N(A), and the refinement of 2A is that of A at twice the scale,
    # so t1's scale rows take 4 times the bracket of |N(A)| for |N(2A)|
    for A in mixed_halfplane_corpus(3, SMOKE.seed):
        area = neighborhood_area(A, 1.0, tol, relative=True)
        area2 = neighborhood_area(A.scale(2.0), 1.0, tol, relative=True)
        assert (area2.lower, area2.upper) == (4.0 * area.lower, 4.0 * area.upper)


def test_claims_walk_each_obstacle_once(monkeypatch):
    # t1: one hcap_mc per hull for its ratio row, which the scale-consistency
    # row reuses, plus one per doubled hull; prop1-induction: one dcap_mc per
    # nonempty union ordered[m:], each step reading its own and the next one
    counts = {"hcap_mc": 0, "dcap_mc": 0}

    def counting(name):
        original = getattr(verify, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(verify, name, counting(name))
    run_claim("t1", SMOKE)
    assert counts == {"hcap_mc": 6, "dcap_mc": 0}
    counts["hcap_mc"] = 0
    run_claim("prop1-induction", SMOKE)
    assert counts == {"hcap_mc": 0, "dcap_mc": 6}


def test_limit_verdict_accounts_for_noise():
    assert _limit_verdict(2.05, 0.01, 0.1)[0] == "pass"
    assert _limit_verdict(1.8, 0.01, 0.1)[0] == "fail"
    # 3 sigma >= delta: a miss cannot be told from noise
    assert _limit_verdict(1.8, 0.2, 0.1)[0] == "inconclusive"
    assert _limit_verdict(2.05, 0.2, 0.1)[0] == "pass"


def test_unmet_area_tolerance_is_inconclusive(monkeypatch):
    # a depth-6 quadtree cannot reach the 2e-3 area tolerance: every row that
    # consumes a filled region must say so instead of passing or failing
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 6)
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
    monkeypatch.setattr(quadtree, "MAX_DEPTH", 5)
    rows = verify.fattening_check(ring(0.7), VerifyConfig(n_walks=128), iterated=True)
    assert [r.name for r in rows] == ["ratio", "schwarz", "iterated"]
    it = rows[-1]
    assert it.verdict == "inconclusive"
    assert "fattening 4 has no passable cell" in it.note
    assert it.values["area_gap"] > 4e-3
