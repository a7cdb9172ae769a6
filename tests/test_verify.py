"""Smoke tier for the claim harness: small walk counts, coarse areas, tiny corpora.

"fattening" and "omega" are left out: their RectSet distance queries
exhaust memory (ROADMAP item 4).
"""

import pytest

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
