"""The theorem harness: quantitative checks over canonical cases and corpora.

Every check emits (claim id, computed values, bracket, verdict): verdicts
are "pass", "fail" or "inconclusive", the last reserved for Monte Carlo
signals below their own noise and for checks on filled regions whose area
bracket missed its tolerance.  Universal constants are represented by the
pilot-run fixtures; a default run over the shipped corpora must produce
zero failures.

Each claim computes the certified bracket of |N| and the Monte Carlo
estimate of each obstacle once and passes them to every row that reads
them: the hcap or dcap ratio, the scale consistency of the ratio, the
Figure-1 comparators and the two unions of each induction step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import fixtures
from .capacity import (
    CanonicalHull,
    crad_exact_at_i,
    crad_exact_at_iy,
    crad_halfplane,
    dcap_layer_sum,
    dcap_mc,
    dcap_transport,
    hcap_exact,
    hcap_mc,
    ring,
)
from .corpus import generate_element, mixed_disk_corpus, mixed_halfplane_corpus
from .dyadic import (
    DyadicSquare,
    dyadic_cover,
    lipschitz_majorant_area,
    whitney_cover_area,
)
from .geom import ArcBox, DiskCompact, HalfPlaneHull
from .hyperbolic import RectSet, filled_region, neighborhood_area
from .quadtree import AreaBounds

# the corollary and remark rows sit at y = f max(sup|A|, 1) for f in Y_FACTORS,
# and their limit rows at the last y pass within DELTA_COROLLARY of 2
Y_FACTORS = (8.0, 16.0, 32.0)
DELTA_COROLLARY = 0.1
# sizes of the canonical hulls in the hcap-crad rows, largest first
HCAP_CRAD_EPS = (0.3, 0.1, 0.03)


@dataclass(frozen=True)
class VerifyConfig:
    """Reproducibility surface of one verification run."""

    seed: int = 7
    n_walks: int = 200_000
    tol_area: float = 1e-3  # relative, converted per instance
    corpus_size: int = 30
    hp_corpus_size: int = 20
    omega_corpus_size: int = 10
    threads: int = 1


@dataclass
class CheckResult:
    claim: str
    name: str
    values: dict
    bracket: tuple | None
    verdict: str
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def _in_bracket(x: float, bracket: tuple) -> bool:
    return bracket[0] <= x <= bracket[1]


def _ratio_row(claim: str, name: str, values: dict, bracket: tuple) -> CheckResult:
    """A row that passes iff values["ratio"] lies in bracket."""
    return CheckResult(claim, name, values, bracket, _verdict(_in_bracket(values["ratio"], bracket)))


def _spread_rows(claim: str, ratios: list[float], limit: float) -> list[CheckResult]:
    """The row max(ratios)/min(ratios) <= limit, or no row when there are no ratios."""
    if not ratios:
        return []
    spread = max(ratios) / min(ratios)
    return [CheckResult(claim, "spread", {"max_over_min": spread}, (1.0, limit), _verdict(spread <= limit))]


def _limit_verdict(value: float, sigma: float, delta: float) -> tuple[str, str]:
    """(verdict, note) for value against the limit 2 +- delta.

    When 3 sigma reaches delta the noise can carry a correct value outside
    the bracket, so a miss is "inconclusive" rather than "fail".
    """
    ok = abs(value - 2.0) <= delta
    if 3.0 * sigma < delta:
        return _verdict(ok), ""
    return ("pass" if ok else "inconclusive"), "MC noise (3 sigma) reaches the tolerance"


# ---------------------------------------------------------------------------
# Theorem 1 and Theorem 2 comparability
# ---------------------------------------------------------------------------


def _hull_ratio(A: HalfPlaneHull, area: AreaBounds, cfg: VerifyConfig, seed: int):
    est = hcap_mc(A, cfg.n_walks, seed, cfg.threads)
    ratio = est.mean / area.midpoint
    rel = math.hypot(
        est.std_error / max(est.mean, 1e-12),
        area.gap / max(area.midpoint, 1e-12),
    )
    return ratio, ratio * rel, est


def thm1_report(corpus: list[HalfPlaneHull], cfg: VerifyConfig) -> list[CheckResult]:
    """hcap/|N| ratios, their spread, scale consistency and the Figure-1 comparators."""
    areas = [neighborhood_area(A, 1.0, cfg.tol_area, relative=True) for A in corpus]
    out = []
    ratios = []
    scale_rows = []
    for i, (A, area) in enumerate(zip(corpus, areas)):
        if A.is_empty:
            continue
        ratio, sigma, est = _hull_ratio(A, area, cfg, cfg.seed + 1000 + i)
        ratios.append(ratio)
        values = {"hcap": est.mean, "area_n": area.midpoint, "ratio": ratio, "sigma": sigma}
        out.append(_ratio_row("t1", f"ratio[{i}]", values, fixtures.THM1_RATIO))
        if i < 3:
            # scale consistency: the ratio is invariant under doubling the
            # hull.  N(2A) = 2N(A), so 4 times the bracket of |N(A)| certifies
            # |N(2A)| and the row tests the walks of 2A
            area2 = replace(area, lower=4.0 * area.lower, upper=4.0 * area.upper)
            r2, s2, _ = _hull_ratio(A.scale(2.0), area2, cfg, cfg.seed + 3000 + i)
            tol = 3.0 * math.hypot(sigma, s2)
            values = {"ratio_A": ratio, "ratio_2A": r2, "tol": tol}
            verdict = _verdict(abs(ratio - r2) <= tol)
            scale_rows.append(CheckResult("t1", f"scale-consistency[{i}]", values, None, verdict))
    out += _spread_rows("t1", ratios, fixtures.THM1_SPREAD)
    out += scale_rows
    # Figure-1 comparators: Whitney and Lipschitz areas against |N|
    for i, (A, area) in enumerate(zip(corpus[:5], areas)):
        if A.is_empty:
            continue
        area_n = area.midpoint
        w = whitney_cover_area(A).midpoint
        lip = lipschitz_majorant_area(A)
        values = {"whitney": w, "area_n": area_n, "ratio": w / area_n}
        out.append(_ratio_row("t1", f"whitney-over-n[{i}]", values, fixtures.WHITNEY_OVER_N))
        values = {"lipschitz": lip, "area_n": area_n, "ratio": lip / area_n}
        out.append(_ratio_row("t1", f"lipschitz-over-n[{i}]", values, fixtures.LIPSCHITZ_OVER_N))
    return out


def thm2_report(corpus: list[DiskCompact], cfg: VerifyConfig) -> list[CheckResult]:
    """dcap/|N| ratios, their spread and the Figure-1 comparator Q(B)."""
    areas = [neighborhood_area(B, 1.0, cfg.tol_area, relative=True) for B in corpus]
    out = []
    ratios = []
    for i, (B, area) in enumerate(zip(corpus, areas)):
        if B.is_empty:
            continue
        est = dcap_mc(B, cfg.n_walks, cfg.seed + 4000 + i, cfg.threads)
        ratio = est.mean / area.midpoint
        ratios.append(ratio)
        values = {"dcap": est.mean, "area_n": area.midpoint, "ratio": ratio}
        out.append(_ratio_row("t2", f"ratio[{i}]", values, fixtures.THM2_RATIO))
    out += _spread_rows("t2", ratios, fixtures.THM2_SPREAD)
    for i, (B, area) in enumerate(zip(corpus[:5], areas)):
        if B.is_empty:
            continue
        area_n = area.midpoint
        _, qb = dyadic_cover(B)
        values = {"area_qb": qb.midpoint, "area_n": area_n, "ratio": qb.midpoint / area_n}
        out.append(_ratio_row("t2", f"qb-over-n[{i}]", values, fixtures.QB_OVER_NB))
    return out


# ---------------------------------------------------------------------------
# Proposition 1 chain and the induction step
# ---------------------------------------------------------------------------


def _union_dcap(squares: list[DyadicSquare], cfg: VerifyConfig, seed: int) -> tuple[float, float]:
    """(dcap, standard error) of the union of disjoint dyadic squares; the empty union has dcap 0."""
    if not squares:
        return 0.0, 0.0
    est = dcap_mc(DiskCompact([q.as_arcbox() for q in squares], validate=False), cfg.n_walks, seed, cfg.threads)
    return est.mean, est.std_error


def prop1_check(B: DiskCompact, cfg: VerifyConfig, tag: str = "") -> list[CheckResult]:
    area_b = sum(getattr(s, "area", 0.0) for s in B.shapes)
    if area_b <= 0.0:
        raise ValueError("prop1_check needs a compact of positive area (ArcBox parts)")
    est_b = dcap_mc(B, cfg.n_walks, cfg.seed + 5001, cfg.threads)
    squares, area_qb = dyadic_cover(B)
    dcap_qb, se_qb = _union_dcap(squares, cfg, cfg.seed + 5002)
    sigma = math.hypot(est_b.std_error, se_qb)
    c1 = est_b.mean / area_b
    c2 = dcap_qb / area_qb.midpoint
    return [
        CheckResult(
            "prop1",
            f"chain{tag}",
            {"dcap_b": est_b.mean, "dcap_qb": dcap_qb, "sigma": sigma},
            None,
            _verdict(est_b.mean <= dcap_qb + 3 * sigma),
            "Schwarz monotonicity dcap(B) <= dcap(Q(B))",
        ),
        CheckResult(
            "prop1",
            f"c1{tag}",
            {"dcap_b": est_b.mean, "area_b": area_b, "c1": c1},
            fixtures.PROP1_C1,
            _verdict(_in_bracket(c1, fixtures.PROP1_C1)),
        ),
        CheckResult(
            "prop1",
            f"c2{tag}",
            {"dcap_qb": dcap_qb, "area_qb": area_qb.midpoint, "c2": c2},
            fixtures.PROP1_C2,
            _verdict(_in_bracket(c2, fixtures.PROP1_C2)),
        ),
    ]


def prop1_induction_check(
    squares: list[DyadicSquare], cfg: VerifyConfig, tag: str = ""
) -> list[CheckResult]:
    if not (1 <= len(squares) <= 8):
        raise ValueError("need between 1 and 8 squares")
    if any(p.lies_in(q) or q.lies_in(p) for i, p in enumerate(squares) for q in squares[i + 1 :]):
        raise ValueError("squares must be pairwise disjoint")
    ordered = sorted(squares, key=lambda q: -q.area)
    # the union ordered[m:] for m = 0 .. len: step m reads unions m and m + 1
    unions = [_union_dcap(ordered[m:], cfg, cfg.seed + 6000 + 2 * m) for m in range(len(ordered) + 1)]
    out = []
    for m in range(len(ordered)):
        (d_full, s_full), (d_tail, s_tail) = unions[m], unions[m + 1]
        diff = d_full - d_tail
        sigma = math.hypot(s_full, s_tail)
        area = ordered[m].area
        values = {"m": m + 1, "difference": diff, "sigma": sigma, "square_area": area}
        if diff < 5 * sigma:
            out.append(
                CheckResult(
                    "prop1-induction",
                    f"step{tag}[{m + 1}]",
                    values,
                    fixtures.INDUCTION_RATIO,
                    "inconclusive",
                    "difference below 5 sigma",
                )
            )
            continue
        values["ratio"] = diff / area
        out.append(_ratio_row("prop1-induction", f"step{tag}[{m + 1}]", values, fixtures.INDUCTION_RATIO))
    return out


# ---------------------------------------------------------------------------
# fattening and smoothed layer measures
# ---------------------------------------------------------------------------


def _filled_verdict(ok: bool, regions: list, note: str) -> tuple[str, str, float]:
    """(verdict, note, area_gap) for a check that consumes filled regions.

    A region whose area bracket missed its tolerance (filled_region refines
    once and reports the miss) cannot decide the check: the row is
    "inconclusive" and area_gap is the widest gap among the regions.
    """
    area_gap = max(r.bounds.gap for r in regions)
    if all(r.bounds.tolerance_met for r in regions):
        return _verdict(ok), note, area_gap
    return "inconclusive", f"filled-area tolerance not met (gap {area_gap:.3g})", area_gap


def fattening_check(B: DiskCompact, cfg: VerifyConfig, tag: str = "", iterated: bool = False) -> list[CheckResult]:
    if B.is_empty:
        raise ValueError("fattening_check needs a nonempty compact")
    est_b = dcap_mc(B, cfg.n_walks, cfg.seed + 7001, cfg.threads)
    region = filled_region(B, 1.0, 2e-3)
    est_hat = dcap_mc(RectSet(*region.blocked_rects()), cfg.n_walks, cfg.seed + 7002, cfg.threads)
    sigma = math.hypot(est_b.std_error, est_hat.std_error)
    ratio = est_hat.mean / est_b.mean
    ratio_verdict, ratio_note, area_gap = _filled_verdict(ratio <= fixtures.FATTEN_C, [region], "")
    schwarz_verdict, schwarz_note, _ = _filled_verdict(
        est_b.mean <= est_hat.mean + 3 * sigma, [region], "reverse inequality dcap(B) <= dcap(filled(B))"
    )
    out = [
        CheckResult(
            "fattening",
            f"ratio{tag}",
            {"dcap_hat": est_hat.mean, "dcap_b": est_b.mean, "ratio": ratio, "area_gap": area_gap},
            (0.0, fixtures.FATTEN_C),
            ratio_verdict,
            ratio_note,
        ),
        CheckResult(
            "fattening",
            f"schwarz{tag}",
            {"dcap_b": est_b.mean, "dcap_hat": est_hat.mean, "sigma": sigma, "area_gap": area_gap},
            None,
            schwarz_verdict,
            schwarz_note,
        ),
    ]
    if iterated:
        obstacle = B
        regions = [region]
        for k in range(1, 5):
            regions.append(filled_region(obstacle, 0.25, 4e-3))
            rects = regions[-1].blocked_rects()
            if rects[0].size == 0:
                break
            obstacle = RectSet(*rects)
        if rects[0].size == 0:
            # no cell was certified free and connected to 0: nothing to walk against
            iter_gap = max(r.bounds.gap for r in regions)
            values = {"dcap_hat": est_hat.mean, "area_gap": iter_gap}
            verdict = "inconclusive"
            note = f"quarter-radius fattening {k} has no passable cell (area gap {iter_gap:.3g})"
        else:
            est_iter = dcap_mc(obstacle, cfg.n_walks, cfg.seed + 7003, cfg.threads)
            ratio_iter = est_iter.mean / est_hat.mean
            verdict, note, iter_gap = _filled_verdict(
                _in_bracket(ratio_iter, fixtures.FATTEN_ITER),
                regions,
                "four quarter-radius fattenings vs one radius-1 fattening",
            )
            values = {"dcap_iter": est_iter.mean, "dcap_hat": est_hat.mean, "ratio": ratio_iter, "area_gap": iter_gap}
        out.append(CheckResult("fattening", f"iterated{tag}", values, fixtures.FATTEN_ITER, verdict, note))
    return out


def smoothed_omega_check(B: DiskCompact, cfg: VerifyConfig, tag: str = "") -> list[CheckResult]:
    if B.is_empty:
        raise ValueError("smoothed_omega_check needs a nonempty compact")
    eps = 0.125  # keeps radius-2*eps balls within adjacent layers
    ls = dcap_layer_sum(B, cfg.n_walks, cfg.seed + 8001, cfg.threads)
    region = filled_region(B, eps, 2e-3)
    omega_hat = dcap_layer_sum(
        RectSet(*region.blocked_rects()), cfg.n_walks, cfg.seed + 8002, cfg.threads
    ).omega
    out = []
    n_tot = cfg.n_walks
    for n, w_hat in sorted(omega_hat.items()):
        if n == 0:
            continue
        sigma = math.sqrt(max(w_hat * (1 - w_hat), 1e-12) / n_tot)
        if w_hat < 10 * sigma:
            continue
        smooth = ls.omega.get(n - 1, 0.0) + ls.omega.get(n, 0.0) + ls.omega.get(n + 1, 0.0)
        verdict, note, area_gap = _filled_verdict(
            w_hat <= fixtures.OMEGA_C * smooth,
            [region],
            "smoothed vs adjacent plain layers; one-layer bound not asserted",
        )
        out.append(
            CheckResult(
                "omega",
                f"layer{tag}[{n}]",
                {"n": n, "omega_hat": w_hat, "three_layer_sum": smooth, "area_gap": area_gap},
                (0.0, fixtures.OMEGA_C),
                verdict,
                note,
            )
        )
    if not out:
        out.append(
            CheckResult(
                "omega",
                f"layer{tag}[none]",
                {"populated_layers": 0},
                None,
                "inconclusive",
                "no layer carried at least 10 sigma of mass",
            )
        )
    return out


# ---------------------------------------------------------------------------
# hcap vs crad residuals, corollary and remark expansions
# ---------------------------------------------------------------------------


def hcap_crad_residual(kind: str, cfg: VerifyConfig) -> list[CheckResult]:
    """Exact and Monte Carlo |(2 - crad(i)) / hcap - 4| for CanonicalHull(kind, eps), eps in HCAP_CRAD_EPS."""
    out = []
    prev_ratio = None
    for eps in HCAP_CRAD_EPS:
        C = CanonicalHull(kind, eps)
        crad_x = crad_exact_at_i(kind, eps)
        h = hcap_exact(C)
        residual_x = abs((2.0 - crad_x) / h - 4.0)
        bound = fixtures.HCAP_CRAD_C * eps
        ok = residual_x <= bound
        # absolute slack: identically-zero residuals carry float dust
        trend_ok = prev_ratio is None or residual_x / eps <= prev_ratio + 1e-9
        prev_ratio = residual_x / eps
        out.append(
            CheckResult(
                "hcap-crad",
                f"exact[{kind},{eps}]",
                {"residual": residual_x, "residual_over_eps": residual_x / eps},
                (0.0, bound),
                _verdict(ok and trend_ok),
            )
        )
        # Monte Carlo path through the transport estimator
        crad_mc, est = crad_halfplane(C.hull(), 1.0, cfg.n_walks, cfg.seed + 9000, cfg.threads)
        residual_mc = abs((2.0 - crad_mc) / h - 4.0)
        slope = crad_mc / h
        sigma_res = 3.0 * slope * est.std_error
        values = {
            "residual_mc": residual_mc,
            "residual_exact": residual_x,
            "sigma": sigma_res,
        }
        if residual_x > 0 and sigma_res <= 0.05 * residual_x:
            ok_mc = abs(residual_mc - residual_x) <= 0.05 * residual_x + sigma_res
            out.append(
                CheckResult(
                    "hcap-crad",
                    f"mc[{kind},{eps}]",
                    values,
                    (0.95 * residual_x, 1.05 * residual_x),
                    _verdict(ok_mc),
                )
            )
        else:
            if residual_mc + sigma_res <= bound:
                verdict = "pass"
            elif residual_mc - sigma_res > bound:
                verdict = "fail"
            else:
                verdict = "inconclusive"
            out.append(
                CheckResult(
                    "hcap-crad",
                    f"mc[{kind},{eps}]",
                    values,
                    (0.0, bound),
                    verdict,
                    "MC noise comparable to the residual",
                )
            )
    return out


def _unit_canonical(kind: str) -> tuple[HalfPlaneHull, float, str, tuple]:
    """(hull, hcap, row tag, heights y) for CanonicalHull(kind, 1)."""
    C = CanonicalHull(kind, 1.0)
    A = C.hull()
    return A, hcap_exact(C), f"[{kind}]", tuple(f * max(A.sup_abs, 1.0) for f in Y_FACTORS)


def corollary_limit(kind: str, cfg: VerifyConfig) -> list[CheckResult]:
    """y^2 dcap(T_y(A)) / hcap(A) -> 2 for A = CanonicalHull(kind, 1)."""
    A, hcap_value, tag, ys = _unit_canonical(kind)
    rows = []
    for i, y in enumerate(ys):
        est = dcap_transport(A, y, cfg.n_walks, cfg.seed + 9200 + i, cfg.threads)
        ratio = y * y * est.mean / hcap_value
        sigma = y * y * est.std_error / hcap_value
        rows.append((y, ratio, sigma))
    out = []
    y_f, r_f, s_f = rows[-1]
    out.append(
        CheckResult(
            "corollary",
            f"limit{tag}[y={y_f:g}]",
            {"ratio": r_f, "sigma": s_f, "rows": [(y, r) for y, r, _ in rows]},
            (2.0 - DELTA_COROLLARY, 2.0 + DELTA_COROLLARY),
            *_limit_verdict(r_f, s_f, DELTA_COROLLARY),
        )
    )
    for (y0, r0, s0), (y1, r1, s1) in zip(rows[:-1], rows[1:]):
        tol = 3.0 * math.hypot(s0, s1)
        out.append(
            CheckResult(
                "corollary",
                f"monotone{tag}[y={y0:g}->{y1:g}]",
                {"dev_prev": abs(r0 - 2.0), "dev_next": abs(r1 - 2.0), "tol": tol},
                None,
                _verdict(abs(r1 - 2.0) <= abs(r0 - 2.0) + tol),
                "approach to the limit, up to combined Monte Carlo noise",
            )
        )
    return out


def remark_expansion_check(kind: str, cfg: VerifyConfig) -> list[CheckResult]:
    """The remark's expansion at iy for A = CanonicalHull(kind, 1)."""
    A, hcap_value, tag, ys = _unit_canonical(kind)
    out = []
    rows = []
    for i, y in enumerate(ys):
        crad, est = crad_halfplane(A, y, cfg.n_walks, cfg.seed + 9400 + i, cfg.threads)
        value = y * y * (1.0 - crad / (2.0 * y)) / hcap_value
        ratio_cor = y * y * est.mean / hcap_value
        sigma = y * y * est.std_error / hcap_value
        rows.append((y, value, sigma))
        # the remark and corollary paths use the same walks: they may only
        # differ by the deterministic gap between d and 1 - exp(-d)
        out.append(
            CheckResult(
                "remark",
                f"consistency{tag}[y={y:g}]",
                {"value": value, "corollary_ratio": ratio_cor},
                None,
                _verdict(abs(value - ratio_cor) <= 3 * sigma + 0.5 * ratio_cor**2 * hcap_value / (y * y) + 1e-9),
            )
        )
        crad_x = crad_exact_at_iy(kind, 1.0, y)
        value_x = y * y * (1.0 - crad_x / (2.0 * y)) / hcap_value
        expected = 2.0 / (1.0 + 1.0 / (y * y)) if kind == "halfdisk" else 2.0
        out.append(
            CheckResult(
                "remark",
                f"closed-form{tag}[y={y:g}]",
                {"value_exact": value_x, "expected": expected},
                None,
                _verdict(abs(value_x - expected) <= 1e-9),
            )
        )
    y_f, v_f, s_f = rows[-1]
    out.append(
        CheckResult(
            "remark",
            f"limit{tag}[y={y_f:g}]",
            {"value": v_f, "sigma": s_f},
            (2.0 - DELTA_COROLLARY, 2.0 + DELTA_COROLLARY),
            *_limit_verdict(v_f, s_f, DELTA_COROLLARY),
        )
    )
    return out


# ---------------------------------------------------------------------------
# claim orchestration
# ---------------------------------------------------------------------------


def _prop1_claim(cfg: VerifyConfig) -> list[CheckResult]:
    out = prop1_check(DiskCompact([ArcBox(0.0, math.pi / 4, 0.8)]), cfg, "[arcbox]")
    out += prop1_check(ring(0.7), cfg, "[ring]")
    for i in range(2):
        out += prop1_check(generate_element("arcbox-set", cfg.seed, i), cfg, f"[corpus{i}]")
    return out


def _induction_claim(cfg: VerifyConfig) -> list[CheckResult]:
    out = prop1_induction_check([DyadicSquare(2, 1)], cfg, "[single]")
    out += prop1_induction_check([DyadicSquare(2, 1), DyadicSquare(2, 3)], cfg, "[pair]")
    out += prop1_induction_check([DyadicSquare(2, 1), DyadicSquare(3, 3), DyadicSquare(4, 7)], cfg, "[nested]")
    return out


def _fattening_claim(cfg: VerifyConfig) -> list[CheckResult]:
    out = fattening_check(DiskCompact([ArcBox(0.4, 1.2, 0.75)]), cfg, "[arcbox]", iterated=True)
    out += fattening_check(ring(0.7), cfg, "[ring]")
    out += fattening_check(generate_element("radial-slit-set", cfg.seed, 0), cfg, "[corpus0]")
    return out


def _omega_claim(cfg: VerifyConfig) -> list[CheckResult]:
    out = smoothed_omega_check(ring(0.7), cfg, "[ring]")
    for i in range(cfg.omega_corpus_size):
        B = generate_element("radial-slit-set" if i % 2 == 0 else "arcbox-set", cfg.seed, 100 + i)
        out += smoothed_omega_check(B, cfg, f"[corpus{i}]")
    return out


# the one list of claims: each name maps to the function of cfg that checks it
_CLAIM_TABLE = {
    "t1": lambda cfg: thm1_report(mixed_halfplane_corpus(cfg.hp_corpus_size, cfg.seed), cfg),
    "t2": lambda cfg: thm2_report(mixed_disk_corpus(cfg.corpus_size, cfg.seed), cfg),
    "prop1": _prop1_claim,
    "prop1-induction": _induction_claim,
    "fattening": _fattening_claim,
    "omega": _omega_claim,
    "hcap-crad": lambda cfg: hcap_crad_residual("halfdisk", cfg) + hcap_crad_residual("vslit", cfg),
    "corollary": lambda cfg: corollary_limit("halfdisk", cfg),
    "remark": lambda cfg: remark_expansion_check("halfdisk", cfg) + remark_expansion_check("vslit", cfg),
}
CLAIMS = tuple(_CLAIM_TABLE)


def run_claim(claim: str, cfg: VerifyConfig) -> list[CheckResult]:
    if claim not in _CLAIM_TABLE:
        raise ValueError(f"unknown claim {claim!r}; valid: {', '.join(_CLAIM_TABLE)}")
    return _CLAIM_TABLE[claim](cfg)


def run_all(cfg: VerifyConfig) -> list[CheckResult]:
    """Every claim's rows, in CLAIMS order."""
    return [row for run in _CLAIM_TABLE.values() for row in run(cfg)]
