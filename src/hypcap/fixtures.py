"""Empirical constants pinned by a committed pilot run.

The comparability theorems assert existence of universal constants without
giving values, so the harness checks against brackets measured once on the
default seeded corpora (seed 7) and widened by a 1.5x margin on each
side.  The script that produced them is not in the repository; tooling that
reproduces each bracket from the repository is pending (ROADMAP item 8,
`make-fixtures`).
"""

# hcap(A) / |N(A)| over the mixed half-plane corpus
THM1_RATIO = (0.05, 2.0)
# largest allowed max/min ratio spread across one corpus run
THM1_SPREAD = 10.0

# dcap(B) / |N(B)| over the mixed disk corpus
THM2_RATIO = (0.05, 2.0)
THM2_SPREAD = 10.0

# dcap(B) / |B| and dcap(Q(B)) / |Q(B)| for positive-area compacts
PROP1_C1 = (0.05, 20.0)
PROP1_C2 = (0.05, 20.0)

# (dcap of union minus dcap of tail) / |Q_m| in the induction step
INDUCTION_RATIO = (0.05, 20.0)

# dcap(filled 1-neighborhood) / dcap(B)
FATTEN_C = 40.0
# iterated quarter-radius fattening vs the single radius-1 fattening
FATTEN_ITER = (0.2, 5.0)

# smoothed layer measure vs sum of three adjacent plain layer measures
OMEGA_C = 4.0

# |(2 - crad)/hcap - 4| <= C eps for canonical families
HCAP_CRAD_C = 3.0

# geometric comparator ratios over the corpora
QB_OVER_NB = (0.2, 5.0)
WHITNEY_OVER_N = (0.1, 10.0)
LIPSCHITZ_OVER_N = (0.1, 10.0)
