"""Acceptance checklist: one test (or parametrized family) per criterion,
each enforcing its stated tolerance and time budget and printing a
PASS/FAIL line.

The exact criteria call the check functions that `covmoments verify` runs
(`covmoments.cli.check_*`, each returning (ok, detail)), so every claim is
checked by one piece of code.  `verify` runs them at ranges capped by
`--max-k`; these tests run them at their own ranges, at least as wide:

  1  reference partitions              7  hypergraph round trips, k <= 4
  2  NC2 = Catalan, k <= 5             8  class totals, k <= 4
  3  Narayana census, k <= 6           9  quadrature, k <= 3 on grid 64
  4  census, lengths <= 6, p, n <= 4  11  factorial bound, t <= 4 on grid 32
  5  MP reduction, k <= 6, 4 ratios   12  Wigner containment, lengths <= 6
  6  sandwich, k <= 4                 13  simulation contracts

Criteria 5 and 6 add Monte Carlo halves and criterion 10 the figure
histograms; `verify` runs none of these.

Check 6 asserts strict sandwich bracketing for k = 1..4.  At k = 1 the
non-crossing-even, special symmetric and even partition classes all collapse
to the single one-block partition, so the first moment EQUALS the upper bound
when y <= 1 and the lower bound when y > 1; strictness is mathematically
impossible there and that slice is declared a strict expected failure rather
than silently loosened.  Strictness holds (and is asserted) for k >= 2.
"""

import time
from fractions import Fraction as F

import pytest

from covmoments import cli, moments, partitions
from covmoments.ensembles import DEFAULT_SEED, EnsembleConfig, run_experiment


def _report(num: int, label: str, start: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def _passes(check, *ranges) -> str:
    ok, detail = check(*ranges)
    assert ok, detail
    return detail


def test_criterion_1_classification_fidelity():
    start = time.perf_counter()
    _report(1, "reference classification", start, 1.0, _passes(cli.check_ss_examples))


def test_criterion_2_nc2_identity():
    start = time.perf_counter()
    assert [partitions.catalan(k) for k in range(1, 6)] == [1, 2, 5, 14, 42]
    _report(2, "pair class = non-crossing pairs", start, 30.0, _passes(cli.check_nc2, range(1, 6)))


def test_criterion_3_narayana_counts():
    start = time.perf_counter()
    _report(3, "Narayana census", start, 60.0, _passes(cli.check_narayana, range(1, 7)))


def test_criterion_4_census_exactness():
    start = time.perf_counter()
    detail = _passes(cli.check_census_product_law, 6, range(1, 5))
    _report(4, "exact circuit counts", start, 300.0, detail)


def test_criterion_5_mp_recovery():
    start = time.perf_counter()
    _passes(cli.check_mp_reduction, range(1, 7), (F(1, 4), F(1, 2), F(1), F(2)))
    cfg = EnsembleConfig("iid_standardized", 250, 500, seed=DEFAULT_SEED, replicates=30)
    report = run_experiment(cfg, 4)
    relative = []
    for k in range(1, 5):
        target = float(moments.mp_moment(k, F(1, 2)))
        rel = abs(report.moment_mean[k - 1] - target) / target
        relative.append(rel)
        assert rel < (0.05 if k <= 3 else 0.10), f"k={k}: relative error {rel:.3%}"
    _report(5, "Marchenko-Pastur recovery", start, 300.0,
            f"[MC rel errors {', '.join(f'{r:.2%}' for r in relative)}]")


SANDWICH_GRID = [(lam, y) for lam in (F(1, 2), F(1), F(2)) for y in (F(1, 2), F(2))]


@pytest.mark.parametrize("lam,y", SANDWICH_GRID)
def test_criterion_6_sandwich_strict_k2_to_k4(lam, y):
    start = time.perf_counter()
    _passes(cli.check_sandwich, (2, 3, 4), (lam,), (y,), 2)
    _report(6, f"sandwich strict k=2..4, lam={lam}, y={y}", start, 300.0)


@pytest.mark.parametrize("lam,y", SANDWICH_GRID)
@pytest.mark.xfail(
    strict=True,
    reason="at k=1 all three partition classes are the single one-block "
    "partition, so the moment coincides with one bound; strict bracketing "
    "cannot hold there (containment does, see the containment check)",
)
def test_criterion_6_sandwich_strict_k1(lam, y):
    ok, detail = cli.check_sandwich((1,), (lam,), (y,), 1)
    print(f"criterion 6 (strict bracketing at k=1, lam={lam}, y={y}): FAIL "
          f"by coincidence of bounds: {detail}")
    assert ok, detail


@pytest.mark.parametrize("lam,y", SANDWICH_GRID)
def test_criterion_6_sandwich_containment_all_k(lam, y):
    start = time.perf_counter()
    _passes(cli.check_sandwich, (1, 2, 3, 4), (lam,), (y,), 5)
    _report(6, f"sandwich containment k=1..4, lam={lam}, y={y}", start, 300.0)


def test_criterion_6_sparse_simulation_within_bounds():
    start = time.perf_counter()
    cfg = EnsembleConfig("sparse_bernoulli", 500, 1000, lam=3.0, seed=DEFAULT_SEED, replicates=30)
    report = run_experiment(cfg, 3)
    for k in (1, 2, 3):
        lower, upper = moments.poisson_sandwich(k, F(1, 2), 3)
        stderr = report.moment_stderr[k - 1]
        mean = report.moment_mean[k - 1]
        assert float(lower) - 3 * stderr <= mean <= float(upper) + 3 * stderr, f"k={k}"
    _report(6, "sparse simulation inside bounds", start, 300.0)


def test_criterion_7_hypergraph_bijection():
    start = time.perf_counter()
    _report(7, "hypergraph bijection", start, 120.0, _passes(cli.check_hypergraph, range(1, 5)))


def test_criterion_8_noiry_class_totals():
    start = time.perf_counter()
    _report(8, "tree-word class totals", start, 120.0, _passes(cli.check_noiry, range(1, 5)))


def test_criterion_9_quadrature_consistency():
    start = time.perf_counter()
    _report(9, "quadrature consistency", start, 60.0, _passes(cli.check_grid, (1, 2, 3), 64))


@pytest.mark.parametrize(
    "label,profile",
    [("fig1", "fig1_quadratic"), ("fig2", "fig2_sine")],
)
def test_criterion_10_figure_reproductions(label, profile):
    start = time.perf_counter()
    cfg = EnsembleConfig(
        "variance_profile", 500, 1000, lam=3.0, profile=profile,
        seed=DEFAULT_SEED, replicates=30,
    )
    report = run_experiment(cfg, 3)
    assert report.hist_counts.sum() == 500 * 30
    assert report.hist_edges[0] >= -1e-9
    for sample in report.samples:
        assert sample.eigenvalues[0] >= -1e-9
    _report(10, f"{label} histogram", start, 300.0,
            f"[support [{report.hist_edges[0]:.3g}, {report.hist_edges[-1]:.3g}]]")


def test_criterion_11_unbounded_support_bound():
    start = time.perf_counter()
    detail = _passes(cli.check_unbounded, (1, 2, 3, 4), 32)
    _report(11, "unbounded-support lower bound", start, 60.0, detail)


def test_criterion_12_wigner_containment():
    start = time.perf_counter()
    detail = _passes(cli.check_containment, 6, (1, 2, 3))
    _report(12, "Wigner containment", start, 60.0, detail)


def test_criterion_13_simulation_contracts():
    start = time.perf_counter()
    _report(13, "simulation contracts", start, 60.0, _passes(cli.check_simulation))
