"""Acceptance checklist: one test (or parametrized family) per criterion,
each enforcing its stated tolerance and time budget and printing a
PASS/FAIL line.

Check 6 asserts strict sandwich bracketing for k = 1..4.  At k = 1 the
non-crossing-even, special symmetric and even partition classes all collapse
to the single one-block partition, so the first moment EQUALS the upper bound
when y <= 1 and the lower bound when y > 1; strictness is mathematically
impossible there and that slice is declared a strict expected failure rather
than silently loosened.  Strictness holds (and is asserted) for k >= 2.
"""

import itertools
import time
from fractions import Fraction as F

import numpy as np
import pytest

from covmoments import circuits, hypergraphs, moments, partitions
from covmoments.ensembles import DEFAULT_SEED, EnsembleConfig, run_experiment
from covmoments.partitions import Partition, Word


def _report(num: int, label: str, start: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_classification_fidelity():
    start = time.perf_counter()
    member = Partition.from_blocks([[1, 2, 5, 6], [3, 4, 7, 8]])
    non_member = Partition.from_blocks([[1, 2, 6, 7], [3, 4, 5, 8]])
    assert partitions.is_special_symmetric(member)
    assert not partitions.is_special_symmetric(non_member)
    _report(1, "reference classification", start, 1.0)


def test_criterion_2_nc2_identity():
    start = time.perf_counter()
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42}
    for k in range(1, 6):
        ss_pairs, nc_pairs = set(), set()
        for p in partitions.enumerate_pair_partitions(2 * k):
            if partitions.is_special_symmetric(p):
                ss_pairs.add(p.blocks)
            if partitions.is_non_crossing(p):
                nc_pairs.add(p.blocks)
        assert ss_pairs == nc_pairs, f"set identity failed at 2k={2 * k}"
        assert len(ss_pairs) == catalan[k]
    _report(2, "pair class = non-crossing pairs", start, 30.0)


def test_criterion_3_narayana_counts():
    start = time.perf_counter()
    for k in range(1, 7):
        table = partitions.count_ss(k, "even_generating", pair_only=True)
        expected = {
            r + 1: partitions.narayana(k, r)
            for r in range(k)
            if partitions.narayana(k, r)
        }
        assert table == expected, f"k={k}"
    _report(3, "Narayana census", start, 60.0)


def test_criterion_4_census_exactness():
    start = time.perf_counter()
    checked = 0
    for m in (2, 4, 6):
        for p in partitions.enumerate_partitions(m):
            word = p.to_word()
            if partitions.is_special_symmetric(p):
                for pp, nn in itertools.product(range(1, 5), range(1, 5)):
                    result = circuits.census_s(word, pp, nn)
                    assert result.exact_count == result.predicted_count, (word.text, pp, nn)
                    checked += 1
            else:
                b = word.distinct_letters
                ratios = [
                    circuits.census_s(word, N, N).exact_count / N ** (b + 1) for N in (2, 3, 4)
                ]
                assert ratios[0] >= ratios[1] >= ratios[2], word.text
                assert ratios[2] < 1, word.text
                checked += 1
    _report(4, "exact circuit counts", start, 300.0, f"[{checked} censuses]")


def test_criterion_5_mp_recovery():
    start = time.perf_counter()
    mp_constants = {2 * j: F(int(j == 1)) for j in range(1, 7)}
    for k in range(1, 7):
        for y in (F(1, 4), F(1, 2), F(1), F(2)):
            assert moments.moment_constant(k, y, mp_constants).value == moments.mp_moment(k, y)
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
    for k in (2, 3, 4):
        lower, upper = moments.poisson_sandwich(k, y, lam)
        beta = moments.moment_sparse(k, y, lam).value
        assert lower < beta < upper, f"k={k}, lam={lam}, y={y}"
    _report(6, f"sandwich strict k=2..4, lam={lam}, y={y}", start, 300.0)


@pytest.mark.parametrize("lam,y", SANDWICH_GRID)
@pytest.mark.xfail(
    strict=True,
    reason="at k=1 all three partition classes are the single one-block "
    "partition, so the moment coincides with one bound; strict bracketing "
    "cannot hold there (containment does, see the containment check)",
)
def test_criterion_6_sandwich_strict_k1(lam, y):
    lower, upper = moments.poisson_sandwich(1, y, lam)
    beta = moments.moment_sparse(1, y, lam).value
    print(f"criterion 6 (strict bracketing at k=1, lam={lam}, y={y}): FAIL "
          f"by coincidence of bounds: lower={lower} beta={beta} upper={upper}")
    assert lower < beta < upper


@pytest.mark.parametrize("lam,y", SANDWICH_GRID)
def test_criterion_6_sandwich_containment_all_k(lam, y):
    start = time.perf_counter()
    for k in (1, 2, 3, 4):
        lower, upper = moments.poisson_sandwich(k, y, lam)
        beta = moments.moment_sparse(k, y, lam).value
        assert lower <= beta <= upper
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
    for k in (1, 2, 3, 4):
        by_b: dict[int, int] = {}
        for word in hypergraphs.enumerate_ss_words(k):
            h = hypergraphs.word_to_hypergraph(word)
            assert hypergraphs.is_acyclic(h)
            assert hypergraphs.hypergraph_to_word(h) == word
            by_b[word.distinct_letters] = by_b.get(word.distinct_letters, 0) + 1
        assert hypergraphs.count_acyclic_pairs(k) == by_b, f"count identity at k={k}"
        # the word enumeration itself is pinned to the definitional census
        assert sum(by_b.values()) == partitions.count_ss(k)["total"]
    _report(7, "hypergraph bijection", start, 120.0)


def test_criterion_8_noiry_class_totals():
    start = time.perf_counter()
    totals = {}
    for k in (1, 2, 3, 4):
        totals[k] = sum(hypergraphs.count_noiry_classes(k).values())
        assert totals[k] == partitions.count_ss(k)["total"], f"k={k}"
    _report(8, "tree-word class totals", start, 120.0, f"[totals {totals}]")


def test_criterion_9_quadrature_consistency():
    start = time.perf_counter()
    constants = {2: F(1), 4: F(1, 4), 6: F(3, 2)}
    g = {s: np.full((64, 64), float(v)) for s, v in constants.items()}
    for k in (1, 2, 3):
        grid_value = moments.moment_grid(k, F(1, 2), g, grid=64).value
        exact = float(moments.moment_constant(k, F(1, 2), constants).value)
        assert abs(grid_value - exact) <= 1e-10, f"k={k}"
    xs = (np.arange(128) + 0.5) / 128  # the grid midpoints
    product = moments.moment_grid(1, 1, {2: xs[:, None] * xs[None, :]}, grid=128).value
    assert abs(product - 0.25) <= 1e-6
    _report(9, "quadrature consistency", start, 60.0)


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
    mp_g = {2 * j: (np.ones((32, 32)) if j == 1 else np.zeros((32, 32))) for j in range(1, 5)}
    for t in (1, 2, 3, 4):
        bound = float(moments.unbounded_support_bound(1, t, np.ones(128), grid=128))
        for y in (0.5, 1.0):
            value = moments.moment_grid(t, y, mp_g, grid=32).value
            assert bound <= value + 1e-12, f"t={t}, y={y}"
    _report(11, "unbounded-support lower bound", start, 60.0)
