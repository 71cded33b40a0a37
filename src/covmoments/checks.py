"""The cross-module identity suite that `covmoments verify` runs: each of
the package's claims checked against code that reaches it another way.

Each check takes its ranges as arguments, with defaults that are the ranges
`verify` runs, and returns (ok, detail); `CHECKS` lists them in the order
`verify` prints them.  The acceptance tests call the same functions at
ranges at least as wide.  The claims and their oracles:

  ss-definition-examples   the literal special symmetric test classifies the
                           paper's two reference partitions of {1..8} as stated.
  nc2-catalan              the special symmetric pair partitions are the
                           non-crossing ones, Catalan many; both sides test
                           every pair partition, k <= 5.
  narayana-pair-census     the pair-matched census by r+1 (`count_ss`, the
                           Bell(2k) sweep) equals the Narayana numbers, k <= 6.
  census-exact-counts      `circuits.census_s` equals the count of circuit
                           tuples that `census_s_exhaustive` tests one by one,
                           for every word of length <= 6 at p, n in {1, 2, 3};
                           on the words the literal definition accepts that
                           count is p^(r+1) n^(b-r), r from `word_statistics`,
                           and `predicted_count` is None on every other word.
  wigner-containment       every covariance circuit is a Wigner circuit on
                           {1..max(p, n)}: `census_s` <= `census_w`, whose
                           value-pattern search shares no code with it.
  mp-constant-reduction    the constant-sequence sum at C_2 = 1, C_2j = 0
                           beyond equals the Narayana polynomial, k <= 6.
  sparse-sandwich          the sparse moments lie between the non-crossing
                           and the even-block partition sums, k <= 4.
  hypergraph-roundtrip     each generated word maps to an acyclic hypergraph
                           and back, and the words by letter count equal the
                           acyclic-pair count and the Bell(2k) census, k <= 4.
  noiry-class-totals       the sojourn class table sums to the Bell(2k)
                           census, k <= 4.
  grid-quadrature          on constant integrands the quadrature equals the
                           exact constant sum to 1e-10; both sides run
                           `hypergraphs._sojourn_series`, so this half checks
                           two instances of it.  On varying integrands it
                           equals the sum of the per-word terms that
                           `moments._tree_term` eliminates one tree at a time,
                           the independent half.  It also integrates xy to
                           1/4 and keeps the DT profile's error
                           (value - k^k / (k+1)!) * G within its measured
                           O(1/G) bounds, k <= 6.
  unbounded-support-bound  the factorial lower bound stays below the
                           quadrature moments of C_2 = 1, t <= 4.
  simulation-contracts     a simulation reruns bit for bit, stays positive
                           semi-definite, and its moments equal Tr S^k / p
                           from dense matrix powers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from . import circuits, ensembles, hypergraphs, moments, partitions
from .ensembles import EnsembleConfig
from .partitions import Partition, Word

_YS = (Fraction(1, 2), Fraction(2))


def _edge_keys_s(word: Word, values: tuple[int, ...]) -> list[tuple[int, int]]:
    # the (row, col) value of each edge of the circuit `values`
    m = word.length
    keys = []
    for i in range(1, m + 1):
        prev = values[i - 1]
        cur = values[0] if i == m else values[i]
        keys.append((prev, cur) if i % 2 else (cur, prev))
    return keys


def _word_compatible(word: Word, keys: list[tuple[int, int]]) -> bool:
    # every repeated letter carries its first occurrence's edge value
    first_key: dict[int, tuple[int, int]] = {}
    for letter, key in zip(word.letters, keys):
        if letter not in first_key:
            first_key[letter] = key
        elif first_key[letter] != key:
            return False
    return True


def _iter_full_tuples(word: Word, p: int, n: int):
    # every circuit pi(0..m-1), even slots in {1..p} and odd slots in {1..n}
    m = word.length
    circuits._check_budget((p * n) ** (m // 2), "circuit tuples")
    ranges = [range(1, (p if i % 2 == 0 else n) + 1) for i in range(m)]
    yield from itertools.product(*ranges)


def census_s_exhaustive(word: Word, p: int, n: int) -> int:
    """The number of circuits compatible with `word` under the covariance
    link, each circuit tuple tested; the tuples count against
    `circuits.DEFAULT_CENSUS_BUDGET`."""
    circuits._require_sizes(p=p, n=n)
    circuits._require_circuit_word(word)
    return sum(
        1 for values in _iter_full_tuples(word, p, n) if _word_compatible(word, _edge_keys_s(word, values))
    )


def check_ss_examples():
    member = Partition.from_blocks([[1, 2, 5, 6], [3, 4, 7, 8]])
    non_member = Partition.from_blocks([[1, 2, 6, 7], [3, 4, 5, 8]])
    ok = partitions.is_special_symmetric(member) and not partitions.is_special_symmetric(non_member)
    return ok, "both reference partitions of {1..8} classify as stated"


def check_nc2(ks=range(1, 6)):
    for k in ks:
        ss_pairs, nc_pairs = set(), set()
        for p in partitions.enumerate_pair_partitions(2 * k):
            if partitions.is_special_symmetric(p):
                ss_pairs.add(p.blocks)
            if partitions.is_non_crossing(p):
                nc_pairs.add(p.blocks)
        if ss_pairs != nc_pairs or len(nc_pairs) != partitions.catalan(k):
            return False, f"failed at k={k}"
    return True, f"pair censuses match Catalan numbers up to k={max(ks)}"


def check_narayana(ks=range(1, 7)):
    for k in ks:
        table = partitions.count_ss(k, "even_generating", pair_only=True)
        expected = {r + 1: partitions.narayana(k, r) for r in range(k)}
        if table != expected:
            return False, f"failed at k={k}: {table} != {expected}"
    return True, f"pair-matched counts equal Narayana numbers up to k={max(ks)}"


def check_census_product_law(top=6, sizes=(1, 2, 3)):
    compared = 0
    for m in range(2, top + 1, 2):
        for partition in partitions.enumerate_partitions(m):
            word = partition.to_word()
            stats = partitions.word_statistics(word)
            special = partitions.is_special_symmetric(partition)
            for p, n in itertools.product(sizes, sizes):
                result = circuits.census_s(word, p, n)
                count = census_s_exhaustive(word, p, n)
                where = f"word {word.text} ({p},{n})"
                if result.exact_count != count:
                    return False, f"{where}: census_s {result.exact_count} != {count} circuit tuples"
                law = p**stats.r_plus_1 * n ** (stats.b + 1 - stats.r_plus_1) if special else None
                if special and count != law:
                    return False, f"{where}: {count} circuit tuples != p^(r+1) n^(b-r) = {law}"
                if result.predicted_count != law:
                    return False, f"{where}: predicted {result.predicted_count}, expected {law}"
                compared += 1
    return True, (f"census_s equals the circuit-tuple count in {compared} cases, words of length "
                  f"<= {top} at p, n in {{{', '.join(map(str, sizes))}}}; "
                  "p^(r+1) n^(b-r) exactly on the special symmetric words")


def check_containment(top=6, sizes=(1, 2, 3)):
    # every covariance circuit is a Wigner circuit on {1..max(p, n)}, so the
    # closed form may not exceed the pattern search's count
    for m in range(2, top + 1, 2):
        for p in partitions.enumerate_partitions(m):
            word = p.to_word()
            for pp, nn in itertools.product(sizes, sizes):
                s = circuits.census_s(word, pp, nn).exact_count
                w = circuits.census_w(word, max(pp, nn)).exact_count
                if s > w:
                    return False, f"word {word.text} ({pp},{nn}): S count {s} > Wigner count {w}"
    return True, f"covariance census <= Wigner census for all words of length <= {top}"


def check_mp_reduction(ks=range(1, 7), ys=_YS):
    constants = {2 * j: Fraction(int(j == 1)) for j in range(1, max(ks) + 1)}
    for k, y in itertools.product(ks, ys):
        if moments.moment_constant(k, y, constants).value != moments.mp_moment(k, y):
            return False, f"k={k}, y={y}"
    return True, f"constant-sequence reduction equals the Narayana polynomial up to k={max(ks)}"


def check_sandwich(ks=range(1, 5), lams=(Fraction(1, 2), Fraction(1), Fraction(2)), ys=_YS, strict_from=2):
    for k, lam, y in itertools.product(ks, lams, ys):
        lower, upper = moments.poisson_sandwich(k, y, lam)
        beta = moments.moment_sparse(k, y, lam).value
        if not (lower <= beta <= upper):
            return False, f"containment failed at k={k}, lam={lam}, y={y}"
        if k >= strict_from and not (lower < beta < upper):
            return False, f"strictness failed at k={k}, lam={lam}, y={y}"
    return True, f"bounds contain the sparse moments (strictly for {strict_from} <= k <= {max(ks)})"


def check_hypergraph(ks=range(1, 5)):
    for k in ks:
        by_b = Counter()
        for word in hypergraphs.enumerate_ss_words(k):
            h = hypergraphs.word_to_hypergraph(word)
            if not hypergraphs.is_acyclic(h) or hypergraphs.hypergraph_to_word(h) != word:
                return False, f"round trip failed for {word.text}"
            by_b[word.distinct_letters] += 1
        if hypergraphs.count_acyclic_pairs(k) != by_b:
            return False, f"count identity failed at k={k}"
        if sum(by_b.values()) != partitions.count_ss(k)["total"]:
            return False, f"word total differs from the census at k={k}"
    return True, f"round trips and acyclic-pair counts agree up to 2k={2 * max(ks)}"


def check_noiry(ks=range(1, 5)):
    for k in ks:
        total = sum(hypergraphs.count_noiry_classes(k).values())
        census = partitions.count_ss(k)["total"]
        if total != census:
            return False, f"k={k}: classes {total} vs census {census}"
    return True, f"class totals equal the special symmetric census up to 2k={2 * max(ks)}"


# DT: the upper-triangle profile 1{x <= u} with C_2 = 1 and every other
# constant 0, at y = 1, has the limit k^k / (k+1)! (Sniady 2003).  The
# indicator jumps on the diagonal, so the quadrature error is O(1/G);
# (value - limit) * G measured 0.5, 1.005, 2.27, 5.41, 13.25, 33.1 at G = 64
# and 0.5, 1.0, 2.25, 5.34, 13.04, 32.4 at G = 1024, and stays within 2 %
# beyond those two ends at every grid in between.  Coarser grids leave these
# bounds (k = 3 reads 2.337 at G = 16), so check_grid runs at DT_GRID, the
# smallest grid they were measured at
DT_SCALED_ERROR = {
    1: (0.49, 0.51),
    2: (0.98, 1.03),
    3: (2.20, 2.32),
    4: (5.23, 5.52),
    5: (12.77, 13.52),
    6: (31.75, 33.77),
}
DT_GRID = 64


def check_grid(ks=range(1, 4), grid=16, dt_ks=range(1, 7)):
    constants = {2: Fraction(1), 4: Fraction(1, 4), 6: Fraction(2)}
    g = {s: np.full((grid, grid), float(v)) for s, v in constants.items()}
    # both sides of the constant case run the sojourn series; the word terms
    # of a varying integrand, by per-word elimination, are an independent sum
    xs = (np.arange(grid) + 0.5) / grid
    varying = {s: v + np.outer(xs, xs**2) for s, v in g.items()}
    constant_reports = moments.grid_moments(ks, Fraction(1, 2), g, grid=grid)
    varying_reports = moments.grid_moments(ks, Fraction(1, 2), varying, grid=grid, breakdown=True)
    for k in ks:
        grid_value = constant_reports[k].value
        exact = float(moments.moment_constant(k, Fraction(1, 2), constants).value)
        if abs(grid_value - exact) > 1e-10:
            return False, f"constant integrand mismatch at k={k}"
        report = varying_reports[k]
        words = sum(report.breakdown.values())
        if abs(report.value - words) > 1e-12 * abs(words):
            return False, f"c + xu^2 integrand at k={k}: {report.value!r} vs word terms {words!r}"
    xs = (np.arange(128) + 0.5) / 128
    product = moments.moment_grid(1, 1, {2: np.outer(xs, xs)}, grid=128).value
    if abs(product - 0.25) > 1e-6:
        return False, f"xy integral {product}"
    xs = (np.arange(DT_GRID) + 0.5) / DT_GRID
    sigma = (xs[:, None] <= xs[None, :]).astype(float)
    c2_only = {2 * j: int(j == 1) for j in range(1, max(dt_ks) + 1)}
    dt = moments.profile_moments(dt_ks, 1, sigma, c2_only, grid=DT_GRID)
    for k in dt_ks:
        lower, upper = DT_SCALED_ERROR[k]
        scaled = (dt[k].value - k**k / math.factorial(k + 1)) * DT_GRID
        if not lower <= scaled <= upper:
            return False, f"DT profile at k={k}: (value - limit) * G = {scaled!r}, outside [{lower}, {upper}]"
    return True, ("quadrature reproduces constant sums to 1e-10, its word terms to 1e-12, "
                  "the xy integral to 1e-6 and the DT limits within their O(1/G) bounds "
                  f"up to k={max(dt_ks)}")


def check_unbounded(ts=range(1, 5), grid=16):
    g = {2 * j: np.full((grid, grid), float(j == 1)) for j in range(1, max(ts) + 1)}
    reports = {y: moments.grid_moments(ts, y, g, grid=grid) for y in (0.5, 1.0)}
    for t in ts:
        bound = float(moments.unbounded_support_bound(1, t, np.ones(4 * grid), grid=4 * grid))
        for y in (0.5, 1.0):
            if bound > reports[y][t].value + 1e-12:
                return False, f"bound exceeds moment at t={t}, y={y}"
    return True, "factorial lower bounds stay below the quadrature moments"


def check_simulation():
    cfg = EnsembleConfig("sparse_bernoulli", 30, 60, lam=2.0, seed=ensembles.DEFAULT_SEED, replicates=3)
    first = ensembles.run_experiment(cfg, 3)
    second = ensembles.run_experiment(cfg, 3)
    if not np.array_equal(first.moment_mean, second.moment_mean):
        return False, "rerun differed"
    for r, sample in enumerate(first.samples):
        if sample.eigenvalues[0] < -1e-9:
            return False, "PSD floor violated"
        # the moments are eigenvalue power sums; check them against dense
        # matrix powers of the replicate's own S
        X = ensembles.sample_matrix(cfg, r)
        S = X @ X.T
        for k, got in enumerate(sample.empirical_moments, start=1):
            want = float(np.trace(np.linalg.matrix_power(S, k))) / cfg.p
            if abs(got - want) > 1e-12 * abs(want):
                return False, f"replicate {r}: moment k={k} {got!r} != Tr S^{k} / p = {want!r}"
    return True, "deterministic rerun, PSD floor, moments equal Tr S^k / p within 1e-12"


CHECKS = (
    ("ss-definition-examples", check_ss_examples),
    ("nc2-catalan", check_nc2),
    ("narayana-pair-census", check_narayana),
    ("census-exact-counts", check_census_product_law),
    ("wigner-containment", check_containment),
    ("mp-constant-reduction", check_mp_reduction),
    ("sparse-sandwich", check_sandwich),
    ("hypergraph-roundtrip", check_hypergraph),
    ("noiry-class-totals", check_noiry),
    ("grid-quadrature", check_grid),
    ("unbounded-support-bound", check_unbounded),
    ("simulation-contracts", check_simulation),
)
