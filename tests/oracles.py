"""Test-only oracles: the brute-force Wigner census and the tuple-level
containment check, the product-law prediction for the words that the
literal definition `partitions.is_special_symmetric` accepts, the sojourn
recursion and its grid kernel with every product formed, the
Marchenko-Pastur moment and the Poisson sandwich summed one Fraction term
at a time, the sparse moment summed with its own lam-weight per class, the
constant-sequence moment summed over the class table with one integer
weight per multiplicity multiset, the exact per-word terms read off the
word statistics, a union-find forest test of hypergraph acyclicity, the
pairwise edge-intersection test it is stronger than, and small helpers:
the partition of a word, a hypergraph from two partitions, the odd
generating count and even constant sequences.

The Wigner census and the containment check test every circuit tuple, as
the covariance census `covmoments.checks.census_s_exhaustive` that `verify`
runs does, with its tuple walk and compatibility test; they are independent
of the closed form and the value-pattern search they check, and the number
of tuples counts against `circuits.DEFAULT_CENSUS_BUDGET`.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, prod
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

from covmoments import circuits
from covmoments.checks import _edge_keys_s, _iter_full_tuples, _word_compatible
from covmoments.circuits import CensusResult
from covmoments.hypergraphs import Hypergraph, count_noiry_classes, enumerate_ss_words
from covmoments.partitions import (
    Partition,
    Word,
    WordStats,
    is_special_symmetric,
    narayana,
    word_statistics,
)


def word_partition(word: Word) -> Partition:
    """The partition of the positions {1..m} that groups equal letters."""
    groups: dict[int, list[int]] = defaultdict(list)
    for pos, letter in enumerate(word.letters, start=1):
        groups[letter].append(pos)
    return Partition.from_blocks(groups.values())


def hypergraph(sigma: Partition, tau: Partition) -> Hypergraph:
    """The hypergraph with vertex partition sigma and edge partition tau."""
    if sigma.m != tau.m:
        raise ValueError("sigma and tau must partition the same ground set")
    return Hypergraph(sigma.m, sigma, tau)


def odd_generating(stats: WordStats) -> int:
    """Count of odd indices among the generating set {0} + first positions."""
    return len(stats.first_positions) + 1 - stats.r_plus_1


def _edge_keys_w(word: Word, values: tuple[int, ...]) -> list[tuple[int, int]]:
    m = word.length
    keys = []
    for i in range(1, m + 1):
        prev = values[i - 1]
        cur = values[0] if i == m else values[i]
        keys.append((prev, cur) if prev <= cur else (cur, prev))
    return keys


def census_w_exhaustive(word: Word, N: int) -> CensusResult:
    """Test every circuit tuple against the Wigner predicate."""
    circuits._require_sizes(N=N)
    circuits._require_circuit_word(word)
    count = sum(
        1
        for values in _iter_full_tuples(word, N, N)
        if _word_compatible(word, _edge_keys_w(word, values))
    )
    return CensusResult(word.text, "wigner", N, N, count, predicted_count_w(word, N))


def verify_containment(word: Word, p: int, n: int) -> bool:
    """Check that every circuit counted under the S link is also compatible
    with the Wigner link on the range {1..max(p, n)}, by testing every
    circuit tuple as `checks.census_s_exhaustive` and `census_w_exhaustive`
    do."""
    circuits._require_sizes(p=p, n=n)
    circuits._require_circuit_word(word)
    return all(
        _word_compatible(word, _edge_keys_w(word, values))
        for values in _iter_full_tuples(word, p, n)
        if _word_compatible(word, _edge_keys_s(word, values))
    )


def _predicted(word: Word, p: int, n: int) -> int | None:
    if not is_special_symmetric(word_partition(word)):
        return None
    stats = word_statistics(word)
    r = stats.r_plus_1 - 1
    return p**stats.r_plus_1 * n ** (stats.b - r)


def predicted_count_s(word: Word, p: int, n: int) -> int | None:
    """p^(r+1) * n^(b-r) for special symmetric words, None otherwise."""
    circuits._require_sizes(p=p, n=n)
    circuits._require_circuit_word(word)
    return _predicted(word, p, n)


def predicted_count_w(word: Word, N: int) -> int | None:
    """N^(b+1) for special symmetric words, None otherwise."""
    circuits._require_sizes(N=N)
    circuits._require_circuit_word(word)
    return _predicted(word, N, N)


def is_acyclic_by_union_find(h: Hypergraph) -> bool:
    """True iff the bipartite incidence graph (sigma-blocks vs tau-blocks)
    is a forest: no incidence edge joins two nodes already connected."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, e in sorted((v, e) for e, vs in h.incidence().items() for v in vs):
        a, b = ("s", v), ("t", e)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def pairwise_intersections_ok(h: Hypergraph) -> bool:
    """No two distinct edges share more than one vertex."""
    inc = list(h.incidence().values())
    for i in range(len(inc)):
        for j in range(i + 1, len(inc)):
            if len(inc[i] & inc[j]) > 1:
                return False
    return True


def mp_moment_fractions(k: int, y: Real) -> Fraction:
    """`moments.mp_moment` summed in Fractions, one term per power of y."""
    y = Fraction(y)
    return sum((narayana(k, r) * y**r for r in range(k)), Fraction(0))


def poisson_sandwich_fractions(k: int, y: Real, lam: Real) -> tuple[Fraction, Fraction]:
    """`moments.poisson_sandwich` summed in Fractions: Edelman's count of
    non-crossing even partitions times base^b, and the even-block recurrence
    alpha_m = sum_j C(m-1, j-1) base alpha_{m-j} over Fraction values."""
    y, lam = Fraction(y), Fraction(lam)
    lower_base = lam * y if y <= 1 else lam
    upper_base = lam if y <= 1 else lam * y
    lower = sum(
        (comb(k, b) * comb(2 * k, b - 1) // k * lower_base**b for b in range(1, k + 1)),
        Fraction(0),
    )
    alpha = [Fraction(1)]  # alpha[i] is alpha_{2i}
    for m in range(2, 2 * k + 1, 2):
        alpha.append(
            sum(
                (comb(m - 1, j - 1) * upper_base * alpha[(m - j) // 2] for j in range(2, m + 1, 2)),
                Fraction(0),
            )
        )
    return lower, alpha[k]


# the class tables the oracle sums read, each built once per test session;
# the oracles only read them
class_table = lru_cache(maxsize=None)(count_noiry_classes)


def moment_sparse_lam_weight(k: int, y: Real, lam: Real) -> Fraction:
    """`moments.moment_sparse` without the constant sequence: a class of a
    letters weighs lam^a, taken as num(lam)^a den(lam)^(k-a) over den(lam)^k,
    its count times that weight adds to the integer coefficient of
    y^(a-l), and the polynomial is summed in Fractions."""
    y, lam = Fraction(y), Fraction(lam)
    num, den = lam.numerator, lam.denominator
    coefficients = [0] * (k + 1)
    for key, count in class_table(k).items():
        coefficients[key.a - key.l] += count * num**key.a * den ** (k - key.a)
    return sum((c * y**e for e, c in enumerate(coefficients)), Fraction(0)) / den**k


def moment_constant_class_sum(k: int, y: Real, c: Mapping[int, Real]) -> Fraction:
    """`moments.moment_constant` over the class table: each C_s is scaled[s]
    over the least common denominator d, a multiplicity multiset of a
    letters weighs prod scaled[s] * d^(k-a) over d^k, each class adds its
    count times its multiset's weight to the integer coefficient of
    y^(a-l), and the polynomial is summed in Fractions."""
    y = Fraction(y)
    constants = {s: Fraction(c[s]) for s in range(2, 2 * k + 1, 2)}
    d = lcm(*(v.denominator for v in constants.values()))
    scaled = {s: v.numerator * (d // v.denominator) for s, v in constants.items()}
    weights: dict[tuple[int, ...], int] = {}
    coefficients = [0] * (k + 1)
    for key, count in class_table(k).items():
        weight = weights.get(key.sizes)
        if weight is None:
            weight = weights[key.sizes] = prod(scaled[s] for s in key.sizes) * d ** (k - key.a)
        coefficients[key.a - key.l] += count * weight
    return sum((w * y**e for e, w in enumerate(coefficients)), Fraction(0)) / d**k


def word_terms_by_statistics(k: int, y: Real, c: Mapping[int, Real]) -> dict[str, Fraction]:
    """The exact per-word breakdown from the word statistics: each special
    symmetric word's y^r times C_multiplicity for each of its letters, in
    enumeration order."""
    terms = {}
    for word in enumerate_ss_words(k):
        term = Fraction(y) ** (word_statistics(word).r_plus_1 - 1)
        for multiplicity in word.multiplicities():
            term *= Fraction(c[multiplicity])
        terms[word.text] = term
    return terms


def even_sequence(values: Sequence[Real]) -> dict[int, Fraction]:
    """[c2, c4, c6, ...] -> {2: c2, 4: c4, 6: c6, ...} (odd orders are zero)."""
    return {2 * (i + 1): Fraction(v) for i, v in enumerate(values)}


def sojourn_series_untightened(top: int, unit, zero, letter, add_product) -> list:
    """`hypergraphs._sojourn_series` with the full loop bounds: it also forms
    the products with B_s(0) at nonzero degree, which are zero by
    construction, in the same order as every other product."""
    empty = zero()
    G, f, B = ([[[empty] * (top + 1) for _ in range(top + 1)] for _ in range(2)] for _ in range(3))
    for s in (0, 1):
        B[s][0] = [unit] + [empty] * top
    for d in range(top + 1):
        for s in (0, 1):
            for j in range(1, d + 1):
                f[s][j][d] = letter(s, j, G[1 - s][j][d - j])
            for e in range(1, d + 1):
                acc = zero()
                for j in range(1, e + 1):
                    for dj in range(j, d - e + j + 1):
                        acc = add_product(acc, f[s][j][dj], B[s][e - j][d - dj], comb(e - 1, j - 1))
                B[s][e][d] = acc
            for m in range(1, max(1, top - d) + 1):
                acc = zero()
                for e in range(d + 1):
                    acc = add_product(acc, unit, B[s][e][d], comb(e + m - 1, m - 1))
                G[s][m][d] = acc
    return [G[0][1][d] for d in range(top + 1)]


def grid_series_untightened(top: int, y: float, samples: Mapping[int, np.ndarray], grid: int) -> list[float]:
    """`moments._grid_series` over the untightened recursion, each product
    formed as scale * p * q, units and zeros included."""

    def letter(s: int, j: int, child: np.ndarray) -> np.ndarray:
        factor = samples[2 * j]
        return factor @ child / grid if s == 0 else y * (child @ factor) / grid

    def add_product(acc: np.ndarray, p: np.ndarray, q: np.ndarray, scale: int) -> np.ndarray:
        acc += scale * p * q
        return acc

    series = sojourn_series_untightened(top, np.ones(grid), lambda: np.zeros(grid), letter, add_product)
    return [float(coefficient.mean()) for coefficient in series]
