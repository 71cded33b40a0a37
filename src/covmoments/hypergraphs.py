"""Bijection between special symmetric words and acyclic hypergraphs, and
the class tables of those words.

A word of length 2k induces two partitions of {1..k}: sigma groups the even
circuit slots pi(0), pi(2), ..., pi(2k-2) by shared generating vertex, tau
does the same for the odd slots pi(1), ..., pi(2k-1).  Viewing sigma-blocks
as vertices and tau-blocks as edges (an edge touches every vertex block
adjacent to one of its slots along the circuit) gives a hypergraph that is
acyclic exactly for special symmetric words.  Its incidence graph is
connected and has one edge per letter, so acyclic means one count:
|sigma| + |tau| = b + 1.

The class table (`count_noiry_classes`) comes from a recursion over the
sojourns of a closed walk on a growing tree, `_sojourn_series`, so it lists
no word and reaches k = MAX_SERIES_ORDER.  The recursion takes its
coefficient type from the caller: class counts here, integers for the
exact moments and grid functions for the quadrature (`moments`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb

from .circuits import word_structure
from .partitions import (
    InputError,
    Partition,
    SizeLimitError,
    Word,
    _check_cap,
    _integer,
    enumerate_partitions,
)

MAX_SERIES_ORDER = 12


@dataclass(frozen=True)
class Hypergraph:
    """Vertex partition sigma and edge partition tau over the positions {1..k}."""

    k: int
    sigma: Partition
    tau: Partition

    def __post_init__(self) -> None:
        # the circuit has k positions of each parity, which `_positions` reads off sigma
        if not self.sigma.m == self.tau.m == self.k:
            raise InputError("sigma and tau must both partition {1..k}")

    def incidence(self) -> dict[int, frozenset[int]]:
        """For each tau-block index, the set of sigma-block indices it touches
        along the circuit (`_positions`); adjacencies are collapsed to a set."""
        touched: dict[int, set[int]] = defaultdict(set)
        for vertex, edge in _positions(self.sigma, self.tau):
            touched[edge].add(vertex)
        return {e: frozenset(vs) for e, vs in touched.items()}


def _positions(sigma: Partition, tau: Partition) -> list[tuple[int, int]]:
    """The (sigma-block, tau-block) pair that the edge at each circuit
    position 1..2k joins.  Position 2i-1 joins the even slot pi(2i-2),
    labelled i, to the odd slot pi(2i-1), labelled i; position 2i joins that
    odd slot to the even slot pi(2i mod 2k), labelled i mod k + 1."""
    k = sigma.m
    sigma_of, tau_of = sigma.block_of(), tau.block_of()
    return [(sigma_of[s], tau_of[i]) for i in range(1, k + 1) for s in (i, i % k + 1)]


def is_acyclic(h: Hypergraph) -> bool:
    """True iff the bipartite incidence graph (sigma-blocks vs tau-blocks) is a
    forest, decided by counting its edges.  This implies the pairwise
    condition (two edges sharing two vertices force a 4-cycle) and is
    strictly stronger on longer cycles.

    The graph has |sigma| + |tau| vertices and is a tree exactly when its
    edge count is |sigma| + |tau| - 1:
      - The circuit sigma(1) tau(1) sigma(2) ... sigma(k) tau(k) sigma(1)
        steps from block to adjacent block, since tau(i) touches sigma(i)
        and sigma(i mod k + 1), and it visits every block, so the graph is
        connected.
      - Its edges are the distinct pairs of `_positions`, which
        `_word_of_pair` makes its letters, so it has b edges, where b is
        that word's number of letters.
    """
    edges = len(set(_positions(h.sigma, h.tau)))
    return edges == len(h.sigma.blocks) + len(h.tau.blocks) - 1


def _partition_of(labels: tuple[int, ...]) -> Partition:
    # positions 1..len(labels) grouped by equal label
    groups: dict[int, list[int]] = defaultdict(list)
    for i, label in enumerate(labels, start=1):
        groups[label].append(i)
    return Partition.from_blocks(groups.values())


def word_to_hypergraph(word: Word) -> Hypergraph:
    """Build the (sigma, tau) hypergraph of a special symmetric word: sigma
    groups the even slots by class, tau the odd ones."""
    cls = word_structure(word).classes
    return Hypergraph(word.length // 2, _partition_of(cls[0::2]), _partition_of(cls[1::2]))


def hypergraph_to_word(h: Hypergraph) -> Word:
    """Inverse construction: read the word off the circuit whose even slots
    are labelled by sigma-blocks and odd slots by tau-blocks.

    An acyclic pair gives a special symmetric word, as it has
    |sigma| + |tau| = b + 1 (see `is_acyclic`).  A repeated letter repeats
    its (sigma-block, tau-block) pair, so these slot labels satisfy every
    vertex equality the covariance link forces.  The word's union-find
    classes (`circuits._vertex_classes`) are the finest that do, so
    rows + cols >= |sigma| + |tau| = b + 1, and the quotient graph is the
    tree that `_vertex_classes` requires of a special symmetric word.
    """
    if not is_acyclic(h):
        raise InputError("hypergraph has a cycle; no special symmetric word corresponds to it")
    return _word_of_pair(h.sigma, h.tau)


def _word_of_pair(sigma: Partition, tau: Partition) -> Word:
    # one letter per distinct pair of `_positions`, numbered by first position
    letter_of: dict[tuple[int, int], int] = {}
    return Word(tuple(letter_of.setdefault(pair, len(letter_of) + 1) for pair in _positions(sigma, tau)))


def enumerate_ss_words(k: int) -> tuple[Word, ...]:
    """All special symmetric words of length 2k, in lexicographic order.

    A canonical word is special symmetric exactly when every letter occurs
    an even number of times and its propagation walk from pi(0) closes at
    pi(0) without a contradiction (`circuits._vertex_classes`).  The walk
    gives each slot a class: a letter met for the first time records its
    edge (class of the slot before, new class) and moves to the new class;
    a repeated letter moves to the other endpoint of its recorded edge, and
    fails when the slot before is neither endpoint, i.e. when two distinct
    generating vertices would be equated.

    The edge is unordered, as under the Wigner link, and it decides the
    covariance link's ordered (row, col) check too: a class is opened at
    one slot and only ever reached at slots of the same parity, so a row
    class never equals a column class, and the slot before can match only
    the endpoint on its own side, the one the ordered check tests.

    Propagation is decided prefix by prefix, so a depth-first search over
    canonical words, one letter at a time, drops a branch as soon as
    propagation fails or the letters of odd count outnumber the positions
    left to pair them.
    """
    k = _integer(k, "k")
    if k < 1:
        raise InputError("k must be >= 1")
    _check_cap(2 * k)
    m = 2 * k
    letters = [0] * m
    cls = [0] * m
    # keys[letter] is the letter's edge; a key a backtracked branch left is
    # overwritten at the letter's first occurrence before anything reads it
    keys: list[tuple[int, int]] = [(0, 0)] * (m + 1)
    counts = [0] * (m + 1)
    words: list[Word] = []

    def extend(i: int, top: int, odd: int) -> None:
        # place the letter at position i (1-based); slots 0..i-1 have classes,
        # `top` is the largest letter so far and also the last class opened
        prev = cls[i - 1]
        for letter in range(1, top + 2):
            if letter > top:
                # a new letter opens its own class, or closes at pi(0)'s
                cur = 0 if i == m else letter
                keys[letter] = (prev, cur)
            else:
                a, b = keys[letter]
                cur = b if prev == a else a if prev == b else None
            if cur is not None:
                counts[letter] += 1
                now_odd = odd + (1 if counts[letter] % 2 else -1)
                letters[i - 1] = letter
                if i == m:
                    if cur == 0 and now_odd == 0:
                        words.append(Word(tuple(letters)))
                elif now_odd <= m - i:
                    cls[i] = cur
                    extend(i + 1, max(top, letter), now_odd)
                counts[letter] -= 1

    extend(1, 0, 0)
    return tuple(words)


def count_acyclic_pairs(k: int) -> dict[int, int]:
    """Number of acyclic (sigma, tau) pairs grouped by b = |sigma| + |tau| - 1."""
    counts: Counter = Counter()
    sigmas = list(enumerate_partitions(k))
    for sigma in sigmas:
        for tau in sigmas:
            if is_acyclic(Hypergraph(k, sigma, tau)):
                counts[len(sigma.blocks) + len(tau.blocks) - 1] += 1
    return dict(counts)


@dataclass(frozen=True)
class NoiryClassKey:
    """Tree-word equivalence class key: a edges, l odd edges, letter multiset."""

    a: int
    l: int
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != self.a or any(s < 2 for s in self.sizes):
            raise InputError("sizes must list one multiplicity >= 2 per edge")


def count_noiry_classes(k: int) -> dict[NoiryClassKey, int]:
    """Group the special symmetric words of length 2k by (distinct letters a,
    odd generating vertices l, letter-multiplicity multiset).

    The table is read off `_sojourn_series` of order k, so no word is
    enumerated and k may go up to MAX_SERIES_ORDER (k = 9: 128 classes for
    467,963 words).  The exact moments do not read it: they run the same
    series over integers (`moments.constant_moments`).

    Inside the recursion a class key (l, n_1, ..., n_k), where n_j is the
    number of letters of multiplicity 2j, is one int holding field i at bit
    i * width.  A degree-d coefficient has at most d letters, so no field
    exceeds k < 2^(width - 1): adding two keys adds their fields with no
    carry, and each key of degree k is decoded once into a NoiryClassKey.
    """
    k = _integer(k, "k")
    width = k.bit_length() + 1
    mask = (1 << width) - 1

    def letter(s: int, j: int, child: dict) -> dict:
        # a letter of multiplicity 2j over the child's coefficient; a row
        # vertex's child is a column (odd generating) vertex, which l counts
        step = 1 - s + (1 << j * width)
        return {key + step: count for key, count in child.items()}

    def decode(key: int) -> NoiryClassKey:
        sizes = tuple(2 * j for j in range(1, k + 1) for _ in range(key >> j * width & mask))
        return NoiryClassKey(len(sizes), key & mask, sizes)

    series = _sojourn_series(k, {0: 1}, dict, letter, _add_product)
    return {decode(key): count for key, count in series[k].items()}


def _check_series_order(top: int) -> None:
    # the series limit, stated once; the series checks it, and a caller that
    # must fail on it before reading its inputs calls this first
    if top < 1:
        raise InputError("k must be >= 1")
    if top > MAX_SERIES_ORDER:
        raise SizeLimitError(
            f"moment order {top} exceeds the series limit "
            f"MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"
        )


def _sojourn_series(top: int, unit, zero, letter, add_product) -> list:
    """[z^d] G_row(1) for d = 0..top, by a recursion over vertex sojourns.

    Covariance-link propagation sends each new letter to a fresh class, so a
    special symmetric word is a closed walk from the root (a row vertex) on a
    tree that grows as it is walked: a letter is an edge, row and column
    vertices alternate along it, and a child entered j times from its parent
    carries multiplicity 2j.  A vertex entered m times splits its E
    excursions into children over its m sojourns in C(E+m-1, m-1) ways and
    groups them by child as a set partition, since children are numbered by
    first visit, as canonical letters are.  With z marking k and, for a
    child of a vertex of parity s, f_s(j) = letter(s, j, z^j G_(1-s)(j)):

        B_s(E) = sum_j C(E-1, j-1) f_s(j) B_s(E-j)   (the first excursion's block)
        G_s(m) = sum_E C(E+m-1, m-1) B_s(E)

    The coefficient type is the caller's: `unit` is the empty walk, `zero()`
    a fresh zero, and add_product(acc, p, q, scale) returns acc + scale p q,
    which it may build in acc; p is `unit` itself wherever that factor is 1.
    Class counts and grid functions of the vertex variable both fit.  No
    product that is zero by construction is formed, and no coefficient that
    feeds only degrees above top: G_s(m) of degree d feeds f_(1-s)(m) of
    degree d + m, so G_1(m) is built for d + m <= top, G_0(m) beyond the
    output G_0(1) for d + m < top, and s = 1 not at all at degree top.
    f_s(j) starts at degree j, so a degree-d coefficient needs only lower
    degrees and the series are built degree by degree, with no fixed-point
    rounds.  This is
    the special symmetric analogue of Zakharevich's count of trees with edge
    multiplicities (2006, A generalization of Wigner's law, Comm. Math.
    Phys. 268).
    """
    _check_series_order(top)
    # G[s][i][d], f[s][i][d] and B[s][i][d] are the degree-d coefficients of
    # G_s(i), f_s(i) and B_s(i); s = 0 is a row vertex
    empty = zero()
    G, f, B = ([[[empty] * (top + 1) for _ in range(top + 1)] for _ in range(2)] for _ in range(3))
    for s in (0, 1):
        B[s][0] = [unit] + [empty] * top
    for d in range(top + 1):
        for s in (0, 1) if d < top else (0,):
            for j in range(1, d + 1):
                f[s][j][d] = letter(s, j, G[1 - s][j][d - j])
            # B_s(0) is the unit alone, so its products with a nonzero degree
            # are left out: the last block (j = e) has only its top degree,
            # and G_s(m) takes B_s(0) only at degree 0
            for e in range(1, d + 1):
                acc = zero()
                for j in range(1, e):
                    for dj in range(j, d - e + j + 1):
                        acc = add_product(acc, f[s][j][dj], B[s][e - j][d - dj], comb(e - 1, j - 1))
                B[s][e][d] = add_product(acc, unit, f[s][e][d], 1)
            # G_1(m) feeds f_0(m) up to degree top, the output's own degree;
            # G_0(m) feeds f_1(m), read only below degree top
            for m in range(1, max(1, top - d - 1 + s) + 1):
                acc = zero()
                for e in range(min(d, 1), d + 1):
                    acc = add_product(acc, unit, B[s][e][d], comb(e + m - 1, m - 1))
                G[s][m][d] = acc
    return [G[0][1][d] for d in range(top + 1)]


def _add_product(acc: dict, p: dict, q: dict, scale: int) -> dict:
    """acc += scale * p * q over packed class keys (see `count_noiry_classes`):
    a coefficient maps a key to a count, and keys multiply by adding, which
    adds l and each n_j field by field."""
    for k1, c1 in p.items():
        c1 *= scale
        for k2, c2 in q.items():
            key = k1 + k2
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc
