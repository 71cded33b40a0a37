"""Bijection between special symmetric words and acyclic hypergraphs.

A word of length 2k induces two partitions of {1..k}: sigma groups the even
circuit slots pi(0), pi(2), ..., pi(2k-2) by shared generating vertex, tau
does the same for the odd slots pi(1), ..., pi(2k-1).  Viewing sigma-blocks
as vertices and tau-blocks as edges (an edge touches every vertex block
adjacent to one of its slots along the circuit) gives a hypergraph that is
acyclic exactly for special symmetric words, with |sigma| + |tau| = b + 1.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

from .circuits import propagate_slot, slot_classes
from .partitions import (
    Partition,
    Word,
    _check_cap,
    enumerate_partitions,
    is_special_symmetric,
    word_statistics,
)


@dataclass(frozen=True)
class Hypergraph:
    """Vertex partition sigma and edge partition tau over the positions {1..k}."""

    k: int
    sigma: Partition
    tau: Partition

    @staticmethod
    def from_partitions(sigma: Partition, tau: Partition) -> "Hypergraph":
        if sigma.m != tau.m:
            raise ValueError("sigma and tau must partition the same ground set")
        return Hypergraph(sigma.m, sigma, tau)

    def incidence(self) -> dict[int, frozenset[int]]:
        """For each tau-block index, the set of sigma-block indices it touches.

        Position i's odd slot sits between the even slots labelled i and
        (i mod k) + 1 along the circuit; adjacencies are collapsed to a set.
        """
        sigma_of = self.sigma.block_of()
        tau_of = self.tau.block_of()
        touched: dict[int, set[int]] = defaultdict(set)
        for i in range(1, self.k + 1):
            edge = tau_of[i]
            touched[edge].add(sigma_of[i])
            touched[edge].add(sigma_of[i % self.k + 1])
        return {e: frozenset(vs) for e, vs in touched.items()}

    def bipartite_edges(self) -> set[tuple[int, int]]:
        return {(v, e) for e, vs in self.incidence().items() for v in vs}

    def pairwise_intersections_ok(self) -> bool:
        """No two distinct edges share more than one vertex."""
        inc = list(self.incidence().values())
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                if len(inc[i] & inc[j]) > 1:
                    return False
        return True


def is_acyclic(h: Hypergraph) -> bool:
    """True iff the bipartite incidence graph (sigma-blocks vs tau-blocks) is a
    forest.  This implies the pairwise condition (two edges sharing two
    vertices force a 4-cycle) and is strictly stronger on longer cycles."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v, e in sorted(h.bipartite_edges()):
        a, b = ("s", v), ("t", e)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def word_to_hypergraph(word: Word) -> Hypergraph:
    """Build the (sigma, tau) hypergraph of a special symmetric word."""
    if word.length % 2:
        raise ValueError("special symmetric words have even length")
    cls = slot_classes(word)
    k = word.length // 2
    sigma_groups: dict[int, list[int]] = defaultdict(list)
    tau_groups: dict[int, list[int]] = defaultdict(list)
    for i in range(1, k + 1):
        sigma_groups[cls[2 * i - 2]].append(i)
        tau_groups[cls[2 * i - 1]].append(i)
    return Hypergraph(
        k,
        Partition.from_blocks(sigma_groups.values()),
        Partition.from_blocks(tau_groups.values()),
    )


def hypergraph_to_word(h: Hypergraph) -> Word:
    """Inverse construction: read the word off the circuit whose even slots
    are labelled by sigma-blocks and odd slots by tau-blocks."""
    if not is_acyclic(h):
        raise ValueError("hypergraph has a cycle; no special symmetric word corresponds to it")
    word = _word_of_pair(h.sigma, h.tau)
    b = word.distinct_letters
    if len(h.sigma.blocks) + len(h.tau.blocks) != b + 1:
        raise ValueError(
            f"block counts |sigma| + |tau| = {len(h.sigma.blocks) + len(h.tau.blocks)} "
            f"do not equal b + 1 = {b + 1}"
        )
    if not is_special_symmetric(word.to_partition()):
        raise ValueError(f"constructed word {word.text} is not special symmetric")
    return word


def _word_of_pair(sigma: Partition, tau: Partition) -> Word:
    k = sigma.m
    sigma_of = sigma.block_of()
    tau_of = tau.block_of()
    letters = []
    letter_of: dict[tuple[int, int], int] = {}
    for i in range(1, 2 * k + 1):
        # the position-i edge joins the even circuit slot (i-1 or i mod 2k)
        # and the odd slot (i or i-1); slots map to {1..k} labels
        even_slot = (i - 1) if i % 2 else (i % (2 * k))
        odd_slot = i if i % 2 else i - 1
        key = (sigma_of[even_slot // 2 + 1], tau_of[(odd_slot + 1) // 2])
        if key not in letter_of:
            letter_of[key] = len(letter_of) + 1
        letters.append(letter_of[key])
    return Word(tuple(letters))


@lru_cache(maxsize=None)
def enumerate_ss_words(k: int, cap: int | None = None) -> tuple[Word, ...]:
    """All special symmetric words of length 2k, in lexicographic order.

    A canonical word is special symmetric exactly when every letter occurs
    an even number of times and covariance-link propagation (`slot_classes`)
    closes without a contradiction.  Propagation is decided prefix by
    prefix, so a depth-first search over canonical words, one letter at a
    time, drops a branch as soon as propagation fails or the letters of odd
    count outnumber the positions left to pair them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_cap(2 * k, cap)
    m = 2 * k
    letters = [0] * m
    cls = [0] * m
    keys: dict[int, tuple[int, int]] = {}
    counts = [0] * (m + 1)
    words: list[Word] = []

    def extend(i: int, top: int, odd: int) -> None:
        # place the letter at position i (1-based); slots 0..i-1 have classes,
        # `top` is the largest letter so far and also the last class opened
        fresh = 0 if i == m else top + 1
        for letter in range(1, top + 2):
            cur = propagate_slot(keys, letter, i, cls[i - 1], fresh)
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
            if letter > top:
                del keys[letter]

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
            raise ValueError("sizes must list one multiplicity >= 2 per edge")


def count_noiry_classes(k: int) -> dict[NoiryClassKey, int]:
    """Group special symmetric words by (distinct letters, odd generating
    vertices, letter-multiplicity multiset)."""
    counts: Counter = Counter()
    for word in enumerate_ss_words(k):
        stats = word_statistics(word)
        key = NoiryClassKey(
            a=stats.b,
            l=stats.odd_generating,
            sizes=tuple(sorted(word.multiplicities())),
        )
        counts[key] += 1
    return dict(counts)
