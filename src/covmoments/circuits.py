"""Circuit censuses for words under the covariance and Wigner link functions.

A circuit of length 2k is a closed index path pi(0), ..., pi(2k) = pi(0)
whose even-indexed vertices range over {1..p} (rows) and odd-indexed over
{1..n} (columns).  Under the covariance link the edge at position i carries
the ordered value (row, col) = (even-indexed endpoint, odd-indexed endpoint);
two positions match iff these normalized pairs are equal, which makes
same-parity positions match componentwise and opposite-parity positions match
with the components swapped.  Under the Wigner link the edge value is the
unordered endpoint pair on a common range {1..N}.

A circuit is counted for a word when every repeated letter forces its edge
value to equal the letter's first-occurrence edge value.  For special
symmetric words this count is exactly p^(r+1) * n^(b-r), with b the number of
distinct letters and r+1 the number of even generating vertices.

Both links compare vertex values only for equality, so a count depends only
on which slots hold equal values.  `census_s` and `census_w` therefore count
value patterns, after one shared prologue that takes the word's statistics
and decides special symmetry with one walk of `propagate_slot`.  A
depth-first search gives each generating vertex one of the values already
opened on its side or one new value, weighted by the number of values still
unused there, and propagates the repeated letters with `propagate_slot`
inlined.  That step, shared with `slot_classes` and `enumerate_ss_words`,
matches an edge as an unordered pair, which decides the covariance link
too: each class is opened on one side and every edge joins the two sides,
so a row class never equals a column class.  The search checks forward:
when the letter leaving a generating vertex is an earlier one, other than
the letter entering it, only the endpoints of its recorded edge can
continue, so no new value is tried.  The budget `DEFAULT_CENSUS_BUDGET`
bounds the value patterns the search may visit: each generating vertex
after pi(0) offers at most one branch per earlier generating vertex on its
side (pi(0) counts as the first row) plus one new value, and never more
than its side holds.  Past p, n >= 2k that bound no longer depends on the
sizes.  `verify_containment` tests every circuit tuple; the same budget
bounds the tuples it tries.  The budget is read at call time, so a caller
who needs another one sets the module constant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .partitions import (
    SizeLimitError,
    Word,
    WordStats,
    word_statistics,
)

DEFAULT_CENSUS_BUDGET = 10**8


@dataclass(frozen=True)
class CensusResult:
    word: str
    link: str  # "S" or "wigner"
    p: int
    n: int
    exact_count: int
    predicted_count: int | None

    @property
    def ratio_to_scale(self) -> float:
        """exact_count / n^(b+1), the quantity whose limit detects membership."""
        b = Word.from_text(self.word).distinct_letters
        return self.exact_count / self.n ** (b + 1)


def _require_circuit_word(word: Word) -> int:
    if word.length == 0 or word.length % 2:
        raise ValueError(f"circuit words must have positive even length, got {word.length}")
    return word.length


def _require_sizes(**sizes: int) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise ValueError(f"census size {name} must be at least 1, got {size}")


def _free_slots(m: int, stats: WordStats) -> list[int]:
    # pi(0) plus the vertex at each letter's first occurrence; a first
    # occurrence at the closing position 2k reuses pi(0) and is not free.
    return [0] + [i for i in stats.first_positions if i < m]


def _check_budget(count: int, what: str) -> None:
    limit = DEFAULT_CENSUS_BUDGET
    if count > limit:
        raise SizeLimitError(f"census would visit up to {count} {what}, over the budget {limit}")


def _prologue(word: Word) -> tuple[WordStats, list[bool], bool]:
    """The word's statistics, first-occurrence flags, and whether it is
    special symmetric: whether one `propagate_slot` walk closes at pi(0)."""
    m = _require_circuit_word(word)
    stats = word_statistics(word)
    new_letter = [False] * (m + 1)
    for i in stats.first_positions:
        new_letter[i] = True
    # a new letter opens the class named by its slot, so one met last cannot close
    keys: dict[int, tuple[int, int]] = {}
    cur = 0
    for i, letter in enumerate(word.letters, start=1):
        cur = propagate_slot(keys, letter, cur, i)
        if cur is None:
            break
    return stats, new_letter, cur == 0


def _count_patterns(
    word: Word, stats: WordStats, new_letter: list[bool], sizes: tuple[int, ...]
) -> int:
    """Number of circuits compatible with `word`, counted by value pattern.

    Slot i draws its values from side `i % len(sizes)` of size `sizes[side]`:
    (p, n) gives the covariance link's rows and columns, (N,) the Wigner
    link's shared range.
    """
    m = word.length
    letters = word.letters
    # a generating slot branches over the values its side has opened so far,
    # at most one per earlier generating slot there, plus one new value
    earlier = [1] + [0] * (len(sizes) - 1)
    patterns = 1
    for slot in _free_slots(m, stats)[1:]:
        side = slot % len(sizes)
        patterns *= min(earlier[side] + 1, sizes[side])
        earlier[side] += 1
    _check_budget(patterns, "value patterns")
    # a value class is named by the slot that opened it, so pi(0) is class 0;
    # it stays on its opener's side, so one unordered step serves both links
    opened: list[list[int]] = [[] for _ in sizes]
    opened[0].append(0)
    # slot i's side is i % len(sizes), and m is even, so both repeat whole
    pools = opened * (m // len(sizes))
    caps = sizes * (m // len(sizes))
    # the earlier letter leaving generating slot i, if not the one entering it
    follow = [0] * m
    for i in stats.first_positions:
        if i < m and not new_letter[i + 1] and letters[i] != letters[i - 1]:
            follow[i] = letters[i]
    # keys[letter] is the letter's edge; a key a backtracked branch left is
    # overwritten at the letter's first occurrence before anything reads it
    keys: list[tuple[int, int] | None] = [None] * (stats.b + 1)
    return sizes[0] * _extend(letters, new_letter, follow, pools, caps, 1, 0, keys)


def _extend(letters, new_letter, follow, pools, caps, i, prev, keys) -> int:
    """Weighted count of the completions of a pattern prefix whose slot i-1
    holds class `prev`."""
    m = len(letters)
    while True:
        letter = letters[i - 1]
        if new_letter[i]:
            if i == m:
                return 1  # the edge (prev, 0) closes the circuit
            break
        a, b = keys[letter]
        if prev == a:
            prev = b
        elif prev == b:
            prev = a
        else:
            return 0
        if i == m:
            return int(prev == 0)
        i += 1
    pool = pools[i]
    total = 0
    nxt = follow[i]
    if nxt:
        # a new value is no endpoint of a recorded edge; a self-loop (c, c)
        # offers its class once
        a, b = keys[nxt]
        for cls in (a,) if a == b else (a, b):
            if cls in pool:
                keys[letter] = (prev, cls)
                total += _extend(letters, new_letter, follow, pools, caps, i + 1, cls, keys)
        return total
    for cls in tuple(pool):
        keys[letter] = (prev, cls)
        total += _extend(letters, new_letter, follow, pools, caps, i + 1, cls, keys)
    unused = caps[i] - len(pool)
    if unused > 0:
        keys[letter] = (prev, i)
        pool.append(i)
        total += unused * _extend(letters, new_letter, follow, pools, caps, i + 1, i, keys)
        pool.pop()
    return total


def _census(word: Word, sizes: tuple[int, ...], link: str, p: int, n: int) -> CensusResult:
    # the prediction p^(r+1) * n^(b-r) is given for special symmetric words
    stats, new_letter, special = _prologue(word)
    count = _count_patterns(word, stats, new_letter, sizes)
    predicted = p**stats.r_plus_1 * n ** (stats.b + 1 - stats.r_plus_1) if special else None
    return CensusResult(word.text, link, p, n, count, predicted)


def census_s(word: Word, p: int, n: int) -> CensusResult:
    """Count circuits compatible with `word` under the covariance link.

    Counts value patterns rather than assignments: each generating vertex
    takes a row (even slot) or column (odd slot) value already in use, or
    one new value weighted by the number still unused, and the unordered
    `propagate_slot` step forces the repeated letters (rows and columns never
    share a class).  The count is exact.  Raises SizeLimitError
    when the bound on the patterns visited exceeds `DEFAULT_CENSUS_BUDGET`;
    that bound stops growing with p and n once both reach the word length.
    """
    _require_sizes(p=p, n=n)
    return _census(word, (p, n), "S", p, n)


def census_w(word: Word, N: int) -> CensusResult:
    """Count circuits compatible with `word` under the Wigner link on {1..N},
    by value pattern with the same step as `census_s`, on one shared side."""
    _require_sizes(N=N)
    return _census(word, (N,), "wigner", N, N)


def _edge_keys_s(word: Word, values: tuple[int, ...]) -> list[tuple[int, int]]:
    m = word.length
    keys = []
    for i in range(1, m + 1):
        prev = values[i - 1]
        cur = values[0] if i == m else values[i]
        keys.append((prev, cur) if i % 2 else (cur, prev))
    return keys


def _edge_keys_w(word: Word, values: tuple[int, ...]) -> list[tuple[int, int]]:
    m = word.length
    keys = []
    for i in range(1, m + 1):
        prev = values[i - 1]
        cur = values[0] if i == m else values[i]
        keys.append((prev, cur) if prev <= cur else (cur, prev))
    return keys


def _word_compatible(word: Word, keys: list[tuple[int, int]]) -> bool:
    first_key: dict[int, tuple[int, int]] = {}
    for letter, key in zip(word.letters, keys):
        if letter not in first_key:
            first_key[letter] = key
        elif first_key[letter] != key:
            return False
    return True


def _iter_full_tuples(word: Word, p: int, n: int):
    m = word.length
    _check_budget((p * n) ** (m // 2), "circuit tuples")
    ranges = [range(1, (p if i % 2 == 0 else n) + 1) for i in range(m)]
    yield from itertools.product(*ranges)


def propagate_slot(
    keys: dict[int, tuple[int, int]], letter: int, prev: int, fresh: int
) -> int | None:
    """One propagation step, for both links: the class of the next slot,
    given the class `prev` of the slot before it.

    A letter met for the first time records its edge (prev, fresh) in `keys`
    and moves to the class `fresh`.  A repeated letter moves to the other
    endpoint of its recorded edge, or returns None when `prev` is neither
    endpoint, i.e. when two distinct generating vertices would be equated.

    The edge is unordered, as under the Wigner link.  The covariance link's
    ordered (row, col) check gives the same answer: a class is opened at one
    slot and only ever reached at slots of the same parity, so a row class
    never equals a column class, and `prev` can match only the endpoint on
    its own side, the one the ordered check tests.
    """
    if letter not in keys:
        keys[letter] = (prev, fresh)
        return fresh
    a, b = keys[letter]
    if prev == a:
        return b
    return a if prev == b else None


def slot_classes(word: Word) -> list[int]:
    """Class id of each circuit slot pi(0..2k-1) under the covariance link,
    one class per generating vertex.

    Valid for special symmetric words: every letter occurs an even number
    of times and propagation never needs to equate two distinct generating
    vertices.  Raises ValueError otherwise.

    A letter opens a fresh class at its first occurrence, at the closing
    slot too, so the letters are the edges of a tree on the classes.  A
    walk along them that closes at pi(0) crosses every edge an even number
    of times, which rejects odd multiplicities without counting them.
    """
    m = _require_circuit_word(word)
    cls: list[int] = [0] * m
    next_class = 1
    keys: dict[int, tuple[int, int]] = {}
    for i in range(1, m + 1):
        cur = propagate_slot(keys, word.letters[i - 1], cls[i - 1], next_class)
        if cur is None or (i == m and cur != 0):
            raise ValueError(f"word {word.text} is not special symmetric")
        if i < m:
            cls[i] = cur
            if cur == next_class:
                next_class += 1
    return cls


def verify_containment(word: Word, p: int, n: int) -> bool:
    """Check that every circuit counted under the S link is also compatible
    with the Wigner link on the range {1..max(p, n)}, by testing every
    circuit tuple as `census_s_exhaustive` and `census_w_exhaustive` do."""
    _require_sizes(p=p, n=n)
    _require_circuit_word(word)
    return all(
        _word_compatible(word, _edge_keys_w(word, values))
        for values in _iter_full_tuples(word, p, n)
        if _word_compatible(word, _edge_keys_s(word, values))
    )
