"""Brute-force circuit censuses for words under the covariance and Wigner
link functions.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .partitions import SizeLimitError, Word, is_special_symmetric, word_statistics

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


def _free_slots(word: Word) -> list[int]:
    # pi(0) plus the vertex at each letter's first occurrence; a first
    # occurrence at the closing position 2k reuses pi(0) and is not free.
    stats = word_statistics(word)
    return [0] + [i for i in stats.first_positions if i < word.length]


def _check_budget(candidates: int, budget: int | None) -> None:
    limit = DEFAULT_CENSUS_BUDGET if budget is None else budget
    if candidates > limit:
        raise SizeLimitError(
            f"census would evaluate {candidates} candidate assignments, over the budget {limit}"
        )


def _count_s_circuit(word: Word, p: int, values: list[int]) -> bool:
    """Propagate one assignment of the generating vertices under the S link."""
    m = word.length
    keys: dict[int, tuple[int, int]] = {}
    for i in range(1, m + 1):
        prev = values[i - 1]
        cur = values[0] if i == m else values[i]
        letter = word.letters[i - 1]
        if letter not in keys:
            keys[letter] = (prev, cur) if i % 2 else (cur, prev)
            continue
        row, col = keys[letter]
        if i % 2:
            if prev != row:
                return False
            forced = col
        else:
            if prev != col:
                return False
            forced = row
        if i == m:
            if forced != values[0]:
                return False
        else:
            values[i] = forced
    return True


def _count_w_circuit(word: Word, values: list[int]) -> bool:
    """Propagate one assignment under the unordered Wigner link."""
    m = word.length
    keys: dict[int, tuple[int, int]] = {}
    for i in range(1, m + 1):
        prev = values[i - 1]
        cur = values[0] if i == m else values[i]
        letter = word.letters[i - 1]
        if letter not in keys:
            keys[letter] = (prev, cur) if prev <= cur else (cur, prev)
            continue
        lo, hi = keys[letter]
        if lo == hi:
            if prev != lo:
                return False
            forced = lo
        elif prev == lo:
            forced = hi
        elif prev == hi:
            forced = lo
        else:
            return False
        if i == m:
            if forced != values[0]:
                return False
        else:
            values[i] = forced
    return True


def _iter_assignments(word: Word, p: int, n: int, budget: int | None):
    """Yield value arrays with the generating slots filled, others None."""
    m = word.length
    slots = _free_slots(word)
    ranges = [range(1, (p if s % 2 == 0 else n) + 1) for s in slots]
    candidates = math.prod(len(r) for r in ranges)
    _check_budget(candidates, budget)
    for assignment in itertools.product(*ranges):
        values: list = [None] * m
        for slot, value in zip(slots, assignment):
            values[slot] = value
        yield values


def census_s(word: Word, p: int, n: int, budget: int | None = None) -> CensusResult:
    """Count circuits compatible with `word` under the covariance link.

    Iterates over all assignments of the generating vertices and propagates
    the forced values; an assignment is counted when every repeated letter
    reproduces its first-occurrence edge.
    """
    _require_circuit_word(word)
    count = sum(
        1 for values in _iter_assignments(word, p, n, budget) if _count_s_circuit(word, p, values)
    )
    return CensusResult(word.text, "S", p, n, count, predicted_count_s(word, p, n))


def census_w(word: Word, N: int, budget: int | None = None) -> CensusResult:
    """Count circuits compatible with `word` under the Wigner link on {1..N}."""
    _require_circuit_word(word)
    count = sum(
        1 for values in _iter_assignments(word, N, N, budget) if _count_w_circuit(word, values)
    )
    return CensusResult(word.text, "wigner", N, N, count, predicted_count_w(word, N))


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


def _iter_full_tuples(word: Word, p: int, n: int, budget: int | None):
    m = word.length
    _check_budget((p * n) ** (m // 2), budget)
    ranges = [range(1, (p if i % 2 == 0 else n) + 1) for i in range(m)]
    yield from itertools.product(*ranges)


def census_s_exhaustive(word: Word, p: int, n: int, budget: int | None = None) -> CensusResult:
    """Independent oracle: test every circuit tuple against the S-link predicate."""
    _require_circuit_word(word)
    count = sum(
        1
        for values in _iter_full_tuples(word, p, n, budget)
        if _word_compatible(word, _edge_keys_s(word, values))
    )
    return CensusResult(word.text, "S", p, n, count, predicted_count_s(word, p, n))


def census_w_exhaustive(word: Word, N: int, budget: int | None = None) -> CensusResult:
    """Independent oracle: test every circuit tuple against the Wigner predicate."""
    _require_circuit_word(word)
    count = sum(
        1
        for values in _iter_full_tuples(word, N, N, budget)
        if _word_compatible(word, _edge_keys_w(word, values))
    )
    return CensusResult(word.text, "wigner", N, N, count, predicted_count_w(word, N))


def predicted_count_s(word: Word, p: int, n: int) -> int | None:
    """p^(r+1) * n^(b-r) for special symmetric words, None otherwise."""
    _require_circuit_word(word)
    if not is_special_symmetric(word.to_partition()):
        return None
    stats = word_statistics(word)
    r = stats.r_plus_1 - 1
    return p ** stats.r_plus_1 * n ** (stats.b - r)


def predicted_count_w(word: Word, N: int) -> int | None:
    """N^(b+1) for special symmetric words, None otherwise."""
    _require_circuit_word(word)
    if not is_special_symmetric(word.to_partition()):
        return None
    return N ** (word_statistics(word).b + 1)


def propagate_slot(
    keys: dict[int, tuple[int, int]], letter: int, i: int, prev: int, fresh: int
) -> int | None:
    """One step of symbolic covariance-link propagation: the class of slot i,
    given the class `prev` of slot i-1.

    A letter met for the first time records its edge (row, col) in `keys` and
    moves to the class `fresh`.  A repeated letter forces the far endpoint of
    its recorded edge, or returns None when `prev` is not the matching
    endpoint, i.e. when two distinct generating vertices would be equated.
    """
    if letter not in keys:
        keys[letter] = (prev, fresh) if i % 2 else (fresh, prev)
        return fresh
    row, col = keys[letter]
    if i % 2:
        return col if prev == row else None
    return row if prev == col else None


def slot_classes(word: Word) -> list[int]:
    """Class id of each circuit slot pi(0..2k-1) under the covariance link,
    one class per generating vertex.

    Valid for special symmetric words, where propagation never needs to
    equate two distinct generating vertices; raises ValueError otherwise.
    """
    m = _require_circuit_word(word)
    cls: list[int] = [0] * m
    next_class = 1
    keys: dict[int, tuple[int, int]] = {}
    for i in range(1, m + 1):
        # the closing slot pi(2k) is pi(0), so it never opens a class
        fresh = 0 if i == m else next_class
        cur = propagate_slot(keys, word.letters[i - 1], i, cls[i - 1], fresh)
        if cur is None or (i == m and cur != 0):
            raise ValueError(f"word {word.text} is not special symmetric")
        if i < m:
            cls[i] = cur
            if cur == next_class:
                next_class += 1
    return cls


def verify_containment(word: Word, p: int, n: int, budget: int | None = None) -> bool:
    """Check that every circuit counted under the S link is also compatible
    with the Wigner link on the range {1..max(p, n)}."""
    _require_circuit_word(word)
    for values in _iter_assignments(word, p, n, budget):
        work = list(values)
        if not _count_s_circuit(word, p, work):
            continue
        if not _word_compatible(word, _edge_keys_w(word, tuple(work))):
            return False
    return True
