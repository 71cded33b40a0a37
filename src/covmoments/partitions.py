"""Set partitions of {1..m}, their canonical words, and the special
symmetric class that governs limiting covariance-matrix moments.

A partition is stored as blocks ordered by least element; its canonical
word assigns letter j to the j-th block in that order, so partitions of
{1..m} and canonical words of length m are the same data.

Exhaustive enumerations refuse a ground set larger than
`DEFAULT_ENUMERATION_CAP` with SizeLimitError.  The limit is read at call
time, so a caller who needs another one sets the module constant.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 14


class InputError(ValueError):
    """Raised when an input is malformed or out of range: the one type of
    every input check in covmoments, which the CLI maps to exit 2."""


class SizeLimitError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its configured cap."""


def _repr(value, form=repr) -> str:
    """form(value), repr by default, for an input message.  An integer with
    more digits than Python converts to decimal (4,300 by default) is named
    by its sign and number of digits instead, found without converting it,
    and so is such an integer in a list."""
    try:
        return form(value)
    except ValueError:
        if isinstance(value, list):
            return f"[{', '.join(_repr(item, form) for item in value)}]"
        if not (isinstance(value, numbers.Rational) and value.denominator == 1):
            raise
    size = abs(int(value))
    # a lower bound, as 0.301029995 < log10(2), raised to the exact count
    digits = (size.bit_length() - 1) * 301029995 // 10**9 + 1
    while size >= 10**digits:
        digits += 1
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def _integer(value, what: str) -> int:
    """value as operator.index gives it; a value it does not take, or a
    bool, which it does, raises InputError naming `what`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {_repr(value)}")


def bell(m: int) -> int:
    """Number of set partitions of {1..m} (Bell number)."""
    if _integer(m, "m") < 0:
        raise InputError("m must be >= 0")
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def catalan(k: int) -> int:
    """Catalan number C(2k,k)/(k+1), k >= 0."""
    if _integer(k, "k") < 0:
        raise InputError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def narayana(k: int, r: int) -> int:
    """Count of pair-matched special symmetric words of length 2k with r+1
    even generating vertices: C(k,r)*C(k-1,r)/(r+1)."""
    k, r = _integer(k, "k"), _integer(r, "r")
    if not 0 <= r <= k - 1:
        return 0
    return math.comb(k, r) * math.comb(k - 1, r) // (r + 1)


@dataclass(frozen=True)
class Partition:
    """Set partition of {1..m}; blocks sorted ascending, ordered by least element."""

    m: int
    blocks: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[int]]) -> "Partition":
        """Build and validate a partition from an iterable of blocks of ints
        (a bool is not one)."""
        blocks = [tuple(b) for b in blocks]
        bad = [e for b in blocks for e in b if type(e) is not int]
        if bad:
            raise InputError(f"block element {bad[0]!r} is not an integer")
        # checked before the sort, which keys each block by its first element
        if not blocks or not all(blocks):
            raise InputError("blocks must be non-empty")
        normalized = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        elements = [e for b in normalized for e in b]
        m = len(elements)
        if sorted(elements) != list(range(1, m + 1)):
            raise InputError("blocks must partition {1..m} exactly")
        return Partition(m, normalized)

    def block_of(self) -> dict[int, int]:
        """Map element -> index of its block (0-based)."""
        owner = {}
        for idx, block in enumerate(self.blocks):
            for e in block:
                owner[e] = idx
        return owner

    def to_word(self) -> "Word":
        letters = [0] * self.m
        for letter, block in enumerate(self.blocks, start=1):
            for e in block:
                letters[e - 1] = letter
        return Word(tuple(letters))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(sorted(len(b) for b in self.blocks))

    def as_lists(self) -> list[list[int]]:
        return [list(b) for b in self.blocks]

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


@dataclass(frozen=True, slots=True)
class Word:
    """Canonical word: letters 1..b, letter j first appearing before letter j+1."""

    letters: tuple[int, ...]
    # `text` is built on first read and kept in a slot that equality, hash
    # and repr leave out
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = 0
        for letter in self.letters:
            if letter > seen + 1 or letter < 1:
                raise InputError(f"word {self.letters} is not in canonical first-occurrence form")
            if letter > seen:
                seen = letter

    @staticmethod
    def from_text(text: str) -> "Word":
        """The word spelled by `text`, letter a = 1; raises InputError naming
        the text and either its first character outside a-z or, for a text
        not in first-occurrence form, its canonical spelling."""
        try:
            return Word(tuple(ord(c) - ord("a") + 1 for c in text))
        except InputError:
            pass
        for c in text:
            if not "a" <= c <= "z":
                raise InputError(f"word {text!r} has the character {c!r} outside a-z")
        labels: dict[str, str] = {}
        canonical = "".join(labels.setdefault(c, chr(ord("a") + len(labels))) for c in text)
        raise InputError(
            f"word {text!r} is not in canonical first-occurrence form; "
            f"its canonical spelling is {canonical!r}"
        )

    @property
    def text(self) -> str:
        text = self._text
        if text is None:
            text = "".join(chr(ord("a") + letter - 1) for letter in self.letters)
            object.__setattr__(self, "_text", text)
        return text

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def distinct_letters(self) -> int:
        return max(self.letters) if self.letters else 0

    def multiplicities(self) -> tuple[int, ...]:
        """Occurrence count per letter, in letter order."""
        counts = Counter(self.letters)
        return tuple(counts[j] for j in range(1, self.distinct_letters + 1))

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class WordStats:
    b: int
    r_plus_1: int
    first_positions: tuple[int, ...]


def word_statistics(word: Word) -> WordStats:
    """Generating-vertex statistics of a word.

    The generating indices are 0 together with the first-occurrence position of
    each letter; r+1 counts the even ones (index 0 included).  In canonical
    form a new letter is one above every letter before it.
    """
    firsts = []
    top = 0
    r_plus_1 = 1
    for pos, letter in enumerate(word.letters, start=1):
        if letter > top:
            top = letter
            firsts.append(pos)
            if pos % 2 == 0:
                r_plus_1 += 1
    return WordStats(b=top, r_plus_1=r_plus_1, first_positions=tuple(firsts))


def _check_cap(m: int) -> None:
    limit = DEFAULT_ENUMERATION_CAP
    if m > limit:
        raise SizeLimitError(
            f"ground set of size {m} exceeds the enumeration cap {limit} "
            f"(Bell({limit}) = {bell(limit)} partitions is the configured ceiling)"
        )


def enumerate_partitions(m: int) -> Iterator[Partition]:
    """Yield every partition of {1..m} once, in restricted-growth order:
    element e joins each open block in turn, then opens its own.

    Blocks grow in ascending order and open in order of their least
    element, so each partition is built already normalized."""
    m = _integer(m, "m")
    if m < 1:
        raise InputError("m must be >= 1")
    _check_cap(m)
    blocks = [[1]]

    def rec(e: int) -> Iterator[Partition]:
        if e > m:
            yield Partition(m, tuple(map(tuple, blocks)))
            return
        for block in blocks[:]:
            block.append(e)
            yield from rec(e + 1)
            block.pop()
        blocks.append([e])
        yield from rec(e + 1)
        blocks.pop()

    yield from rec(2)


def enumerate_pair_partitions(m: int) -> Iterator[Partition]:
    """Yield every pair partition of {1..m} (empty for odd m).

    Each pair is (first, partner) with `first` the least element left, so
    the pairs come normalized and in order of their least element."""
    m = _integer(m, "m")
    if m < 1:
        raise InputError("m must be >= 1")
    _check_cap(m)
    if m % 2:
        return

    def rec(remaining: tuple[int, ...], acc: list[tuple[int, int]]) -> Iterator[Partition]:
        if not remaining:
            yield Partition(m, tuple(acc))
            return
        first, rest = remaining[0], remaining[1:]
        for i, partner in enumerate(rest):
            acc.append((first, partner))
            yield from rec(rest[:i] + rest[i + 1 :], acc)
            acc.pop()

    yield from rec(tuple(range(1, m + 1)), [])


def is_pair(p: Partition) -> bool:
    return all(len(b) == 2 for b in p.blocks)


def has_even_blocks(p: Partition) -> bool:
    return all(len(b) % 2 == 0 for b in p.blocks)


def is_non_crossing(p: Partition) -> bool:
    """True iff no two blocks interleave as a < b < c < d with a,c and b,d split."""
    for i in range(len(p.blocks)):
        for j in range(i + 1, len(p.blocks)):
            if _blocks_cross(p.blocks[i], p.blocks[j]):
                return False
    return True


def _blocks_cross(x: Sequence[int], y: Sequence[int]) -> bool:
    # Merge the two sorted blocks and collapse runs of equal ownership;
    # an alternation of length >= 4 is exactly a crossing.
    merged = sorted([(e, 0) for e in x] + [(e, 1) for e in y])
    alternations = 1
    for (_, prev), (_, cur) in zip(merged, merged[1:]):
        if cur != prev:
            alternations += 1
            if alternations >= 4:
                return True
    return False


def is_special_symmetric(p: Partition) -> bool:
    """Literal membership test for the special symmetric class.

    Requirements:
      - every block has even size (the class sits inside even-block partitions;
        without this, gap-free singleton blocks slip through vacuously);
      (i) the last block (largest least element) splits into maximal runs of
          consecutive integers, each of even length;
      (ii) between any two successive elements of a block, every other block
          occurs equally often at odd and at even gap positions (position of
          an interleaved element w in the gap (u, v) is w - u).
    Empty for odd ground sets.
    """
    if p.m % 2:
        return False
    if not has_even_blocks(p):
        return False
    last = p.blocks[-1]
    run = 1
    for prev, cur in zip(last, last[1:]):
        if cur == prev + 1:
            run += 1
        else:
            if run % 2:
                return False
            run = 1
    if run % 2:
        return False

    owner = p.block_of()
    for idx, block in enumerate(p.blocks):
        for u, v in zip(block, block[1:]):
            if v == u + 1:
                continue
            balance: dict[int, int] = defaultdict(int)
            for w in range(u + 1, v):
                balance[owner[w]] += 1 if (w - u) % 2 else -1
            if any(balance.values()):
                return False
    return True


@dataclass(frozen=True)
class PartitionClass:
    is_pair: bool
    is_even_blocks: bool
    is_non_crossing: bool
    is_special_symmetric: bool
    b: int
    r_plus_1: int


def classify(p: Partition) -> PartitionClass:
    stats = word_statistics(p.to_word())
    return PartitionClass(
        is_pair=is_pair(p),
        is_even_blocks=has_even_blocks(p),
        is_non_crossing=is_non_crossing(p),
        is_special_symmetric=is_special_symmetric(p),
        b=len(p.blocks),
        r_plus_1=stats.r_plus_1,
    )


# each grouping key of count_ss and the value it takes on a partition
_GROUPS = {
    "total": lambda p, stats: "total",
    "blocks": lambda p, stats: len(p.blocks),
    "even_generating": lambda p, stats: stats.r_plus_1,
    "sizes": lambda p, stats: p.block_sizes(),
}


def count_ss(
    k: int,
    by: str | Sequence[str] = "total",
    pair_only: bool = False,
) -> dict:
    """Exhaustively count special symmetric partitions of {1..2k}.

    `by` selects the grouping: "total", "blocks" (b), "even_generating" (r+1),
    "sizes" (block-size multiset), or a tuple of those for a joint table.
    With pair_only=True only pair partitions are enumerated, which is the
    sub-table whose even-generating slices are the Narayana numbers.
    The `count` verb reads its table from the sojourn recursion instead;
    this sweep is the independent check of that table.
    """
    k = _integer(k, "k")
    keys = (by,) if isinstance(by, str) else tuple(by)
    for key in keys:
        if key not in _GROUPS:
            raise InputError(f"unknown grouping key {key!r}; expected one of {tuple(_GROUPS)}")
    source = enumerate_pair_partitions if pair_only else enumerate_partitions
    counts: dict = defaultdict(int)
    for p in source(2 * k):
        if not is_special_symmetric(p):
            continue
        stats = word_statistics(p.to_word())
        group = tuple(_GROUPS[key](p, stats) for key in keys)
        counts[group[0] if len(group) == 1 else group] += 1
    return dict(counts)
