"""Test-only oracles: brute-force censuses, the product-law prediction taken
from `slot_classes`, and a small helper for even constant sequences.

The censuses test every circuit tuple with the same predicates and budget
as `circuits.verify_containment`, independently of the value-pattern
search they check.
"""

from fractions import Fraction
from numbers import Real
from typing import Sequence

from covmoments import circuits
from covmoments.circuits import CensusResult, slot_classes
from covmoments.partitions import Word, word_statistics


def census_s_exhaustive(word: Word, p: int, n: int) -> CensusResult:
    """Test every circuit tuple against the S-link predicate."""
    circuits._require_sizes(p=p, n=n)
    circuits._require_circuit_word(word)
    count = sum(
        1
        for values in circuits._iter_full_tuples(word, p, n)
        if circuits._word_compatible(word, circuits._edge_keys_s(word, values))
    )
    return CensusResult(word.text, "S", p, n, count, predicted_count_s(word, p, n))


def census_w_exhaustive(word: Word, N: int) -> CensusResult:
    """Test every circuit tuple against the Wigner predicate."""
    circuits._require_sizes(N=N)
    circuits._require_circuit_word(word)
    count = sum(
        1
        for values in circuits._iter_full_tuples(word, N, N)
        if circuits._word_compatible(word, circuits._edge_keys_w(word, values))
    )
    return CensusResult(word.text, "wigner", N, N, count, predicted_count_w(word, N))


def _predicted(word: Word, p: int, n: int) -> int | None:
    try:
        slot_classes(word)
    except ValueError:
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


def even_sequence(values: Sequence[Real]) -> dict[int, Fraction]:
    """[c2, c4, c6, ...] -> {2: c2, 4: c4, 6: c6, ...} (odd orders are zero)."""
    return {2 * (i + 1): Fraction(v) for i, v in enumerate(values)}
