import hashlib
import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covmoments import circuits
from covmoments.checks import census_s_exhaustive, check_census_product_law
from covmoments.circuits import (
    CensusResult,
    census_s,
    census_w,
    word_structure,
)
from covmoments.partitions import (
    InputError,
    SizeLimitError,
    Word,
    enumerate_partitions,
    is_special_symmetric,
    word_statistics,
)
import oracles
from oracles import (
    census_w_exhaustive,
    predicted_count_s,
    predicted_count_w,
    verify_containment,
    word_partition,
)

W = Word.from_text

# twenty nested letters: adjacent pairs all the way down, so the Wigner
# census reduces the word to nothing and counts N^21 with no search
NESTED_40 = W("abcdefghijklmnopqrst" + "abcdefghijklmnopqrst"[::-1])
# twenty crossing letters: nothing to reduce, 21! = 5.1e19 Wigner value
# patterns at N = 10^6
CROSSING_40 = W("abcdefghijklmnopqrst" * 2)


def all_words(m):
    return [p.to_word() for p in enumerate_partitions(m)]


def ss_words(m):
    return [p.to_word() for p in enumerate_partitions(m) if is_special_symmetric(p)]


def non_ss_words(m):
    return [p.to_word() for p in enumerate_partitions(m) if not is_special_symmetric(p)]


def free_slots(word: Word) -> list[int]:
    """pi(0) plus the vertex at each letter's first occurrence; a first
    occurrence at the closing position 2k reuses pi(0) and is not free."""
    return [0] + [i for i in word_statistics(word).first_positions if i < word.length]


def _iter_assignments(word: Word, p: int, n: int):
    """Yield value arrays with the generating slots filled, others None."""
    m = word.length
    slots = free_slots(word)
    ranges = [range(1, (p if s % 2 == 0 else n) + 1) for s in slots]
    for assignment in itertools.product(*ranges):
        values: list = [None] * m
        for slot, value in zip(slots, assignment):
            values[slot] = value
        yield values


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


def _count_w_circuit(word, values):
    """Propagate one assignment under the unordered Wigner link."""
    m = word.length
    keys = {}
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


def assignment_census_s(word, p, n):
    """Oracle: propagate every assignment of the generating vertices (S link)."""
    return sum(1 for values in _iter_assignments(word, p, n) if _count_s_circuit(word, p, values))


def assignment_census_w(word, N):
    """Oracle: propagate every assignment of the generating vertices (Wigner link)."""
    return sum(1 for values in _iter_assignments(word, N, N) if _count_w_circuit(word, values))


def canonical(raw):
    """Relabel a letter sequence by order of first occurrence."""
    labels = {}
    return Word(tuple(labels.setdefault(x, len(labels) + 1) for x in raw))


def words_of_length(*lengths):
    return (
        st.sampled_from(lengths)
        .flatmap(lambda m: st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        .map(canonical)
    )


SIZES = st.integers(1, 3)


def reduce_cyclic(letters):
    """Oracle: rewrite the cyclic word until no rule applies, one pair of
    neighbours at a time; returns the residual and the number of rules
    applied.  A letter seen exactly twice at two neighbouring positions
    loses both; of two neighbours each seen once, the second goes."""
    uses = {letter: letters.count(letter) for letter in letters}
    residual, free = list(letters), 0
    changed = True
    while changed:
        changed = False
        m = len(residual)
        for i in range(m if m > 1 else 0):
            j = (i + 1) % m
            x, y = residual[i], residual[j]
            if x == y and uses[x] == 2:
                del residual[max(i, j)], residual[min(i, j)]
            elif uses[x] == 1 == uses[y]:
                del residual[j]
            else:
                continue
            free += 1
            changed = True
            break
    return tuple(residual), free


def spliced_words(*lengths):
    """(word, N): a random word over three letters with a run of letters
    seen once and a block of nested adjacent pairs spliced in, then rotated,
    so that either may straddle the ends; N <= 3, and N <= 2 at length 14
    to keep the assignment oracle fast."""
    def splice(once, pairs, body, at_once, at_pairs, shift):
        word = list(body)
        at = at_once % (len(word) + 1)
        word[at:at] = [10 + j for j in range(once)]
        nest = [20 + j for j in range(pairs)]
        at = at_pairs % (len(word) + 1)
        word[at:at] = nest + nest[::-1]
        shift %= len(word)
        return canonical(word[shift:] + word[:shift])

    def build(m, once, pairs):
        body = st.lists(st.integers(0, 2), min_size=m - once - 2 * pairs, max_size=m - once - 2 * pairs)
        place = st.integers(0, m)
        word = st.tuples(st.just(once), st.just(pairs), body, place, place, place).map(lambda t: splice(*t))
        return st.tuples(word, st.integers(1, 3 if m < 14 else 2))

    return st.tuples(st.sampled_from(lengths), st.integers(1, 3), st.integers(1, 2)).flatmap(
        lambda t: build(*t)
    )


def ordered_propagate_slot(keys, letter, i, prev, fresh):
    """Oracle: the covariance-link step with the edge ordered (row, col),
    the row being the endpoint at the even slot of positions i-1 and i."""
    if letter not in keys:
        keys[letter] = (prev, fresh) if i % 2 else (fresh, prev)
        return fresh
    row, col = keys[letter]
    if i % 2:
        return col if prev == row else None
    return row if prev == col else None


def ordered_slot_classes(word):
    """Oracle: the slot classes of `word_structure`, from the walk driven by
    the ordered step."""
    m = word.length
    cls = [0] * m
    next_class = 1
    keys = {}
    for i in range(1, m + 1):
        cur = ordered_propagate_slot(keys, word.letters[i - 1], i, cls[i - 1], next_class)
        if cur is None or (i == m and cur != 0):
            raise ValueError(f"word {word.text} is not special symmetric")
        if i < m:
            cls[i] = cur
            if cur == next_class:
                next_class += 1
    return tuple(cls)


class TestCensusS:
    def test_single_letter_base_case(self):
        assert census_s(W("aa"), 2, 3).exact_count == 6
        assert census_s(W("aaaa"), 2, 3).exact_count == 6
        for p, n in [(1, 1), (3, 2), (4, 4)]:
            assert census_s(W("aa"), p, n).exact_count == p * n

    def test_abba(self):
        result = census_s(W("abba"), 2, 2)
        assert result.exact_count == 8 == result.predicted_count

    def test_crossing_pair_counts_low(self):
        result = census_s(W("abab"), 2, 2)
        assert result.exact_count < 8
        assert result.predicted_count is None

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_propagation_matches_exhaustive_oracle(self, m):
        for word in all_words(m):
            for p, n in itertools.product(range(1, 5), range(1, 5)):
                assert (
                    census_s(word, p, n).exact_count
                    == census_s_exhaustive(word, p, n)
                )

    def test_propagation_matches_exhaustive_rectangular(self):
        for word in all_words(4):
            for p, n in [(4, 2), (2, 4), (4, 3)]:
                assert (
                    census_s(word, p, n).exact_count
                    == census_s_exhaustive(word, p, n)
                )

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_ss_words_count_exactly(self, m):
        for word in ss_words(m):
            for p, n in itertools.product(range(1, 5), range(1, 5)):
                result = census_s(word, p, n)
                assert result.exact_count == result.predicted_count

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_non_ss_ratio_decays(self, m):
        for word in non_ss_words(m):
            b = word.distinct_letters
            ratios = [census_s(word, N, N).exact_count / N ** (b + 1) for N in (2, 3, 4)]
            assert ratios[0] >= ratios[1] >= ratios[2]
            assert ratios[2] < 1

    def test_budget(self, monkeypatch):
        # the S census is closed-form, so no budget applies to it; the budget
        # bounds Wigner value patterns, not the product of the ranges
        p, n = 10**6, 10**6 + 1
        result = census_s(NESTED_40, p, n)
        assert result.exact_count == p**11 * n**10 == result.predicted_count
        assert census_w(W("aabb"), 10**6).exact_count == 10**18
        N = 10**6
        nested = census_w(NESTED_40, N)
        assert nested.exact_count == nested.predicted_count == N**21
        with pytest.raises(SizeLimitError, match=f"{math.factorial(21)} value patterns"):
            census_w(CROSSING_40, N)
        # abab reduces to nothing shorter; its Wigner bound at N = 3 is 2 * 3
        # patterns: slot 1 takes pi(0)'s value or a new one, slot 2 one of
        # the values opened or a new one
        expected = census_w_exhaustive(W("abab"), 3).exact_count
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", 6)
        assert census_w(W("abab"), 3).exact_count == expected
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", 5)
        with pytest.raises(SizeLimitError, match="6 value patterns, over the budget 5"):
            census_w(W("abab"), 3)
        # aabb is two adjacent pairs, reduced to nothing: one pattern
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", 1)
        assert census_w(W("aabb"), 3).exact_count == 27
        assert census_s(W("aabb"), 3, 3).exact_count == 27
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", 0)
        with pytest.raises(SizeLimitError, match="1 value patterns, over the budget 0"):
            census_w(W("aabb"), 3)
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", 10)
        with pytest.raises(SizeLimitError, match="circuit tuples"):
            census_s_exhaustive(W("aabb"), 100, 100)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="positive even length"):
            census_s(W("aab"), 2, 2)


class TestCensusW:
    def test_examples(self):
        assert census_w(W("aa"), 3).exact_count == 9
        assert census_w(W("abba"), 2).exact_count == 8

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_propagation_matches_exhaustive_oracle(self, m):
        for word in all_words(m):
            for N in (2, 3):
                assert (
                    census_w(word, N).exact_count == census_w_exhaustive(word, N).exact_count
                )

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_ss_words_hit_scale_exactly(self, m):
        # stated in the source material only as a limit; exhaustive checks show
        # exact equality at finite N for every special symmetric word tried
        for word in ss_words(m):
            for N in (2, 3, 4):
                result = census_w(word, N)
                assert result.exact_count == N ** (word.distinct_letters + 1)
                assert result.exact_count == result.predicted_count

    def test_ss8_words_hit_scale_exactly(self):
        for word in ss_words(8):
            assert census_w(word, 2).exact_count == 2 ** (word.distinct_letters + 1)

    @pytest.mark.parametrize("m", [2, 4])
    def test_non_ss_ratio_decays(self, m):
        for word in non_ss_words(m):
            b = word.distinct_letters
            ratios = [census_w(word, N).exact_count / N ** (b + 1) for N in (2, 3, 4)]
            assert ratios[0] >= ratios[1] >= ratios[2]

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="positive even length"):
            census_w(W("aab"), 2)


class TestPredictions:
    def test_aabb(self):
        assert predicted_count_s(W("aabb"), 3, 5) == 3 * 25

    def test_single_letter(self):
        for p, n in [(2, 3), (7, 7)]:
            assert predicted_count_s(W("aa"), p, n) == p * n

    def test_non_ss_is_none(self):
        assert predicted_count_s(W("abab"), 2, 2) is None
        assert predicted_count_w(W("abab"), 2) is None

    def test_wigner_prediction(self):
        assert predicted_count_w(W("abba"), 3) == 27

    def test_predicted_iff_special_symmetric(self):
        for partition in enumerate_partitions(8):
            word = partition.to_word()
            ss = is_special_symmetric(partition)
            assert (census_s(word, 1, 1).predicted_count is not None) == ss
            assert (census_w(word, 1).predicted_count is not None) == ss


class TestSlotClasses:
    @given(words_of_length(2, 4, 6, 8, 10))
    def test_unordered_step_matches_ordered_oracle(self, word):
        # classes are side-disjoint, so the unordered step decides the
        # ordered covariance-link match: same classes, same rejections
        try:
            expected = ordered_slot_classes(word)
        except ValueError:
            with pytest.raises(ValueError):
                word_structure(word)
        else:
            assert word_structure(word).classes == expected

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_unordered_step_matches_ordered_oracle_on_every_word(self, m):
        for word in all_words(m):
            try:
                expected = ordered_slot_classes(word)
            except ValueError:
                expected = None
            try:
                assert word_structure(word).classes == expected
            except ValueError:
                assert expected is None

    @pytest.mark.parametrize("m", range(1, 11))
    def test_success_is_special_symmetric(self, m):
        # word_structure succeeds exactly on the words the literal definition
        # accepts, and then numbers pi(0)'s class 0 and the class letter j
        # opens at its first position j
        for word in all_words(m):
            if m % 2:
                with pytest.raises(ValueError, match="positive even length"):
                    word_structure(word)
                continue
            if not is_special_symmetric(word_partition(word)):
                with pytest.raises(ValueError, match="is not special symmetric"):
                    word_structure(word)
                continue
            cls = word_structure(word).classes
            firsts = word_statistics(word).first_positions
            assert cls[0] == 0, word.text
            assert [cls[i] for i in firsts] == list(range(1, len(firsts) + 1)), word.text
            assert max(cls) == len(firsts), word.text

    def test_odd_multiplicity_example(self):
        # c and d occur once each; d, first met at the closing slot, must
        # open a class of its own rather than close onto pi(0)
        with pytest.raises(ValueError, match="aabbcd is not special symmetric"):
            word_structure(W("aabbcd"))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_odd_multiplicities_rejected(self, m):
        odd = [w for w in all_words(m) if any(c % 2 for c in w.multiplicities())]
        assert odd
        for word in odd:
            with pytest.raises(ValueError):
                word_structure(word)


def forward_checked(word):
    """Generating slots whose outgoing letter is repeated and differs from
    the incoming one: a circuit goes on past such a slot only when its value
    is an endpoint of the outgoing letter's recorded edge."""
    m, letters = word.length, word.letters
    firsts = word_statistics(word).first_positions
    return [i for i in firsts if i < m and i + 1 not in firsts and letters[i] != letters[i - 1]]


class TestForwardCheck:
    def test_wigner_self_loop(self):
        # with b's edge the self-loop (c, c), c's generating slot can only
        # leave through c, which the search must offer once, not once per
        # endpoint; at N = 1 every edge is a self-loop and one circuit exists
        word = W("abcb")
        assert forward_checked(word) == [3]
        for N in (1, 2, 3):
            assert census_w(word, N).exact_count == census_w_exhaustive(word, N).exact_count
        assert census_w(word, 1).exact_count == 1

    @pytest.mark.parametrize("text", ["abcbcaca", "abcdcbda", "abacbcdd", "aabcbcdd"])
    def test_len8_forward_checked_words(self, text):
        word = W(text)
        assert forward_checked(word)
        for N in (1, 2, 3):
            assert census_w(word, N).exact_count == census_w_exhaustive(word, N).exact_count


def rotations_and_reversal(word: Word) -> list[Word]:
    """The canonical relabelling of each cyclic shift of `word` and of its
    reversal."""
    letters = word.letters
    shifts = [letters[q:] + letters[:q] for q in range(1, word.length)]
    return [canonical(raw) for raw in shifts + [letters[::-1]]]


def once_seen_away_from_end(*lengths):
    """Words of the given lengths over at most six letters that end at a
    repeated letter and have a letter seen once before it."""
    def build(m):
        body = st.lists(st.integers(0, 4), min_size=m - 2, max_size=m - 2)
        return st.tuples(body, st.integers(0, m - 2)).map(
            lambda t: canonical(t[0][: t[1]] + [5] + t[0][t[1]:] + t[0][:1])
        )

    return st.sampled_from(lengths).flatmap(build)


class TestRotation:
    """The Wigner census is invariant under cyclic shifts and reversal of
    the word, which `census_w` uses to search a word that closes at a
    letter seen once."""

    def test_every_rotation_and_reversal_on_every_word(self):
        for m in (2, 4, 6, 8):
            words = all_words(m)
            for N in range(1, 5):
                counts = {w.letters: census_w(w, N).exact_count for w in words}
                for word in words:
                    for image in rotations_and_reversal(word):
                        assert counts[image.letters] == counts[word.letters], (word.text, image.text, N)

    @given(once_seen_away_from_end(10, 12), st.integers(1, 3))
    def test_long_words_match_assignment_oracle(self, word, N):
        assert word.letters.count(word.letters[-1]) > 1
        assert any(word.letters.count(letter) == 1 for letter in word.letters)
        assert census_w(word, N).exact_count == assignment_census_w(word, N)

    @pytest.mark.parametrize(
        "text,bound",
        [
            # abcb is not reduced; a and c are seen once and the search closes
            # at c, so the bound is 2 * 3 patterns at N = 3, not 2 * 3 * 3 as
            # at the word's own closing letter
            pytest.param("abcb", 6, id="abcb"),
            # abca reduces: c joins b, then the a at 4 and the a at 1 are an
            # adjacent pair across the ends, leaving the one letter b
            pytest.param("abca", 1, id="abca"),
        ],
    )
    def test_budget_bound_drops_one_factor(self, text, bound, monkeypatch):
        expected = census_w_exhaustive(W(text), 3).exact_count
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", bound)
        assert census_w(W(text), 3).exact_count == expected
        monkeypatch.setattr(circuits, "DEFAULT_CENSUS_BUDGET", bound - 1)
        with pytest.raises(SizeLimitError, match=f"{bound} value patterns, over the budget {bound - 1}"):
            census_w(W(text), 3)


class TestReduction:
    """The Wigner census first strips adjacent pairs of a letter seen twice
    and merges adjacent letters seen once, each a factor of N, and searches
    only the cyclic word that is left."""

    @staticmethod
    def extend_calls(word, N):
        calls = [0]
        extend = circuits._extend

        def counted(*args):
            calls[0] += 1
            return extend(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circuits, "_extend", counted)
            count = census_w(word, N).exact_count
        return count, calls[0]

    @given(spliced_words(10, 12, 14))
    def test_spliced_words_match_assignment_oracle(self, case):
        word, N = case
        assert census_w(word, N).exact_count == assignment_census_w(word, N)

    def test_factor_of_n_per_rule(self):
        # each rule frees one vertex: the count is N per rule applied times
        # the count of the residual, N for pi(0) alone when nothing is left
        for m in (2, 4, 6, 8):
            for word in all_words(m):
                residual, free = reduce_cyclic(word.letters)
                for N in (2, 3):
                    rest = assignment_census_w(canonical(residual), N) if residual else N
                    assert census_w(word, N).exact_count == N**free * rest, (word.text, N)

    def test_alphabet(self):
        # 26 letters seen once merge into one, a self-loop at pi(0)
        N = 10**6
        word = W("abcdefghijklmnopqrstuvwxyz")
        assert reduce_cyclic(word.letters) == ((1,), 25)
        assert census_w(word, N).exact_count == N**26

    @pytest.mark.parametrize("word", [W("abccba"), W("abcddcbaeffegghhiijj"), NESTED_40])
    def test_nested_pairs_need_no_search(self, word):
        N = 10**6
        assert reduce_cyclic(word.letters) == ((), word.length // 2)
        count, calls = self.extend_calls(word, N)
        assert calls == 0
        assert count == N ** (word.distinct_letters + 1)


class TestContainment:
    @pytest.mark.parametrize("text,p,n", [("aa", 2, 3), ("abba", 2, 2), ("abab", 2, 2)])
    def test_examples(self, text, p, n):
        assert verify_containment(W(text), p, n)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_all_words_contained(self, m):
        for word in all_words(m):
            for p, n in itertools.product((1, 2, 3), (1, 2, 3)):
                assert verify_containment(word, p, n)

    def test_checks_exactly_the_s_circuits(self, monkeypatch):
        # the Wigner check sees each S-link circuit once, and nothing else
        checked = []
        edge_keys_w = oracles._edge_keys_w

        def spy(word, values):
            checked.append(values)
            return edge_keys_w(word, values)

        monkeypatch.setattr(oracles, "_edge_keys_w", spy)
        circuits_checked = 0
        for m in (2, 4, 6):
            for word in all_words(m):
                for p, n in itertools.product((1, 2, 3), (1, 2, 3)):
                    checked.clear()
                    assert verify_containment(word, p, n)
                    assert len(set(checked)) == len(checked)
                    assert len(checked) == census_s(word, p, n).exact_count, (word.text, p, n)
                    circuits_checked += len(checked)
        assert circuits_checked == 21652


class TestVertexClasses:
    """The paper's membership criterion as an identity on the closed form:
    the covariance link leaves rows + cols <= b+1 vertex classes, with
    equality exactly for special symmetric words, which then have r+1 rows."""

    @staticmethod
    def check_membership(word):
        rows, cols, b, r_plus_1, first, _ = circuits._vertex_classes(word)
        stats = word_statistics(word)
        assert (b, r_plus_1, tuple(first[1 : b + 1])) == (
            stats.b, stats.r_plus_1, stats.first_positions
        ), word.text
        special = is_special_symmetric(word_partition(word))
        assert rows + cols <= stats.b + 1, word.text
        assert (rows + cols == stats.b + 1) == special, word.text
        if special:
            assert rows == stats.r_plus_1, word.text

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_membership_identity_on_every_word(self, m):
        for word in all_words(m):
            self.check_membership(word)

    @given(words_of_length(10, 12, 14))
    def test_membership_identity_long_words(self, word):
        self.check_membership(word)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_s_count_within_wigner_count(self, m):
        # every S-link circuit is a Wigner circuit on {1..N}
        for word in all_words(m):
            for N in range(1, 5):
                assert census_s(word, N, N).exact_count <= census_w(word, N).exact_count


class TestPatternCount:
    @given(words_of_length(2, 4, 6), SIZES, SIZES, SIZES)
    def test_matches_exhaustive_oracle(self, word, p, n, N):
        assert census_s(word, p, n).exact_count == census_s_exhaustive(word, p, n)
        assert census_w(word, N).exact_count == census_w_exhaustive(word, N).exact_count

    @given(words_of_length(8), SIZES, SIZES, SIZES)
    def test_len8_matches_assignment_oracle(self, word, p, n, N):
        assert census_s(word, p, n).exact_count == assignment_census_s(word, p, n)
        assert census_w(word, N).exact_count == assignment_census_w(word, N)

    @given(words_of_length(2, 4, 6, 8), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    def test_budget_bounds_the_search(self, word, p, n, extra):
        # the value checked against the budget bounds the _extend calls per
        # generating slot, and stops growing once N reaches 2k; a word that
        # reduces to nothing is neither searched nor bounded by more than one
        # pattern; the S census neither searches nor checks a budget
        generating = len(free_slots(word))
        residual, _ = reduce_cyclic(word.letters)
        bounds, calls = [], [0]
        check_budget, extend = circuits._check_budget, circuits._extend

        def record(count, what):
            bounds.append(count)
            check_budget(count, what)

        def counted(*args):
            calls[0] += 1
            return extend(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circuits, "_check_budget", record)
            mp.setattr(circuits, "_extend", counted)
            census_s(word, p, n)
            assert bounds == [] and calls[0] == 0
            for N in (p, n):
                bounds.clear()
                calls[0] = 0
                census_w(word, N)
                (bound,) = bounds
                if residual:
                    assert 1 <= calls[0] <= generating * bound
                else:
                    assert calls[0] == 0 and bound == 1
            m = word.length
            large = []
            for N in (m, m + extra, m + 2 * extra):
                bounds.clear()
                census_w(word, N)
                large.append(tuple(bounds))
            assert len(set(large)) == 1, large

    def test_len8_totals(self):
        # the digest pins every word's pair of counts, in enumeration order
        words = all_words(8)
        assert len(words) == 4140
        lines = [(w.text, census_s(w, 2, 3).exact_count, census_w(w, 3).exact_count) for w in words]
        assert sum(s for _, s, _ in lines) == 99_150
        assert sum(w for _, _, w in lines) == 340_032
        digest = hashlib.sha256("".join(f"{t},{s},{w}\n" for t, s, w in lines).encode()).hexdigest()
        assert digest == "23ee11744e9905dd40d7a2d4031364f3728845371f3bdabb6caf8c588578ac50"

    def test_wigner_digest_to_len8(self):
        # the digest pins the Wigner count of every word of length <= 8 at
        # five N, the last past 2k, in enumeration order
        lines = [
            f"{w.text},{N},{census_w(w, N).exact_count}\n"
            for m in (2, 4, 6, 8)
            for w in all_words(m)
            for N in (1, 2, 4, 11, 10**6)
        ]
        assert len(lines) == 21_800
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == "afd589aabba26f774321e80b09173f53e8bba0205710b71a85bb9041ca53645e"

    def test_ss8_exact_beyond_brute_force(self):
        p, n = 10**6, 10**6 + 1
        for word in ss_words(8):
            s = census_s(word, p, n)
            assert s.predicted_count is not None
            assert s.exact_count == s.predicted_count
            w = census_w(word, p)
            assert w.exact_count == w.predicted_count == p ** (word.distinct_letters + 1)


class TestSizes:
    @pytest.mark.parametrize(
        "fn,args",
        [
            (census_s, (0, 2)),
            (census_s, (2, -1)),
            (census_w, (0,)),
            (census_s_exhaustive, (-1, 2)),
            (census_s_exhaustive, (2, 0)),
            (census_w_exhaustive, (0,)),
            (predicted_count_s, (0, 2)),
            (predicted_count_s, (2, -1)),
            (predicted_count_w, (-1,)),
            (verify_containment, (0, 2)),
            (verify_containment, (2, 0)),
        ],
    )
    def test_below_one_rejected(self, fn, args):
        with pytest.raises(ValueError, match="must be at least 1"):
            fn(W("aa"), *args)

    # a size that is not an integer once gave a count of the same type, such
    # as census_s(abab, 2.5, 2).exact_count == 5.0, or nan
    @pytest.mark.parametrize("size", [2.5, 2.0, float("nan"), float("inf"), True, "2", None])
    @pytest.mark.parametrize("fn,sizes", [
        (census_s, lambda size: (size, 2)),
        (census_s, lambda size: (2, size)),
        (census_w, lambda size: (size,)),
    ], ids=["census_s-p", "census_s-n", "census_w-N"])
    def test_non_integer_rejected(self, fn, sizes, size):
        with pytest.raises(InputError, match=r"census size \w must be an integer, got "):
            fn(W("abab"), *sizes(size))


class TestCensusResult:
    def test_fields(self):
        result = census_s(W("aabb"), 2, 3)
        assert result == CensusResult("aabb", "S", 2, 3, 2 * 9, 2 * 9)


class TestCensusCheck:
    def test_check_counts_circuits(self, monkeypatch):
        # one column class moved to the rows, with r+1 alongside, keeps the
        # closed form equal to its own prediction; only the circuit-tuple
        # count that census-exact-counts compares with shows the fault
        vertex_classes = circuits._vertex_classes

        def moved(word):
            rows, cols, b, r_plus_1, first, parent = vertex_classes(word)
            return rows + 1, cols - 1, b, r_plus_1 + 1, first, parent

        monkeypatch.setattr(circuits, "_vertex_classes", moved)
        result = census_s(W("aa"), 1, 2)
        assert result.exact_count == result.predicted_count == 1
        assert check_census_product_law() == (False, "word aa (1,2): census_s 1 != 2 circuit tuples")
