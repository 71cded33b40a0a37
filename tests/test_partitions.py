import importlib
import inspect

import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covmoments import circuits, cli, ensembles, moments, partitions
from covmoments.partitions import (
    DEFAULT_ENUMERATION_CAP,
    Partition,
    SizeLimitError,
    Word,
    WordStats,
    bell,
    catalan,
    classify,
    count_ss,
    enumerate_pair_partitions,
    enumerate_partitions,
    has_even_blocks,
    is_non_crossing,
    is_pair,
    is_special_symmetric,
    narayana,
    word_statistics,
)


def blocks(*bs):
    return Partition.from_blocks(bs)


def restricted_growth_strings(m):
    """Restricted-growth strings of length m in lexicographic order, by the
    successor rule: raise the rightmost letter that does not exceed every
    letter before it, and reset the letters after it to 1."""
    letters = [1] * m
    while True:
        yield tuple(letters)
        for i in range(m - 1, 0, -1):
            if letters[i] <= max(letters[:i]):
                letters[i] += 1
                letters[i + 1:] = [1] * (m - i - 1)
                break
        else:
            return


def set_based_statistics(word):
    """Oracle: word_statistics as sets of seen letters and generating indices."""
    firsts = []
    seen = set()
    for pos, letter in enumerate(word.letters, start=1):
        if letter not in seen:
            seen.add(letter)
            firsts.append(pos)
    generating = {0} | set(firsts)
    r_plus_1 = sum(1 for i in generating if i % 2 == 0)
    return WordStats(b=len(firsts), r_plus_1=r_plus_1, first_positions=tuple(firsts))


def canonical(raw):
    """Relabel a letter sequence by order of first occurrence."""
    labels = {}
    return Word(tuple(labels.setdefault(x, len(labels) + 1) for x in raw))


class TestEnumeration:
    @pytest.mark.parametrize("m,count", [(1, 1), (3, 5), (4, 15)])
    def test_partition_counts_small(self, m, count):
        assert len(list(enumerate_partitions(m))) == count

    @pytest.mark.parametrize("m", range(1, 9))
    def test_counts_match_bell(self, m):
        assert len(list(enumerate_partitions(m))) == bell(m)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_order_is_restricted_growth(self, m):
        # the blocks grown in place give, in order, the partitions of the
        # restricted-growth strings read as words
        expected = [oracles.word_partition(Word(rgs)) for rgs in restricted_growth_strings(m)]
        assert len(expected) == bell(m)
        assert list(enumerate_partitions(m)) == expected

    def test_no_duplicates_and_valid(self):
        seen = set()
        for p in enumerate_partitions(6):
            assert p.blocks not in seen
            seen.add(p.blocks)
            assert sorted(e for b in p.blocks for e in b) == list(range(1, 7))

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_pair_partition_counts(self, m):
        # (m-1)!! pair partitions of an even ground set
        expected = 1
        for i in range(m - 1, 0, -2):
            expected *= i
        assert len(list(enumerate_pair_partitions(m))) == expected

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("source", [enumerate_partitions, enumerate_pair_partitions])
    def test_enumerators_yield_normalized_partitions(self, source, m):
        # the enumerators build partitions without from_blocks, so their
        # blocks must already be in its normal form
        yielded = list(source(m))
        assert yielded == [Partition.from_blocks(p.blocks) for p in yielded]

    def test_pair_enumeration_matches_filtered_full(self):
        full = {p.blocks for p in enumerate_partitions(6) if is_pair(p)}
        direct = {p.blocks for p in enumerate_pair_partitions(6)}
        assert full == direct

    def test_cap_exceeded_names_cap(self, monkeypatch):
        with pytest.raises(SizeLimitError, match=str(DEFAULT_ENUMERATION_CAP)):
            list(enumerate_partitions(DEFAULT_ENUMERATION_CAP + 1))
        with pytest.raises(SizeLimitError):
            list(enumerate_pair_partitions(16))
        # the module constant is read at call time
        monkeypatch.setattr(partitions, "DEFAULT_ENUMERATION_CAP", 4)
        with pytest.raises(SizeLimitError, match="4"):
            list(enumerate_partitions(5))


def test_no_public_cap_or_budget_parameter():
    # the limits are the module constants DEFAULT_ENUMERATION_CAP and DEFAULT_CENSUS_BUDGET;
    # unwrap, so that cached functions such as cli.build_parser are checked too
    names = ("circuits", "cli", "ensembles", "hypergraphs", "moments", "partitions")
    modules = [importlib.import_module(f"covmoments.{name}") for name in names]
    knobs = [
        f"{module.__name__}.{name}({param})"
        for module in modules
        for name, fn in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(inspect.unwrap(fn))
        and fn.__module__ == module.__name__
        for param in inspect.signature(fn).parameters
        if param in ("cap", "budget")
    ]
    assert not knobs


class TestSpecialSymmetric:
    def test_crossing_member_of_ss8(self):
        assert is_special_symmetric(blocks([1, 2, 5, 6], [3, 4, 7, 8]))

    def test_non_member_of_ss8(self):
        assert not is_special_symmetric(blocks([1, 2, 6, 7], [3, 4, 5, 8]))

    def test_single_even_block(self):
        assert is_special_symmetric(blocks([1, 2]))
        assert is_special_symmetric(blocks([1, 2, 3, 4, 5, 6]))

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_odd_ground_sets_have_no_members(self, m):
        assert not any(is_special_symmetric(p) for p in enumerate_partitions(m))

    def test_singleton_blocks_rejected(self):
        # gap conditions are vacuous here; the even-size requirement must bite
        assert not is_special_symmetric(blocks([1], [2], [3, 4]))

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_pairs_in_ss_are_exactly_noncrossing(self, m):
        ss_pairs = set()
        nc_pairs = set()
        for p in enumerate_pair_partitions(m):
            if is_special_symmetric(p):
                ss_pairs.add(p.blocks)
            if is_non_crossing(p):
                nc_pairs.add(p.blocks)
        assert ss_pairs == nc_pairs
        assert len(nc_pairs) == catalan(m // 2)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_inclusion_chain(self, m):
        for p in enumerate_partitions(m):
            ss = is_special_symmetric(p)
            if ss:
                assert has_even_blocks(p)
            if has_even_blocks(p) and is_non_crossing(p):
                assert ss

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_gap_parity_reading_equals_absolute_parity_reading(self, m):
        # counting gap positions w-u or absolute positions w flips parity
        # uniformly within a gap, so the balance test is reading-invariant
        for p in enumerate_partitions(m):
            assert is_special_symmetric(p) == _ss_absolute_parity(p)

    def test_known_census(self):
        expected = {2: 1, 4: 3, 6: 12, 8: 57}
        for m, total in expected.items():
            assert sum(is_special_symmetric(p) for p in enumerate_partitions(m)) == total

    def test_ss6_word_list(self):
        words = sorted(
            p.to_word().text for p in enumerate_partitions(6) if is_special_symmetric(p)
        )
        assert words == [
            "aaaaaa", "aaaabb", "aaabba", "aabbaa", "aabbbb", "aabbcc",
            "aabccb", "abbaaa", "abbacc", "abbbba", "abbcca", "abccba",
        ]


def _ss_absolute_parity(p):
    if p.m % 2 or not has_even_blocks(p):
        return False
    last = p.blocks[-1]
    run = 1
    for a, b in zip(last, last[1:]):
        if b == a + 1:
            run += 1
        else:
            if run % 2:
                return False
            run = 1
    if run % 2:
        return False
    owner = p.block_of()
    for block in p.blocks:
        for u, v in zip(block, block[1:]):
            balance = {}
            for w in range(u + 1, v):
                balance[owner[w]] = balance.get(owner[w], 0) + (1 if w % 2 else -1)
            if any(balance.values()):
                return False
    return True


class TestWords:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_roundtrip_is_identity(self, m):
        for p in enumerate_partitions(m):
            assert oracles.word_partition(p.to_word()) == p

    @pytest.mark.parametrize("m", [9, 10])
    def test_roundtrip_larger(self, m):
        count = 0
        for p in enumerate_partitions(m):
            assert oracles.word_partition(p.to_word()) == p
            count += 1
        assert count == bell(m)

    def test_from_text(self):
        assert Word.from_text("abba").letters == (1, 2, 2, 1)
        assert Word.from_text("abba").text == "abba"

    def test_text_is_cached_without_changing_equality_or_hash(self):
        word = Word((1, 2, 2, 1))
        fresh = Word((1, 2, 2, 1))
        assert word.text is word.text
        assert word == fresh and hash(word) == hash(fresh)
        assert fresh.text == "abba"
        assert word == fresh and hash(word) == hash(fresh)
        assert word != Word((1, 1, 2, 2))

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            Word.from_text("ba")
        with pytest.raises(ValueError):
            Word((1, 3))

    @pytest.mark.parametrize(
        "text,b,r_plus_1",
        [("aabb", 2, 1), ("abba", 2, 2), ("aa", 1, 1), ("aabbcc", 3, 1), ("abbcca", 3, 3)],
    )
    def test_word_statistics(self, text, b, r_plus_1):
        stats = word_statistics(Word.from_text(text))
        assert (stats.b, stats.r_plus_1) == (b, r_plus_1)

    def test_generating_indices(self):
        stats = word_statistics(Word.from_text("aabb"))
        assert stats.first_positions == (1, 3)
        assert oracles.odd_generating(stats) == 2

    @given(st.integers(0, 12).flatmap(
        lambda m: st.lists(st.integers(0, max(m - 1, 0)), min_size=m, max_size=m)
    ).map(canonical))
    def test_one_pass_statistics_match_set_definition(self, word):
        assert word_statistics(word) == set_based_statistics(word)

    def test_odd_plus_even_generating_is_b_plus_1(self):
        for p in enumerate_partitions(6):
            stats = word_statistics(p.to_word())
            assert oracles.odd_generating(stats) + stats.r_plus_1 == stats.b + 1


class TestClassify:
    def test_aabb(self):
        c = classify(blocks([1, 2], [3, 4]))
        assert (c.is_pair, c.is_even_blocks, c.is_non_crossing, c.is_special_symmetric) == (
            True, True, True, True,
        )
        assert (c.b, c.r_plus_1) == (2, 1)

    def test_abba(self):
        c = classify(blocks([1, 4], [2, 3]))
        assert c.is_special_symmetric and c.is_non_crossing
        assert (c.b, c.r_plus_1) == (2, 2)

    def test_abab_crossing(self):
        c = classify(blocks([1, 3], [2, 4]))
        assert c.is_pair and not c.is_non_crossing and not c.is_special_symmetric

    def test_flags_consistent_everywhere(self):
        for m in (2, 4, 6):
            for p in enumerate_partitions(m):
                c = classify(p)
                if c.is_pair and c.is_special_symmetric:
                    assert c.is_non_crossing
                if c.is_special_symmetric:
                    assert c.is_even_blocks
                assert c.r_plus_1 >= 1

    @pytest.mark.parametrize("element, shown", [(1.0, "1.0"), (True, "True"), ("a", "'a'")],
                             ids=["float", "bool", "str"])
    def test_non_integer_element_rejected(self, element, shown):
        with pytest.raises(ValueError, match=f"block element {shown} is not an integer"):
            Partition.from_blocks([[element, 2]])


class TestCountSS:
    def test_totals(self):
        assert count_ss(1) == {"total": 1}
        assert count_ss(2) == {"total": 3}
        assert count_ss(3) == {"total": 12}

    def test_k2_pair_table(self):
        assert count_ss(2, "even_generating", pair_only=True) == {1: 1, 2: 1}

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pair_table_is_narayana(self, k):
        table = count_ss(k, "even_generating", pair_only=True)
        expected = {r + 1: narayana(k, r) for r in range(k) if narayana(k, r)}
        assert table == expected
        assert sum(table.values()) == catalan(k)

    def test_joint_grouping(self):
        table = count_ss(2, ("blocks", "even_generating"))
        assert table == {(1, 1): 1, (2, 1): 1, (2, 2): 1}

    def test_sizes_grouping(self):
        assert count_ss(2, "sizes") == {(4,): 1, (2, 2): 2}

    def test_bad_key(self):
        with pytest.raises(ValueError):
            count_ss(2, "nope")

    @pytest.mark.parametrize("by", ["nope", ("blocks", "nope")])
    def test_bad_key_message(self, by):
        message = "unknown grouping key 'nope'; expected one of ('total', 'blocks', 'even_generating', 'sizes')"
        with pytest.raises(ValueError) as exc:
            count_ss(2, by)
        assert str(exc.value) == message

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            count_ss(8)


HUGE = 10**5000


def _huge_integer_sites():
    config = {"family": "iid_standardized", "p": 4, "n": 6}
    return {
        "lam": lambda v: ensembles.EnsembleConfig("sparse_bernoulli", 4, 6, lam=v),
        "t_n": lambda v: ensembles.EnsembleConfig("iid_standardized", 4, 6, t_n=v),
        "resolve_truncation": lambda v: ensembles.resolve_truncation(v, 4),
        "seed": lambda v: ensembles.EnsembleConfig("iid_standardized", 4, 6, seed=v),
        "K": lambda v: cli.config_to_ensemble({**config, "K": v}),
        "census-p": lambda v: circuits.census_s(Word.from_text("aa"), v, 2),
        "census-N": lambda v: circuits.census_w(Word.from_text("aa"), v),
        "sandwich-y": lambda v: moments.poisson_sandwich(1, v, 1),
        "sandwich-lam": lambda v: moments.poisson_sandwich(1, 1, v),
        "sandwich-k": lambda v: moments.poisson_sandwich(v, 1, 1),
    }


class TestHugeIntegerMessages:
    # Python converts an int of more than 4,300 digits to decimal only by
    # raising ValueError, so every input message that named such a value
    # raised that in place of InputError; the message names it by its sign
    # and digit count instead
    @pytest.mark.parametrize("site, sign", [
        ("lam", "+"), ("lam", "-"), ("t_n", "+"), ("t_n", "-"), ("resolve_truncation", "+"),
        ("seed", "-"), ("K", "-"), ("census-p", "-"), ("census-N", "-"),
        ("sandwich-y", "-"), ("sandwich-lam", "-"), ("sandwich-k", "-"),
    ])
    def test_message_names_the_value(self, site, sign):
        value, expected = (HUGE, "an") if sign == "+" else (-HUGE, "a negative")
        with pytest.raises(partitions.InputError, match=f"{expected} integer of 5001 digits"):
            _huge_integer_sites()[site](value)

    # the other sign, where it is not the same fault, is taken or fails
    # with a message that names no value; the bounds at k = 10**5000 are
    # out of reach, so that one is not tried
    @pytest.mark.parametrize("site", ["seed", "K", "census-p", "census-N", "sandwich-y", "sandwich-lam"])
    def test_positive_is_taken(self, site):
        _huge_integer_sites()[site](HUGE)

    def test_negative_truncation_level_names_no_value(self):
        with pytest.raises(partitions.InputError, match="^truncation level must be positive$"):
            _huge_integer_sites()["resolve_truncation"](-HUGE)
