from collections import Counter
from functools import lru_cache

import oracles
import pytest
from hypothesis import given
from hypothesis import strategies as st

from covmoments import hypergraphs, partitions
from covmoments.circuits import word_structure
from covmoments.hypergraphs import (
    MAX_SERIES_ORDER,
    Hypergraph,
    NoiryClassKey,
    _word_of_pair,
    count_acyclic_pairs,
    count_noiry_classes,
    enumerate_ss_words,
    hypergraph_to_word,
    is_acyclic,
    word_to_hypergraph,
)
from covmoments.moments import moment_sparse, sparse_moments
from covmoments.partitions import (
    Partition,
    SizeLimitError,
    Word,
    enumerate_partitions,
    is_special_symmetric,
    word_statistics,
)

W = Word.from_text


@lru_cache(maxsize=None)
def ss_words_by_definition(k):
    return sorted(
        (p.to_word() for p in enumerate_partitions(2 * k) if is_special_symmetric(p)),
        key=lambda w: w.letters,
    )


def all_partitions(k):
    return list(enumerate_partitions(k)) if k > 1 else [Partition(1, ((1,),))]


def ss_words_by_acyclic_pairs(k):
    """Oracle: read a word off every acyclic (sigma, tau) pair of partitions
    of {1..k}, Bell(k)^2 pairs in all, and check that no word repeats.
    Acyclicity is the union-find forest test, not the code under test."""
    sigmas = all_partitions(k)
    words = [
        _word_of_pair(sigma, tau)
        for sigma in sigmas
        for tau in sigmas
        if oracles.is_acyclic_by_union_find(Hypergraph(k, sigma, tau))
    ]
    unique = sorted(set(words), key=lambda w: w.letters)
    assert len(unique) == len(words), "acyclic pairs mapped to duplicate words"
    return unique


class TestWordToHypergraph:
    def test_single_letter(self):
        h = word_to_hypergraph(W("aa"))
        assert h.sigma.as_lists() == [[1]]
        assert h.tau.as_lists() == [[1]]
        assert is_acyclic(h)

    def test_abba(self):
        h = word_to_hypergraph(W("abba"))
        assert h.sigma.as_lists() == [[1], [2]]
        assert h.tau.as_lists() == [[1, 2]]

    def test_aabb(self):
        h = word_to_hypergraph(W("aabb"))
        assert h.sigma.as_lists() == [[1, 2]]
        assert h.tau.as_lists() == [[1], [2]]

    def test_non_ss_rejected(self):
        with pytest.raises(ValueError):
            word_to_hypergraph(W("abab"))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_block_count_identity(self, k):
        for word in ss_words_by_definition(k):
            h = word_to_hypergraph(word)
            assert len(h.sigma.blocks) + len(h.tau.blocks) == word_statistics(word).b + 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_every_image_is_acyclic(self, k):
        for word in ss_words_by_definition(k):
            assert is_acyclic(word_to_hypergraph(word))


class TestAcyclicity:
    def test_single_vertex_single_edge(self):
        assert is_acyclic(word_to_hypergraph(W("aa")))

    def test_two_edges_sharing_two_vertices(self):
        sigma = Partition.from_blocks([[1], [2]])
        tau = Partition.from_blocks([[1], [2]])
        h = oracles.hypergraph(sigma, tau)
        assert not oracles.pairwise_intersections_ok(h)
        assert not is_acyclic(h)

    def test_six_cycle_passes_pairwise_but_is_cyclic(self):
        # three edges and three vertices in a ring: pairwise intersections are
        # single vertices, yet the incidence graph has a 6-cycle
        singletons = Partition.from_blocks([[1], [2], [3]])
        h = oracles.hypergraph(singletons, singletons)
        assert oracles.pairwise_intersections_ok(h)
        assert not is_acyclic(h)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_forest_implies_pairwise(self, k):
        for sigma in all_partitions(k):
            for tau in all_partitions(k):
                h = Hypergraph(k, sigma, tau)
                if is_acyclic(h):
                    assert oracles.pairwise_intersections_ok(h)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_edge_count_equals_union_find_forest(self, k):
        # every (sigma, tau) pair, 41,209 at k = 6
        sigmas = all_partitions(k)
        for sigma in sigmas:
            for tau in sigmas:
                h = Hypergraph(k, sigma, tau)
                assert is_acyclic(h) == oracles.is_acyclic_by_union_find(h)

    def test_disagreement_instances_recorded(self):
        # the pairwise reading alone is NOT equivalent to forestness; these
        # counts pin the first disagreements
        observed = {}
        for k in (1, 2, 3, 4):
            observed[k] = sum(
                1
                for sigma in all_partitions(k)
                for tau in all_partitions(k)
                if oracles.pairwise_intersections_ok(Hypergraph(k, sigma, tau))
                and not is_acyclic(Hypergraph(k, sigma, tau))
            )
        assert observed == {1: 0, 2: 0, 3: 1, 4: 17}

    def test_mismatched_ground_sets_rejected(self):
        with pytest.raises(ValueError):
            oracles.hypergraph(
                Partition.from_blocks([[1, 2]]), Partition.from_blocks([[1], [2], [3]])
            )


class TestInverse:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_roundtrip_identity(self, k):
        for word in ss_words_by_definition(k):
            assert hypergraph_to_word(word_to_hypergraph(word)) == word

    def test_examples(self):
        h = oracles.hypergraph(
            Partition.from_blocks([[1, 2]]), Partition.from_blocks([[1], [2]])
        )
        assert hypergraph_to_word(h).text == "aabb"
        h = oracles.hypergraph(
            Partition.from_blocks([[1]]), Partition.from_blocks([[1]])
        )
        assert hypergraph_to_word(h).text == "aa"

    def test_cyclic_input_rejected(self):
        singletons = Partition.from_blocks([[1], [2], [3]])
        with pytest.raises(ValueError, match="has a cycle"):
            hypergraph_to_word(oracles.hypergraph(singletons, singletons))

    @pytest.mark.parametrize("k, sigma, tau", [(3, 2, 2), (1, 2, 2), (2, 2, 3), (2, 3, 2)])
    def test_ground_sets_must_agree(self, k, sigma, tau):
        # the circuit is read off sigma, so a k or a tau over another ground
        # set would otherwise be ignored
        with pytest.raises(partitions.InputError, match=r"must both partition \{1\.\.k\}"):
            Hypergraph(k, Partition.from_blocks([range(1, sigma + 1)]), Partition.from_blocks([range(1, tau + 1)]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_injectivity(self, k):
        images = [word_to_hypergraph(w) for w in ss_words_by_definition(k)]
        assert len({(h.sigma.blocks, h.tau.blocks) for h in images}) == len(images)

    @given(st.integers(1, 6).flatmap(lambda k: st.sampled_from(enumerate_ss_words(k))))
    def test_roundtrip_property(self, word):
        assert hypergraph_to_word(word_to_hypergraph(word)) == word


class TestEnumerationByPairs:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_definition_enumeration(self, k):
        assert list(enumerate_ss_words(k)) == ss_words_by_definition(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_acyclic_pair_oracle(self, k):
        assert list(enumerate_ss_words(k)) == ss_words_by_acyclic_pairs(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_acyclic_pair_counts_equal_ss_counts(self, k):
        by_definition = {}
        for word in ss_words_by_definition(k):
            b = word.distinct_letters
            by_definition[b] = by_definition.get(b, 0) + 1
        assert count_acyclic_pairs(k) == by_definition

    def test_cap(self):
        with pytest.raises(SizeLimitError):
            enumerate_ss_words(8)

    def test_explicit_cap_message(self, monkeypatch):
        monkeypatch.setattr(partitions, "DEFAULT_ENUMERATION_CAP", 4)
        with pytest.raises(SizeLimitError, match=r"ground set of size 6 exceeds the enumeration cap 4"):
            enumerate_ss_words(3)

    def test_cap_checked_on_repeated_call(self, monkeypatch):
        # a k enumerated once is enumerated again, under the cap of the moment
        assert len(enumerate_ss_words(3)) == 12
        monkeypatch.setattr(partitions, "DEFAULT_ENUMERATION_CAP", 4)
        with pytest.raises(SizeLimitError, match=r"ground set of size 6 exceeds the enumeration cap 4"):
            enumerate_ss_words(3)


def canonical(raw):
    """Relabel a letter sequence by order of first occurrence."""
    labels = {}
    return Word(tuple(labels.setdefault(x, len(labels) + 1) for x in raw))


def propagates(word):
    try:
        word_structure(word)
    except ValueError:
        return False
    return True


# arbitrary words of length <= 12, and words whose letters all occur an even
# number of times, where the propagation half of the criterion decides
ANY_WORDS = st.lists(st.integers(0, 11), min_size=1, max_size=12).map(canonical)
EVEN_WORDS = (
    st.lists(st.integers(0, 5), min_size=1, max_size=6)
    .flatmap(lambda xs: st.permutations(xs + xs))
    .map(canonical)
)


class TestSearchCriterion:
    @given(st.one_of(ANY_WORDS, EVEN_WORDS))
    def test_ss_iff_even_and_propagates(self, word):
        even = all(s % 2 == 0 for s in word.multiplicities())
        assert is_special_symmetric(oracles.word_partition(word)) == (even and propagates(word))


def noiry_classes_by_words(k):
    """Oracle: group the enumerated special symmetric words by (distinct
    letters, odd generating vertices, letter-multiplicity multiset)."""
    counts: Counter = Counter()
    for word in enumerate_ss_words(k):
        stats = word_statistics(word)
        key = NoiryClassKey(
            a=stats.b,
            l=oracles.odd_generating(stats),
            sizes=tuple(sorted(word.multiplicities())),
        )
        counts[key] += 1
    return dict(counts)


class TestNoiryClasses:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_matches_word_grouping(self, k):
        assert count_noiry_classes(k) == noiry_classes_by_words(k)

    # the k = 8 figures equal the word search's run with its cap raised to 16,
    # the k = 9 figures a 467,963-word grouping (about 30 s, so not repeated here)
    @pytest.mark.parametrize("k,total,classes", [(8, 69331, 86), (9, 467963, 128)])
    def test_beyond_enumeration(self, k, total, classes):
        table = count_noiry_classes(k)
        assert sum(table.values()) == total
        assert len(table) == classes

    # per k = 1..12, recorded while the class keys were still tuples
    CLASSES = [1, 3, 6, 12, 20, 35, 54, 86, 128, 192, 275, 399]
    TOTALS = [1, 3, 12, 57, 303, 1747, 10727, 69331, 467963, 3280353, 23785699, 177877932]

    def test_tables_share_the_series(self):
        # the exact moments read one series of order max(k) for every k, so a
        # longer series must leave the lower coefficients as they were; at
        # y = lam = 1 each moment counts the words
        ks = range(1, MAX_SERIES_ORDER + 1)
        values = sparse_moments(ks, 1, 1)
        assert [values[k].value for k in ks] == self.TOTALS
        assert [moment_sparse(k, 1, 1).value for k in ks] == self.TOTALS

    def test_tables_equal_the_untightened_recursion(self, monkeypatch):
        # leaving out the products with B_s(0) at nonzero degree, and the
        # coefficients that feed only degrees above the top, changes no
        # count, no key and no key order
        for k in range(1, MAX_SERIES_ORDER + 1):
            with monkeypatch.context() as patched:
                patched.setattr(hypergraphs, "_sojourn_series", oracles.sojourn_series_untightened)
                reference = count_noiry_classes(k)
            assert list(count_noiry_classes(k).items()) == list(reference.items())

    def test_packed_fields_never_carry(self):
        # a carry between the packed fields of a class key would move letters
        # between multiplicities or into l; every k has its own field width
        for k in range(1, MAX_SERIES_ORDER + 1):
            table = count_noiry_classes(k)
            for key in table:
                assert sum(key.sizes) == 2 * k
                assert 1 <= key.l <= key.a
            assert len(table) == self.CLASSES[k - 1]
            assert sum(table.values()) == self.TOTALS[k - 1]

    def test_series_limit(self):
        with pytest.raises(SizeLimitError, match=f"MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"):
            count_noiry_classes(MAX_SERIES_ORDER + 1)
        with pytest.raises(ValueError):
            count_noiry_classes(0)

    def test_k1(self):
        assert count_noiry_classes(1) == {NoiryClassKey(1, 1, (2,)): 1}

    def test_k2(self):
        assert count_noiry_classes(2) == {
            NoiryClassKey(1, 1, (4,)): 1,
            NoiryClassKey(2, 1, (2, 2)): 1,
            NoiryClassKey(2, 2, (2, 2)): 1,
        }

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_totals_match_ss_census(self, k):
        assert sum(count_noiry_classes(k).values()) == len(ss_words_by_definition(k))

    def test_multiplicities_sum_to_2k(self):
        for k in (1, 2, 3, 4):
            for key in count_noiry_classes(k):
                assert sum(key.sizes) == 2 * k

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            NoiryClassKey(2, 1, (2, 1))
        with pytest.raises(ValueError):
            NoiryClassKey(2, 1, (2,))
