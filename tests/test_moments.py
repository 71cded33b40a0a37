import math
import re
import warnings
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction as F
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmoments import moments
from covmoments.circuits import word_structure
from covmoments.hypergraphs import MAX_SERIES_ORDER, enumerate_ss_words
from covmoments.moments import (
    constant_moments,
    moment_constant,
    moment_grid,
    moment_profile,
    moment_sparse,
    mp_moment,
    poisson_sandwich,
)
from covmoments.partitions import (
    InputError,
    Partition,
    SizeLimitError,
    Word,
    catalan,
    count_ss,
    enumerate_partitions,
    has_even_blocks,
    is_non_crossing,
    is_pair,
    is_special_symmetric,
    narayana,
    word_statistics,
)
import oracles
from oracles import (
    class_table,
    even_sequence,
    moment_constant_class_sum,
    moment_sparse_lam_weight,
    mp_moment_fractions,
    poisson_sandwich_fractions,
    word_terms_by_statistics,
)

MP_CONSTANTS = {2: F(1), 4: F(0), 6: F(0), 8: F(0), 10: F(0), 12: F(0)}

# y and lam as the exact binary floats, ints and Fractions that the moment
# functions take; 0.375 and 2.5 are exact in binary
EXACT_INPUTS = [0, 1, 2, F(1, 2), F(7, 3), 0.375, 2.5]


@lru_cache(maxsize=None)
def word_terms(k):
    """Oracle: (r, letter multiplicities) of every special symmetric word of
    length 2k, read off the words themselves."""
    return tuple(
        (word_statistics(w).r_plus_1 - 1, w.multiplicities()) for w in enumerate_ss_words(k)
    )


def moment_by_words(k, y, c):
    """Oracle: the moment as the word sum of y^r * prod C_multiplicity."""
    total = F(0)
    for r, sizes in word_terms(k):
        term = F(y) ** r
        for s in sizes:
            term *= c[s]
        total += term
    return total


def moment_by_classes(k, y, c):
    """Oracle: the class-table sum taken one class at a time, each class
    weighing count * y^(a-l) * prod C_s."""
    total = F(0)
    for key, count in class_table(k).items():
        term = count * F(y) ** (key.a - key.l)
        for s in key.sizes:
            term *= c[s]
        total += term
    return total


class TestMpMoment:
    def test_first_moment_is_one(self):
        for y in (F(1, 4), F(1, 2), 1, 2, F(7, 3)):
            assert mp_moment(1, y) == 1

    def test_square_at_y1(self):
        assert mp_moment(2, 1) == 2

    def test_k3_polynomial(self):
        # coefficient row (1, 3, 1)
        for y in (F(1, 2), 1, 2, 3):
            assert mp_moment(3, y) == 1 + 3 * y + y * y

    @pytest.mark.parametrize("k", range(1, 7))
    def test_y1_gives_catalan(self, k):
        assert mp_moment(k, 1) == catalan(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_coefficients_match_exhaustive_pair_census(self, k):
        table = count_ss(k, "even_generating", pair_only=True)
        for r in range(k):
            assert table.get(r + 1, 0) == narayana(k, r)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            mp_moment(0, 1)

    @pytest.mark.parametrize("y", EXACT_INPUTS)
    def test_equals_fraction_sum(self, y):
        for k in range(1, MAX_SERIES_ORDER + 1):
            assert mp_moment(k, y) == mp_moment_fractions(k, y)

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("y", EXACT_INPUTS)
    def test_equals_pair_partition_sum(self, k, y):
        # the special symmetric pair partitions of {1..2k}, each weighing y^r
        total = F(0)
        for p in enumerate_partitions(2 * k):
            if is_pair(p) and is_special_symmetric(p):
                total += F(y) ** (word_statistics(p.to_word()).r_plus_1 - 1)
        assert mp_moment(k, y) == total


class TestMomentConstant:
    def test_k1_is_c2(self):
        report = moment_constant(1, F(1, 3), {2: F(7)}, breakdown=True)
        assert report.value == 7
        assert report.breakdown == {"aa": F(7)}

    def test_k2_closed_form(self):
        # SS(4) = {aaaa, aabb, abba} with r+1 = 1, 1, 2
        for y in (F(1, 4), 1, 2):
            for c2, c4 in ((F(1), F(5)), (F(2), F(3))):
                report = moment_constant(2, y, {2: c2, 4: c4})
                assert report.value == c4 + c2 * c2 * (1 + y)

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("y", [F(1, 4), F(1, 2), 1, 2])
    def test_mp_reduction(self, k, y):
        assert moment_constant(k, y, MP_CONSTANTS).value == mp_moment(k, y)

    @pytest.mark.parametrize("y", [F(1, 3), F(1, 2), 1, F(4, 3), 3], ids=str)
    @pytest.mark.parametrize("c", [
        even_sequence([3] * MAX_SERIES_ORDER),
        even_sequence([F(5, 2)] * MAX_SERIES_ORDER),
        even_sequence([F(7, 3)] * MAX_SERIES_ORDER),
        even_sequence([F(1, j) for j in range(1, MAX_SERIES_ORDER + 1)]),
        even_sequence([F(5, 2), 0, F(1, 3), 7, F(2, 9), 4, 0, F(-3, 11), F(13, 5), 0, F(1, 7), 6]),
    ], ids=["lam3", "lam5/2", "lam7/3", "1/j", "mixed"])
    def test_equals_class_table_weighted_sum(self, monkeypatch, y, c):
        # the integer series equals the class-table sum it replaced, and one
        # pass of order 12 gives the values of the passes of each order k,
        # with the recursion's loop bounds tightened or not
        ks = range(1, MAX_SERIES_ORDER + 1)
        values = constant_moments(ks, y, c)
        for k in ks:
            value = moment_constant(k, y, c).value
            assert value == moment_constant_class_sum(k, y, c)
            assert values[k].value == value
        monkeypatch.setattr(moments, "_sojourn_series", oracles.sojourn_series_untightened)
        untightened = constant_moments(ks, y, c)
        assert [untightened[k].value for k in ks] == [values[k].value for k in ks]

    def test_breakdown_sums_to_value(self):
        report = moment_constant(3, F(2, 3), {2: F(1, 2), 4: F(3), 6: F(1, 5)}, breakdown=True)
        assert sum(report.breakdown.values()) == report.value

    def test_missing_order_raises(self):
        with pytest.raises(ValueError, match="order 4"):
            moment_constant(2, 1, {2: F(1)})

    def test_smallest_missing_order_named(self):
        for breakdown in (False, True):
            with pytest.raises(ValueError, match="order 2$"):
                moment_constant(3, 1, {4: F(1)}, breakdown=breakdown)
            with pytest.raises(ValueError, match="order 4$"):
                moment_constant(3, 1, {2: F(1), 8: F(1)}, breakdown=breakdown)

    def test_breakdown_is_opt_in(self):
        assert moment_constant(3, F(1, 2), {2: 1, 4: 1, 6: 1}).breakdown is None
        assert moment_sparse(3, F(1, 2), 2).breakdown is None
        ones = np.ones((8, 8))
        assert moment_grid(3, F(1, 2), {2: ones, 4: ones, 6: ones}, grid=8).breakdown is None
        assert moment_profile(3, F(1, 2), ones, {2: 1, 4: 1, 6: 1}, grid=8).breakdown is None

    def test_breakdown_keeps_enumeration_cap(self):
        assert moment_sparse(8, 1, 1).value == 69331
        with pytest.raises(SizeLimitError, match="exceeds the enumeration cap 14"):
            moment_sparse(8, 1, 1, breakdown=True)

    def test_series_limit(self):
        moment_sparse(MAX_SERIES_ORDER, 1, 1)
        with pytest.raises(SizeLimitError, match=f"MAX_SERIES_ORDER = {MAX_SERIES_ORDER}"):
            moment_sparse(MAX_SERIES_ORDER + 1, 1, 1)
        # the limit is checked before the constants are looked up
        with pytest.raises(SizeLimitError, match="MAX_SERIES_ORDER"):
            moment_constant(MAX_SERIES_ORDER + 1, 1, {2: F(1)})

    # the oracle sums 1,747 words in Fractions at k = 6
    @settings(max_examples=60)
    @given(
        k=st.integers(1, 6),
        y=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
        c=st.lists(st.fractions(min_value=0, max_value=10, max_denominator=12), min_size=6, max_size=6),
    )
    @example(k=6, y=F(1), c=[F(1)] * 6)
    def test_equals_word_sum(self, k, y, c):
        constants = even_sequence(c)
        assert moment_constant(k, y, constants).value == moment_by_words(k, y, constants)

    @pytest.mark.parametrize(
        "y,c",
        [
            (F(2), [F(1, j) for j in range(1, 8)]),
            (F(3, 7), [F(5, 2), F(0), F(1, 3), F(7), F(2, 9), F(4), F(1, 11)]),
        ],
    )
    def test_equals_word_sum_k7(self, y, c):
        constants = even_sequence(c)
        assert moment_constant(7, y, constants).value == moment_by_words(7, y, constants)

    # moment_constant sums the y-weights of a multiset's classes before
    # multiplying by its constants; exact arithmetic makes the order immaterial
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, MAX_SERIES_ORDER),
        y=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
        c=st.lists(
            st.fractions(min_value=F(1, 12), max_value=10, max_denominator=12),
            min_size=MAX_SERIES_ORDER,
            max_size=MAX_SERIES_ORDER,
        ),
    )
    @example(k=MAX_SERIES_ORDER, y=F(3, 7), c=[F(j, j + 2) for j in range(1, MAX_SERIES_ORDER + 1)])
    def test_equals_class_sum(self, k, y, c):
        constants = even_sequence(c)
        assert moment_constant(k, y, constants).value == moment_by_classes(k, y, constants)
        lam = c[-1]
        assert moment_sparse(k, y, lam).value == moment_by_classes(k, y, dict.fromkeys(constants, lam))

    # zero and negative constants, and y = 0, where only the words with
    # r = 0 are left and y^0 must be 1
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, MAX_SERIES_ORDER),
        y=st.just(F(0)) | st.fractions(min_value=0, max_value=10, max_denominator=12),
        c=st.lists(
            st.just(F(0)) | st.fractions(min_value=-10, max_value=10, max_denominator=12),
            min_size=MAX_SERIES_ORDER,
            max_size=MAX_SERIES_ORDER,
        ),
    )
    @example(k=MAX_SERIES_ORDER, y=F(0), c=[F(-3, 4), F(0)] * (MAX_SERIES_ORDER // 2))
    @example(k=6, y=F(5, 2), c=[F(0), F(-1, 3)] * (MAX_SERIES_ORDER // 2))
    def test_signed_constants_equal_class_sum(self, k, y, c):
        constants = even_sequence(c)
        value = moment_constant(k, y, constants).value
        assert value == moment_by_classes(k, y, constants)
        if k <= 6:
            assert value == moment_by_words(k, y, constants)

    @pytest.mark.parametrize("k", range(1, MAX_SERIES_ORDER + 1))
    def test_y_zero(self, k):
        constants = even_sequence([F(j, j + 2) for j in range(1, k + 1)])
        value = moment_constant(k, 0, constants).value
        assert value == moment_by_classes(k, 0, constants)
        if k <= 6:
            assert value == moment_by_words(k, 0, constants)
        assert moment_sparse(k, 0, 3).value == moment_by_classes(k, 0, dict.fromkeys(constants, F(3)))

    @pytest.mark.parametrize("y", EXACT_INPUTS)
    @pytest.mark.parametrize("lam", [1, 3, F(1, 3), 0.25, 2.5])
    def test_int_and_float_inputs(self, y, lam):
        # constants and lam as given, the oracles over their exact Fractions
        supplied = {2 * j: (lam if j % 2 else j) for j in range(1, MAX_SERIES_ORDER + 1)}
        exact = {s: F(v) for s, v in supplied.items()}
        for k in range(1, MAX_SERIES_ORDER + 1):
            assert moment_constant(k, y, supplied).value == moment_by_classes(k, y, exact)
            assert moment_sparse(k, y, lam).value == moment_by_classes(k, y, dict.fromkeys(exact, F(lam)))
        assert moment_sparse(6, y, lam).value == moment_by_words(6, y, dict.fromkeys(exact, F(lam)))

    def test_value_is_a_fraction(self):
        for report in (moment_constant(3, 0.5, {2: 1, 4: 2.5, 6: 0}), moment_sparse(3, 2, 1)):
            assert type(report.value) is F

    def test_even_sequence_helper(self):
        assert even_sequence([1, F(1, 2)]) == {2: F(1), 4: F(1, 2)}


class TestMomentSparse:
    def test_k1(self):
        assert moment_sparse(1, F(1, 2), F(3)).value == 3

    def test_k2_closed_form(self):
        for lam in (F(1, 2), 2):
            for y in (F(1, 2), 2):
                assert moment_sparse(2, y, lam).value == lam + lam * lam * (1 + y)

    def test_k3_unit_weights_count_ss6(self):
        assert moment_sparse(3, 1, 1).value == 12

    @pytest.mark.parametrize("k,total", [(8, 69331), (9, 467963)])
    def test_unit_weights_count_words_beyond_enumeration(self, k, total):
        assert moment_sparse(k, 1, 1).value == total

    def test_matches_constant_path_exactly(self):
        lam = F(5, 7)
        for k in (1, 2, 3, 4):
            via_const = moment_constant(
                k, F(1, 3), {2 * j: lam for j in range(1, k + 1)}, breakdown=True
            )
            via_sparse = moment_sparse(k, F(1, 3), lam, breakdown=True)
            assert via_sparse.value == via_const.value
            assert via_sparse.breakdown == via_const.breakdown

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError):
            moment_sparse(2, 1, 0)

    @pytest.mark.parametrize("y", [F(1, 3), F(1, 2), 2, 3])
    @pytest.mark.parametrize("lam", [F(1, 2), F(5, 2), 3, F(7, 3)])
    def test_equals_lam_weight_class_sum(self, y, lam):
        for k in range(1, MAX_SERIES_ORDER + 1):
            assert moment_sparse(k, y, lam).value == moment_sparse_lam_weight(k, y, lam)

    @pytest.mark.parametrize("y", [F(1, 3), 2])
    def test_breakdowns_equal_word_statistics_terms(self, y):
        lam, constants = F(7, 3), even_sequence([F(5, 2), F(0), F(1, 3), F(7), F(2, 9), F(4)])
        for k in range(1, 7):
            for report, c in (
                (moment_sparse(k, y, lam, breakdown=True), dict.fromkeys(constants, lam)),
                (moment_constant(k, y, constants, breakdown=True), constants),
            ):
                expected = word_terms_by_statistics(k, y, c)
                assert report.breakdown == expected
                assert list(report.breakdown) == list(expected)


@lru_cache(maxsize=None)
def even_block_counts(m):
    """Oracle: even-block partitions of {1..m} by block count, for the
    non-crossing subclass and the full class, by sweeping all Bell(m)."""
    nce: Counter = Counter()
    full: Counter = Counter()
    for p in enumerate_partitions(m):
        if not has_even_blocks(p):
            continue
        b = len(p.blocks)
        full[b] += 1
        if is_non_crossing(p):
            nce[b] += 1
    return dict(nce), dict(full)


def sandwich_by_enumeration(k, y, lam):
    y, lam = F(y), F(lam)
    nce, full = even_block_counts(2 * k)
    lower_base = lam * y if y <= 1 else lam
    upper_base = lam if y <= 1 else lam * y
    lower = sum((n * lower_base**b for b, n in nce.items()), F(0))
    upper = sum((n * upper_base**b for b, n in full.items()), F(0))
    return lower, upper


class TestPoissonSandwich:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [F(1, 3), 1, F(5, 2)])
    @pytest.mark.parametrize("y", [F(1, 2), 1, F(7, 3)])
    def test_closed_forms_match_enumeration(self, k, lam, y):
        assert poisson_sandwich(k, y, lam) == sandwich_by_enumeration(k, y, lam)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("lam", [0.25, 2.5])
    @pytest.mark.parametrize("y", [0.375, 1.0, 2.5])
    def test_float_inputs_match_enumeration(self, k, lam, y):
        assert poisson_sandwich(k, y, lam) == sandwich_by_enumeration(k, y, lam)

    @pytest.mark.parametrize("y", EXACT_INPUTS[1:])
    @pytest.mark.parametrize("lam", [1, 3, F(1, 3), 0.25, 2.5])
    def test_equals_fraction_sums(self, y, lam):
        for k in range(1, MAX_SERIES_ORDER + 1):
            assert poisson_sandwich(k, y, lam) == poisson_sandwich_fractions(k, y, lam)

    @pytest.mark.parametrize("k", [6, 7])
    @pytest.mark.parametrize("lam", [F(1, 2), 1, 2])
    @pytest.mark.parametrize("y", [F(1, 2), 2])
    def test_strict_beyond_enumeration(self, k, lam, y):
        lower, upper = poisson_sandwich(k, y, lam)
        assert lower < moment_sparse(k, y, lam).value < upper

    @pytest.mark.parametrize("y", [F(1, 2), F(7, 3)])
    def test_upper_bound_beyond_enumeration(self, y):
        # the even-block sum with weight `base` per block is (2k)! [x^2k]
        # exp(G), G = base (cosh x - 1); the coefficients f_n of exp(G)
        # follow from f' = G' f: n f_n = sum_i i G_i f_(n-i)
        lam, top = F(5, 2), 20
        base = lam if y <= 1 else lam * y
        g = [F(0)] + [F(0) if i % 2 else base / math.factorial(i) for i in range(1, top + 1)]
        f = [F(1)]
        for n in range(1, top + 1):
            f.append(sum((i * g[i] * f[n - i] for i in range(1, n + 1)), F(0)) / n)
        for k in range(1, top // 2 + 1):
            assert poisson_sandwich(k, y, lam)[1] == math.factorial(2 * k) * f[2 * k]

    def test_k1_example(self):
        assert poisson_sandwich(1, F(1, 2), 2) == (1, 2)

    def test_k2_unit_example(self):
        # 3 non-crossing even partitions of {1..4}, 4 even partitions
        assert poisson_sandwich(2, 1, 1) == (3, 4)

    @pytest.mark.parametrize("lam", [F(1, 2), 1, 2])
    @pytest.mark.parametrize("y", [F(1, 2), 2])
    def test_containment_all_k(self, lam, y):
        for k in (1, 2, 3, 4):
            lower, upper = poisson_sandwich(k, y, lam)
            beta = moment_sparse(k, y, lam).value
            assert lower <= beta <= upper

    @pytest.mark.parametrize("lam", [F(1, 2), 1, 2])
    @pytest.mark.parametrize("y", [F(1, 2), 2])
    def test_strict_for_k_at_least_2(self, lam, y):
        for k in (2, 3, 4):
            lower, upper = poisson_sandwich(k, y, lam)
            beta = moment_sparse(k, y, lam).value
            assert lower < beta < upper

    # the k = 5 moment sums 303 words in Fractions, so fewer examples than
    # the profile's default keep the test near one second
    @settings(max_examples=100)
    @given(
        k=st.integers(1, 5),
        y=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
        lam=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
    )
    @example(k=2, y=F(1), lam=F(1, 10))
    @example(k=3, y=F(1), lam=F(5, 2))
    @example(k=4, y=F(1), lam=F(1, 3))
    def test_containment_property(self, k, y, lam):
        lower, upper = poisson_sandwich(k, y, lam)
        beta = moment_sparse(k, y, lam).value
        assert lower <= beta <= upper
        if k >= 2:
            assert beta < upper
            # for k <= 3 every special symmetric partition is non-crossing,
            # so at y = 1 the moment attains the lower bound
            if y == 1 and k <= 3:
                assert beta == lower
            else:
                assert lower < beta

    @pytest.mark.parametrize("lam", [F(1, 2), 1, 2])
    def test_k1_boundary_coincidence(self, lam):
        # at k = 1 the non-crossing-even, special symmetric and even classes
        # all reduce to the single one-block partition, so the moment equals
        # the upper bound when y <= 1 and the lower bound when y > 1
        lower, upper = poisson_sandwich(1, F(1, 2), lam)
        assert moment_sparse(1, F(1, 2), lam).value == upper > lower
        lower, upper = poisson_sandwich(1, 2, lam)
        assert moment_sparse(1, 2, lam).value == lower < upper

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            poisson_sandwich(1, 0, 1)
        with pytest.raises(ValueError):
            poisson_sandwich(1, 1, -1)

    @pytest.mark.parametrize("k, y, lam, message", [
        (1, 0, 1, "needs y > 0, got y = 0"),
        (1, 1, F(-1, 2), "needs lam > 0, got lam = -1/2"),
        (0, 1, 1, "needs k > 0, got k = 0"),
    ])
    def test_bad_input_is_named(self, k, y, lam, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            poisson_sandwich(k, y, lam)


class TestWordStructure:
    def test_tree_shape_aabb(self):
        st = word_structure(Word.from_text("aabb"))
        assert st.r == 0
        assert st.edges == ((0, 1, 2), (0, 2, 2))

    def test_tree_shape_abba(self):
        st = word_structure(Word.from_text("abba"))
        assert st.r == 1
        assert st.edges == ((0, 1, 2), (2, 1, 2))

    def test_multiplicities_are_block_sizes(self):
        for p in enumerate_partitions(6):
            word = p.to_word()
            try:
                st = word_structure(word)
            except ValueError:
                continue
            assert sorted(multiplicity for _, _, multiplicity in st.edges) == list(p.block_sizes())

    def test_r_matches_word_statistics(self):
        for k in (1, 2, 3, 4):
            for word in enumerate_ss_words(k):
                assert word_structure(word).r == word_statistics(word).r_plus_1 - 1



class TestUnreadableArguments:
    # each call hit OverflowError, a bare ValueError, TypeError or a
    # RuntimeWarning inside the library; each is an input fault
    @pytest.mark.parametrize("call", [
        lambda: moments.grid_moments([1], 10**400, {2: np.ones((4, 4))}),
        lambda: moments.sparse_moments([1], 1, float("inf")),
        lambda: moments.sparse_moments([1], float("inf"), 1),
        lambda: constant_moments([1], 1, {2: float("inf")}),
        lambda: mp_moment(1, float("nan")),
        lambda: constant_moments([1], 1, {2: float("nan")}),
        lambda: constant_moments([1], "x", {2: 1}),
        lambda: mp_moment(1.5, 1),
        lambda: constant_moments([1.5], 1, {2: 1}),
        lambda: moments.unbounded_support_bound(1, 2, np.full(4, 1e300)),
    ], ids=["grid-y-huge", "sparse-lam-inf", "sparse-y-inf", "constant-inf", "mp-y-nan",
            "constant-nan", "constant-y-text", "mp-k-float", "constant-k-float", "bound-overflow"])
    def test_raises_input_error(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError):
                call()


class ReadCounter(Sequence):
    """The orders 1, 2, 3, ... of a range far wider than the series limit,
    which fails on its 100th read."""

    def __init__(self):
        self.reads = 0

    def __len__(self):
        return 10**9

    def __getitem__(self, i):
        if i >= len(self):
            raise IndexError(i)
        self.reads += 1
        assert self.reads < 100, "ks read far past the series limit"
        return i + 1


class TestWideRanges:
    # a range wider than the series limit is read up to its first k above
    # the limit, which the error names, and no further
    @pytest.mark.parametrize("call", [
        lambda ks: constant_moments(ks, 1, {2: 1}),
        lambda ks: moments.sparse_moments(ks, 1, 3),
        lambda ks: moments.grid_moments(ks, 1, {s: np.ones((2, 2)) for s in range(2, 27, 2)}),
    ], ids=["constant", "sparse", "grid"])
    def test_read_stops_at_the_series_limit(self, call):
        ks = ReadCounter()
        with pytest.raises(SizeLimitError, match=f"moment order {MAX_SERIES_ORDER + 1} exceeds"):
            call(ks)
        assert ks.reads == MAX_SERIES_ORDER + 1
