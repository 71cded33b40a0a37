import gc
import itertools
import math
import re
from fractions import Fraction as F

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmoments import checks, moments
from covmoments.circuits import word_structure
from covmoments.hypergraphs import MAX_SERIES_ORDER, enumerate_ss_words
from covmoments.moments import (
    _needed_sizes,
    grid_moments,
    moment_constant,
    moment_grid,
    moment_profile,
    mp_moment,
    profile_moments,
    unbounded_support_bound,
)
from covmoments.partitions import InputError, Word, word_statistics


def sample(f, grid):
    """f(x, u) at the midpoints of a grid x grid grid, the array form every
    quadrature function takes."""
    xs = (np.arange(grid) + 0.5) / grid
    return np.asarray(f(xs[:, None], xs[None, :]), dtype=float)


def sample_all(g, grid):
    return {s: sample(f, grid) for s, f in g.items()}


def const(v):
    return lambda x, u: np.full_like(np.asarray(x, dtype=float) * u, v)


ZERO = const(0.0)
ONE = const(1.0)
SIZES = (2, 4, 6, 8, 10, 12)


def per_word_elimination(k, y, samples, grid):
    """Reference quadrature: eliminate each word's tree on its own, leaves in
    reverse introduction order, sharing nothing between words."""
    breakdown = {}
    for word in enumerate_ss_words(k):
        structure = word_structure(word)
        messages = {cls: np.ones(grid) for cls in range(len(structure.edges) + 1)}
        # letter j's child is class j, its parent the other endpoint
        for j in range(len(structure.edges), 0, -1):
            row, col, multiplicity = structure.edges[j - 1]
            factor = samples[multiplicity]
            child_msg = messages.pop(j)
            if j == row:
                contrib = (factor * child_msg[:, None]).mean(axis=0)
                parent = col
            else:
                contrib = (factor * child_msg[None, :]).mean(axis=1)
                parent = row
            messages[parent] = messages[parent] * contrib
        root = messages.pop(0)
        breakdown[word.text] = y**structure.r * float(root.mean())
    return sum(breakdown.values()), breakdown


def random_polynomials(rng):
    def poly():
        a, b, c, d = rng.uniform(0.2, 1.5, 4)
        return lambda x, u: a + b * x + c * u + d * x * u

    return {s: poly() for s in SIZES}


class TestMomentGrid:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_constant_integrand_reproduces_constant_path(self, k):
        values = {2: 1.0, 4: 0.25, 6: 2.0}
        g = {s: sample(const(v), 32) for s, v in values.items()}
        grid_value = moment_grid(k, 0.5, g, grid=32).value
        exact = moment_constant(k, F(1, 2), {s: F(v) for s, v in values.items()}).value
        assert abs(grid_value - float(exact)) < 1e-10

    def test_separable_product_integral(self):
        report = moment_grid(1, 1, {2: sample(lambda x, u: x * u, 128)}, grid=128)
        assert abs(report.value - 0.25) < 1e-6

    def test_mp_reduction_catalan(self):
        g = sample_all({2: ONE, 4: ZERO, 6: ZERO}, 8)
        assert abs(moment_grid(3, 1, g, grid=8).value - 5.0) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_against_naive_multidimensional_quadrature(self, k):
        # the sum over all b+1 variables costs grid^(b+1) per word, so the
        # deeper trees of k = 3, 4 run on a coarser grid
        grid = 6 if k <= 2 else 4
        xs = (np.arange(grid) + 0.5) / grid
        g = random_polynomials(np.random.default_rng(7))
        sampled = {s: np.array([[g[s](x, u) for u in xs] for x in xs]) for s in g}
        terms = []
        for word in enumerate_ss_words(k):
            st = word_structure(word)
            nvar = len(st.edges) + 1
            for idx in itertools.product(range(grid), repeat=nvar):
                prod = 0.7**st.r
                for row, col, multiplicity in st.edges:
                    prod *= sampled[multiplicity][idx[row], idx[col]]
                terms.append(prod / grid**nvar)
        # fsum rounds the sum of the grid^(b+1) terms once, so the oracle's own
        # error stays below the tolerance at k = 4, where the moment is ~600
        naive = math.fsum(terms)
        assert abs(moment_grid(k, 0.7, sample_all(g, grid), grid=grid).value - naive) < 1e-12

    @staticmethod
    def random_arrays(k):
        rng = np.random.default_rng(100 + k)
        return {s: rng.uniform(0.1, 2.0, size=(8, 8)) for s in SIZES}

    @staticmethod
    def sampled_polynomials(k, grid):
        # random polynomial formulas, the callables of the "on_callables"
        # tests, sampled at the midpoints
        return sample_all(random_polynomials(np.random.default_rng(200 + k)), grid)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bit_identical_to_per_word_elimination_on_arrays(self, k):
        # the breakdown is the per-word elimination, term by term
        arrays = self.random_arrays(k)
        report = moment_grid(k, 0.7, arrays, grid=8, breakdown=True)
        _, breakdown = per_word_elimination(k, 0.7, arrays, 8)
        assert list(report.breakdown.items()) == list(breakdown.items())

    @pytest.mark.parametrize("k", range(1, 7))
    def test_bit_identical_to_per_word_elimination_on_callables(self, k):
        sampled = self.sampled_polynomials(k, 9)
        report = moment_grid(k, 1.3, sampled, grid=9, breakdown=True)
        _, breakdown = per_word_elimination(k, 1.3, sampled, 9)
        assert list(report.breakdown.items()) == list(breakdown.items())

    # the value sums the words in the recursion's order, not word by word, so
    # it agrees with the per-word sum to rounding, not bit for bit
    @pytest.mark.parametrize("k", range(1, 7))
    def test_value_within_1e13_of_per_word_elimination_on_arrays(self, k):
        arrays = self.random_arrays(k)
        report = moment_grid(k, 0.7, arrays, grid=8)
        value, _ = per_word_elimination(k, 0.7, arrays, 8)
        assert report.value == pytest.approx(value, rel=1e-13, abs=0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_value_within_1e13_of_per_word_elimination_on_callables(self, k):
        sampled = self.sampled_polynomials(k, 9)
        report = moment_grid(k, 1.3, sampled, grid=9)
        value, _ = per_word_elimination(k, 1.3, sampled, 9)
        assert report.value == pytest.approx(value, rel=1e-13, abs=0)

    # g = 1 at y = 1 weighs every special symmetric word by 1; the totals are
    # the word search's with its enumeration cap raised
    @pytest.mark.parametrize("k,words", [(8, 69331), (9, 467963)])
    def test_counts_the_words_beyond_the_enumeration_cap(self, k, words):
        g = {s: np.ones((4, 4)) for s in range(2, 2 * k + 1, 2)}
        assert moment_grid(k, 1, g, grid=4).value == pytest.approx(words, rel=1e-13, abs=0)

    # each example evaluates up to 303 words twice, so fewer examples than
    # the profile's default keep the test near one second
    @settings(max_examples=60)
    @given(
        k=st.integers(1, 5),
        y=st.fractions(min_value=F(1, 10), max_value=10, max_denominator=12),
        constants=st.lists(
            st.fractions(min_value=F(1, 10), max_value=5, max_denominator=12), min_size=5, max_size=5
        ),
    )
    def test_constant_arrays_match_exact_constant_path(self, k, y, constants):
        c = dict(zip(SIZES, constants))
        arrays = {s: np.full((4, 4), float(v)) for s, v in c.items()}
        exact = float(moment_constant(k, y, c).value)
        assert moment_grid(k, y, arrays, grid=4).value == pytest.approx(exact, rel=1e-12, abs=0)

    def test_leaves_no_reference_cycles(self):
        # a cycle would keep the sample arrays and messages alive until the
        # cyclic collector runs, raising peak memory
        rng = np.random.default_rng(5)
        arrays = {s: rng.uniform(size=(16, 16)) for s in SIZES}
        moment_grid(6, 0.5, arrays, grid=16)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            moment_grid(6, 0.5, arrays, grid=16)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_needed_sizes_is_frozen(self):
        assert _needed_sizes(3) == frozenset({2, 4, 6})
        assert isinstance(_needed_sizes(3), frozenset)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_needed_sizes_are_the_word_multiplicities(self, k):
        occurring = {s for word in enumerate_ss_words(k) for s in word.multiplicities()}
        assert _needed_sizes(k) == occurring

    def test_first_order_convergence_smooth_profile(self):
        sigma = lambda x, u: 0.5 + 0.5 * x * u
        v64 = moment_profile(3, 1, sample(sigma, 64), {2: 1, 4: 1, 6: 1}, grid=64).value
        v128 = moment_profile(3, 1, sample(sigma, 128), {2: 1, 4: 1, 6: 1}, grid=128).value
        assert abs(v64 - v128) <= 1e-3

    def test_nonnegative_integrands_give_nonnegative_moments(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            arrays = {s: rng.uniform(0, 2, size=(8, 8)) for s in (2, 4, 6)}
            for k in (1, 2, 3):
                assert moment_grid(k, 0.5, arrays, grid=8).value >= 0

    def test_weights_are_unity_at_y1_and_scale_as_powers(self):
        g = sample_all({2: lambda x, u: x + u, 4: lambda x, u: x * u + 0.3, 6: ONE}, 8)
        at_y1 = moment_grid(3, 1, g, grid=8, breakdown=True)
        at_y2 = moment_grid(3, 2, g, grid=8, breakdown=True)
        assert abs(at_y1.value - sum(at_y1.breakdown.values())) < 1e-12
        for text, base in at_y1.breakdown.items():
            if abs(base) < 1e-15:
                continue
            r = word_statistics(Word.from_text(text)).r_plus_1 - 1
            assert at_y2.breakdown[text] / base == pytest.approx(2.0**r, abs=1e-9)

    def test_array_inputs(self):
        grid = 16
        xs = (np.arange(grid) + 0.5) / grid
        arr = np.outer(xs, xs)
        report = moment_grid(1, 1, {2: arr}, grid=grid)
        assert report.value == pytest.approx(0.25, abs=1e-12)

    def test_array_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            moment_grid(1, 1, {2: np.ones((4, 4))}, grid=8)

    def test_missing_order(self):
        with pytest.raises(ValueError, match="order 4"):
            moment_grid(2, 1, {2: np.ones((8, 8))}, grid=8)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            moment_grid(1, 1, {2: np.ones((1, 1))}, grid=1)


class TestGridFromArrays:
    """grid=None takes the side of the arrays given; an explicit grid must
    still match them."""

    def test_default_grid_is_the_side_of_the_arrays(self):
        rng = np.random.default_rng(3)
        g = {s: rng.uniform(-1, 1, (12, 12)) for s in SIZES[:3]}
        sigma, f = rng.uniform(0, 1, (12, 12)), rng.uniform(0, 1, 12)
        c = {2: 1, 4: F(1, 2), 6: 2}
        assert grid_moments(range(1, 4), 0.5, g) == grid_moments(range(1, 4), 0.5, g, grid=12)
        assert moment_grid(3, 0.5, g) == moment_grid(3, 0.5, g, grid=12)
        assert profile_moments(range(1, 4), 0.5, sigma, c) == profile_moments(range(1, 4), 0.5, sigma, c, grid=12)
        assert moment_profile(3, 0.5, sigma, c) == moment_profile(3, 0.5, sigma, c, grid=12)
        assert unbounded_support_bound(1, 3, f) == unbounded_support_bound(1, 3, f, grid=12)

    def test_arrays_of_different_sides_are_named_together(self):
        g = {2: np.ones((8, 8)), 4: np.ones((4, 4))}
        with pytest.raises(InputError, match=re.escape("g_4 has shape (4, 4), expected (8, 8), the shape of g_2")):
            grid_moments([2], 1, g)

    def test_side_below_two(self):
        with pytest.raises(InputError, match="grid resolution must be at least 2, got 1"):
            moment_grid(1, 1, {2: np.ones((1, 1))})


@st.composite
def k_ranges(draw, breakdown):
    """A range lo..hi within 1..6; a breakdown lists every word, so it stops at 4."""
    hi = draw(st.integers(1, 4 if breakdown else 6))
    return list(range(draw(st.integers(1, hi)), hi + 1))


def random_grid_inputs(seed, grid, formulas):
    """Uniform random arrays, or random polynomials sampled at the midpoints,
    on the given grid for every order up to 12."""
    rng = np.random.default_rng(seed)
    if formulas:
        return sample_all(random_polynomials(rng), grid)
    return {s: rng.uniform(0.1, 2.0, size=(grid, grid)) for s in SIZES}


class TestGridMoments:
    """One series of order max(ks) gives each k the report of its own call, bit
    for bit: a degree-k coefficient takes the same float operations whatever the
    series order is."""

    # each example makes one multi-k call and up to six single-k calls
    @settings(max_examples=40)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        y=st.floats(0.1, 3.0),
        breakdown=st.booleans(),
    )
    @pytest.mark.parametrize("grid,formulas", [
        (4, False), (8, False), (5, True), (9, True), (2, False), (3, True),
    ])
    def test_each_k_equals_its_own_call(self, data, seed, y, breakdown, grid, formulas):
        ks = data.draw(k_ranges(breakdown))
        g = random_grid_inputs(seed, grid, formulas)
        reports = grid_moments(ks, y, g, grid=grid, breakdown=breakdown)
        assert list(reports) == ks
        for k in ks:
            single = moment_grid(k, y, g, grid=grid, breakdown=breakdown)
            assert reports[k] == single
            assert (single.breakdown is None) != breakdown

    @settings(max_examples=40)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        y=st.floats(0.1, 3.0),
        breakdown=st.booleans(),
    )
    @pytest.mark.parametrize("grid,formula", [(8, False), (9, True)])
    def test_each_profile_k_equals_its_own_call(self, data, seed, y, breakdown, grid, formula):
        ks = data.draw(k_ranges(breakdown))
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.2, 1.5, 2)
        if formula:
            sigma = sample(lambda x, u: a + b * x * u, grid)
        else:
            sigma = rng.uniform(0.2, 1.5, size=(grid, grid))
        constants = {s: F(int(rng.integers(1, 6)), s) for s in SIZES}
        reports = profile_moments(ks, y, sigma, constants, grid=grid, breakdown=breakdown)
        assert list(reports) == ks
        for k in ks:
            assert reports[k] == moment_profile(k, y, sigma, constants, grid=grid, breakdown=breakdown)

    def test_missing_order_of_the_largest_k(self):
        g = {s: np.ones((4, 4)) for s in SIZES[:5]}
        # g = 1 at y = 1 counts the 303 special symmetric words of length 10
        assert grid_moments([1, 2, 3, 4, 5], 1, g, grid=4)[5].value == pytest.approx(303, rel=1e-13)
        with pytest.raises(ValueError, match="order 12"):
            grid_moments([1, 6], 1, g, grid=4)
        with pytest.raises(ValueError, match="order 12"):
            profile_moments([1, 6], 1, np.ones((4, 4)), dict.fromkeys(SIZES[:5], 1), grid=4)

    def test_k_below_one_and_empty_range(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            grid_moments([0, 1], 1, {2: np.ones((4, 4))}, grid=4)
        assert grid_moments([], 1, {}, grid=4) == {}
        assert profile_moments([], 1, np.ones((4, 4)), {}, grid=4) == {}


class TestArrayInputsOnly:
    def test_callable_is_rejected_uncalled(self):
        # no quadrature function evaluates a callable, point by point or at all
        def never_called(*args):
            raise AssertionError("a callable input was evaluated")

        calls = [
            lambda f: grid_moments([1], 1, {2: f}, grid=4),
            lambda f: moment_grid(1, 1, {2: f}, grid=4),
            lambda f: profile_moments([1], 1, f, {2: 1}, grid=4),
            lambda f: moment_profile(1, 1, f, {2: 1}, grid=4),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"array of shape \(4, 4\)"):
                call(never_called)
        with pytest.raises(ValueError, match=r"array of shape \(4,\)"):
            unbounded_support_bound(1, 1, never_called, grid=4)


class TestMomentProfile:
    def test_unit_profile_equals_constant_path(self):
        report = moment_profile(2, 0.5, sample(ONE, 16), {2: 1, 4: 2}, grid=16)
        exact = moment_constant(2, F(1, 2), {2: 1, 4: 2}).value
        assert report.value == pytest.approx(float(exact), abs=1e-12)

    def test_triangular_indicator_first_moment(self):
        sigma = lambda x, u: (np.asarray(x) <= np.asarray(u)).astype(float)
        report = moment_profile(1, 1, sample(sigma, 128), {2: 1}, grid=128)
        assert report.value == pytest.approx(0.5, abs=0.005)

    def test_array_profile(self):
        grid = 32
        xs = (np.arange(grid) + 0.5) / grid
        sigma = (xs[:, None] <= xs[None, :]).astype(float)
        report = moment_profile(1, 1, sigma, {2: 1}, grid=grid)
        assert report.value == pytest.approx(0.5, abs=0.02)


class TestUnboundedSupportBound:
    def test_trivial_cases(self):
        assert unbounded_support_bound(1, 1, np.ones(256)) == 1
        assert unbounded_support_bound(1, 2, np.ones(256)) == 1

    def test_prefactor(self):
        # m=2, t=2: (4)!/(2! * 2!^2) = 3
        assert unbounded_support_bound(2, 2, np.ones(256)) == 3

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_bounds_mp_moments_from_below(self, t):
        # MP data: g_2 = 1 so f_2 = 1; the bound must sit below the k = t moment
        g = sample_all({2: ONE, 4: ZERO, 6: ZERO, 8: ZERO}, 16)
        bound = unbounded_support_bound(1, t, np.ones(256))
        for y in (0.5, 1.0):
            value = moment_grid(t, y, g, grid=16).value
            assert float(bound) <= value + 1e-12

    def test_sampled_input(self):
        bound = unbounded_support_bound(1, 2, np.full(64, 2.0), grid=64)
        assert float(bound) == pytest.approx(2.0 * 2.0, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            unbounded_support_bound(0, 1, np.ones(256))
        with pytest.raises(ValueError, match="shape"):
            unbounded_support_bound(1, 1, np.ones(8), grid=16)


def report_bits(reports):
    return [r.value.hex() for r in reports.values()]


class TestKernelAgainstOracles:
    """The recursion without its zero products and the kernel without its
    unit products give the bits of the kernel that forms every product."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("grid", [4, 8, 9, 64])
    def test_grid_moments_equal_the_untightened_kernel(self, monkeypatch, grid, seed):
        rng = np.random.default_rng(seed)
        y = float(rng.uniform(0.1, 3.0))
        shape = (grid, grid)
        ks = range(1, MAX_SERIES_ORDER + 1)
        g = {s: rng.uniform(-1, 1, shape) * 10.0 ** rng.integers(-3, 4, shape) for s in range(2, 2 * ks[-1] + 1, 2)}
        fast = grid_moments(ks, y, g, grid=grid)
        monkeypatch.setattr(moments, "_grid_series", oracles.grid_series_untightened)
        assert report_bits(fast) == report_bits(grid_moments(ks, y, g, grid=grid))


class TestNonFiniteSamples:
    """A NaN or inf sample is rejected, naming the first one, before the
    recursion could carry it into every value."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_moments(self, bad):
        g = {s: np.ones((8, 8)) for s in (2, 4)}
        g[4][5, 1] = bad
        g[4][6, 0] = np.nan
        message = f"g_4 has the non-finite sample {bad} at index (5, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            grid_moments([1, 2], 1, g, grid=8)
        with pytest.raises(ValueError, match=re.escape(message)):
            moment_grid(2, 1, g, grid=8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_profile_moments(self, bad):
        sigma = np.ones((8, 8))
        sigma[0, 7] = bad
        message = f"sigma has the non-finite sample {bad} at index (0, 7)"
        with pytest.raises(ValueError, match=re.escape(message)):
            profile_moments([1, 2], 1, sigma, {2: 1, 4: 1}, grid=8)
        with pytest.raises(ValueError, match=re.escape(message)):
            moment_profile(2, 1, sigma, {2: 1, 4: 1}, grid=8)

    def test_profile_power_that_overflows(self):
        sigma = np.ones((8, 8))
        sigma[2, 3] = 1e100
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=re.escape("sigma^4 * C_4 overflows a float")):
                profile_moments([1, 2], 1, sigma, {2: 1, 4: 1}, grid=8)

    def test_unbounded_support_bound(self):
        f = np.ones(16)
        f[9] = np.nan
        with pytest.raises(ValueError, match=re.escape("f has the non-finite sample nan at index (9,)")):
            unbounded_support_bound(1, 2, f, grid=16)


class TestClosedFormLimits:
    """The midpoint quadrature converges to exact limits at the order of the
    midpoint rule on the integrand."""

    # DT: 1{x <= u} with C_2 = 1 at y = 1, limit k^k / (k+1)!; the bounds on
    # (value - limit) * G are the ones `covmoments verify` checks at G = 64
    @pytest.mark.parametrize("grid", [64, 128, 256, 512, 1024])
    def test_dt_first_order(self, grid):
        sigma = sample(lambda x, u: (x <= u).astype(float), grid)
        constants = {s: int(s == 2) for s in SIZES}
        reports = profile_moments(range(1, 7), 1, sigma, constants, grid=grid)
        for k, (lower, upper) in checks.DT_SCALED_ERROR.items():
            limit = k**k / math.factorial(k + 1)
            assert lower <= (reports[k].value - limit) * grid <= upper, k

    @pytest.mark.parametrize("grid", [64, 128, 256, 512, 1024])
    def test_fig1_second_order(self, grid):
        # sigma = (x/2 + u)^2 / 2, C_2 = 3, y = 1/2: the k = 1 value is the
        # midpoint rule for f = 3 (x/2 + u)^4 / 4, whose limit is 83/160.  Its
        # leading error term -(1/24) G^-2 integral(f_xx + f_uu) is -(5/16) G^-2
        # and the next is O(G^-4), so (value - limit) G^2 is -5/16 to within
        # 0.005 from G = 64 on
        sigma = sample(lambda x, u: (x / 2 + u) ** 2 / 2, grid)
        value = moment_profile(1, F(1, 2), sigma, {2: 3}, grid=grid).value
        assert abs((value - 83 / 160) * grid**2 + 5 / 16) <= 0.005
