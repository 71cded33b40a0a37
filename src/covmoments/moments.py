"""Limiting moment formulas for unscaled sample covariance matrices.

Every k-th limiting moment is a sum over the special symmetric words of
length 2k: a word with b letters and r+1 even generating vertices contributes
y^r times a product over its letters, where the factor of a letter with
multiplicity s is a constant C_s, lam for the sparse family, or a
two-variable integral of g_s over the generating-vertex variables.  Every
source reads y, the limit of p/n, through `_ratio` before any other work,
so a negative y raises InputError.

Combinatorial sums (constant, sparse, Marchenko-Pastur, sandwich) are
exact; quadrature paths use floats.  Every constant, sparse and quadrature
moment comes from one recursion over vertex sojourns,
`hypergraphs._sojourn_series`, and lists no word, up to
k = MAX_SERIES_ORDER.  One pass of order K gives every k <= K, so
`constant_moments`, `sparse_moments`, `grid_moments` and `profile_moments`
recurse once for a whole range of k.  The sparse sum is the constant sum
at C_2j = lam.  The exact sums run the recursion over Python integers:
with y = yn/yd and the constants over their least common denominator d,
each letter multiplies its child by one integer, so the degree-k
coefficient is the moment times (yd d)^k and each moment makes one
Fraction.  The Marchenko-Pastur moment and the sandwich sums are integer
polynomials, evaluated in integers over one denominator (`_at`).  The
quadrature sums run the same recursion over functions of the
generating-vertex variable, taken only as arrays sampled at grid
midpoints.
The per-word breakdown of every source is built only on request
(breakdown=True), because it lists every word and so stays within the
enumeration cap.  Every breakdown reads each word's quotient tree from
`circuits.word_structure`: the exact one multiplies y^r by the constant of
each letter, and the quadrature one integrates the tree one leaf at a time.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Callable, Mapping, Sequence

import numpy as np

from .circuits import WordStructure, word_structure
from .hypergraphs import MAX_SERIES_ORDER, _check_series_order, _sojourn_series, enumerate_ss_words
from .partitions import InputError, _integer, _repr, narayana


@dataclass(frozen=True)
class MomentReport:
    """A limiting moment with its per-word additive breakdown, which is None
    unless breakdown=True was asked for."""

    k: int
    value: Fraction | float
    breakdown: dict[str, Fraction | float] | None


def _exact(value: Real, name: str) -> Fraction:
    # a caller's number as a Fraction; a NaN, an inf or a value Fraction
    # cannot read raises InputError naming it
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a finite number, got {_repr(value)}") from None


def _ratio(y: Real) -> Fraction:
    # the aspect ratio y = lim p/n >= 0, as a Fraction
    ratio = _exact(y, "y")
    if ratio < 0:
        raise InputError(f"y must be >= 0, got {_repr(y, str)}")
    return ratio


def _lookup(c: Mapping[int, Real], size: int) -> Fraction:
    try:
        return _exact(c[size], f"the constant of order {size}")
    except KeyError:
        raise InputError(f"no value supplied for even moment order {size}") from None


def _read_orders(ks: Sequence[int]) -> list[int]:
    # the orders of ks, read once and in turn up to the first one above the
    # series limit, which is kept so that the caller's limit check names it;
    # each must be an integer >= 1
    read = []
    for k in ks:
        if _integer(k, "k") < 1:
            raise InputError("k must be >= 1")
        read.append(k)
        if k > MAX_SERIES_ORDER:
            break
    return read


def _at(coefficients: Sequence[int], x: Fraction, denominator: int = 1) -> Fraction:
    """sum_e coefficients[e] x^e / denominator for integer coefficients:
    the terms num(x)^e den(x)^(top-e) are summed in integers over
    den(x)^top * denominator, and one Fraction is made."""
    num, den = x.numerator, x.denominator
    top = len(coefficients) - 1
    return Fraction(
        sum(c * num**e * den ** (top - e) for e, c in enumerate(coefficients)), den**top * denominator
    )


def mp_moment(k: int, y: Real) -> Fraction:
    """k-th moment of the Marchenko-Pastur limit with ratio y: the Narayana
    polynomial sum_r C(k,r) C(k-1,r) / (r+1) * y^r."""
    y = _ratio(y)
    if _integer(k, "k") < 1:
        raise InputError("k must be >= 1")
    return _at([narayana(k, r) for r in range(k)], y)


def _word_terms(k: int, term: Callable[[WordStructure], Fraction | float]) -> dict[str, Fraction | float]:
    # each word's term from its quotient tree; lists every word, so the
    # enumeration cap holds
    return {word.text: term(word_structure(word)) for word in enumerate_ss_words(k)}


def constant_moments(
    ks: Sequence[int], y: Real, c: Mapping[int, Real], breakdown: bool = False
) -> dict[int, MomentReport]:
    """Limiting moments k in ks when the n-scaled entry moments converge to
    constants: sum over special symmetric words of y^r * prod_letters
    C_multiplicity, from one pass of the recursion.

    The sum is `hypergraphs._sojourn_series` of order K = max(ks) over
    Python integers, so no word is listed and one pass gives every k <= K.
    With y = yn/yd and each C_2j an integer over the least common
    denominator d of the constants, a letter of multiplicity 2j multiplies
    its child by C_2j d, by yn for a row child and yd otherwise, and by
    (yd d)^(j-1); the letters' j sum to k, so the degree-k coefficient is
    the moment times (yd d)^k, and one Fraction is made per moment.  The
    series limit is checked before any constant is looked up, and ks is
    read only up to its first k above that limit.
    breakdown=True adds each word's term, y^r times the constant of each
    letter of its quotient tree (`circuits.word_structure`), which
    enumerates the words (bounded by the enumeration cap).
    """
    y = _ratio(y)
    ks = _read_orders(ks)
    if not ks:
        return {}
    top = max(ks)
    _check_series_order(top)
    constants = {size: _lookup(c, size) for size in sorted(_needed_sizes(top))}
    d = math.lcm(*(v.denominator for v in constants.values()))
    yn, yd = y.numerator, y.denominator
    # factors[s][j] weighs a letter of multiplicity 2j below a vertex of
    # parity s, whose child is a column (s = 0) or a row (s = 1)
    factors = [[0] + [v.numerator * (d // v.denominator) * child_y * (yd * d) ** (size // 2 - 1)
                      for size, v in constants.items()] for child_y in (yd, yn)]
    series = _sojourn_series(top, 1, int, lambda s, j, child: factors[s][j] * child,
                             lambda acc, p, q, scale: acc + scale * p * q)
    # largest first, so a k beyond the enumeration cap fails before any listing
    terms = {k: _word_terms(k, lambda st: y**st.r * math.prod(constants[s] for *_, s in st.edges))
             for k in (sorted(ks, reverse=True) if breakdown else [])}
    return {k: MomentReport(k, Fraction(series[k], (yd * d) ** k), terms.get(k)) for k in ks}


def moment_constant(k: int, y: Real, c: Mapping[int, Real], breakdown: bool = False) -> MomentReport:
    """Limiting moment for constant entry moments at the single order k:
    constant_moments([k])."""
    return constant_moments([k], y, c, breakdown)[k]


def sparse_moments(ks: Sequence[int], y: Real, lam: Real, breakdown: bool = False) -> dict[int, MomentReport]:
    """Sparse Bernoulli-type limits for every k in ks: entries
    Bernoulli(lam/n) have n E[x^2j] = lam for every j, so these are
    constant_moments with C_2j = lam, the sums over special symmetric words
    of y^r * lam^b."""
    lam = _exact(lam, "lam")
    if not lam > 0:
        raise InputError("lam must be positive")
    # every order reads lam, so no map of orders is built before the series
    # limit is checked
    return constant_moments(ks, y, defaultdict(lambda: lam), breakdown)


def moment_sparse(k: int, y: Real, lam: Real, breakdown: bool = False) -> MomentReport:
    """Sparse Bernoulli-type limit for the single order k: sparse_moments([k])."""
    return sparse_moments([k], y, lam, breakdown)[k]


def poisson_sandwich(k: int, y: Real, lam: Real) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds for the sparse moment, from the symmetrized
    free-Poisson and Poisson partition sums.

    y <= 1: ( sum_{non-crossing even} (lam*y)^b , sum_{even} lam^b );
    y > 1:  ( sum_{non-crossing even} lam^b     , sum_{even} (lam*y)^b ).

    Both sums are polynomials in the block weight with integer coefficients,
    the partitions of {1..2k} into b even blocks, evaluated by `_at`.  The
    non-crossing ones number C(k,b) C(2k,b-1) / k (Edelman 1980, the
    2-divisible case), and the even-block counts alpha_m over the partitions
    of {1..m} follow the recurrence on the block holding 1, of even size j:
    alpha_m = sum_j C(m-1, j-1) base alpha_{m-j}, with alpha_0 = 1 and
    alpha_m = 0 for odd m; multiplying by base shifts the coefficients.
    """
    y, lam, k = _exact(y, "y"), _exact(lam, "lam"), _integer(k, "k")
    for name, value in (("lam", lam), ("y", y), ("k", k)):
        if not value > 0:
            raise InputError(f"poisson_sandwich needs {name} > 0, got {name} = {_repr(value, str)}")
    lower_base = lam * y if y <= 1 else lam
    upper_base = lam if y <= 1 else lam * y
    non_crossing = [0] + [math.comb(k, b) * math.comb(2 * k, b - 1) // k for b in range(1, k + 1)]
    alpha = [[1]]  # alpha[i][b]: partitions of {1..2i} into b even blocks
    for m in range(2, 2 * k + 1, 2):
        row = [0] * (m // 2 + 1)
        for j in range(2, m + 1, 2):
            for b, count in enumerate(alpha[(m - j) // 2]):
                row[b + 1] += math.comb(m - 1, j - 1) * count
        alpha.append(row)
    return _at(non_crossing, lower_base), _at(alpha[k], upper_base)


def _sampled(values: np.ndarray, grid: int | None, name: str, ndim: int = 2, like: str = "") -> np.ndarray:
    # the one input form of the quadrature: an array of finite midpoint
    # samples, grid to a side, or its own side when grid is None (`like`
    # names the array a side was taken from); a NaN or inf would otherwise
    # run through the recursion
    if not isinstance(values, np.ndarray):
        shape = "" if grid is None else f" of shape {(grid,) * ndim}"
        raise InputError(f"expected a grid-sampled array{shape}, got a {type(values).__name__}")
    shape = ((values.shape or (0,))[0] if grid is None else grid,) * ndim
    if values.shape != shape:
        raise InputError(f"{name} has shape {values.shape}, expected {shape}{like}")
    samples = np.asarray(values, dtype=float)
    # min and max return a NaN if there is one and reach an inf, and unlike
    # np.isfinite(samples).all() they need no mask array
    if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
        index = tuple(int(i) for i in np.unravel_index(np.argmin(np.isfinite(samples)), shape))
        raise InputError(f"{name} has the non-finite sample {samples[index]} at index {index}")
    return samples


def _grid_series(top: int, y: float, samples: Mapping[int, np.ndarray], grid: int) -> list[float]:
    # the sojourn recursion over functions of the vertex variable: a letter
    # of multiplicity 2j integrates the child's variable out of g_2j, and a
    # row child (the first argument of g) carries y
    def letter(s: int, j: int, child: np.ndarray) -> np.ndarray:
        factor = samples[2 * j]
        return factor @ child / grid if s == 0 else y * (child @ factor) / grid

    unit = np.ones(grid)

    def add_product(acc: np.ndarray, p: np.ndarray, q: np.ndarray, scale: int) -> np.ndarray:
        # acc += (scale p) q, leaving out the factors that are exactly 1
        if p is not unit:
            q = p * q if scale == 1 else scale * p * q
        elif scale != 1:
            q = scale * q
        acc += q
        return acc

    series = _sojourn_series(top, unit, lambda: np.zeros(grid), letter, add_product)
    return [float(coefficient.mean()) for coefficient in series]


def _tree_term(st: WordStructure, y: float, samples: Mapping[int, np.ndarray], grid: int) -> float:
    # one word's term: eliminate the leaf variables in reverse introduction
    # order, each step a G x G quadrature
    messages = {cls: np.ones(grid) for cls in range(len(st.edges) + 1)}
    # letter j's child is class j, its parent the other endpoint
    for j in range(len(st.edges), 0, -1):
        row, col, multiplicity = st.edges[j - 1]
        factor = samples[multiplicity]
        child = messages.pop(j)
        if j == row:
            contrib = (factor * child[:, None]).mean(axis=0)
            parent = col
        else:
            contrib = (factor * child[None, :]).mean(axis=1)
            parent = row
        messages[parent] = messages[parent] * contrib
    # a float64 power overflows to inf where a Python float raises
    return float(np.float64(y) ** st.r * messages[0].mean())


def _needed_sizes(k: int) -> frozenset[int]:
    # a^(2j) followed by k - j pairs is special symmetric for every j <= k,
    # so every even multiplicity up to 2k occurs
    return frozenset(range(2, 2 * k + 1, 2))


def grid_moments(
    ks: Sequence[int],
    y: Real,
    g: Mapping[int, np.ndarray],
    grid: int | None = None,
    breakdown: bool = False,
) -> dict[int, MomentReport]:
    """Limiting moments k in ks for moment functions g_{2m} on [0,1]^2, each
    a grid x grid array of samples at the cell midpoints, from one pass of
    the recursion.  grid=None takes the side of the arrays given, which must
    then all have the shape of the first one read, g_2.

    Each word contributes y^r times the integral over its b+1 generating
    variables of prod_letters g_multiplicity(x_even, u_odd), evaluated by the
    midpoint rule.  The sum over words is the sojourn recursion of
    `hypergraphs._sojourn_series` over functions of the vertex variable, so
    no word is listed and k may go up to MAX_SERIES_ORDER.  One series of
    order K = max(ks) gives every k <= K; ks is read only up to its first k
    above the series limit.  y must be >= 0 and within the float range, and
    every sample must be finite; the first NaN or inf is named in an
    InputError.
    A sum of finite samples that leaves the float range gives an inf or NaN
    value, with no warning.  A degree-k coefficient takes the same float operations
    whatever K is, so each value equals moment_grid(k, ...).
    breakdown=True adds each word's term by tree elimination, which
    enumerates the words (bounded by the enumeration cap).
    """
    try:
        yf = float(_ratio(y))
    except OverflowError:
        raise InputError(f"y = {_repr(y, str)} is beyond the float range") from None
    ks = _read_orders(ks)
    if not ks:
        return {}
    top = max(ks)
    # the orders of _needed_sizes, walked in turn up to the first missing one
    sizes = range(2, 2 * top + 1, 2)
    missing = next((s for s in sizes if s not in g), None)
    if missing is not None:
        raise InputError(f"no grid function supplied for even moment order {missing}")
    first, rest = sizes[0], sizes[1:]
    samples = {first: _sampled(g[first], grid, f"g_{first}")}
    like = "" if grid is not None else f", the shape of g_{first}"
    grid = len(samples[first])
    if grid < 2:
        raise InputError(f"grid resolution must be at least 2, got {grid}")
    samples.update((s, _sampled(g[s], grid, f"g_{s}", like=like)) for s in rest)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _grid_series(top, yf, samples, grid)
        # largest first, so a k beyond the enumeration cap fails before any listing
        order = sorted(ks, reverse=True) if breakdown else []
        terms = {k: _word_terms(k, lambda st: _tree_term(st, yf, samples, grid)) for k in order}
    return {k: MomentReport(k, values[k], terms.get(k)) for k in ks}


def moment_grid(
    k: int, y: Real, g: Mapping[int, np.ndarray], grid: int | None = None, breakdown: bool = False
) -> MomentReport:
    """Limiting moment k for grid x grid sampled moment functions g_{2m} on
    [0,1]^2: grid_moments for the single order k."""
    return grid_moments([k], y, g, grid, breakdown)[k]


def profile_moments(
    ks: Sequence[int],
    y: Real,
    sigma: np.ndarray,
    c: Mapping[int, Real],
    grid: int | None = None,
    breakdown: bool = False,
) -> dict[int, MomentReport]:
    """Variance-profile limits for every k in ks, sigma a grid x grid array
    of midpoint samples (grid=None: sigma's own side): the letter factor of
    multiplicity s is sigma(x, u)^s * C_s, so this is grid_moments with g
    arrays derived once for the largest k.  The derived arrays share one
    block, one slice per order, and equal sigma**s * C_s bit for bit.  A
    constant beyond the float range raises InputError naming its order, and
    so does a sigma^s * C_s that overflows."""
    _ratio(y)  # a negative y fails before any array is read
    sigma = _sampled(sigma, grid, "sigma")
    ks = _read_orders(ks)
    # every constant is looked up before any arithmetic, so a missing one is
    # named first; the orders of _needed_sizes are walked in turn, and the
    # first missing one ends the walk
    constants = {s: _lookup(c, s) for s in range(2, 2 * max(ks, default=0) + 1, 2)}
    # the derived arrays are C-contiguous slices of one block: numpy may back
    # an allocation of 4 MiB or more with huge pages, so a large block faults
    # in fewer pages than one fresh array per order
    block = np.empty((len(constants),) + sigma.shape)
    g = dict(zip(constants, block))
    for s in constants:
        # sigma and the constant are finite, so only an overflow makes a
        # sample of their product non-finite
        try:
            constant = float(constants[s])
            with np.errstate(over="raise"):
                np.power(sigma, s, out=g[s])
                g[s] *= constant
        except OverflowError:
            raise InputError(f"the constant of order {s} is beyond the float range") from None
        except FloatingPointError:
            raise InputError(f"sigma^{s} * C_{s} overflows a float") from None
    return grid_moments(ks, y, g, len(sigma), breakdown)


def moment_profile(
    k: int,
    y: Real,
    sigma: np.ndarray,
    c: Mapping[int, Real],
    grid: int | None = None,
    breakdown: bool = False,
) -> MomentReport:
    """Variance-profile limit for the single order k: profile_moments([k])."""
    return profile_moments([k], y, sigma, c, grid, breakdown)[k]


def unbounded_support_bound(
    m: int, t: int, f: np.ndarray, grid: int | None = None
) -> Fraction:
    """Lower bound (mt)! / (t! (m!)^t) * integral of f_{2m}(x)^t dx for the
    moment of order k = m*t; f is the partial integral of g_{2m} in its
    second argument, sampled at the midpoints of a grid-point grid
    (grid=None: f's own length).  The combinatorial prefactor is kept
    exact.  An integral beyond the float range raises InputError."""
    if _integer(m, "m") < 1 or _integer(t, "t") < 1:
        raise InputError("m and t must be >= 1")
    prefactor = math.factorial(m * t) // (math.factorial(t) * math.factorial(m) ** t)
    with np.errstate(over="ignore"):
        integral = float(np.mean(_sampled(f, grid, "f", ndim=1) ** t))
    if not math.isfinite(integral):
        raise InputError(f"the integral of f^{t} is beyond the float range")
    return Fraction(prefactor) * Fraction(integral)
