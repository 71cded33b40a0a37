"""Matrix ensemble samplers, S = X X^T spectra, and experiment aggregation.

Sampling is reproducible: replicate r of a run draws from a Philox
counter-based generator keyed by SeedSequence(seed, spawn_key=(r,)), and
entries are filled row-major, so a replicate's draws depend only on (seed, r).
"""

from __future__ import annotations

import math
import numbers
import sys
from contextlib import suppress
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .partitions import InputError, SizeLimitError, _integer, _repr

DEFAULT_SEED = 1729

FAMILIES = (
    "iid_standardized",
    "sparse_bernoulli",
    "triangular_iid",
    "heavy_tail_stable",
    "variance_profile",
    "dt_triangular",
)

NAMED_PROFILES = ("fig1_quadratic", "fig2_sine", "upper_triangle")

# every field's value rule and the families that read it; a variance_profile
# also reads the fields of its base family.  A rule is what the value must be,
# in the words of its error, or None for a field that the family rules check;
# c_seq's rule holds for each entry, named c2, c4, ... as a config names them
_FIELDS = {
    "family": (None, FAMILIES), "p": ("an integer", FAMILIES), "n": ("an integer", FAMILIES),
    "lam": ("a number", ("sparse_bernoulli",)), "c_seq": ("a number", ("triangular_iid",)),
    "alpha": ("a number", ("heavy_tail_stable",)), "B": ("a number", ("heavy_tail_stable",)),
    "profile": (None, ("variance_profile",)), "base_family": (None, ("variance_profile",)),
    "t_n": ("a number or a string", FAMILIES), "seed": ("an integer", FAMILIES),
    "replicates": ("an integer", FAMILIES),
}


def _field_value(name: str, rule: str, value):
    """`value` as a field of `rule` stores it: an integer as operator.index
    gives it, a number as a float, and a string as given; a bool, which
    operator.index and numbers.Real both take, is neither.  A number field's
    None, its default, is kept, but not the None of an entry of c_seq."""
    if rule == "an integer":
        return _integer(value, f"config key {name!r}")
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an integer or fraction beyond the float range
            return float(value)
        rule = "a number within the float range"
    elif value is None and name in _FIELDS or isinstance(value, str) and rule == "a number or a string":
        return value
    raise InputError(f"config key {name!r} must be {rule}, got {_repr(value)}")


class ContractViolation(RuntimeError):
    """A numerical post-condition (eigenvalue identities, PSD floor) failed."""


@dataclass(frozen=True)
class EnsembleConfig:
    """An ensemble; `profile` is a name in NAMED_PROFILES or a p x n array.
    Every field is checked by its rule in `_FIELDS` before any family rule,
    with the error a config gets (config key 'lam' must be a number, got
    'x'); an integer is stored as operator.index gives it and a number as a
    float.  A family-specific field that the family does not read must keep
    its default.  The messages name the entries of c_seq c2, c4, ..., as a
    config does."""

    family: str
    p: int
    n: int
    lam: float | None = None
    c_seq: Mapping[int, float] | None = None
    alpha: float | None = None
    B: float | None = None
    profile: str | np.ndarray | None = None
    base_family: str = "sparse_bernoulli"
    t_n: float | str | None = None
    seed: int = DEFAULT_SEED
    replicates: int = 1

    def __post_init__(self) -> None:
        for name, (rule, _) in _FIELDS.items():
            value = getattr(self, name)
            if name == "c_seq" and value is not None:
                if not isinstance(value, Mapping):
                    raise InputError(
                        f"config key 'c_seq' must be a mapping of orders to numbers, got {_repr(value)}"
                    )
                value = {order: _field_value(f"c{order}", rule, v) for order, v in value.items()}
            elif rule:
                value = _field_value(name, rule, value)
            object.__setattr__(self, name, value)
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.p < 1 or self.n < 1 or self.replicates < 1:
            raise InputError("p, n and replicates must be >= 1")
        if self.p * self.n > sys.float_info.max:  # every law divides by n, and the center scales by p n
            raise InputError("p * n, the number of entries, must be within the float range")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {_repr(self.seed)}")
        prof, shape = self.profile, (self.p, self.n)
        if isinstance(prof, np.ndarray):
            if prof.shape != shape:
                raise InputError(f"profile array has shape {prof.shape}, expected {shape}")
            # a string or object array would fail in profile_matrix, and a
            # NaN or inf only once a replicate is sampled
            if prof.dtype.kind not in "biuf":
                raise InputError(f"profile array has dtype {prof.dtype}, expected bool, integer or float")
            bad = np.flatnonzero(~np.isfinite(prof))
            if bad.size:
                index = tuple(int(i) for i in np.unravel_index(bad[0], shape))
                raise InputError(f"profile array has the non-finite entry {prof[index]} at index {index}")
        named = isinstance(prof, str) and prof in NAMED_PROFILES
        if not (named or prof is None or isinstance(prof, np.ndarray)):
            # a JSON list may be long, so its repr is cut short
            raise InputError(
                f"profile {_repr(prof):.40} is neither one of {NAMED_PROFILES} nor an array of shape {shape}"
            )
        if self.family == "sparse_bernoulli":
            _check_lam(self.lam, self.n, "sparse_bernoulli")
        if self.family == "triangular_iid":
            if not (self.c_seq and self.c_seq.get(2)):
                raise InputError("triangular_iid requires a target sequence with order 2")
        if self.family == "heavy_tail_stable":
            if self.alpha is None or not 0 < self.alpha < 2:
                raise InputError("heavy_tail_stable requires alpha in (0, 2)")
            if self.B is None or not self.B > 0:
                raise InputError("heavy_tail_stable requires a truncation multiple B > 0")
        if self.family == "variance_profile":
            if self.profile is None:
                raise InputError("variance_profile requires a profile")
            if self.base_family not in ("sparse_bernoulli", "iid_standardized"):
                raise InputError("variance_profile base must be sparse_bernoulli or iid_standardized")
            if self.base_family == "sparse_bernoulli":
                _check_lam(self.lam, self.n, "sparse_bernoulli base")
        _law(self, with_mask=False)  # checks t_n and the two-point or stable fit
        reads = {self.family, self.base_family} if self.family == "variance_profile" else {self.family}
        defaults = {field.name: field.default for field in fields(self)}
        unread = []
        for name, (_, readers) in _FIELDS.items():
            value, default = getattr(self, name), defaults[name]
            # an array profile compares elementwise, so only a string is compared by value
            if reads.isdisjoint(readers) and not (value is default or isinstance(value, str) and value == default):
                unread += [f"c{order}" for order in value] if name == "c_seq" else [name]
        if unread:
            raise InputError(f"the {self.family} family does not read {', '.join(unread)}")


def _check_lam(lam: float | None, n: int, name: str) -> None:
    # `not lam > 0` also rejects NaN; lam / n is a Bernoulli probability
    if lam is None or not lam > 0:
        raise InputError(f"{name} requires lam > 0")
    if lam > n:
        raise InputError(f"{name} weight lam/n = {lam / n:.3g} exceeds 1; n too small")


def resolve_truncation(t_n: float | str | None, n: int) -> float:
    """Truncation level: a positive number, the rule "n^{-1/3}", or None or
    "inf" for none.  These two strings are the only spellings read; any
    other string, padded or respelled, raises InputError, and so does the
    rule for an n beyond the float range."""
    if t_n is None or t_n == "inf":
        return math.inf
    if t_n == "n^{-1/3}":
        if n > sys.float_info.max:  # float(n) would overflow
            raise InputError("the truncation rule n^{-1/3} needs n within the float range")
        return float(n) ** (-1.0 / 3.0)
    if isinstance(t_n, str):
        raise InputError(f'unknown truncation rule {t_n!r}; expected "n^{{-1/3}}" or "inf"')
    if not t_n > 0:
        raise InputError("truncation level must be positive")
    try:
        return float(t_n)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"truncation level {_repr(t_n)} is beyond the float range") from None


def _rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))
    )


def triangular_two_point(c_seq: Mapping[int, float], n: int) -> tuple[float, float]:
    """Fit x = +-a with probability lam_t/(2n) each (0 otherwise) so that
    n E[x^2] = C_2 and, when C_4 is supplied, n E[x^4] = C_4.  A fit whose
    a or lam_t is not finite and positive, as C_4 = inf gives, raises
    InputError naming c2 and c4."""
    c2 = float(c_seq[2])
    if not c2 > 0:
        raise InputError("C_2 must be positive")
    if 4 in c_seq:
        c4 = float(c_seq[4])
        if not c4 > 0:
            raise InputError("C_4 must be positive")
        a = math.sqrt(c4 / c2)
        lam_t = c2 * c2 / c4
    else:
        a, lam_t = 1.0, c2
    # compared, not divided: lam_t / n overflows for an integer n beyond the float range
    if lam_t > n:
        raise InputError(f"two-point weight lam_t/n = {lam_t / n:.3g} exceeds 1; n too small")
    if not (0 < a < math.inf and lam_t > 0):  # NaN fails too
        raise InputError(f"c2 = {c2!r} and c4 = {c4!r} give the two-point fit a = {a!r}, "
                         f"lam_t = {lam_t!r}; both must be finite and positive")
    return a, lam_t


def _stable_scale(p: int, alpha: float) -> float:
    """p^(1/alpha), the Pareto-tail surrogate for the stable quantile."""
    try:
        return float(p) ** (1.0 / alpha)
    except OverflowError:  # past the largest float the draws cannot be scaled
        raise InputError(
            f"heavy_tail_stable scale p^(1/alpha) overflows a float at p = {p}, alpha = {alpha}"
        ) from None


def _stable_symmetric(rng: np.random.Generator, alpha: float, shape: tuple[int, int]) -> np.ndarray:
    # Chambers-Mallows-Stuck transform, symmetric case
    U = rng.uniform(-math.pi / 2, math.pi / 2, shape)
    E = rng.exponential(1.0, shape)
    if alpha == 1.0:
        return np.tan(U)
    # a small alpha overflows to +-inf, or cos(U)^(1/alpha) underflows to 0
    # and the quotient is +-inf; truncation zeroes either and reports it
    with np.errstate(over="ignore", divide="ignore"):
        return (np.sin(alpha * U) / np.cos(U) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * U) / E
        ) ** ((1.0 - alpha) / alpha)


def profile_matrix(cfg: EnsembleConfig) -> np.ndarray:
    """The p x n entry-scaling matrix of a variance profile: the profile's
    array as floats, or its name evaluated at the entry indices, which is
    "upper_triangle" for dt_triangular.  A profile of i + j alone is
    evaluated once per value s = i + j, and the result is a read-only p x n
    view of that (p + n - 1)-vector."""
    p, n = cfg.p, cfg.n
    prof = "upper_triangle" if cfg.family == "dt_triangular" else cfg.profile
    if isinstance(prof, np.ndarray):
        return np.asarray(prof, dtype=float)
    s = np.arange(2, p + n + 1, dtype=float)  # every value of i + j
    # sliding_window_view(h, n)[i, j] is h[i + j], in a read-only view
    if prof == "fig1_quadratic":
        return sliding_window_view(s**2 / (2.0 * n * n), n)
    if prof == "fig2_sine":
        return sliding_window_view(np.sin(np.pi * s / (2.0 * n)), n)
    i = np.arange(1, p + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    return (i / p <= j / n).astype(float)  # "upper_triangle", checked by EnsembleConfig


def _law(cfg: EnsembleConfig, with_mask: bool = True) -> tuple:
    """An entry's law, resolved once per run: (family, mask, level, fit).
    `family` is the base law that `mask`, the p x n profile matrix or None
    for an unscaled family (or when `with_mask` is false), scales; `level`
    is the truncation level, B for a heavy tail with no t_n; `fit` is the
    two-point (a, lam_t), the stable scale p^(1/alpha), or None."""
    family = {"variance_profile": cfg.base_family, "dt_triangular": "iid_standardized"}.get(cfg.family, cfg.family)
    level = cfg.B if family == "heavy_tail_stable" and cfg.t_n is None else resolve_truncation(cfg.t_n, cfg.n)
    fit = triangular_two_point(cfg.c_seq, cfg.n) if family == "triangular_iid" else None
    if family == "heavy_tail_stable":
        fit = _stable_scale(cfg.p, cfg.alpha)
    # a profile family's mask scales the draws of its base family
    mask = profile_matrix(cfg) if with_mask and family != cfg.family else None
    return family, mask, level, fit


def _moment(cfg: EnsembleConfig, law: tuple, m: int) -> float | None:
    """n E[x^m] of the truncated base law of `law = _law(cfg)`: every order
    m >= 1 of a Bernoulli or two-point entry, m = 2 of a Gaussian one, and
    None for a heavy tail, a higher Gaussian order or a truncated profile,
    whose scaled entry has no simple closed form."""
    family, mask, level, fit = law
    if mask is not None and not math.isinf(level):
        return None
    if family == "sparse_bernoulli":
        return cfg.lam if level >= 1 else 0.0
    if family == "triangular_iid":
        a, lam_t = fit
        return lam_t * a**m if a <= level and m % 2 == 0 else 0.0
    if family != "iid_standardized" or m != 2:
        return None
    if math.isinf(level):
        return 1.0
    c = level * math.sqrt(cfg.n)
    phi = math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
    return 1.0 - 2 * c * phi - (1 - math.erf(c / math.sqrt(2)))  # the two tails outside +-c


def _draw(cfg: EnsembleConfig, replicate: int, law: tuple, out: np.ndarray, keep: np.ndarray) -> float:
    """Fill `out` (p x n float, with `keep` p x n bool scratch) with one
    replicate's entries, truncation applied, and return the truncation mass
    (1/n) sum y^2 over the entries it zeroed; `law` is `_law(cfg)`, resolved
    once per run by the caller."""
    n = cfg.n
    rng = _rng(cfg.seed, replicate)
    family, mask, level, fit = law
    if family == "sparse_bernoulli":
        rng.random(out=out)
        np.less(out, cfg.lam / n, out=keep)
        # the mask scales the Bernoulli draws in the same pass
        np.multiply(keep, 1.0 if mask is None else mask, out=out)
    else:
        if family == "iid_standardized":
            rng.standard_normal(out=out)
            out /= math.sqrt(n)
        elif family == "triangular_iid":
            a, lam_t = fit
            u = rng.random(out=out)
            prob = lam_t / n
            out[...] = a * (u < prob / 2) - a * ((u >= prob / 2) & (u < prob))
        else:  # heavy_tail_stable
            out[...] = _stable_symmetric(rng, cfg.alpha, out.shape) / fit
        if mask is not None:
            out *= mask
    if math.isinf(level):
        return 0.0
    np.less_equal(np.abs(out), level, out=keep)
    dropped = ~keep
    with np.errstate(over="ignore"):  # an overflowed entry's mass is inf
        mass = float((out[dropped] ** 2).sum()) / n
    # a dropped entry becomes a zero of its own sign, which is what x * 0
    # gives a finite x; an overflowed draw times 0 would be NaN
    np.copysign(0.0, out, out=out, where=dropped)
    return mass


def sample_matrix(cfg: EnsembleConfig, replicate: int) -> np.ndarray:
    """Draw the p x n entry matrix for one replicate, truncation applied."""
    X = np.empty((cfg.p, cfg.n))
    _draw(cfg, replicate, _law(cfg), X, np.empty(X.shape, dtype=bool))
    return X


def _second_moment_total(cfg: EnsembleConfig, law: tuple) -> np.float64 | None:
    """`entry_second_moment(cfg)` from the run's `law = _law(cfg)`."""
    moment = _moment(cfg, law, 2)
    if moment is None:
        return None  # the centered diagnostic falls back to the pooled mean
    value, mask = moment / cfg.n, law[1]
    if mask is None:
        return np.float64(cfg.p * cfg.n * value)
    return (mask**2 * value).sum()


def entry_second_moment(cfg: EnsembleConfig) -> np.float64 | None:
    """Total sum of E[y^2] over the p x n entries of the truncated law, or
    None without a closed form.  A scalar family gives p n E[y^2] and
    allocates no array; a profile family sums its squared mask times the
    base law's E[y^2]."""
    return _second_moment_total(cfg, _law(cfg))


def _order_count(K, name: str) -> int:
    # the number K >= 1 of moment orders, as an integer; InputError names it
    K = _integer(K, name)
    if K < 1:
        raise InputError(f"{name} must be an integer >= 1, got {_repr(K)}")
    return K


def _power_sums(w: np.ndarray, K: int) -> tuple[float, ...]:
    """(1/p) sum_i w_i^k for k = 1..K over the spectrum w of a p x p matrix."""
    p = w.shape[0]
    return tuple(float((w**k).sum()) / p for k in range(1, K + 1))


def empirical_moments(S: np.ndarray, K: int) -> tuple[float, ...]:
    """(1/p) Tr(S^k) for k = 1..K, taken as the eigenvalue power sums
    (1/p) sum_i w_i^k over `eigenvalues(S)`; K is an integer >= 1."""
    K = _order_count(K, "K")
    return _power_sums(eigenvalues(S), K)


def eigenvalues(S: np.ndarray) -> np.ndarray:
    """Nondecreasing eigenvalues of a symmetric matrix, checked against the
    exact identities sum(w) = Tr S and sum(w^2) = ||S||_F^2 within
    1e-10 p ||S||_F and 1e-10 p ||S||_F^2."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InputError("S must be square")
    # S - S.T is antisymmetric, so its max is its largest absolute entry;
    # a NaN (or an inf, through inf - inf) propagates and fails the test
    with np.errstate(invalid="ignore"):
        asymmetry = np.max(S - S.T)
    if not asymmetry <= 1e-10:
        raise InputError("S is not finite and symmetric within 1e-10")
    w = np.linalg.eigvalsh(S)
    p = S.shape[0]
    frobenius_sq = float(np.vdot(S, S))
    scale = math.sqrt(frobenius_sq)
    for name, got, want, tol in (
        ("sum(w) vs Tr S", float(w.sum()), float(np.trace(S)), 1e-10 * p * scale),
        ("sum(w^2) vs ||S||_F^2", float((w * w).sum()), frobenius_sq, 1e-10 * p * frobenius_sq),
    ):
        if not abs(got - want) <= tol:
            raise ContractViolation(f"eigenvalue identity {name}: {got!r} != {want!r} within {tol:.3e}")
    return w


@dataclass(frozen=True)
class SpectralSample:
    replicate_id: int
    eigenvalues: np.ndarray
    empirical_moments: tuple[float, ...]
    truncation_mass: float
    second_moment_gap: float


@dataclass(frozen=True)
class ExperimentReport:
    samples: tuple[SpectralSample, ...]
    moment_mean: np.ndarray
    moment_stderr: np.ndarray
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    achieved_sequence: dict[int, float] | None = None


def _check_bins(bins) -> None:
    """Raise InputError unless `bins` is a histogram's bins: a count, a numpy
    estimator's name, or at least two increasing finite edges, given as a
    list, a tuple or an array.  A bool is neither a count nor an edge,
    though numpy takes it as one."""
    given = bins.tolist() if isinstance(bins, np.ndarray) else list(bins) if isinstance(bins, tuple) else bins
    count_given = isinstance(bins, numbers.Integral) and not isinstance(bins, bool)
    edges_given = isinstance(given, list) and all(
        isinstance(edge, numbers.Real) and not isinstance(edge, bool) for edge in given
    )
    if not (count_given or edges_given or isinstance(bins, str)):
        raise InputError(
            f"config key 'bins' must be an integer, a string or a list of numbers, got {_repr(given)}"
        )
    try:  # numpy's own rules for `bins`, applied to a two-point sample
        edges = np.histogram_bin_edges([0.0, 1.0], bins=bins)
    except (TypeError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    if edges.size < 2:  # numpy takes a list of 0 or 1 edges and counts nothing
        raise InputError(
            f"bins {_repr(edges.tolist())} gives fewer than two edges, and a histogram needs at least two"
        )
    # numpy keeps a NaN or inf edge, and an integer edge beyond the float
    # range in an object array; any of them would reach hist.csv
    bad = next((edge for edge in edges.tolist() if not abs(edge) <= sys.float_info.max), None)
    if bad is not None:
        raise InputError(f"bins edge {_repr(bad)} is not a finite float")


def run_experiment(
    cfg: EnsembleConfig,
    K: int,
    bins: str | int | Sequence[float] = "fd",
) -> ExperimentReport:
    """Sample all replicates, aggregate spectral moments and the pooled
    eigenvalue histogram (Freedman-Diaconis bins unless overridden).  K, an
    integer >= 1, and `bins` (`_check_bins`) are checked before the first
    draw, with the errors a simulate config gets (config key 'K' must be an
    integer >= 1, got 0); Freedman-Diaconis bins on pooled eigenvalues
    whose interquartile range is at most 1e-9 times the largest raise
    InputError.  A run whose
    arrays numpy cannot allocate, for a shape beyond its largest array or
    beyond memory, raises SizeLimitError before the first draw.
    The entry law (base family, profile mask, truncation level and fitted
    parameters) is resolved once per run, and one loop draws each replicate
    from it into entry, draw-mask and Gram buffers allocated once per run;
    the eigenvalues each replicate reports are its own array.  A replicate's
    second-moment gap is (sum y^2 - center) / p, where the center is
    `entry_second_moment(cfg)`, or without a closed form the mean of the
    replicates' sums, each read as Tr S.  A triangular_iid report's
    `achieved_sequence` is n E[x^m], m = 2, 4, ..., 2K, of the truncated
    two-point law: zeros when the atoms +-a lie above the truncation level."""
    # K and bins are named as a simulate config names them
    K = _order_count(K, "config key 'K'")
    _check_bins(bins)
    if isinstance(bins, str) and bins == "fd" and cfg.p > 4 * cfg.n:
        # S has rank at most n, so over 3/4 of the pooled eigenvalues are
        # zero up to rounding, and the width 2 IQR / size^(1/3) is rounding
        # noise that asks for petabytes of bin edges
        raise InputError(
            f"bins='fd' needs the interquartile range of the eigenvalues, but S = X X^T is "
            f"rank deficient: rank <= n = {cfg.n} and p = {cfg.p} > 4n, so more than 3/4 of "
            f"its eigenvalues are zero; give bins as a count, edges or another numpy estimator"
        )
    p, n = cfg.p, cfg.n
    # the p x n entries and draw mask and the p x p matrix S; when these fit
    # in numpy's largest array, so does each array of the run
    nbytes = 9 * p * n + 8 * p * p
    try:
        if nbytes > np.iinfo(np.intp).max:
            raise MemoryError("beyond the largest numpy array")
        law = _law(cfg)
        center = _second_moment_total(cfg, law)
        X, keep = np.empty((p, n)), np.empty((p, n), dtype=bool)
        S = np.empty((p, p))
    except MemoryError as exc:
        raise SizeLimitError(
            f"p = {p}, n = {n}: the run's p x n entries and draw mask and its p x p matrix S take "
            f"{nbytes} bytes, and numpy could not allocate its arrays: {exc}"
        ) from None
    drawn = []
    for r in range(cfg.replicates):
        mass = _draw(cfg, r, law, X, keep)
        # both operands on one buffer, so numpy takes the symmetric rank-k path
        np.matmul(X, X.T, out=S)
        eigs = eigenvalues(S)
        scale = max(1.0, float(eigs[-1]))
        if eigs[0] < -1e-9 * scale:
            raise ContractViolation(f"eigenvalue {eigs[0]:.3e} below the PSD floor")
        # X is not read again this replicate, so it is squared in place
        total = eigs.sum() if center is None else np.square(X, out=X).sum()
        drawn.append((eigs, _power_sums(eigs, K), mass, total))
    if center is None:
        center = np.mean([total for *_, total in drawn])
    samples = tuple(
        SpectralSample(r, eigs, moments, mass, float((total - center) / cfg.p))
        for r, (eigs, moments, mass, total) in enumerate(drawn)
    )

    matrix = np.array([s.empirical_moments for s in samples])
    mean = matrix.mean(axis=0)
    if len(samples) > 1:
        stderr = matrix.std(axis=0, ddof=1) / math.sqrt(len(samples))
    else:
        stderr = np.zeros(K)
    pooled = np.concatenate([s.eigenvalues for s in samples])
    if isinstance(bins, str) and bins == "fd":
        # the FD width 2 IQR / size^(1/3) is 0 when the middle half of the
        # eigenvalues is one value, and rounding noise that asks for
        # petabytes of bin edges when that value is a rank deficiency's zero;
        # the tolerance is the PSD floor's
        q75, q25 = np.percentile(pooled, [75, 25])
        tol = 1e-9 * pooled.max()
        if q75 - q25 <= tol:
            raise InputError(
                f"bins='fd' found a zero interquartile range: "
                f"{np.count_nonzero(abs(pooled - q25) <= tol)} of the {pooled.size} pooled "
                f"eigenvalues lie within {tol:.1e} of {q25:.3g}, so the Freedman-Diaconis width is "
                f"0 or rounding noise; give bins as a count, edges or another numpy estimator"
            )
    counts, edges = np.histogram(pooled, bins=bins)

    triangular = cfg.family == "triangular_iid"  # zeros where truncation removes the atoms +-a
    achieved = {m: _moment(cfg, law, m) for m in range(2, 2 * K + 1, 2)} if triangular else None
    return ExperimentReport(samples, mean, stderr, edges, counts, achieved)
