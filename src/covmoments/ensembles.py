"""Matrix ensemble samplers, S = X X^T spectra, and experiment aggregation.

Sampling is reproducible: replicate r of a run draws from a Philox
counter-based generator keyed by SeedSequence(seed, spawn_key=(r,)), and
entries are filled row-major, so a replicate's draws depend only on (seed, r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

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


class ContractViolation(RuntimeError):
    """A numerical post-condition (eigenvalue identities, PSD floor) failed."""


@dataclass(frozen=True)
class EnsembleConfig:
    """An ensemble; `profile` is a name in NAMED_PROFILES or a p x n array."""

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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.p < 1 or self.n < 1 or self.replicates < 1:
            raise ValueError("p, n and replicates must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        resolve_truncation(self.t_n, self.n)
        prof, shape = self.profile, (self.p, self.n)
        if isinstance(prof, np.ndarray) and prof.shape != shape:
            raise ValueError(f"profile array has shape {prof.shape}, expected {shape}")
        named = isinstance(prof, str) and prof in NAMED_PROFILES
        if not (named or prof is None or isinstance(prof, np.ndarray)):
            # a JSON list may be long, so its repr is cut short
            raise ValueError(
                f"profile {prof!r:.40} is neither one of {NAMED_PROFILES} nor an array of shape {shape}"
            )
        if self.family == "sparse_bernoulli":
            _check_lam(self.lam, self.n, "sparse_bernoulli")
        if self.family == "triangular_iid":
            if not (self.c_seq and self.c_seq.get(2)):
                raise ValueError("triangular_iid requires a target sequence with order 2")
            triangular_two_point(self.c_seq, self.n)
        if self.family == "heavy_tail_stable":
            if self.alpha is None or not 0 < self.alpha < 2:
                raise ValueError("heavy_tail_stable requires alpha in (0, 2)")
            if self.B is None or not self.B > 0:
                raise ValueError("heavy_tail_stable requires a truncation multiple B > 0")
        if self.family == "variance_profile":
            if self.profile is None:
                raise ValueError("variance_profile requires a profile")
            if self.base_family not in ("sparse_bernoulli", "iid_standardized"):
                raise ValueError("variance_profile base must be sparse_bernoulli or iid_standardized")
            if self.base_family == "sparse_bernoulli":
                _check_lam(self.lam, self.n, "sparse_bernoulli base")


def _check_lam(lam: float | None, n: int, name: str) -> None:
    # `not lam > 0` also rejects NaN; lam / n is a Bernoulli probability
    if lam is None or not lam > 0:
        raise ValueError(f"{name} requires lam > 0")
    if lam > n:
        raise ValueError(f"{name} weight lam/n = {lam / n:.3g} exceeds 1; n too small")


def resolve_truncation(t_n: float | str | None, n: int) -> float:
    """Truncation level: a number, the rule "n^{-1/3}", or None/"inf" for none."""
    if t_n is None:
        return math.inf
    if isinstance(t_n, str):
        text = t_n.strip()
        if text in ("inf", "infinity"):
            return math.inf
        if text.replace(" ", "") in ("n^{-1/3}", "n^-1/3", "n**(-1/3)"):
            return float(n) ** (-1.0 / 3.0)
        raise ValueError(f"unknown truncation rule {t_n!r}")
    value = float(t_n)
    if not value > 0:
        raise ValueError("truncation level must be positive")
    return value


def _rng(seed: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))
    )


def triangular_two_point(c_seq: Mapping[int, float], n: int) -> tuple[float, float]:
    """Fit x = +-a with probability lam_t/(2n) each (0 otherwise) so that
    n E[x^2] = C_2 and, when C_4 is supplied, n E[x^4] = C_4."""
    c2 = float(c_seq[2])
    if not c2 > 0:
        raise ValueError("C_2 must be positive")
    if 4 in c_seq:
        c4 = float(c_seq[4])
        if not c4 > 0:
            raise ValueError("C_4 must be positive")
        a = math.sqrt(c4 / c2)
        lam_t = c2 * c2 / c4
    else:
        a, lam_t = 1.0, c2
    if lam_t / n > 1:
        raise ValueError(f"two-point weight lam_t/n = {lam_t / n:.3g} exceeds 1; n too small")
    return a, lam_t


def achieved_triangular_sequence(c_seq: Mapping[int, float], n: int, orders: Sequence[int]) -> dict[int, float]:
    """n E[x^{2k}] actually realized by the fitted two-point law."""
    a, lam_t = triangular_two_point(c_seq, n)
    return {order: lam_t * a**order for order in orders}


def _stable_symmetric(rng: np.random.Generator, alpha: float, shape: tuple[int, int]) -> np.ndarray:
    # Chambers-Mallows-Stuck transform, symmetric case
    U = rng.uniform(-math.pi / 2, math.pi / 2, shape)
    E = rng.exponential(1.0, shape)
    if alpha == 1.0:
        return np.tan(U)
    return (np.sin(alpha * U) / np.cos(U) ** (1.0 / alpha)) * (
        np.cos((1.0 - alpha) * U) / E
    ) ** ((1.0 - alpha) / alpha)


def profile_matrix(cfg: EnsembleConfig) -> np.ndarray:
    """The p x n entry-scaling matrix of a variance profile: the profile's
    array as floats, or its name evaluated at the entry indices."""
    p, n = cfg.p, cfg.n
    prof = cfg.profile
    if isinstance(prof, np.ndarray):
        return np.asarray(prof, dtype=float)
    i = np.arange(1, p + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    if prof == "fig1_quadratic":
        return (i + j) ** 2 / (2.0 * n * n)
    if prof == "fig2_sine":
        return np.sin(np.pi * (i + j) / (2.0 * n))
    return (i / p <= j / n).astype(float)  # "upper_triangle", checked by EnsembleConfig


def _entry_mask(cfg: EnsembleConfig) -> np.ndarray | None:
    """The p x n matrix that scales every raw entry, or None for unscaled families."""
    if cfg.family == "variance_profile":
        return profile_matrix(cfg)
    if cfg.family == "dt_triangular":
        return profile_matrix(replace(cfg, profile="upper_triangle"))
    return None


def _base_family(cfg: EnsembleConfig) -> str:
    """The law of an entry before `_entry_mask` scales it."""
    if cfg.family == "variance_profile":
        return cfg.base_family
    return "iid_standardized" if cfg.family == "dt_triangular" else cfg.family


def _effective_truncation(cfg: EnsembleConfig) -> float:
    if cfg.family == "heavy_tail_stable" and cfg.t_n is None:
        return float(cfg.B)
    return resolve_truncation(cfg.t_n, cfg.n)


def _draw(
    cfg: EnsembleConfig, replicate: int, mask: np.ndarray | None, out: np.ndarray, keep: np.ndarray
) -> float:
    """Fill `out` (p x n float, with `keep` p x n bool scratch) with one
    replicate's entries, truncation applied, and return the truncation mass
    (1/n) sum y^2 over the entries it zeroed; `mask` is `_entry_mask(cfg)`,
    built once per run by the caller."""
    n = cfg.n
    rng = _rng(cfg.seed, replicate)
    family = _base_family(cfg)
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
            a, lam_t = triangular_two_point(cfg.c_seq, n)
            u = rng.random(out=out)
            prob = lam_t / n
            out[...] = a * (u < prob / 2) - a * ((u >= prob / 2) & (u < prob))
        else:  # heavy_tail_stable
            a_p = float(cfg.p) ** (1.0 / cfg.alpha)  # Pareto-tail surrogate for the stable quantile
            out[...] = _stable_symmetric(rng, cfg.alpha, out.shape) / a_p
        if mask is not None:
            out *= mask
    level = _effective_truncation(cfg)
    if math.isinf(level):
        return 0.0
    np.less_equal(np.abs(out), level, out=keep)
    dropped = ~keep
    mass = float((out[dropped] ** 2).sum()) / n
    # a dropped entry becomes a zero of its own sign, which is what x * 0
    # gives a finite x; an overflowed draw times 0 would be NaN
    np.copysign(0.0, out, out=out, where=dropped)
    return mass


def sample_matrix(cfg: EnsembleConfig, replicate: int) -> np.ndarray:
    """Draw the p x n entry matrix for one replicate, truncation applied."""
    X = np.empty((cfg.p, cfg.n))
    _draw(cfg, replicate, _entry_mask(cfg), X, np.empty(X.shape, dtype=bool))
    return X


def _second_moment_total(cfg: EnsembleConfig, mask: np.ndarray | None) -> np.float64 | None:
    """`entry_second_moment(cfg)` from the run's `mask = _entry_mask(cfg)`."""
    n, level, family = cfg.n, _effective_truncation(cfg), _base_family(cfg)
    if mask is not None and not math.isinf(level):
        return None  # truncating the profile-scaled entry has no simple closed form
    if family == "sparse_bernoulli":
        value = cfg.lam / n if level >= 1 else 0.0
    elif family == "triangular_iid":
        a, lam_t = triangular_two_point(cfg.c_seq, n)
        value = lam_t / n * a * a if a <= level else 0.0
    elif family == "iid_standardized" and math.isinf(level):
        value = 1.0 / n
    elif family == "iid_standardized":
        c = level * math.sqrt(n)
        phi = math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
        tail = (1 - math.erf(c / math.sqrt(2))) / 2
        value = (1.0 - 2 * c * phi - 2 * tail) / n
    else:
        return None  # heavy tails: centered diagnostic falls back to pooled mean
    if mask is None:
        return np.float64(cfg.p * n * value)
    return (mask**2 * value).sum()


def entry_second_moment(cfg: EnsembleConfig) -> np.float64 | None:
    """Total sum of E[y^2] over the p x n entries of the truncated law, or
    None without a closed form.  A scalar family gives p n E[y^2] and
    allocates no array; a profile family sums its squared mask times the
    base law's E[y^2]."""
    return _second_moment_total(cfg, _entry_mask(cfg))


def _power_sums(w: np.ndarray, K: int) -> tuple[float, ...]:
    """(1/p) sum_i w_i^k for k = 1..K over the spectrum w of a p x p matrix."""
    if K < 1:
        raise ValueError("K must be >= 1")
    p = w.shape[0]
    return tuple(float((w**k).sum()) / p for k in range(1, K + 1))


def empirical_moments(S: np.ndarray, K: int) -> tuple[float, ...]:
    """(1/p) Tr(S^k) for k = 1..K, taken as the eigenvalue power sums
    (1/p) sum_i w_i^k over `eigenvalues(S)`."""
    return _power_sums(eigenvalues(S), K)


def eigenvalues(S: np.ndarray) -> np.ndarray:
    """Nondecreasing eigenvalues of a symmetric matrix, checked against the
    exact identities sum(w) = Tr S and sum(w^2) = ||S||_F^2 within
    1e-10 p ||S||_F and 1e-10 p ||S||_F^2."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be square")
    # S - S.T is antisymmetric, so its max is its largest absolute entry;
    # a NaN (or an inf, through inf - inf) propagates and fails the test
    with np.errstate(invalid="ignore"):
        asymmetry = np.max(S - S.T)
    if not asymmetry <= 1e-10:
        raise ValueError("S is not finite and symmetric within 1e-10")
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


def run_experiment(
    cfg: EnsembleConfig,
    K: int,
    bins: str | int | Sequence[float] = "fd",
) -> ExperimentReport:
    """Sample all replicates, aggregate spectral moments and the pooled
    eigenvalue histogram (Freedman-Diaconis bins unless overridden).  K and
    `bins` are checked before the first draw; Freedman-Diaconis bins on
    pooled eigenvalues whose interquartile range is at most 1e-9 times the
    largest raise ValueError.
    One loop draws each replicate into entry, draw-mask and Gram buffers
    allocated once per run; the eigenvalues each replicate reports are its
    own array.  A replicate's second-moment gap is (sum y^2 - center) / p,
    where the center is `entry_second_moment(cfg)`, or without a closed form
    the mean of the replicates' sums, each read as Tr S."""
    if K < 1:
        raise ValueError("K must be >= 1")
    try:  # numpy's own rules for `bins`, applied to a two-point sample
        np.histogram_bin_edges([0.0, 1.0], bins=bins)
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    if isinstance(bins, str) and bins == "fd" and cfg.p > 4 * cfg.n:
        # S has rank at most n, so over 3/4 of the pooled eigenvalues are
        # zero up to rounding, and the width 2 IQR / size^(1/3) is rounding
        # noise that asks for petabytes of bin edges
        raise ValueError(
            f"bins='fd' needs the interquartile range of the eigenvalues, but S = X X^T is "
            f"rank deficient: rank <= n = {cfg.n} and p = {cfg.p} > 4n, so more than 3/4 of "
            f"its eigenvalues are zero; give bins as a count, edges or another numpy estimator"
        )
    mask = _entry_mask(cfg)
    center = _second_moment_total(cfg, mask)
    X, keep = np.empty((cfg.p, cfg.n)), np.empty((cfg.p, cfg.n), dtype=bool)
    S = np.empty((cfg.p, cfg.p))
    drawn = []
    for r in range(cfg.replicates):
        mass = _draw(cfg, r, mask, X, keep)
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
            raise ValueError(
                f"bins='fd' found a zero interquartile range: "
                f"{np.count_nonzero(abs(pooled - q25) <= tol)} of the {pooled.size} pooled "
                f"eigenvalues lie within {tol:.1e} of {q25:.3g}, so the Freedman-Diaconis width is "
                f"0 or rounding noise; give bins as a count, edges or another numpy estimator"
            )
    counts, edges = np.histogram(pooled, bins=bins)

    achieved = None
    if cfg.family == "triangular_iid":
        achieved = achieved_triangular_sequence(cfg.c_seq, cfg.n, [2 * j for j in range(1, K + 1)])

    return ExperimentReport(samples, mean, stderr, edges, counts, achieved)
