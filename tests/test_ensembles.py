import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmoments import cli, ensembles
from covmoments.ensembles import (
    DEFAULT_SEED,
    ContractViolation,
    EnsembleConfig,
    eigenvalues,
    empirical_moments,
    entry_second_moment,
    profile_matrix,
    resolve_truncation,
    run_experiment,
    sample_matrix,
)
from covmoments.moments import moment_profile, moment_sparse, mp_moment, poisson_sandwich
from covmoments.partitions import InputError

def profile_samples(f, p, n):
    """f at the entry indices (i/p, j/n), i = 1..p and j = 1..n: the p x n
    array form of a profile formula."""
    i = np.arange(1, p + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    return np.asarray(f(i / p, j / n), dtype=float)


# one small configuration per sampling path, as keyword arguments of
# EnsembleConfig; the profiles of "profile_callable" and "profile_signed" are
# formulas, which `case_config` samples into the p x n array that
# EnsembleConfig takes.  "profile_signed" has negative entries, where a
# Bernoulli zero times the profile is -0.0; "profile_truncated" zeroes the
# profile-scaled entries above t_n
FAMILY_CASES = {
    "iid_standardized": dict(family="iid_standardized"),
    "iid_truncated": dict(family="iid_standardized", t_n="n^{-1/3}"),
    "sparse_bernoulli": dict(family="sparse_bernoulli", lam=2.0),
    "triangular_iid": dict(family="triangular_iid", c_seq={2: 2.0}),
    "heavy_tail_stable": dict(family="heavy_tail_stable", alpha=1.5, B=2.0),
    "profile_named": dict(family="variance_profile", lam=2.0, profile="fig2_sine"),
    "profile_callable": dict(
        family="variance_profile", base_family="iid_standardized", profile=lambda x, u: 0.5 + x * u
    ),
    "profile_signed": dict(family="variance_profile", lam=2.0, profile=lambda x, u: x - u),
    "profile_truncated": dict(family="variance_profile", lam=2.0, profile="fig1_quadratic", t_n=0.3),
    "dt_triangular": dict(family="dt_triangular"),
}


def case_config(case, p, n, **defaults):
    """The EnsembleConfig of a FAMILY_CASES case at size p x n, with defaults
    for the fields the case leaves unset."""
    fields = {**defaults, **FAMILY_CASES[case]}
    if callable(fields.get("profile")):
        fields["profile"] = profile_samples(fields["profile"], p, n)
    return EnsembleConfig(p=p, n=n, **fields)


def entry_second_moment_array(cfg):
    """Oracle for entry_second_moment: the per-entry p x n array of E[y^2]
    of the truncated law, built as the total was before it became a sum.
    It reads no law code of `ensembles`: it fits the two-point law itself and
    takes the level from the public truncation rule (a heavy tail's B is not
    needed, since it has no closed form)."""
    p, n = cfg.p, cfg.n
    level = resolve_truncation(cfg.t_n, n)
    if cfg.family == "sparse_bernoulli":
        value = cfg.lam / n if level >= 1 else 0.0
        return np.full((p, n), value)
    if cfg.family == "triangular_iid":
        c2, c4 = cfg.c_seq[2], cfg.c_seq.get(4)
        a, lam_t = (1.0, c2) if c4 is None else (math.sqrt(c4 / c2), c2 * c2 / c4)
        value = lam_t / n * a * a if a <= level else 0.0
        return np.full((p, n), value)
    if cfg.family == "iid_standardized":
        if math.isinf(level):
            return np.full((p, n), 1.0 / n)
        c = level * math.sqrt(n)
        phi = math.exp(-c * c / 2) / math.sqrt(2 * math.pi)
        tail = (1 - math.erf(c / math.sqrt(2))) / 2
        return np.full((p, n), (1.0 - 2 * c * phi - 2 * tail) / n)
    if cfg.family in ("dt_triangular", "variance_profile"):
        if cfg.family == "dt_triangular":
            base = EnsembleConfig("iid_standardized", p, n, t_n=cfg.t_n, seed=cfg.seed)
            mask = profile_matrix(EnsembleConfig("variance_profile", p, n, lam=1.0, profile="upper_triangle"))
        else:
            base = EnsembleConfig(cfg.base_family, p, n, lam=cfg.lam, t_n=cfg.t_n, seed=cfg.seed)
            mask = profile_matrix(cfg)
        inner = entry_second_moment_array(base)
        if inner is None or not math.isinf(level):
            return None
        return mask**2 * inner
    return None


def dense_power_traces(S, K):
    """Oracle for empirical_moments: (1/p) Tr S^k for k = 1..K by repeated
    dense multiplication."""
    p = S.shape[0]
    moments = []
    power = S.copy()
    for _ in range(K):
        moments.append(float(np.trace(power)) / p)
        power = power @ S
    return tuple(moments)


class TestTruncationRule:
    def test_cube_root_rule(self):
        assert resolve_truncation("n^{-1/3}", 1000) == pytest.approx(0.1, abs=1e-12)

    def test_none_and_inf(self):
        assert resolve_truncation(None, 10) == math.inf
        assert resolve_truncation("inf", 10) == math.inf

    def test_value(self):
        assert resolve_truncation(0.25, 10) == 0.25

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            resolve_truncation("n^{-1/2}", 10)
        with pytest.raises(ValueError):
            resolve_truncation(-1.0, 10)
        with pytest.raises(ValueError):
            resolve_truncation(math.nan, 10)
        with pytest.raises(InputError, match="beyond the float range"):
            resolve_truncation(10**400, 10)
        with pytest.raises(InputError, match=r"^the truncation rule n\^\{-1/3\} needs n within the float range$"):
            resolve_truncation("n^{-1/3}", 10**400)

    @pytest.mark.parametrize("rule", ["infinity", "n^-1/3", "n**(-1/3)", " inf", "n^{-1/3} ", "n^{ -1/3}"])
    def test_only_the_documented_spellings(self, rule):
        with pytest.raises(ValueError, match=r'expected "n\^\{-1/3\}" or "inf"'):
            resolve_truncation(rule, 10)


class TestSampling:
    def test_deterministic_given_seed_and_replicate(self):
        cfg = EnsembleConfig("sparse_bernoulli", 40, 80, lam=3.0, seed=7, replicates=2)
        assert np.array_equal(sample_matrix(cfg, 0), sample_matrix(cfg, 0))
        assert not np.array_equal(sample_matrix(cfg, 0), sample_matrix(cfg, 1))

    def test_sparse_bernoulli_entries(self):
        cfg = EnsembleConfig("sparse_bernoulli", 50, 100, lam=3.0, seed=1)
        X = sample_matrix(cfg, 0)
        assert set(np.unique(X)) <= {0.0, 1.0}
        ones = X.sum()
        assert 100 <= ones <= 200  # mean 150, generous band

    def test_iid_scaling(self):
        cfg = EnsembleConfig("iid_standardized", 100, 400, seed=2)
        X = sample_matrix(cfg, 0)
        assert X.std() == pytest.approx(1 / 20, rel=0.1)

    def test_truncation_bounds_entries(self):
        cfg = EnsembleConfig("iid_standardized", 50, 100, t_n=0.05, seed=3)
        X = sample_matrix(cfg, 0)
        assert np.abs(X).max() <= 0.05

    def test_triangular_two_point_support(self):
        cfg = EnsembleConfig("triangular_iid", 50, 100, c_seq={2: 2.0, 4: 8.0}, seed=4)
        X = sample_matrix(cfg, 0)
        a = math.sqrt(8.0 / 2.0)
        assert set(np.round(np.unique(X), 12)) <= {-a, 0.0, a}

    def test_achieved_sequence(self):
        cfg = EnsembleConfig("triangular_iid", 10, 100, c_seq={2: 2.0, 4: 8.0})
        achieved = run_experiment(cfg, 3).achieved_sequence
        # lam_t a^m at a = 2, lam_t = 0.5, all exact in floats
        assert achieved == {2: 2.0, 4: 8.0, 6: 32.0}

    @pytest.mark.parametrize("t_n, expected", [
        (1.0, {2: 0.0, 4: 0.0, 6: 0.0}),  # a = 2 > 1: truncation zeroes every entry
        (2.0, {2: 2.0, 4: 8.0, 6: 32.0}),  # |x| <= t_n keeps the atoms at +-2
    ])
    def test_achieved_sequence_is_the_truncated_law(self, t_n, expected):
        cfg = EnsembleConfig("triangular_iid", 60, 90, c_seq={2: 2.0, 4: 8.0}, t_n=t_n)
        report = run_experiment(cfg, 3, bins=10)
        assert report.achieved_sequence == expected
        if not expected[2]:
            assert all(s.second_moment_gap == 0 for s in report.samples)
            assert not sample_matrix(cfg, 0).any()

    def test_dt_triangular_support(self):
        cfg = EnsembleConfig("dt_triangular", 30, 30, seed=5)
        X = sample_matrix(cfg, 0)
        i = np.arange(1, 31)[:, None]
        j = np.arange(1, 31)[None, :]
        assert np.all(X[(i / 30 > j / 30)] == 0)
        assert np.any(X[(i / 30 <= j / 30)] != 0)

    def test_stable_cauchy_shape(self):
        # alpha = 1 reduces to Cauchy; |x| has median 1 before the p^(1/alpha)
        # rescaling, which is p here
        cfg = EnsembleConfig("heavy_tail_stable", 100, 250, alpha=1.0, B=1e12, seed=6)
        X = sample_matrix(cfg, 0)
        assert np.median(np.abs(X)) * 100 == pytest.approx(1.0, rel=0.15)

    @settings(max_examples=100)
    @given(
        case=st.sampled_from(sorted(FAMILY_CASES)),
        p=st.integers(4, 10),
        n=st.integers(4, 10),
        seed=st.integers(0, 2**32 - 1),
        replicate=st.integers(0, 1000),
    )
    def test_seed_determinism_property(self, case, p, n, seed, replicate):
        cfg = case_config(case, p, n, seed=seed)
        first = sample_matrix(cfg, replicate)
        assert np.array_equal(first, sample_matrix(cfg, replicate))
        # the next replicate may draw the same matrix: truncated to 0.3, the
        # 4 x 4 fig1 profile keeps three Bernoulli(1/2) entries, so one in
        # eight pairs coincide (seed 153, replicates 623 and 624 do); a
        # sampler that ignored the replicate would repeat it every time
        assert any(not np.array_equal(first, sample_matrix(cfg, replicate + j)) for j in range(1, 33))

    def test_stable_truncation(self):
        cfg = EnsembleConfig("heavy_tail_stable", 50, 100, alpha=1.5, B=2.0, seed=6)
        X = sample_matrix(cfg, 0)
        assert np.abs(X).max() <= 2.0


class TestProfiles:
    def test_fig1_quadratic_formula(self):
        cfg = EnsembleConfig("variance_profile", 4, 6, lam=3.0, profile="fig1_quadratic")
        M = profile_matrix(cfg)
        assert M[0, 0] == pytest.approx((1 + 1) ** 2 / (2 * 36))
        assert M[3, 5] == pytest.approx((4 + 6) ** 2 / (2 * 36))

    def test_fig2_sine_formula(self):
        cfg = EnsembleConfig("variance_profile", 4, 6, lam=3.0, profile="fig2_sine")
        M = profile_matrix(cfg)
        assert M[2, 3] == pytest.approx(math.sin(math.pi * 7 / 12))

    def test_profile_applied_multiplicatively(self):
        # Bernoulli with lam = n fires every entry, exposing the bare profile
        cfg = EnsembleConfig(
            "variance_profile", 8, 10, lam=10.0, profile="fig1_quadratic", seed=8
        )
        X = sample_matrix(cfg, 0)
        assert np.allclose(X, profile_matrix(cfg))

    @pytest.mark.parametrize("p, n", [(1, 7), (7, 1), (6, 10), (10, 6)])
    @pytest.mark.parametrize("profile", ["fig1_quadratic", "fig2_sine"])
    def test_named_profile_equals_dense_formula(self, profile, p, n):
        # the profile's formula broadcast over the p x n entry indices
        i = np.arange(1, p + 1, dtype=float)[:, None]
        j = np.arange(1, n + 1, dtype=float)[None, :]
        if profile == "fig1_quadratic":
            dense = (i + j) ** 2 / (2.0 * n * n)
        else:
            dense = np.sin(np.pi * (i + j) / (2.0 * n))
        M = profile_matrix(EnsembleConfig("variance_profile", p, n, lam=0.5, profile=profile))
        assert M.shape == (p, n)
        assert np.array_equal(M, dense)

    @pytest.mark.parametrize("profile", ["fig1_quadratic", "fig2_sine"])
    def test_named_profile_is_read_only(self, profile):
        M = profile_matrix(EnsembleConfig("variance_profile", 4, 6, lam=1.0, profile=profile))
        with pytest.raises(ValueError, match="read-only"):
            M[0, 0] = 1.0

    # a profile is checked when the config is built, before any sampling
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="nope"):
            EnsembleConfig("variance_profile", 4, 6, lam=1.0, profile="nope")

    def test_array_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            EnsembleConfig("variance_profile", 4, 6, lam=1.0, profile=np.ones((3, 3)))

    @pytest.mark.parametrize("profile,message", [
        (np.full((3, 4), "1"), r"dtype <U1, expected bool, integer or float"),
        (np.ones((3, 4), dtype=object), r"dtype object, expected bool, integer or float"),
        (np.full((3, 4), np.nan), r"non-finite entry nan at index \(0, 0\)"),
        (np.where(np.arange(12).reshape(3, 4) == 6, np.inf, 1.0), r"non-finite entry inf at index \(1, 2\)"),
    ], ids=["string", "object", "nan", "inf"])
    def test_array_that_is_not_finite_numbers_is_rejected(self, profile, message):
        # rejected when the config is built, before profile_matrix or a draw
        with pytest.raises(InputError, match=message):
            EnsembleConfig("variance_profile", 3, 4, lam=1.0, profile=profile)

    @pytest.mark.parametrize("profile", [np.ones((3, 4), dtype=bool), np.ones((3, 4), dtype=np.int8)],
                             ids=["bool", "int8"])
    def test_bool_and_integer_arrays_are_accepted(self, profile):
        cfg = EnsembleConfig("variance_profile", 3, 4, lam=1.0, profile=profile)
        assert np.array_equal(profile_matrix(cfg), np.ones((3, 4)))

    @pytest.mark.parametrize("profile", [
        [[1, 2, 3, 4]] * 3,  # a nested list, as a JSON config gives it
        2.5,
        lambda x, u: x * u,
    ], ids=["list", "number", "callable"])
    def test_profile_that_is_no_name_or_array_is_rejected(self, profile):
        with pytest.raises(ValueError, match=r"array of shape \(3, 4\)"):
            EnsembleConfig("variance_profile", 3, 4, lam=1.0, profile=profile)


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            EnsembleConfig("wishart", 4, 6)

    def test_missing_lam(self):
        with pytest.raises(ValueError):
            EnsembleConfig("sparse_bernoulli", 4, 6)

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            EnsembleConfig("heavy_tail_stable", 4, 6, alpha=2.5, B=1.0)

    def test_overflowing_stable_scale(self):
        # p^(1/alpha) scales every stable draw; past the largest float the
        # config cannot be sampled, so it is refused when it is built
        with pytest.raises(ValueError, match=r"p = 2000, alpha = 0\.01$"):
            EnsembleConfig("heavy_tail_stable", 2000, 4, alpha=0.01, B=10.0)
        EnsembleConfig("heavy_tail_stable", 1000, 4, alpha=0.01, B=10.0)  # 1e300

    def test_missing_profile(self):
        with pytest.raises(ValueError):
            EnsembleConfig("variance_profile", 4, 6, lam=1.0)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            EnsembleConfig("iid_standardized", 0, 6)

    # NaN compares false, so every rate check reads `not x > 0`; lam / n is a
    # Bernoulli probability, so lam may not exceed n
    @pytest.mark.parametrize("fields", [
        dict(family="sparse_bernoulli", lam=-1.0),
        dict(family="sparse_bernoulli", lam=math.nan),
        dict(family="sparse_bernoulli", lam=7.0),
        dict(family="variance_profile", lam=-1.0, profile="fig1_quadratic"),
        dict(family="variance_profile", lam=math.nan, profile="fig1_quadratic"),
        dict(family="variance_profile", lam=7.0, profile="fig1_quadratic"),
        dict(family="iid_standardized", t_n=math.nan),
        dict(family="triangular_iid", c_seq={2: math.nan}),
        dict(family="heavy_tail_stable", alpha=1.5, B=math.nan),
        dict(family="triangular_iid", c_seq={2: 2.0, 4: math.nan}),
        dict(family="triangular_iid", c_seq={2: 2.0, 4: -1.0}),
        dict(family="triangular_iid", c_seq={2: 2.0, 4: 0.0}),
        dict(family="iid_standardized", seed=-3),
        dict(family="iid_standardized", p=4.0),
        dict(family="iid_standardized", n=True),
        dict(family="iid_standardized", replicates=2.5),
        dict(family="iid_standardized", seed=1.5),
        dict(family="iid_standardized", seed=True),
    ], ids=["lam-negative", "lam-nan", "lam-above-n", "profile-lam-negative", "profile-lam-nan",
            "profile-lam-above-n", "t_n-nan", "c2-nan", "B-nan", "c4-nan", "c4-negative", "c4-zero",
            "seed-negative", "p-float", "n-bool", "replicates-float", "seed-float", "seed-bool"])
    def test_bad_rate_fails_before_sampling(self, monkeypatch, fields):
        def no_draw(*args):
            raise AssertionError("sampled before the config was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        with pytest.raises(ValueError):
            run_experiment(EnsembleConfig(**{"p": 4, "n": 6, **fields}), 2)

    @pytest.mark.parametrize("fields, message", [
        (dict(family="iid_standardized", seed=-3), "seed must be >= 0"),
        (dict(family="iid_standardized", t_n="bogus"), "unknown truncation rule"),
        (dict(family="iid_standardized", t_n=0.0), "truncation level must be positive"),
        (dict(family="triangular_iid", c_seq={2: -1.0}), "C_2 must be positive"),
        (dict(family="triangular_iid", c_seq={2: 2.0, 4: 0.0}), "C_4 must be positive"),
        (dict(family="triangular_iid", c_seq={2: 9.0}), "exceeds 1; n too small"),
        (dict(family="iid_standardized", p=4.0), "config key 'p' must be an integer, got 4.0"),
        (dict(family="iid_standardized", n=True), "config key 'n' must be an integer, got True"),
        (dict(family="iid_standardized", replicates=2.5), "config key 'replicates' must be an integer, got 2.5"),
        (dict(family="iid_standardized", seed=1.5), "config key 'seed' must be an integer, got 1.5"),
        # a family-specific field the family does not read is named, not ignored
        (dict(family="iid_standardized", lam=3.0, alpha=1.5, profile="fig2_sine"),
         "the iid_standardized family does not read lam, alpha, profile$"),
        (dict(family="sparse_bernoulli", lam=2.0, c_seq={2: 2.0, 4: 8.0}),
         "the sparse_bernoulli family does not read c2, c4$"),
        (dict(family="variance_profile", base_family="iid_standardized", lam=2.0, profile="fig1_quadratic"),
         "the variance_profile family does not read lam$"),
        (dict(family="dt_triangular", profile="upper_triangle"), "the dt_triangular family does not read profile$"),
        (dict(family="heavy_tail_stable", alpha=1.5, B=2.0, base_family="iid_standardized"),
         "the heavy_tail_stable family does not read base_family$"),
        (dict(family="triangular_iid", c_seq={2: 2.0}, profile=np.ones((4, 6))),
         "the triangular_iid family does not read profile$"),
        # each field's rule runs before any family rule, in the words of a
        # config's error; the entries of c_seq are named as a config names them
        (dict(family="sparse_bernoulli", lam="x"), "config key 'lam' must be a number, got 'x'"),
        (dict(family="heavy_tail_stable", alpha="1", B=2.0), "config key 'alpha' must be a number, got '1'"),
        (dict(family="iid_standardized", t_n=[1]),
         r"config key 't_n' must be a number or a string, got \[1\]"),
        (dict(family="sparse_bernoulli", lam=10**400),
         "config key 'lam' must be a number within the float range"),
        (dict(family="triangular_iid", c_seq={2: "a"}), "config key 'c2' must be a number, got 'a'"),
        (dict(family="sparse_bernoulli", lam=True), "config key 'lam' must be a number, got True"),
        (dict(family="triangular_iid", c_seq={2: True}), "config key 'c2' must be a number, got True"),
        (dict(family="heavy_tail_stable", alpha=1.5, B=10**400),
         "config key 'B' must be a number within the float range"),
        (dict(family="triangular_iid", c_seq=[2.0]), "config key 'c_seq' must be a mapping of orders to numbers"),
    ], ids=["seed-negative", "t_n-unknown", "t_n-zero", "c2-negative", "c4-zero", "lam_t-above-n",
            "p-float", "n-bool", "replicates-float", "seed-float", "unread-iid", "unread-sparse",
            "unread-profile-base", "unread-dt", "unread-base_family", "unread-array-profile",
            "lam-str", "alpha-str", "t_n-list", "lam-beyond-float", "c2-str", "lam-bool", "c2-bool",
            "B-beyond-float", "c_seq-list"])
    def test_bad_config_rejected_when_built(self, fields, message):
        # the config is whole once built: no later call is needed to reject it
        with pytest.raises(ValueError, match=message):
            EnsembleConfig(**{"p": 4, "n": 6, **fields})

    def test_read_fields_and_defaults_accepted(self):
        # the default base_family spelled out, in a string that is not the
        # default's object, is not a field given
        EnsembleConfig("sparse_bernoulli", 4, 6, lam=2.0, base_family="".join(("sparse_", "bernoulli")))
        EnsembleConfig("variance_profile", 4, 6, lam=2.0, profile=np.ones((4, 6)))
        EnsembleConfig("heavy_tail_stable", 4, 6, alpha=1.5, B=2.0, t_n=0.5)

    def test_numpy_integers_accepted(self):
        cfg = EnsembleConfig(
            "iid_standardized", np.int64(4), np.int32(6), seed=np.uint32(5), replicates=np.int64(2)
        )
        assert run_experiment(cfg, 1).samples[1].replicate_id == 1

    def test_fields_stored_as_the_config_stores_them(self):
        # a number is a float and an integer a Python int, whichever type it came in
        cfg = EnsembleConfig("triangular_iid", np.int64(4), 6, c_seq={2: 2, 4: np.float32(8)}, t_n=1)
        assert type(cfg.p) is int
        assert [(v, type(v)) for v in (*cfg.c_seq.values(), cfg.t_n)] == [(2.0, float), (8.0, float), (1.0, float)]
        cfg = EnsembleConfig("heavy_tail_stable", 4, 6, alpha=1, B=2)
        assert (type(cfg.alpha), type(cfg.B)) == (float, float)
        assert cfg == EnsembleConfig("heavy_tail_stable", 4, 6, alpha=1.0, B=2.0)


# a config that every family rule accepts, for each field the family reads;
# a field read by every family is varied on iid_standardized
_VALID = {
    "lam": dict(family="sparse_bernoulli", lam=2.0),
    "c_seq": dict(family="triangular_iid", c_seq={2: 2.0}),
    "alpha": dict(family="heavy_tail_stable", alpha=1.5, B=2.0),
    "profile": dict(family="variance_profile", lam=2.0, profile="fig1_quadratic"),
}
_VALID.update(c2=_VALID["c_seq"], c4=_VALID["c_seq"], B=_VALID["alpha"], base_family=_VALID["profile"])
# one such config per family, for the fields read by every family
_FAMILY_VALID = {
    "iid_standardized": dict(family="iid_standardized"),
    "sparse_bernoulli": _VALID["lam"],
    "triangular_iid": _VALID["c_seq"],
    "heavy_tail_stable": _VALID["alpha"],
    "variance_profile": _VALID["profile"],
    "dt_triangular": dict(family="dt_triangular"),
}
# n up to and across the end of the float range, near 1.8e308
SIZES = st.integers(1, 10**4) | st.integers(10**307, 10**309) | st.just(10**400)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=4,
)


def config_data(fields):
    """The keys of a config file for EnsembleConfig `fields`: c_seq's entries as c2, c4, ..."""
    data = {key: val for key, val in fields.items() if key != "c_seq"}
    data.update((f"c{order}", val) for order, val in fields.get("c_seq", {}).items())
    return data


def assert_builds_or_raises_input_error(fields, data):
    """Build `fields` as EnsembleConfig and the config keys `data` through
    cli.config_to_ensemble.  Any error but InputError propagates and fails
    the caller; a config that builds has a finite second-moment center, or
    none."""
    for build in (lambda: EnsembleConfig(**fields), lambda: cli.config_to_ensemble(data)[0]):
        try:
            cfg = build()
        except InputError:
            continue
        # a profile family's center reads its p x n mask, too large to build past 10^5 entries
        if cfg.family not in ("variance_profile", "dt_triangular") or cfg.p * cfg.n <= 10**5:
            center = entry_second_moment(cfg)
            assert center is None or np.isfinite(center)


class TestFieldRulesProperty:
    @settings(max_examples=200)
    @given(name=st.sampled_from([*ensembles._FIELDS, "c2", "c4"]), value=JSON_VALUES)
    @example(name="lam", value="x")
    @example(name="alpha", value="1")
    @example(name="t_n", value=[1])
    @example(name="lam", value=10**400)
    @example(name="c2", value="a")
    @example(name="lam", value=True)
    @example(name="c2", value=True)
    @example(name="B", value=10**400)
    @example(name="t_n", value=math.nan)
    @example(name="c4", value=math.inf)
    def test_config_builds_or_raises_input_error(self, name, value):
        # `c2` and `c4` stand for c_seq's entries, as a config spells them
        base = {"p": 4, "n": 6, **_VALID.get(name, {"family": "iid_standardized"})}
        data = {**config_data(base), name: value}
        fields = dict(base)
        if name in ("c2", "c4"):
            fields["c_seq"] = {**base["c_seq"], int(name[1]): value}
        else:
            fields[name] = value
        assert_builds_or_raises_input_error(fields, data)

    # an n beyond the float range raises InputError, not the OverflowError
    # of the two-point weight lam_t / n or the rule's float(n); the examples
    # pin those cases, since derandomized draws shift with unrelated source
    @settings(max_examples=200)
    @given(family=st.sampled_from(sorted(_FAMILY_VALID)), n=SIZES, t_n=st.sampled_from([None, "n^{-1/3}"]))
    @example(family="triangular_iid", n=10**400, t_n=None)
    @example(family="iid_standardized", n=10**400, t_n="n^{-1/3}")
    @example(family="heavy_tail_stable", n=2**1024, t_n="n^{-1/3}")
    def test_any_n_builds_or_raises_input_error(self, family, n, t_n):
        fields = {"p": 4, **_FAMILY_VALID[family], "n": n}
        if t_n is not None:
            fields["t_n"] = t_n
        assert_builds_or_raises_input_error(fields, config_data(fields))


class TestSpectralStatistics:
    def test_identity_moments(self):
        assert empirical_moments(np.eye(3), 2) == (1.0, 1.0)

    def test_diagonal_moments(self):
        assert empirical_moments(np.diag([1.0, 4.0]), 2) == (2.5, 8.5)

    def test_rank_one_projector(self):
        X = np.ones((2, 2)) / math.sqrt(2)
        S = X @ X.T
        moments = empirical_moments(S, 2)
        assert moments[0] == pytest.approx(1.0)
        assert moments[1] == pytest.approx(2.0)
        assert eigenvalues(S) == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_cost_guard(self):
        # power sums cost O(pK): only an order below 1 is refused
        assert empirical_moments(np.eye(2), 12) == (1.0,) * 12
        assert empirical_moments(np.diag([0.0, 2.0]), 9)[-1] == 2.0**9 / 2
        with pytest.raises(ValueError):
            empirical_moments(np.eye(2), 0)

    def test_eigenvalues_sorted(self):
        assert list(eigenvalues(np.diag([3.0, 1.0, 2.0]))) == [1.0, 2.0, 3.0]

    def test_zero_matrix(self):
        assert list(eigenvalues(np.zeros((4, 4)))) == [0.0] * 4

    def test_two_by_two(self):
        assert eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx([1.0, 3.0])

    @pytest.mark.parametrize("p", [1, 2, 7, 33, 60])
    def test_eigenvalues_match_eigh(self, p):
        rng = np.random.default_rng(300 + p)
        A = rng.standard_normal((p, p))
        X = rng.standard_normal((p, 2 * p))
        for S in (A + A.T, X @ X.T):
            reference = np.linalg.eigh(S)[0]
            bound = 1e-12 * np.linalg.norm(S, 2)
            assert np.max(np.abs(eigenvalues(S) - reference)) <= bound

    @pytest.mark.parametrize("perturb", ["shift_one", "spread_keeping_trace"])
    def test_perturbed_spectrum_violates_contract(self, monkeypatch, perturb):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((20, 35))
        S = X @ X.T
        exact = np.linalg.eigvalsh(S)
        wrong = exact.copy()
        delta = 1e-6 * exact[-1]
        wrong[0] += delta
        if perturb == "spread_keeping_trace":
            wrong[-1] -= delta  # sum(w) stays Tr S, sum(w^2) does not
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda _: wrong)
        with pytest.raises(ContractViolation, match="identity"):
            eigenvalues(S)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        S = np.eye(3)
        S[1, 1] = bad
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(S)
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.full((3, 3), bad))

    @pytest.mark.parametrize("p", [1, 17, 64, 129])
    def test_moments_bit_identical_to_dense_power_loop(self, p):
        # eigenvalue power sums and dense traces round differently; a
        # backward-stable eigensolver bounds the gap by about K p eps
        # (2.3e-13 at K = 8, p = 129)
        rng = np.random.default_rng(p)
        X = rng.standard_normal((p, p + 3)) / math.sqrt(p + 3)
        S = X @ X.T
        for K in range(1, 8 + 1):
            assert empirical_moments(S, K) == pytest.approx(dense_power_traces(S, K), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [1, 17, 64, 129])
    def test_moments_are_eigenvalue_power_sums(self, p):
        rng = np.random.default_rng(p)
        X = rng.standard_normal((p, p + 3)) / math.sqrt(p + 3)
        S = X @ X.T
        w = eigenvalues(S)
        for K in range(1, 8 + 1):
            assert empirical_moments(S, K) == tuple(float((w**k).sum()) / p for k in range(1, K + 1))

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            eigenvalues(np.ones((2, 3)))

    def test_moments_match_eigenvalue_power_sums(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((20, 35)) / math.sqrt(35)
        S = X @ X.T
        eigs = eigenvalues(S)
        for k, m in enumerate(empirical_moments(S, 5), start=1):
            assert m == pytest.approx(float((eigs**k).sum()) / 20, rel=1e-9)


class TestRunExperiment:
    def test_histogram_mass_and_psd(self):
        cfg = EnsembleConfig("sparse_bernoulli", 60, 120, lam=3.0, seed=10, replicates=5)
        report = run_experiment(cfg, 3)
        assert report.hist_counts.sum() == 60 * 5
        for sample in report.samples:
            assert sample.eigenvalues[0] >= -1e-9
            assert sample.empirical_moments[0] == pytest.approx(
                sample.eigenvalues.mean(), rel=1e-8
            )

    @pytest.mark.parametrize("K", [2.5, True, np.float64(2)], ids=["float", "bool", "numpy-float"])
    def test_non_integer_order_rejected(self, K):
        # a bool is not taken as an order, though operator.index takes it
        cfg = EnsembleConfig("iid_standardized", 3, 5)
        with pytest.raises(InputError, match=f"^config key 'K' must be an integer, got {re.escape(repr(K))}$"):
            run_experiment(cfg, K)

    def test_bin_override(self):
        cfg = EnsembleConfig("sparse_bernoulli", 30, 60, lam=2.0, seed=10, replicates=2)
        report = run_experiment(cfg, 2, bins=np.linspace(-0.5, 30.5, 12))
        assert len(report.hist_edges) == 12
        assert report.hist_counts.sum() == 30 * 2

    def test_fd_bins_on_rank_deficient_config_rejected(self):
        # p > 4n: over 3/4 of the eigenvalues are zero, and the FD width
        # collapses to rounding noise (this call used to ask for 58 PiB)
        cfg = EnsembleConfig("iid_standardized", 40, 8, seed=10, replicates=2)
        with pytest.raises(ValueError, match=r"bins='fd'.*rank deficient.*p = 40 > 4n"):
            run_experiment(cfg, 2)
        assert run_experiment(cfg, 2, bins=10).hist_counts.sum() == 40 * 2
        at_four = EnsembleConfig("iid_standardized", 40, 10, seed=10, replicates=2)
        assert run_experiment(at_four, 2).hist_counts.sum() == 40 * 2

    def test_fd_bins_on_zero_interquartile_range_rejected(self):
        # rows that draw no entry give exact zero eigenvalues: at lam = 0.1
        # 178 of the 200 pooled ones, so the FD width is 0 and numpy would
        # give one bin
        cfg = EnsembleConfig("sparse_bernoulli", 100, 100, lam=0.1, seed=1729, replicates=2)
        with pytest.raises(ValueError, match=r"bins='fd' found a zero interquartile range: 178 of the 200"):
            run_experiment(cfg, 2)
        assert len(run_experiment(cfg, 2, bins=10).hist_counts) == 10
        denser = replace(cfg, lam=0.3)
        assert len(run_experiment(denser, 2).hist_counts) == 29

    def test_fd_bins_on_rounding_noise_interquartile_range_rejected(self):
        # p <= 4n, yet 302 of the 400 pooled eigenvalues are the rounding
        # noise of a rank deficiency, no exact zeros: the interquartile range
        # is about 2e-16 of the largest eigenvalue, and numpy would ask for
        # 128 PiB of bin edges
        cfg = EnsembleConfig("sparse_bernoulli", 200, 60, lam=0.5, replicates=2)
        with pytest.raises(ValueError, match=r"bins='fd' found a zero interquartile range: 302 of the 400"):
            run_experiment(cfg, 2)
        assert len(run_experiment(cfg, 2, bins=10).hist_counts) == 10

    # an edge of 5,001 digits has no repr, so the message names it by its
    # digit count
    @pytest.mark.parametrize("bins", [[], [1.0], np.array([0.5]), [10**5000]],
                             ids=["empty", "one", "array", "huge"])
    def test_fewer_than_two_edges_fail_before_sampling(self, monkeypatch, bins):
        def no_draw(*args):
            raise AssertionError("sampled before bins was checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = EnsembleConfig("iid_standardized", 3, 5)
        with pytest.raises(ValueError, match="fewer than two edges"):
            run_experiment(cfg, 2, bins=bins)

    @pytest.mark.parametrize("K, bins, message", [
        (0, "fd", "config key 'K' must be an integer >= 1, got 0"),
        (2, True, "config key 'bins' must be an integer, a string or a list of numbers, got True"),
        (2, [1, True, 3], "config key 'bins' must be an integer, a string or a list of numbers, got [1, True, 3]"),
        (2, 2.5, "config key 'bins' must be an integer, a string or a list of numbers, got 2.5"),
        (2, np.array([True, False]),
         "config key 'bins' must be an integer, a string or a list of numbers, got [True, False]"),
        # the list is named without converting its 5,001-digit integer
        (2, [10**5000, True], "config key 'bins' must be an integer, a string or a list of numbers, "
                              "got [an integer of 5001 digits, True]"),
        (2, (10**5000, True), "config key 'bins' must be an integer, a string or a list of numbers, "
                              "got [an integer of 5001 digits, True]"),
    ], ids=["K-zero", "bins-bool", "bins-bool-edge", "bins-float", "bins-bool-array", "bins-huge",
            "bins-huge-tuple"])
    def test_order_and_bins_type_fail_before_sampling(self, monkeypatch, K, bins, message):
        # numpy would take a bool as a count of one bin, and a bool edge as 0 or 1
        def no_draw(*args):
            raise AssertionError("sampled before K and bins were checked")

        monkeypatch.setattr(ensembles, "_draw", no_draw)
        cfg = EnsembleConfig("iid_standardized", 3, 5)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            run_experiment(cfg, K, bins=bins)

    @pytest.mark.parametrize("bins, count", [
        (np.int64(3), 3), ((0.0, 1.0, 4.0), 2), (np.array([0, 1, 4]), 2), ([0, 1.5, 4], 2),
    ], ids=["numpy-count", "tuple", "integer-array", "mixed-list"])
    def test_bins_forms_taken(self, bins, count):
        cfg = EnsembleConfig("iid_standardized", 3, 5)
        assert len(run_experiment(cfg, 2, bins=bins).hist_counts) == count

    def test_single_replicate_stderr_zero(self):
        cfg = EnsembleConfig("iid_standardized", 20, 40, seed=11)
        report = run_experiment(cfg, 2)
        assert np.all(report.moment_stderr == 0)

    def test_moment_order_guard(self):
        # power sums cost O(pK), so no order above 0 is refused
        cfg = EnsembleConfig("iid_standardized", 4, 8, seed=12)
        with pytest.raises(ValueError):
            run_experiment(cfg, 0)
        report = run_experiment(cfg, 12)
        (sample,) = report.samples
        w = sample.eigenvalues
        assert sample.empirical_moments == tuple(float((w**k).sum()) / 4 for k in range(1, 13))

    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_replicates_replay_through_public_functions(self, case):
        # the benchmark's traced replay rebuilds every replicate this way and
        # must reproduce run_experiment bit for bit
        cfg = case_config(case, 24, 40, seed=21, replicates=3)
        K = 4
        report = run_experiment(cfg, K)
        # X @ X.T on one array is what run_experiment computes (numpy takes
        # the symmetric rank-k path only when both operands share a buffer)
        grams = []
        for r in range(cfg.replicates):
            X = sample_matrix(cfg, r)
            grams.append((X, X @ X.T))
        expected_sq = entry_second_moment(cfg)
        traces = [float(eigenvalues(S).sum()) for _, S in grams]
        for r, (sample, (X, S)) in enumerate(zip(report.samples, grams)):
            assert sample.empirical_moments == empirical_moments(S, K)
            assert np.array_equal(sample.eigenvalues, eigenvalues(S))
            if expected_sq is None:
                gap = float((traces[r] - np.mean(traces)) / cfg.p)
            else:
                gap = float((X**2).sum() - expected_sq.sum()) / cfg.p
            assert sample.second_moment_gap == gap
            assert type(sample.second_moment_gap) is float
        rows = np.array([empirical_moments(S, K) for _, S in grams])
        assert np.array_equal(report.moment_mean, rows.mean(axis=0))

    def test_reports_share_no_buffer(self):
        # the run's buffers are reused by every replicate and the next run;
        # each sample's eigenvalues must be its own array
        cfg = EnsembleConfig("sparse_bernoulli", 12, 20, lam=2.0, seed=22, replicates=4)
        first = run_experiment(cfg, 2)
        kept = [s.eigenvalues.copy() for s in first.samples]
        arrays = [s.eigenvalues for s in first.samples]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        run_experiment(replace(cfg, seed=23), 2)
        for sample, before in zip(first.samples, kept):
            assert np.array_equal(sample.eigenvalues, before)

    @pytest.mark.parametrize("case", ["profile_named", "dt_triangular"])
    def test_entry_mask_built_once_per_run(self, monkeypatch, case):
        calls = []
        real = ensembles.profile_matrix
        monkeypatch.setattr(ensembles, "profile_matrix", lambda cfg: calls.append(cfg) or real(cfg))
        for replicates in (1, 5):
            calls.clear()
            run_experiment(case_config(case, 6, 8, replicates=replicates), 2)
            assert len(calls) == 1  # the mask, which also gives the second-moment total

    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_law_resolved_once_per_run(self, monkeypatch, case):
        # the two-point fit, the stable scale and the truncation level are
        # derived once per run, not once per replicate
        configs = [case_config(case, 6, 8, replicates=replicates) for replicates in (1, 5)]
        calls = []
        for name in ("triangular_two_point", "_stable_scale", "resolve_truncation"):
            real = getattr(ensembles, name)
            monkeypatch.setattr(ensembles, name, lambda *args, name=name, real=real: calls.append(name) or real(*args))
        counts = []
        for cfg in configs:
            calls.clear()
            run_experiment(cfg, 2, bins=10)
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert len(set(counts[0])) == len(counts[0])

    @pytest.mark.parametrize("t_n", [None, 0.3])
    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_entry_second_moment_is_the_array_sum(self, case, t_n):
        # a case's own truncation rule wins over the parametrized one
        cfg = case_config(case, 24, 40, seed=21, t_n=t_n)
        total, oracle = entry_second_moment(cfg), entry_second_moment_array(cfg)
        if oracle is None:
            assert total is None
            return
        assert isinstance(total, np.float64)
        if cfg.family not in ("variance_profile", "dt_triangular"):
            assert total == pytest.approx(oracle.sum(), rel=1e-15, abs=0)
        else:
            assert total == oracle.sum()

    @pytest.mark.parametrize("case", ["iid_standardized", "iid_truncated", "sparse_bernoulli", "triangular_iid"])
    def test_scalar_second_moment_allocates_no_array(self, case):
        # one p x n float array would take 8 MB; numpy reports its buffers to tracemalloc
        cfg = case_config(case, 1000, 1000)
        tracemalloc.start()
        try:
            total = entry_second_moment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(total, np.float64)
        assert peak < 10**5

    @pytest.mark.parametrize("profile", ["fig1_quadratic", "fig2_sine"])
    def test_named_profile_run_holds_one_entry_array(self, profile):
        # the entries take one p x n float array, and the draw mask, S and
        # the eigensolver's copy of S about 1.1 more at n = 2p; a dense
        # profile would add a second p x n float array
        p, n = 200, 400
        cfg = EnsembleConfig("variance_profile", p, n, lam=3.0, profile=profile, replicates=2)
        run_experiment(cfg, 2)  # numpy imports some modules on first use; they are not the run's
        tracemalloc.start()
        try:
            run_experiment(cfg, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * p * n

    def test_truncation_mass_reported(self):
        cfg = EnsembleConfig("iid_standardized", 40, 80, t_n="n^{-1/3}", seed=13, replicates=3)
        report = run_experiment(cfg, 2)
        assert all(s.truncation_mass > 0 for s in report.samples)
        level = resolve_truncation("n^{-1/3}", 80)
        X = sample_matrix(cfg, 0)
        assert np.abs(X).max() <= level

    def test_overflowed_draw_truncates_to_zero(self):
        # at alpha = 0.01 the stable transform overflows to +-inf; truncation
        # zeroes those entries (inf * 0 would be NaN) and reports an inf mass
        cfg = EnsembleConfig("heavy_tail_stable", 20, 40, alpha=0.01, B=10.0, replicates=2)
        with np.errstate(over="ignore"):
            X = sample_matrix(cfg, 0)
            report = run_experiment(cfg, 2, bins=10)
        assert not np.isnan(X).any()
        assert np.abs(X).max() <= 10.0
        assert report.samples[0].truncation_mass == math.inf
        assert all(np.isfinite(s.second_moment_gap) for s in report.samples)

    # seed 2 draws a cos(U)^(1/alpha) that underflows to 0, a divide by zero
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 2])
    def test_overflowed_draw_warns_nothing(self, seed):
        # the inf truncation mass reports the overflow, so numpy does not
        cfg = EnsembleConfig("heavy_tail_stable", 20, 40, alpha=0.01, B=10.0, seed=seed, replicates=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_experiment(cfg, 2, bins=10)
        assert report.samples[0].truncation_mass == math.inf

    def test_second_moment_gap_centers_near_zero(self):
        cfg = EnsembleConfig("sparse_bernoulli", 80, 160, lam=3.0, seed=14, replicates=10)
        report = run_experiment(cfg, 1)
        gaps = [s.second_moment_gap for s in report.samples]
        assert all(g is not None for g in gaps)
        assert abs(np.mean(gaps)) < 0.5

    def test_heavy_tail_gap_uses_pooled_centering(self):
        cfg = EnsembleConfig(
            "heavy_tail_stable", 30, 60, alpha=1.5, B=2.0, seed=15, replicates=4
        )
        report = run_experiment(cfg, 1)
        gaps = np.array([s.second_moment_gap for s in report.samples])
        assert np.all(np.isfinite(gaps))
        assert abs(gaps.mean()) < 1e-9  # centering is the pooled mean

    def test_triangular_report_includes_achieved_sequence(self):
        cfg = EnsembleConfig("triangular_iid", 40, 80, c_seq={2: 2.0}, seed=16, replicates=2)
        report = run_experiment(cfg, 2)
        assert report.achieved_sequence == {2: pytest.approx(2.0), 4: pytest.approx(2.0)}


class TestAgainstLimitFormulas:
    def test_mp_convergence_trend(self):
        # fixed-seed regression: the trend statistic is noisy at k = 1 where
        # the finite-n bias vanishes identically, so the seed is part of the test
        errors = {}
        for n in (100, 200, 400):
            cfg = EnsembleConfig("iid_standardized", n // 2, n, seed=42, replicates=30)
            report = run_experiment(cfg, 3)
            errors[n] = [
                abs(report.moment_mean[k - 1] - float(mp_moment(k, 0.5))) for k in (1, 2, 3)
            ]
        for k in range(3):
            assert errors[100][k] >= errors[200][k] >= errors[400][k]

    def test_sparse_moments_inside_sandwich(self):
        cfg = EnsembleConfig("sparse_bernoulli", 200, 400, lam=3.0, seed=DEFAULT_SEED, replicates=15)
        report = run_experiment(cfg, 3)
        for k in (1, 2, 3):
            lower, upper = poisson_sandwich(k, 0.5, 3)
            se = report.moment_stderr[k - 1]
            assert float(lower) - 3 * se <= report.moment_mean[k - 1] <= float(upper) + 3 * se

    def test_sparse_mean_near_exact_first_moment(self):
        cfg = EnsembleConfig("sparse_bernoulli", 200, 400, lam=3.0, seed=DEFAULT_SEED, replicates=15)
        report = run_experiment(cfg, 1)
        assert report.moment_mean[0] == pytest.approx(
            float(moment_sparse(1, 0.5, 3.0).value), rel=0.05
        )


class TestDTOracle:
    # regression constants frozen from the Monte Carlo oracle run below
    # (dt_triangular, p = n = 400, 50 replicates, seed 1729)
    FROZEN = {1: 0.500994, 2: 0.670233, 3: 1.135597}
    # the exact limits k^k / (k+1)!, a reference independent of both runs
    LIMITS = {1: 1 / 2, 2: 2 / 3, 3: 9 / 8}

    @staticmethod
    def _indicator(grid):
        # 1{x <= u} at the midpoints of a grid x grid grid
        xs = (np.arange(grid) + 0.5) / grid
        return (xs[:, None] <= xs[None, :]).astype(float)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_frozen_constants_match_exact_limits(self, k):
        assert self.LIMITS[k] == k**k / math.factorial(k + 1)
        assert self.FROZEN[k] == pytest.approx(self.LIMITS[k], rel=0.01)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_profile_quadrature_matches_frozen_constants(self, k):
        report = moment_profile(k, 1, self._indicator(256), {2: 1, 4: 0, 6: 0}, grid=256)
        assert report.value == pytest.approx(self.FROZEN[k], rel=0.01)

    def test_monte_carlo_oracle_reproduces_frozen_constants(self):
        cfg = EnsembleConfig("dt_triangular", 400, 400, seed=1729, replicates=50)
        report = run_experiment(cfg, 3)
        for k in (1, 2, 3):
            assert report.moment_mean[k - 1] == pytest.approx(self.FROZEN[k], rel=1e-4)
