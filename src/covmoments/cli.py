"""Command-line entry point: classification, counting, censuses, moment
evaluation, simulation, hypergraph tables, and the cross-module verify suite.

All floating-point output is printed with 17 significant digits so that
regression runs are bit-stable; every verb is deterministic given its
configuration, including seeds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import circuits, ensembles, hypergraphs, moments, partitions
from .ensembles import ContractViolation, EnsembleConfig
from .partitions import Partition, SizeLimitError, Word

EXIT_CONFIG = 2
EXIT_SIZE_LIMIT = 3
EXIT_CONTRACT = 4

class ConfigError(ValueError):
    pass

def fmt(x) -> str:
    if isinstance(x, Fraction):
        x = float(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)

def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("COVMOMENTS_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out

def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")

def _parse_k_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        ks = list(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        ks = []
    if not ks or ks[0] < 1:
        raise ConfigError(f"bad --k value {text!r}; expected k >= 1 or a range like 1..6")
    return ks

def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {name} value {text!r}; expected a rational like 3/4") from exc

def _parse_orders(items: list[str], flag: str, parse, max_order: int | None = None) -> dict:
    """{order: parse(value, f"{flag} {order}")} for entries like 2=value.
    Every order must be a positive even integer, given once and, when
    `max_order` is given, at most that; all of them are checked before any
    value is parsed (or its file opened)."""
    entries = {}
    for item in items:
        key, sep, value = item.partition("=")
        try:
            order = int(key)
        except ValueError:
            sep = ""
        if not sep:
            raise ConfigError(f"bad {flag} entry {item!r}; expected an integer order before '='")
        if order < 2 or order % 2:
            raise ConfigError(f"bad {flag} order {order}; only positive even orders are read")
        if order in entries:
            raise ConfigError(f"{flag} order {order} is given twice")
        if max_order is not None and order > max_order:
            raise ConfigError(f"{flag} order {order} is above 2 max(k) = {max_order}; no sum reads it")
        entries[order] = (key, value)
    return {order: parse(value, f"{flag} {key}") for order, (key, value) in entries.items()}

def _parse_constants(text: str) -> dict[int, Fraction]:
    return _parse_orders(text.split(","), "--constant", _parse_fraction)

# ---------------------------------------------------------------- classify

def run_classify(args) -> int:
    try:
        blocks = json.loads(args.blocks)
        partition = Partition.from_blocks(blocks)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad --blocks value: {exc}") from exc
    cls = partitions.classify(partition)
    payload = {
        "blocks": partition.as_lists(),
        "word": partition.to_word().text,
        "is_pair": cls.is_pair,
        "is_even_blocks": cls.is_even_blocks,
        "is_non_crossing": cls.is_non_crossing,
        "is_special_symmetric": cls.is_special_symmetric,
        "b": cls.b,
        "r_plus_1": cls.r_plus_1,
    }
    if args.format == "csv":
        keys = list(payload)
        print(",".join(keys))
        print(",".join(str(payload[k]).lower() if isinstance(payload[k], bool) else str(payload[k]) for k in keys))
    else:
        print(json.dumps(payload))
    return 0

# ---------------------------------------------------------------- count

def run_count(args) -> int:
    # the (b, r+1) table is a marginal of the sojourn class table: b = a
    # letters and r+1 = a - l + 1 even generating vertices
    k = args.k
    table: Counter = Counter()
    for key, count in hypergraphs.count_noiry_classes(k).items():
        if not args.pair_only or all(s == 2 for s in key.sizes):
            table[key.a, key.a - key.l + 1] += count
    rows = [[k, b, r, count] for (b, r), count in sorted(table.items())]
    out = _out_dir(args) / "counts.csv"
    _write_csv(out, ["k", "b", "r_plus_1", "count"], rows)
    total = sum(table.values())
    print(f"count: {total} special symmetric partitions of {{1..{2 * k}}}"
          f"{' (pair-matched only)' if args.pair_only else ''} -> {out}")
    return 0

# ---------------------------------------------------------------- census

def run_census(args) -> int:
    word = Word.from_text(args.word)
    # the Wigner census runs on N = max(p, n), so check both sizes here
    circuits._require_sizes(p=args.p, n=args.n)
    results = []
    if args.link in ("S", "both"):
        results.append(circuits.census_s(word, args.p, args.n))
    if args.link in ("wigner", "both"):
        results.append(circuits.census_w(word, max(args.p, args.n)))
    rows = [
        [r.word, r.link, r.p, r.n, r.exact_count,
         "" if r.predicted_count is None else r.predicted_count]
        for r in results
    ]
    out = _out_dir(args) / "census.csv"
    _write_csv(out, ["word", "link", "p", "n", "exact", "predicted"], rows)
    for r in results:
        predicted = "none" if r.predicted_count is None else str(r.predicted_count)
        print(f"census: word={r.word} link={r.link} p={r.p} n={r.n} "
              f"exact={r.exact_count} predicted={predicted}")
    return 0

# ---------------------------------------------------------------- moments

def _load_grid_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)

# the moments sources that read each option besides --k and --y; the first
# option given must choose a source, and --constant, listed after the other
# choosers, is then either that source or the base sequence of --profile-csv
_READERS = {
    "mp": ("mp",), "sparse": ("sparse",), "profile_csv": ("profile",), "g": ("grid",),
    "constant": ("constant", "profile"), "lam": ("sparse",), "sandwich": ("sparse",),
    "grid": ("profile", "grid"), "breakdown": ("sparse", "constant", "profile", "grid"),
}

def _moments_source(args) -> str:
    """The one source the options choose; an option it does not read is an
    error, not ignored."""
    given = [d for d in _READERS if getattr(args, d) is not None and getattr(args, d) is not False]
    if not given or given[0] not in ("mp", "sparse", "profile_csv", "g", "constant"):
        raise ConfigError("choose a source: --mp, --sparse, --constant, --profile-csv or --g")
    source = _READERS[given[0]][0]
    for dest in given:
        if source not in _READERS[dest]:
            raise ConfigError(f"--{dest.replace('_', '-')} does not apply to the {source} source")
    return source

def run_moments(args) -> int:
    source = _moments_source(args)
    ks = _parse_k_range(args.k)
    y = _parse_fraction(args.y, "--y")
    if y < 0:
        raise ConfigError(f"--y must be >= 0, got {args.y!r}")
    grid = 64 if args.grid is None else args.grid
    reports: dict[int, moments.MomentReport] = {}
    sandwich_rows = {}

    if source == "mp":
        reports = {k: moments.MomentReport(k, moments.mp_moment(k, y), None) for k in ks}
    elif source == "sparse":
        if args.lam is None:
            raise ConfigError("--sparse requires --lam")
        lam = _parse_fraction(args.lam, "--lam")
        # largest first: the class table for max(ks) serves every smaller k
        for k in sorted(ks, reverse=True):
            reports[k] = moments.moment_sparse(k, y, lam, breakdown=args.breakdown)
            if args.sandwich:
                sandwich_rows[k] = moments.poisson_sandwich(k, y, lam)
    elif source == "constant":
        constants = _parse_constants(args.constant)
        for k in sorted(ks, reverse=True):
            reports[k] = moments.moment_constant(k, y, constants, breakdown=args.breakdown)
    elif source == "profile":
        if not args.constant:
            raise ConfigError("--profile-csv requires --constant for the base sequence")
        constants = _parse_constants(args.constant)
        sigma = _load_grid_csv(args.profile_csv)
        if sigma.shape != (grid, grid):
            raise ConfigError(f"profile grid has shape {sigma.shape}, expected {(grid, grid)}")
        reports = moments.profile_moments(
            ks, y, sigma, constants, grid=grid, breakdown=args.breakdown
        )
    else:
        g = _parse_orders(args.g, "--g", lambda path, name: _load_grid_csv(path), 2 * max(ks))
        reports = moments.grid_moments(ks, y, g, grid=grid, breakdown=args.breakdown)

    header = ["k", "value"] + (["lower", "upper"] if sandwich_rows else [])
    rows = [[k, reports[k].value, *sandwich_rows.get(k, ())] for k in ks]
    out = _out_dir(args) / "moments.csv"
    _write_csv(out, header, rows)

    payload = {"source": source, "y": fmt(y), "moments": {}}
    for k in ks:
        report = reports[k]
        entry = {"value": fmt(report.value)}
        if report.breakdown is not None:
            entry["breakdown"] = {w: fmt(v) for w, v in report.breakdown.items()}
        payload["moments"][str(k)] = entry
    with open(_out_dir(args) / "moments.json", "w") as fh:
        json.dump(payload, fh, indent=1)

    print(f"moments: source={source} y={fmt(y)} k={args.k} -> {out}")
    return 0

# ---------------------------------------------------------------- simulate

def _coerce_scalar(text: str):
    text = text.strip().strip('"').strip("'")
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text

def load_config(path: str) -> dict:
    """Flat key = value files with optional [sections], or a JSON object."""
    raw = Path(path).read_text()
    if path.endswith(".json") or raw.lstrip().startswith("{"):
        def unique(pairs: list) -> dict:
            obj = {}
            for key, value in pairs:
                if key in obj:
                    raise ConfigError(f"{path}: config key {key!r} is repeated")
                obj[key] = value
            return obj

        try:
            data = json.loads(raw, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad JSON config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        return data
    out: dict = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # sections are organizational only
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        # sections do not scope keys, so a key in two sections is a repeat too
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = _coerce_scalar(value)
    return out

def _config_error(key: str, expected: str, value) -> ConfigError:
    return ConfigError(f"config key {key!r} must be {expected}, got {value!r}")

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)

def _config_number(data: dict, key: str, kind: type, default=None):
    """data[key] as kind (int or float), default when absent; a bool, a
    string, or a float where an int is wanted fails naming the key."""
    value = data.get(key, default)
    if key in data and not (_is_number(value) and isinstance(value, (int, kind))):
        raise _config_error(key, "an integer" if kind is int else "a number", value)
    return value if value is None else kind(value)

def config_to_ensemble(data: dict, seed_override: int | None = None) -> tuple[EnsembleConfig, dict]:
    known = {
        "family", "p", "n", "lam", "alpha", "B", "t_n", "seed", "replicates",
        "profile", "base_family", "c2", "c4", "K", "bins",
    }
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("family", "p", "n"):
        if required not in data:
            raise ConfigError(f"config is missing {required!r}")
    c_seq = None
    if "c2" in data or "c4" in data:
        c_seq = {2: _config_number(data, "c2", float, 0.0)}
        if "c4" in data:
            c_seq[4] = _config_number(data, "c4", float)
    seed = _config_number(data, "seed", int, ensembles.DEFAULT_SEED)
    t_n = data.get("t_n")
    if "t_n" in data and not (_is_number(t_n) or isinstance(t_n, str)):
        raise _config_error("t_n", "a number or a string", t_n)
    bins = data.get("bins", "fd")
    if not (isinstance(bins, (int, str)) and not isinstance(bins, bool)
            or isinstance(bins, list) and all(map(_is_number, bins))):
        raise _config_error("bins", "an integer, a string or a list of numbers", bins)
    try:
        cfg = EnsembleConfig(
            family=str(data["family"]),
            p=_config_number(data, "p", int),
            n=_config_number(data, "n", int),
            lam=_config_number(data, "lam", float),
            c_seq=c_seq,
            alpha=_config_number(data, "alpha", float),
            B=_config_number(data, "B", float),
            profile=data.get("profile"),
            base_family=str(data.get("base_family", "sparse_bernoulli")),
            t_n=t_n,
            seed=seed_override if seed_override is not None else seed,
            replicates=_config_number(data, "replicates", int, 1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    K = _config_number(data, "K", int, 4)
    if K < 1:
        raise _config_error("K", "an integer >= 1", K)
    return cfg, {"K": K, "bins": bins}

GNUPLOT_TEMPLATE = """\
set datafile separator ","
set style fill solid 0.6
set xlabel "eigenvalue"
set ylabel "count"
plot "{csv}" every ::1 using (($1+$2)/2):3:($2-$1) with boxes notitle
"""

def run_simulate(args) -> int:
    data = load_config(args.config)
    cfg, extras = config_to_ensemble(data, seed_override=args.seed)
    report = ensembles.run_experiment(cfg, extras["K"], bins=extras["bins"])
    out = _out_dir(args)

    _write_csv(
        out / "moments.csv",
        ["k", "mean", "stderr"],
        [[k + 1, report.moment_mean[k], report.moment_stderr[k]] for k in range(extras["K"])],
    )
    _write_csv(
        out / "hist.csv",
        ["left_edge", "right_edge", "count"],
        [
            [report.hist_edges[i], report.hist_edges[i + 1], int(report.hist_counts[i])]
            for i in range(len(report.hist_counts))
        ],
    )
    _write_csv(
        out / "diag.csv",
        ["replicate", "truncation_mass", "second_moment_gap"],
        [[s.replicate_id, s.truncation_mass, s.second_moment_gap] for s in report.samples],
    )
    if args.gnuplot:
        (out / "hist.gp").write_text(GNUPLOT_TEMPLATE.format(csv=out / "hist.csv"))
    if report.achieved_sequence:
        achieved = ", ".join(f"{k}:{fmt(v)}" for k, v in sorted(report.achieved_sequence.items()))
        print(f"simulate: achieved n*E[x^order] = {{{achieved}}}")
    print(
        f"simulate: family={cfg.family} p={cfg.p} n={cfg.n} replicates={cfg.replicates} "
        f"seed={cfg.seed} -> {out}/moments.csv,hist.csv,diag.csv"
    )
    return 0

# ---------------------------------------------------------------- hypergraph

def run_hypergraph(args) -> int:
    if args.word:
        word = Word.from_text(args.word)
        h = hypergraphs.word_to_hypergraph(word)
        payload = {
            "word": word.text,
            "sigma": h.sigma.as_lists(),
            "tau": h.tau.as_lists(),
            "acyclic": hypergraphs.is_acyclic(h),
            "incidence": {str(e): sorted(vs) for e, vs in sorted(h.incidence().items())},
        }
        print(json.dumps(payload))
        return 0
    k = args.k
    table = hypergraphs.count_noiry_classes(k)
    rows = [
        [k, key.a, key.l, "|".join(map(str, key.sizes)), count]
        for key, count in sorted(table.items(), key=lambda kv: (kv[0].a, kv[0].l, kv[0].sizes))
    ]
    out = _out_dir(args) / "counts.csv"
    _write_csv(out, ["k", "a", "l", "multiset", "count"], rows)
    print(f"hypergraph: {sum(table.values())} special symmetric words of length {2 * k} "
          f"in {len(table)} classes -> {out}")
    return 0

# ---------------------------------------------------------------- verify

# each check takes its ranges as arguments and returns (ok, detail); verify
# caps the ranges by --max-k, tests/test_acceptance.py runs wider ones

def check_ss_examples():
    member = Partition.from_blocks([[1, 2, 5, 6], [3, 4, 7, 8]])
    non_member = Partition.from_blocks([[1, 2, 6, 7], [3, 4, 5, 8]])
    ok = partitions.is_special_symmetric(member) and not partitions.is_special_symmetric(non_member)
    return ok, "both reference partitions of {1..8} classify as stated"

def check_nc2(ks):
    for k in ks:
        ss_pairs, nc_pairs = set(), set()
        for p in partitions.enumerate_pair_partitions(2 * k):
            if partitions.is_special_symmetric(p):
                ss_pairs.add(p.blocks)
            if partitions.is_non_crossing(p):
                nc_pairs.add(p.blocks)
        if ss_pairs != nc_pairs or len(nc_pairs) != partitions.catalan(k):
            return False, f"failed at k={k}"
    return True, f"pair censuses match Catalan numbers up to k={max(ks)}"

def check_narayana(ks):
    for k in ks:
        table = partitions.count_ss(k, "even_generating", pair_only=True)
        expected = {r + 1: partitions.narayana(k, r) for r in range(k)}
        if table != expected:
            return False, f"failed at k={k}: {table} != {expected}"
    return True, f"pair-matched counts equal Narayana numbers up to k={max(ks)}"

def check_census_product_law(top, sizes):
    for m in range(2, top + 1, 2):
        for p in partitions.enumerate_partitions(m):
            word = p.to_word()
            if partitions.is_special_symmetric(p):
                for pp, nn in itertools.product(sizes, sizes):
                    result = circuits.census_s(word, pp, nn)
                    if result.exact_count != result.predicted_count:
                        return False, f"SS word {word.text} ({pp},{nn})"
            else:
                ratios = [circuits.census_s(word, N, N).ratio_to_scale for N in (2, 3, 4)]
                if not (ratios[0] >= ratios[1] >= ratios[2] and ratios[2] < 1):
                    return False, f"non-SS word {word.text} ratios {ratios}"
    return True, f"exact counts p^(r+1) n^(b-r) for all words of length <= {top}"

def check_containment(top, sizes):
    # every covariance circuit is a Wigner circuit on {1..max(p, n)}, so the
    # closed form may not exceed the pattern search's count
    for m in range(2, top + 1, 2):
        for p in partitions.enumerate_partitions(m):
            word = p.to_word()
            for pp, nn in itertools.product(sizes, sizes):
                s = circuits.census_s(word, pp, nn).exact_count
                w = circuits.census_w(word, max(pp, nn)).exact_count
                if s > w:
                    return False, f"word {word.text} ({pp},{nn}): S count {s} > Wigner count {w}"
    return True, f"covariance census <= Wigner census for all words of length <= {top}"

def check_mp_reduction(ks, ys):
    constants = {2 * j: Fraction(int(j == 1)) for j in range(1, max(ks) + 1)}
    for k, y in itertools.product(ks, ys):
        if moments.moment_constant(k, y, constants).value != moments.mp_moment(k, y):
            return False, f"k={k}, y={y}"
    return True, f"constant-sequence reduction equals the Narayana polynomial up to k={max(ks)}"

def check_sandwich(ks, lams, ys, strict_from):
    for k, lam, y in itertools.product(ks, lams, ys):
        lower, upper = moments.poisson_sandwich(k, y, lam)
        beta = moments.moment_sparse(k, y, lam).value
        if not (lower <= beta <= upper):
            return False, f"containment failed at k={k}, lam={lam}, y={y}"
        if k >= strict_from and not (lower < beta < upper):
            return False, f"strictness failed at k={k}, lam={lam}, y={y}"
    return True, f"bounds contain the sparse moments (strictly for {strict_from} <= k <= {max(ks)})"

def check_hypergraph(ks):
    for k in ks:
        by_b = Counter()
        for word in hypergraphs.enumerate_ss_words(k):
            h = hypergraphs.word_to_hypergraph(word)
            if not hypergraphs.is_acyclic(h) or hypergraphs.hypergraph_to_word(h) != word:
                return False, f"round trip failed for {word.text}"
            by_b[word.distinct_letters] += 1
        if hypergraphs.count_acyclic_pairs(k) != by_b:
            return False, f"count identity failed at k={k}"
        if sum(by_b.values()) != partitions.count_ss(k)["total"]:
            return False, f"word total differs from the census at k={k}"
    return True, f"round trips and acyclic-pair counts agree up to 2k={2 * max(ks)}"

def check_noiry(ks):
    for k in ks:
        total = sum(hypergraphs.count_noiry_classes(k).values())
        census = partitions.count_ss(k)["total"]
        if total != census:
            return False, f"k={k}: classes {total} vs census {census}"
    return True, f"class totals equal the special symmetric census up to 2k={2 * max(ks)}"

# DT: the upper-triangle profile 1{x <= u} with C_2 = 1 and every other
# constant 0, at y = 1, has the limit k^k / (k+1)! (Sniady 2003).  The
# indicator jumps on the diagonal, so the quadrature error is O(1/G);
# (value - limit) * G measured 0.5, 1.005, 2.27, 5.41, 13.25, 33.1 at G = 64
# and 0.5, 1.0, 2.25, 5.34, 13.04, 32.4 at G = 1024, and stays within 2 %
# beyond those two ends at every grid in between.  Coarser grids leave these
# bounds (k = 3 reads 2.337 at G = 16), so check_grid runs at DT_GRID, the
# smallest grid they were measured at
DT_SCALED_ERROR = {
    1: (0.49, 0.51),
    2: (0.98, 1.03),
    3: (2.20, 2.32),
    4: (5.23, 5.52),
    5: (12.77, 13.52),
    6: (31.75, 33.77),
}
DT_GRID = 64

def check_grid(ks, grid, dt_ks):
    constants = {2: Fraction(1), 4: Fraction(1, 4), 6: Fraction(2)}
    g = {s: np.full((grid, grid), float(v)) for s, v in constants.items()}
    # both sides of the constant case run the sojourn series; the word terms
    # of a varying integrand, by per-word elimination, are an independent sum
    xs = (np.arange(grid) + 0.5) / grid
    varying = {s: v + np.outer(xs, xs**2) for s, v in g.items()}
    constant_reports = moments.grid_moments(ks, Fraction(1, 2), g, grid=grid)
    varying_reports = moments.grid_moments(ks, Fraction(1, 2), varying, grid=grid, breakdown=True)
    for k in ks:
        grid_value = constant_reports[k].value
        exact = float(moments.moment_constant(k, Fraction(1, 2), constants).value)
        if abs(grid_value - exact) > 1e-10:
            return False, f"constant integrand mismatch at k={k}"
        report = varying_reports[k]
        words = sum(report.breakdown.values())
        if abs(report.value - words) > 1e-12 * abs(words):
            return False, f"c + xu^2 integrand at k={k}: {report.value!r} vs word terms {words!r}"
    xs = (np.arange(128) + 0.5) / 128
    product = moments.moment_grid(1, 1, {2: np.outer(xs, xs)}, grid=128).value
    if abs(product - 0.25) > 1e-6:
        return False, f"xy integral {product}"
    xs = (np.arange(DT_GRID) + 0.5) / DT_GRID
    sigma = (xs[:, None] <= xs[None, :]).astype(float)
    c2_only = {2 * j: int(j == 1) for j in range(1, max(dt_ks) + 1)}
    dt = moments.profile_moments(dt_ks, 1, sigma, c2_only, grid=DT_GRID)
    for k in dt_ks:
        lower, upper = DT_SCALED_ERROR[k]
        scaled = (dt[k].value - k**k / math.factorial(k + 1)) * DT_GRID
        if not lower <= scaled <= upper:
            return False, f"DT profile at k={k}: (value - limit) * G = {scaled!r}, outside [{lower}, {upper}]"
    return True, ("quadrature reproduces constant sums to 1e-10, its word terms to 1e-12, "
                  "the xy integral to 1e-6 and the DT limits within their O(1/G) bounds "
                  f"up to k={max(dt_ks)}")

def check_unbounded(ts, grid):
    g = {2 * j: np.full((grid, grid), float(j == 1)) for j in range(1, max(ts) + 1)}
    reports = {y: moments.grid_moments(ts, y, g, grid=grid) for y in (0.5, 1.0)}
    for t in ts:
        bound = float(moments.unbounded_support_bound(1, t, np.ones(4 * grid), grid=4 * grid))
        for y in (0.5, 1.0):
            if bound > reports[y][t].value + 1e-12:
                return False, f"bound exceeds moment at t={t}, y={y}"
    return True, "factorial lower bounds stay below the quadrature moments"

def check_simulation():
    cfg = EnsembleConfig("sparse_bernoulli", 30, 60, lam=2.0, seed=ensembles.DEFAULT_SEED, replicates=3)
    first = ensembles.run_experiment(cfg, 3)
    second = ensembles.run_experiment(cfg, 3)
    if not np.array_equal(first.moment_mean, second.moment_mean):
        return False, "rerun differed"
    for r, sample in enumerate(first.samples):
        if sample.eigenvalues[0] < -1e-9:
            return False, "PSD floor violated"
        # the moments are eigenvalue power sums; check them against dense
        # matrix powers of the replicate's own S
        X = ensembles.sample_matrix(cfg, r)
        S = X @ X.T
        for k, got in enumerate(sample.empirical_moments, start=1):
            want = float(np.trace(np.linalg.matrix_power(S, k))) / cfg.p
            if abs(got - want) > 1e-12 * abs(want):
                return False, f"replicate {r}: moment k={k} {got!r} != Tr S^{k} / p = {want!r}"
    return True, "deterministic rerun, PSD floor, moments equal Tr S^k / p within 1e-12"

def _upto(max_k: int, cap: int) -> range:
    return range(1, min(max_k, cap) + 1)

_YS = (Fraction(1, 2), Fraction(2))

# the largest cap below: a larger --max-k would run the same suite
MAX_VERIFY_K = 6

VERIFY_CHECKS = [
    ("ss-definition-examples", lambda mk: check_ss_examples()),
    ("nc2-catalan", lambda mk: check_nc2(_upto(mk, 5))),
    ("narayana-pair-census", lambda mk: check_narayana(_upto(mk, 6))),
    ("census-exact-counts", lambda mk: check_census_product_law(min(2 * mk, 6), (1, 2, 3))),
    ("wigner-containment", lambda mk: check_containment(min(2 * mk, 6), (1, 2, 3))),
    ("mp-constant-reduction", lambda mk: check_mp_reduction(_upto(mk, 6), _YS)),
    ("sparse-sandwich",
     lambda mk: check_sandwich(_upto(mk, 4), (Fraction(1, 2), Fraction(1), Fraction(2)), _YS, 2)),
    ("hypergraph-roundtrip", lambda mk: check_hypergraph(_upto(mk, 4))),
    ("noiry-class-totals", lambda mk: check_noiry(_upto(mk, 4))),
    ("grid-quadrature", lambda mk: check_grid(_upto(mk, 3), 16, _upto(mk, 6))),
    ("unbounded-support-bound", lambda mk: check_unbounded(_upto(mk, 4), 16)),
    ("simulation-contracts", lambda mk: check_simulation()),
]

def run_verify(args) -> int:
    if args.max_k < 1:
        raise ConfigError(f"--max-k must be at least 1, got {args.max_k}")
    if args.max_k > MAX_VERIFY_K:
        raise ConfigError(
            f"--max-k must be at most {MAX_VERIFY_K}, the largest value that adds checks, "
            f"got {args.max_k}"
        )
    results = []
    all_ok = True
    for name, check in VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = check(args.max_k)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append({"name": name, "passed": bool(ok), "seconds": round(seconds, 3), "detail": detail})
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} {seconds:7.2f}s  {detail}")
    report = {"max_k": args.max_k, "all_passed": all_ok, "checks": results}
    out = _out_dir(args) / "verify_report.json"
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES PRESENT'} -> {out}")
    return 0 if all_ok else EXIT_CONTRACT

# ---------------------------------------------------------------- main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused by later calls in the same
    # process; parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="covmoments",
        description="Limiting spectral moments of sample covariance matrices "
        "via special symmetric partitions, with censuses and simulation.",
    )
    parser.add_argument("--out", help="output directory (default $COVMOMENTS_OUT or .)")
    sub = parser.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("classify", help="classify a partition given as JSON blocks")
    c.add_argument("blocks", help='e.g. "[[1,2,5,6],[3,4,7,8]]"')
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.set_defaults(fn=run_classify)

    c = sub.add_parser("count", help="count special symmetric partitions of {1..2k}")
    c.add_argument("--k", type=int, required=True,
                   help=f"table by (b, r+1) for {{1..2k}}, k <= {hypergraphs.MAX_SERIES_ORDER}")
    c.add_argument("--pair-only", action="store_true")
    c.set_defaults(fn=run_count)

    c = sub.add_parser("census", help="count circuits compatible with a word")
    c.add_argument("--word", required=True)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--link", choices=("S", "wigner", "both"), default="S")
    c.set_defaults(fn=run_census)

    c = sub.add_parser("moments", help="evaluate limiting moment formulas")
    c.add_argument("--k", required=True, help="single k or a range like 1..6")
    c.add_argument("--y", default="1", help="aspect ratio limit p/n")
    c.add_argument("--mp", action="store_true", help="Marchenko-Pastur moments")
    c.add_argument("--sparse", action="store_true", help="sparse family; needs --lam")
    c.add_argument("--lam", default=None)
    c.add_argument("--sandwich", action="store_true", help="append Poisson sandwich bounds")
    c.add_argument("--constant", default=None, help='constant sequence like "2=1,4=0.5"')
    c.add_argument("--profile-csv", default=None, help="variance profile sampled on the grid")
    c.add_argument("--g", action="append", default=None, help='grid function like 2=g2.csv (repeatable)')
    c.add_argument("--grid", type=int, default=None,
                   help="grid resolution for --profile-csv and --g (default 64)")
    c.add_argument("--breakdown", action="store_true",
                   help="write each word's term to moments.json; lists every word, "
                   f"so 2k <= {partitions.DEFAULT_ENUMERATION_CAP}")
    c.set_defaults(fn=run_moments)

    c = sub.add_parser("simulate", help="sample an ensemble and emit spectra")
    c.add_argument("--config", required=True, help="flat key=value or JSON config file")
    c.add_argument("--seed", type=int, default=None, help="override the config seed")
    c.add_argument("--gnuplot", action="store_true", help="emit a histogram plot script")
    c.set_defaults(fn=run_simulate)

    c = sub.add_parser("hypergraph", help="word <-> hypergraph tools and class tables")
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", default=None)
    group.add_argument("--k", type=int, default=None,
                       help=f"emit class counts for length 2k, k <= {hypergraphs.MAX_SERIES_ORDER}")
    c.set_defaults(fn=run_hypergraph)

    c = sub.add_parser("verify", help="run the cross-module identity suite")
    c.add_argument("--max-k", type=int, default=3)
    c.set_defaults(fn=run_verify)

    return parser

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except ContractViolation as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

if __name__ == "__main__":
    sys.exit(main())
