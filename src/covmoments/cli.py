"""Command-line entry point: classification, counting, censuses, moment
evaluation, simulation and hypergraph tables, and the verb that runs the
cross-module identity suite of `covmoments.checks` and reports it.

All floating-point output is printed with 17 significant digits so that
regression runs are bit-stable; every verb is deterministic given its
configuration, including seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import circuits, ensembles, hypergraphs, moments, partitions
from .ensembles import ContractViolation, EnsembleConfig
from .partitions import InputError, Partition, SizeLimitError, Word

EXIT_CONFIG = 2
EXIT_SIZE_LIMIT = 3
EXIT_CONTRACT = 4

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
    # formatted in full before the file is opened, so a failure leaves no part of it
    path.write_text("".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows]))

def _parse_k_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        ks = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        ks = range(0)
    if not ks or ks[0] < 1:
        raise InputError(f"bad --k value {text!r}; expected k >= 1 or a range like 1..6")
    return ks

def _parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {name} value {text!r}; expected a rational like 3/4") from exc

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
            raise InputError(f"bad {flag} entry {item!r}; expected an integer order before '='")
        if order < 2 or order % 2:
            raise InputError(f"bad {flag} order {order}; only positive even orders are read")
        if order in entries:
            raise InputError(f"{flag} order {order} is given twice")
        if max_order is not None and order > max_order:
            raise InputError(f"{flag} order {order} is above 2 max(k) = {max_order}; no sum reads it")
        entries[order] = (key, value)
    return {order: parse(value, f"{flag} {key}") for order, (key, value) in entries.items()}

def _parse_constants(text: str, max_order: int) -> dict[int, Fraction]:
    return _parse_orders(text.split(","), "--constant", _parse_fraction, max_order)

# ---------------------------------------------------------------- classify

def run_classify(args) -> int:
    try:
        blocks = json.loads(args.blocks)
        partition = Partition.from_blocks(blocks)
    except (TypeError, ValueError) as exc:  # malformed JSON or blocks
        raise InputError(f"bad --blocks value: {exc}") from exc
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
    try:
        with warnings.catch_warnings():
            # numpy warns of a file with no data rows and returns an empty array
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except UserWarning:
        raise InputError(f"grid CSV {path} holds no samples") from None
    except ValueError as exc:  # a malformed or non-UTF-8 file; OSError passes
        raise InputError(f"bad grid CSV {path}: {exc}") from exc

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
        raise InputError("choose a source: --mp, --sparse, --constant, --profile-csv or --g")
    source = _READERS[given[0]][0]
    for dest in given:
        if source not in _READERS[dest]:
            raise InputError(f"--{dest.replace('_', '-')} does not apply to the {source} source")
    return source

def _finite(x, what: str) -> float:
    # an exact comparison, so a Fraction that passes converts without overflow
    if not abs(x) <= sys.float_info.max:
        raise InputError(f"{what} is not a finite float; no artifact is written")
    return float(x)

def run_moments(args) -> int:
    source = _moments_source(args)
    ks = _parse_k_range(args.k)
    y = _parse_fraction(args.y, "--y")
    # the sources read y's sign; moments.json prints y as a float
    _finite(y, "--y")

    # ks is an ascending range, so ks[-1] is its largest k; each series
    # source reads ks only up to the first k above the series limit
    if source == "mp":
        # made one at a time, so the first value beyond the float range ends the run
        reports = (moments.MomentReport(k, moments.mp_moment(k, y), None) for k in ks)
    elif source == "sparse":
        if args.lam is None:
            raise InputError("--sparse requires --lam")
        lam = _parse_fraction(args.lam, "--lam")
        reports = moments.sparse_moments(ks, y, lam, breakdown=args.breakdown).values()
    elif source == "constant":
        constants = _parse_constants(args.constant, 2 * ks[-1])
        reports = moments.constant_moments(ks, y, constants, breakdown=args.breakdown).values()
    elif source == "profile":
        if not args.constant:
            raise InputError("--profile-csv requires --constant for the base sequence")
        constants = _parse_constants(args.constant, 2 * ks[-1])
        reports = moments.profile_moments(
            ks, y, _load_grid_csv(args.profile_csv), constants, grid=args.grid, breakdown=args.breakdown
        ).values()
    else:
        g = _parse_orders(args.g, "--g", lambda path, name: _load_grid_csv(path), 2 * ks[-1])
        reports = moments.grid_moments(ks, y, g, grid=args.grid, breakdown=args.breakdown).values()

    # every number is a float before any artifact is opened, so a value
    # beyond the float range fails without leaving a partial file
    rows, entries = [], {}
    for report in reports:
        k = report.k
        what = f"the {source} moment at k={k}"
        # only the sparse source, which sets lam, reads --sandwich
        bounds = moments.poisson_sandwich(k, y, lam) if args.sandwich else ()
        value = _finite(report.value, what)
        rows.append([k, value, *(_finite(b, f"{what}, sandwich bound") for b in bounds)])
        entries[str(k)] = entry = {"value": fmt(value)}
        if report.breakdown is not None:
            entry["breakdown"] = {w: fmt(_finite(v, f"{what}, word {w}")) for w, v in report.breakdown.items()}
    header = ["k", "value"] + (["lower", "upper"] if args.sandwich else [])
    out = _out_dir(args) / "moments.csv"
    _write_csv(out, header, rows)

    payload = {"source": source, "y": fmt(y), "moments": entries}
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
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"config {path} is not UTF-8 text: {exc}") from exc
    if path.endswith(".json") or raw.lstrip().startswith("{"):
        def unique(pairs: list) -> dict:
            obj = {}
            for key, value in pairs:
                if key in obj:
                    raise InputError(f"{path}: config key {key!r} is repeated")
                obj[key] = value
            return obj

        try:
            data = json.loads(raw, object_pairs_hook=unique)
        except InputError:
            raise
        except ValueError as exc:  # malformed JSON, or an integer of too many digits
            raise InputError(f"bad JSON config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("config must be a JSON object")
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
            raise InputError(f"{path}:{lineno}: expected key = value, got {line!r}")
        # sections do not scope keys, so a key in two sections is a repeat too
        key = key.strip()
        if key in first_line:
            raise InputError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = _coerce_scalar(value)
    return out

def config_to_ensemble(data: dict, seed_override: int | None = None) -> tuple[EnsembleConfig, dict]:
    """The ensemble and the run's {"K", "bins"} from a loaded config.  Here
    the file's shape is checked: its keys are EnsembleConfig's fields, with
    c_seq given as c2 and c4, plus K and bins; and no value is null.
    EnsembleConfig gives the defaults of the keys left out and checks every
    other value, and run_experiment checks K and bins."""
    passed = ensembles._FIELDS.keys() - {"c_seq"}
    unknown = data.keys() - passed - {"c2", "c4", "K", "bins"}
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    for field in dataclasses.fields(EnsembleConfig):
        if field.default is dataclasses.MISSING and field.name not in data:
            raise InputError(f"config is missing {field.name!r}")
    for key, value in data.items():
        if value is None:  # a JSON null; a field's None means the key is left out
            raise InputError(f"config key {key!r} must be given a value, not null")
    fields = {key: data[key] for key in passed & data.keys()}
    c_seq = {order: data[f"c{order}"] for order in (2, 4) if f"c{order}" in data}
    if c_seq:
        fields["c_seq"] = c_seq
    if seed_override is not None:
        fields["seed"] = seed_override
    return EnsembleConfig(**fields), {"K": data.get("K", 4), "bins": data.get("bins", "fd")}

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
    if args.word is not None:
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

def run_verify(args) -> int:
    # the suite is imported here, so that no other verb pays for it
    from . import checks

    results = []
    all_ok = True
    for name, check in checks.CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append({"name": name, "passed": bool(ok), "seconds": round(seconds, 3), "detail": detail})
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} {seconds:7.2f}s  {detail}")
    report = {"all_passed": all_ok, "checks": results}
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
                   help="grid resolution for --profile-csv and --g (default: the side of the arrays read)")
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
    c.set_defaults(fn=run_verify)

    return parser

def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # any other exception is a fault of the program, not of its input: it
    # propagates, and the interpreter exits 1 with its traceback
    try:
        return args.fn(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except ContractViolation as exc:
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return EXIT_CONTRACT

if __name__ == "__main__":
    sys.exit(main())
