"""The four benchmark workloads.

Each workload draws its inputs from the seed when it is constructed (that is
the set-up the benchmark times), lists the operations a closed-loop client
makes one at a time, checks their outputs, and replays the same work through
the public functions of each module under a tracer.  Only public names of
covmoments are used.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from covmoments import circuits, cli, ensembles, hypergraphs, moments, partitions

DEFAULT_SEED = 1729
BENCH_DIR = Path(__file__).resolve().parent

SIZES = {
    "full": {"exact_k": 7, "sandwich_k": 5, "quad_k": 6, "grids": (64, 128, 256, 512),
             "census_length": 8, "sim_scale": None},
    "smoke": {"exact_k": 4, "sandwich_k": 3, "quad_k": 2, "grids": (64, 128, 256, 512),
              "census_length": 4, "sim_scale": {"p": 24, "n": 48, "replicates": 3}},
}
ORACLE_MAX_K = 5  # count_ss is exhaustive over Bell(2k) partitions; k = 5 takes about 2 s

Y_CHOICES = tuple(Fraction(t) for t in ("1/4", "1/3", "1/2", "2/3", "3/4", "4/3", "3/2", "2", "3"))
LAM_CHOICES = tuple(Fraction(t) for t in ("1/2", "1", "3/2", "2", "5/2", "3", "4"))


def fmt(x) -> str:
    """The CLI's CSV form of a number: 17 significant digits."""
    return format(float(x), ".17g")


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def reciprocal_constants(k: int) -> dict[int, Fraction]:
    """C_2 = 1, C_4 = 1/2, ..., C_2k = 1/k."""
    return {2 * j: Fraction(1, j) for j in range(1, k + 1)}


def constants_arg(c: dict[int, Fraction]) -> str:
    return ",".join(f"{s}={v}" for s, v in sorted(c.items()))


def nc_even_count(k: int, b: int) -> int:
    """Non-crossing partitions of {1..2k} into b even blocks (Edelman 1980)."""
    return math.comb(k, b) * math.comb(2 * k, b - 1) // k


def even_block_counts(m: int) -> dict[int, int]:
    """Partitions of {1..m} into b even blocks, by the first-block recurrence
    E(m, b) = sum_{j even} C(m-1, j-1) E(m-j, b-1)."""
    table = {(0, 0): 1}
    for size in range(1, m + 1):
        for b in range(1, size + 1):
            table[(size, b)] = sum(
                math.comb(size - 1, j - 1) * table.get((size - j, b - 1), 0)
                for j in range(2, size + 1, 2)
            )
    return {b: table[(m, b)] for b in range(1, m + 1) if table[(m, b)]}


def sandwich_bounds(k: int, y: Fraction, lam: Fraction) -> tuple[Fraction, Fraction]:
    lower_base = lam * y if y <= 1 else lam
    upper_base = lam if y <= 1 else lam * y
    lower = sum((nc_even_count(k, b) * lower_base**b for b in range(1, k + 1)), Fraction(0))
    upper = sum((n * upper_base**b for b, n in even_block_counts(2 * k).items()), Fraction(0))
    return lower, upper


def ss_table_oracle(max_k: int) -> dict[int, dict[tuple[int, int], int]]:
    """(b, r) -> count of special symmetric partitions of {1..2k}, exhaustively."""
    out = {}
    for k in range(1, min(max_k, ORACLE_MAX_K) + 1):
        table = partitions.count_ss(k, by=("blocks", "even_generating"))
        out[k] = {(b, r1 - 1): n for (b, r1), n in table.items()}
    return out


def recorded_ss_tables() -> dict[int, dict[tuple[int, int], int]]:
    data = json.loads((BENCH_DIR / "ss_tables.json").read_text())
    return {int(k): {(b, r): n for b, r, n in rows} for k, rows in data["tables"].items()}


class Workload:
    """Base class: `ops` holds (label, call) pairs; a call returns the CLI exit
    code for `cli.*` labels and the library result otherwise."""

    name = ""

    def __init__(self, seed: int, size: dict, workdir: Path, checkout: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.checkout = checkout
        self.ops: list[tuple[str, Callable[[], object]]] = []
        self.op_dirs: list[Path] = []

    def cli_op(self, argv: list[str]) -> None:
        out = self.workdir / "out" / f"{len(self.ops):02d}"
        self.ops.append((f"cli.{argv[0]}", lambda: cli.main(["--out", str(out), *argv])))
        self.op_dirs.append(out)

    def check(self, results: list, oracle) -> dict[int, str]:
        """Map op index -> first failure found in its output."""
        raise NotImplementedError

    def replay(self, tracer) -> dict:
        """Redo the ops' work through each module's public functions; return counts."""
        raise NotImplementedError

    def replay_check(self, counts: dict, cli_dirs: list[Path]) -> list[str]:
        """Failures found by comparing the replay with the CLI pass's outputs."""
        return []

    def layer_metrics(self, selfs: dict[str, float], counts: dict) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


def _fail(failures: dict[int, str], index: int, message: str) -> None:
    failures.setdefault(index, message)


class ExactK7(Workload):
    """Exact Fraction moments up to k = 7, sandwich bounds and class tables."""

    name = "exact-k7"

    def __init__(self, seed, size, workdir, checkout):
        super().__init__(seed, size, workdir, checkout)
        if seed == DEFAULT_SEED:
            self.y, self.lam, self.y_const = Fraction(1, 2), Fraction(3), Fraction(2)
        else:
            rng = random.Random(seed)
            self.y, self.lam, self.y_const = (
                rng.choice(Y_CHOICES), rng.choice(LAM_CHOICES), rng.choice(Y_CHOICES))
        self.k = size["exact_k"]
        self.sandwich_k = size["sandwich_k"]
        self.constants = reciprocal_constants(self.k)
        sparse = ["moments", "--sparse", "--lam", str(self.lam), "--y", str(self.y)]
        self.cli_op([*sparse, "--k", f"1..{self.k}"])
        self.cli_op(["moments", "--constant", constants_arg(self.constants),
                     "--y", str(self.y_const), "--k", f"1..{self.k}"])
        self.cli_op([*sparse, "--k", f"1..{self.sandwich_k}", "--sandwich"])
        self.cli_op(["hypergraph", "--k", str(self.k)])

    def sparse_value(self, table: dict[tuple[int, int], int]) -> Fraction:
        return sum((n * self.y**r * self.lam**b for (b, r), n in table.items()), Fraction(0))

    def check(self, results, oracle):
        failures: dict[int, str] = {}
        tables = {**recorded_ss_tables(), **oracle}
        sparse_dir, const_dir, sandwich_dir, hyper_dir = self.op_dirs

        rows = read_csv(sparse_dir / "moments.csv")
        if [r["k"] for r in rows] != [str(k) for k in range(1, self.k + 1)]:
            _fail(failures, 0, f"sparse rows {[r['k'] for r in rows]}")
        for r in rows:
            k, expected = int(r["k"]), fmt(self.sparse_value(tables[int(r["k"])]))
            if r["value"] != expected:
                _fail(failures, 0, f"sparse k={k}: {r['value']} != {expected}")

        rows = read_csv(const_dir / "moments.csv")
        if len(rows) != self.k:
            _fail(failures, 1, f"constant has {len(rows)} rows")
        for r in rows:
            k = int(r["k"])
            classes = hypergraphs.count_noiry_classes(k)
            expected = Fraction(0)
            for key, n in classes.items():
                term = n * self.y_const ** (key.a - key.l)
                for s in key.sizes:
                    term *= self.constants[s]
                expected += term
            if r["value"] != fmt(expected):
                _fail(failures, 1, f"constant k={k}: {r['value']} != class sum {fmt(expected)}")
        mp_constants = {s: Fraction(int(s == 2)) for s in self.constants}
        for k in range(1, self.k + 1):
            if moments.moment_constant(k, self.y_const, mp_constants).value != moments.mp_moment(k, self.y_const):
                _fail(failures, 1, f"C_2 = 1 reduction differs from mp_moment at k={k}")

        rows = read_csv(sandwich_dir / "moments.csv")
        if len(rows) != self.sandwich_k:
            _fail(failures, 2, f"sandwich has {len(rows)} rows")
        for r in rows:
            k = int(r["k"])
            lower, upper = sandwich_bounds(k, self.y, self.lam)
            if r["value"] != fmt(self.sparse_value(tables[k])):
                _fail(failures, 2, f"sandwich value k={k}")
            if (r["lower"], r["upper"]) != (fmt(lower), fmt(upper)):
                _fail(failures, 2, f"bounds k={k}: ({r['lower']}, {r['upper']}) != ({fmt(lower)}, {fmt(upper)})")
            lo, v, hi = float(r["lower"]), float(r["value"]), float(r["upper"])
            if not (lo <= v <= hi) or (k >= 2 and not lo < v < hi):
                _fail(failures, 2, f"k={k}: {v} not inside ({lo}, {hi})")

        rows = read_csv(hyper_dir / "counts.csv")
        by_br: Counter = Counter()
        for r in rows:
            a, l = int(r["a"]), int(r["l"])
            by_br[(a, a - l)] += int(r["count"])
        if dict(by_br) != tables[self.k]:
            _fail(failures, 3, f"class table for k={self.k} disagrees with the (b, r) table")
        return failures

    def replay(self, tracer):
        counts = {"words": 0, "exact_terms": 0, "sandwich_partitions": 0}
        sizes = {}
        with tracer.span("op.moments-sparse"):
            for k in range(1, self.k + 1):
                with tracer.span("hypergraphs.enumerate_ss_words"):
                    words = hypergraphs.enumerate_ss_words(k)
                with tracer.span("moments.word_structure"):
                    for w in words:
                        moments.word_structure(w)
                sizes[k] = len(words)
                counts["words"] += len(words)
            for k in range(1, self.k + 1):
                with tracer.span("moments.moment_sparse"):
                    moments.moment_sparse(k, self.y, self.lam)
                counts["exact_terms"] += sizes[k]
        with tracer.span("op.moments-constant"):
            for k in range(1, self.k + 1):
                with tracer.span("moments.moment_constant"):
                    moments.moment_constant(k, self.y_const, self.constants)
                counts["exact_terms"] += sizes[k]
        with tracer.span("op.moments-sandwich"):
            for k in range(1, self.sandwich_k + 1):
                with tracer.span("moments.moment_sparse"):
                    moments.moment_sparse(k, self.y, self.lam)
                counts["exact_terms"] += sizes[k]
                with tracer.span("moments.poisson_sandwich"):
                    moments.poisson_sandwich(k, self.y, self.lam)
                counts["sandwich_partitions"] += partitions.bell(2 * k)
        with tracer.span("op.hypergraph"):
            with tracer.span("hypergraphs.count_noiry_classes"):
                hypergraphs.count_noiry_classes(self.k)
        return counts

    def layer_metrics(self, selfs, counts):
        return {
            "hypergraphs.enumerate_ss_words.s": (selfs["hypergraphs.enumerate_ss_words"], "s"),
            "hypergraphs.enumerate_ss_words.words": (counts["words"], "count"),
            "hypergraphs.count_noiry_classes.s": (selfs["hypergraphs.count_noiry_classes"], "s"),
            "moments.word_structure.s": (selfs["moments.word_structure"], "s"),
            "moments.moment_sparse.s": (selfs["moments.moment_sparse"], "s"),
            "moments.moment_constant.s": (selfs["moments.moment_constant"], "s"),
            "moments.exact_terms": (counts["exact_terms"], "count"),
            "moments.poisson_sandwich.s": (selfs["moments.poisson_sandwich"], "s"),
            "moments.poisson_sandwich.partitions": (counts["sandwich_partitions"], "count"),
        }


class QuadratureSweep(Workload):
    """Grid refinement of a variance-profile moment, float quadrature."""

    name = "quadrature-sweep"

    def __init__(self, seed, size, workdir, checkout):
        super().__init__(seed, size, workdir, checkout)
        if seed == DEFAULT_SEED:
            self.alpha, self.beta = 1.0, 0.0
        else:
            rng = random.Random(seed)
            self.alpha, self.beta = rng.uniform(0.75, 1.25), rng.uniform(0.0, 0.25)
        self.k = size["quad_k"]
        self.grids = size["grids"]
        self.y = Fraction(1, 2)
        self.constants = reciprocal_constants(self.k)
        self.profiles = {}
        for grid in self.grids:
            path = workdir / f"sigma_{grid}.csv"
            np.savetxt(path, self.sigma(grid), delimiter=",", fmt="%.17g")
            self.profiles[grid] = path
            self.cli_op(["moments", "--profile-csv", str(path),
                         "--constant", constants_arg(self.constants),
                         "--y", str(self.y), "--k", f"1..{self.k}", "--grid", str(grid)])

    def sigma(self, grid: int) -> np.ndarray:
        """alpha (x+u)^2 / 2 + beta at the grid midpoints; alpha = 1, beta = 0 is
        the fig1 quadratic profile."""
        xs = (np.arange(grid) + 0.5) / grid
        return self.alpha * (xs[:, None] + xs[None, :]) ** 2 / 2 + self.beta

    def check(self, results, oracle):
        failures: dict[int, str] = {}
        values = []
        for i, grid in enumerate(self.grids):
            rows = read_csv(self.op_dirs[i] / "moments.csv")
            if [r["k"] for r in rows] != [str(k) for k in range(1, self.k + 1)]:
                _fail(failures, i, f"grid {grid}: rows {[r['k'] for r in rows]}")
                return failures
            vals = [float(r["value"]) for r in rows]
            if not all(math.isfinite(v) and v > 0 for v in vals):
                _fail(failures, i, f"grid {grid}: values {vals}")
            values.append(vals)
        last = len(self.grids) - 1
        for k in range(self.k):
            diffs = [abs(values[i + 1][k] - values[i][k]) for i in range(last)]
            if any(later >= earlier for earlier, later in zip(diffs, diffs[1:])):
                _fail(failures, last, f"k={k + 1}: grid-doubling changes {diffs} do not shrink")
        grid = self.grids[0]
        ones = np.ones((grid, grid))
        for k in range(1, self.k + 1):
            quad = moments.moment_profile(k, self.y, ones, self.constants, grid=grid).value
            exact = float(moments.moment_constant(k, self.y, self.constants).value)
            if abs(quad - exact) > 1e-10:
                _fail(failures, 0, f"constant profile k={k}: {quad!r} vs moment_constant {exact!r}")
        return failures

    def replay(self, tracer):
        counts = {"cells": 0}
        for grid in self.grids:
            with tracer.span(f"op.moments-profile-g{grid}"):
                with tracer.span("io.loadtxt"):
                    sigma = np.loadtxt(self.profiles[grid], delimiter=",", dtype=float, ndmin=2)
                for k in range(1, self.k + 1):
                    with tracer.span("hypergraphs.enumerate_ss_words"):
                        words = hypergraphs.enumerate_ss_words(k)
                    with tracer.span("moments.word_structure"):
                        for w in words:
                            moments.word_structure(w)
                    with tracer.span(f"moments.moment_profile.g{grid}"):
                        moments.moment_profile(k, self.y, sigma, self.constants, grid=grid)
                    letters = sum(w.distinct_letters for w in words)
                    counts["cells"] += letters * (grid**2 + (grid // 2) ** 2)
        return counts

    def layer_metrics(self, selfs, counts):
        per_grid = {g: selfs[f"moments.moment_profile.g{g}"] for g in self.grids}
        total = sum(per_grid.values())
        out = {"moments.moment_profile.s": (total, "s")}
        for g, s in per_grid.items():
            out[f"moments.moment_profile.g{g}.s"] = (s, "s")
        out["moments.moment_grid.cells"] = (counts["cells"], "count")
        out["moments.moment_grid.cells_per_s"] = (counts["cells"] / total, "1/s")
        return out


class SimulateConfigs(Workload):
    """`simulate --config` on the shipped configs: sampling, BLAS, eigensolver."""

    name = "simulate-configs"
    CONFIGS = ("fig1", "fig2", "mp")

    def __init__(self, seed, size, workdir, checkout):
        super().__init__(seed, size, workdir, checkout)
        self.configs = {}
        for name in self.CONFIGS:
            path = checkout / "configs" / f"{name}.cfg"
            data = cli.load_config(str(path))
            if size["sim_scale"]:
                data.update(size["sim_scale"])
                path = workdir / f"{name}.json"
                path.write_text(json.dumps(data))
            self.configs[name] = (path, data)
            self.cli_op(["simulate", "--config", str(path), "--seed", str(seed)])

    def ensemble(self, name):
        _, data = self.configs[name]
        return cli.config_to_ensemble(data, seed_override=self.seed)

    def check(self, results, oracle):
        failures: dict[int, str] = {}
        for i, name in enumerate(self.CONFIGS):
            cfg, extras = self.ensemble(name)
            rows = read_csv(self.op_dirs[i] / "moments.csv")
            hist = read_csv(self.op_dirs[i] / "hist.csv")
            total = sum(int(r["count"]) for r in hist)
            if total != cfg.p * cfg.replicates:
                _fail(failures, i, f"{name}: histogram holds {total}, expected {cfg.p * cfg.replicates}")
            if [r["k"] for r in rows] != [str(k) for k in range(1, extras["K"] + 1)]:
                _fail(failures, i, f"{name}: moment rows {[r['k'] for r in rows]}")
                continue
            mean = [float(r["mean"]) for r in rows]
            err = [float(r["stderr"]) for r in rows]
            if not all(math.isfinite(m) and m > 0 for m in mean) or not all(e >= 0 for e in err):
                _fail(failures, i, f"{name}: moments {mean} stderr {err}")
                continue
            expected_first = float(ensembles.entry_second_moment(cfg).sum()) / cfg.p
            if abs(mean[0] - expected_first) > 5 * err[0]:
                _fail(failures, i, f"{name}: mean trace {mean[0]!r} is over 5 stderr from {expected_first!r}")
            if name == "mp" and not self.size["sim_scale"]:  # too few samples at smoke size
                y = Fraction(cfg.p, cfg.n)
                for k, m in enumerate(mean, start=1):
                    target = float(moments.mp_moment(k, y))
                    if abs(m - target) / target >= (0.05 if k <= 3 else 0.10):
                        _fail(failures, i, f"mp: k={k} mean {m!r} vs Marchenko-Pastur {target!r}")
        return failures

    def replay(self, tracer):
        counts = {"gram_flop": 0, "trace_flop": 0, "means": {}}
        for name in self.CONFIGS:
            with tracer.span(f"op.simulate-{name}"):
                with tracer.span("io.load_config"):
                    cfg, extras = self.ensemble(name)
                K = extras["K"]
                rows, eigs = [], []
                for r in range(cfg.replicates):
                    with tracer.span("ensembles.sample_matrix"):
                        X = ensembles.sample_matrix(cfg, r)
                    with tracer.span("ensembles.gram"):
                        S = X @ X.T
                    with tracer.span("ensembles.eigenvalues"):
                        eigs.append(ensembles.eigenvalues(S))
                    with tracer.span("ensembles.empirical_moments"):
                        rows.append(ensembles.empirical_moments(S, K))
                    with tracer.span("ensembles.entry_second_moment"):
                        ensembles.entry_second_moment(cfg)
                    counts["gram_flop"] += 2 * cfg.p**2 * cfg.n
                    counts["trace_flop"] += K * 2 * cfg.p**3
                with tracer.span("ensembles.histogram"):
                    np.histogram(np.concatenate(eigs), bins=extras["bins"])
                counts["means"][name] = np.array(rows).mean(axis=0).tolist()
        return counts

    def replay_check(self, counts, cli_dirs):
        """The replay must reproduce run_experiment's moment_mean bit for bit;
        the CLI writes it with 17 significant digits, which round-trips."""
        failures = []
        for name, out in zip(self.CONFIGS, cli_dirs):
            written = [float(r["mean"]) for r in read_csv(out / "moments.csv")]
            if written != counts["means"][name]:
                failures.append(f"{name}: replay mean {counts['means'][name]} != run_experiment {written}")
        return failures

    def layer_metrics(self, selfs, counts):
        return {
            "ensembles.sample_matrix.s": (selfs["ensembles.sample_matrix"], "s"),
            "ensembles.gram.s": (selfs["ensembles.gram"], "s"),
            "ensembles.gram.gflop": (counts["gram_flop"] / 1e9, "GFLOP"),
            "ensembles.eigenvalues.s": (selfs["ensembles.eigenvalues"], "s"),
            "ensembles.empirical_moments.s": (selfs["ensembles.empirical_moments"], "s"),
            "ensembles.empirical_moments.gflop": (counts["trace_flop"] / 1e9, "GFLOP"),
            "ensembles.entry_second_moment.s": (selfs["ensembles.entry_second_moment"], "s"),
        }


class CensusLen8(Workload):
    """Circuit censuses of every canonical word of length 8 under both links."""

    name = "census-len8"
    P, N_S, N_W = 2, 3, 3

    def __init__(self, seed, size, workdir, checkout):
        super().__init__(seed, size, workdir, checkout)
        self.length = size["census_length"]
        self.rng = random.Random(seed)
        self.words: list = []
        self.ops.append(("lib.enumerate_partitions", self.enumerate_words))

    def enumerate_words(self):
        """The first op: list the words, then queue one census op per word and link."""
        self.words = [p.to_word() for p in partitions.enumerate_partitions(self.length)]
        self.rng.shuffle(self.words)
        for w in self.words:
            self.ops.append(("lib.census_s", lambda w=w: circuits.census_s(w, self.P, self.N_S)))
            self.ops.append(("lib.census_w", lambda w=w: circuits.census_w(w, self.N_W)))
        return len(self.words)

    def check(self, results, oracle):
        failures: dict[int, str] = {}
        ss = set(hypergraphs.enumerate_ss_words(self.length // 2))
        found = set()
        for i in range(1, len(results), 2):
            s, w = results[i], results[i + 1]
            if s is None or w is None:
                continue  # the op raised and is already counted as failed
            word = self.words[(i - 1) // 2]
            if s.predicted_count is not None:
                found.add(word)
                if s.exact_count != s.predicted_count:
                    _fail(failures, i, f"{word.text}: S count {s.exact_count} != {s.predicted_count}")
            if w.predicted_count is not None and w.exact_count != w.predicted_count:
                _fail(failures, i + 1, f"{word.text}: Wigner count {w.exact_count} != {w.predicted_count}")
            if s.exact_count > w.exact_count:
                _fail(failures, i + 1, f"{word.text}: S count {s.exact_count} > Wigner {w.exact_count}")
        if found != ss or results[0] != partitions.bell(self.length):
            _fail(failures, 0, f"{len(found)} words predicted special symmetric, enumerator has {len(ss)}")
        return failures

    def assignments(self, word, p: int, n: int) -> int:
        """Candidate generating-vertex assignments a census iterates over."""
        slots = [0] + [i for i in partitions.word_statistics(word).first_positions if i < self.length]
        return math.prod(p if s % 2 == 0 else n for s in slots)

    def replay(self, tracer):
        s_hits = w_hits = 0
        with tracer.span("op.census"):
            with tracer.span("partitions.enumerate_partitions"):
                words = [p.to_word() for p in partitions.enumerate_partitions(self.length)]
            random.Random(self.seed).shuffle(words)
            for w in words:
                with tracer.span("circuits.census_s"):
                    s_hits += circuits.census_s(w, self.P, self.N_S).exact_count
                with tracer.span("circuits.census_w"):
                    w_hits += circuits.census_w(w, self.N_W).exact_count
        s_tries = sum(self.assignments(w, self.P, self.N_S) for w in words)
        w_tries = sum(self.assignments(w, self.N_W, self.N_W) for w in words)
        return {"partitions": len(words), "s_hits": s_hits, "w_hits": w_hits,
                "s_tries": s_tries, "w_tries": w_tries}

    def layer_metrics(self, selfs, counts):
        return {
            "partitions.enumerate_partitions.s": (selfs["partitions.enumerate_partitions"], "s"),
            "partitions.enumerate_partitions.partitions": (counts["partitions"], "count"),
            "circuits.census_s.s": (selfs["circuits.census_s"], "s"),
            "circuits.census_s.assignments": (counts["s_tries"], "count"),
            "circuits.census_s.hits": (counts["s_hits"], "count"),
            "circuits.census_s.hit_ratio": (counts["s_hits"] / counts["s_tries"], "ratio"),
            "circuits.census_w.s": (selfs["circuits.census_w"], "s"),
            "circuits.census_w.assignments": (counts["w_tries"], "count"),
            "circuits.census_w.hits": (counts["w_hits"], "count"),
            "circuits.census_w.hit_ratio": (counts["w_hits"] / counts["w_tries"], "ratio"),
        }


WORKLOADS = {w.name: w for w in (ExactK7, QuadratureSweep, SimulateConfigs, CensusLen8)}
