"""One fresh interpreter of the benchmark: set up a workload, then run it.

Modes:
  setup   import covmoments and draw the inputs, nothing else;
  oracle  compute the exhaustive (b, r) tables the exact-k7 checks use;
  cli     run the workload's ops untraced, time them, check the outputs;
  replay  redo the same work through each module's public functions under
          a tracer, and write the spans.

The result is written as JSON to <workdir>/result.json.  `t_ready` is the
CLOCK_MONOTONIC time at which set-up finished; the parent subtracts its own
spawn time from it.  `ready_probe_s` is a probe's duration right after set-up,
which the parent uses with its own probe before the spawn to normalize the
set-up time (see ProbedClock).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent


def blas_facts() -> dict:
    import ctypes
    import glob
    import os

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}


PROBE_ROUNDS = 8_000
PROBE_MATRIX = np.random.default_rng(0).standard_normal((128, 128))
PROBE_REPS = 3  # a probe is the median of this many runs of probe_work, so one interruption is ignored
PROBE_EVERY_S = 0.2  # wall seconds between probes, also inside a long op
# The probe's duration at reference speed, without and with its BLAS part:
# the unit of the normalized times.
PROBE_NOMINAL_S = {False: 0.003, True: 0.005}
# Whether a workload's probe has a BLAS part.  Python speed and BLAS speed
# swing apart, so each workload's probe leans the way its work does.
PROBE_BLAS = {"exact-k7": False, "quadrature-sweep": True, "simulate-configs": True, "census-len8": False}


def probe_work(blas: bool) -> int:
    """A fixed amount of work like the program's own: pure Python (integer
    and Fraction arithmetic, tuples and a dict), then with `blas` LAPACK and
    BLAS calls (a symmetric eigensolve and a Gram product)."""
    seen: dict = {}
    acc = Fraction(0)
    for i in range(1, PROBE_ROUNDS):
        key = (i % 97, i % 89)
        seen[key] = seen.get(key, 0) + i
        if i % 32 == 0:
            acc += Fraction(1, i)
    if blas:
        for _ in range(2):
            np.linalg.eigvalsh(PROBE_MATRIX @ PROBE_MATRIX.T)
    return len(seen) + acc.numerator % 7


def probe(blas: bool) -> tuple[float, float]:
    """Median wall and CPU seconds of probe_work: how fast this CPU runs now."""
    walls, cpus = [], []
    for _ in range(PROBE_REPS):
        w0, c0 = time.perf_counter(), time.process_time()
        probe_work(blas)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return sorted(walls)[PROBE_REPS // 2], sorted(cpus)[PROBE_REPS // 2]


class ProbedClock:
    """Op time, raw and normalized by the CPU's speed at the time.

    The CPU throughput of a shared host swings by up to 1.7x within seconds,
    so raw times of the same work spread too far to compare two commits.  A
    SIGALRM every PROBE_EVERY_S runs a probe (fixed work) in the main thread,
    inside an op too: Python runs the handler between bytecodes, or when a C
    call returns.  Op time between two probes is divided by the mean of their
    durations and scaled by PROBE_NOMINAL_S, which gives the seconds the ops
    would take at reference speed.  Probe time counts in no op's time.
    """

    def __init__(self, blas: bool) -> None:
        self.blas = blas
        self.wall = self.cpu = self.wall_norm = self.cpu_norm = 0.0
        self.seg_wall = self.seg_cpu = 0.0  # op time since the last probe
        self.probes: list[tuple[float, float]] = []
        self.in_op = self.busy = False
        self.op_probe_wall = 0.0  # probe time inside the current op
        self.mark = (0.0, 0.0)  # when op time last started to count

    def _probe(self) -> None:
        now = probe(self.blas)
        if self.probes:
            last, nominal = self.probes[-1], PROBE_NOMINAL_S[self.blas]
            self.wall_norm += self.seg_wall * 2 * nominal / (last[0] + now[0])
            self.cpu_norm += self.seg_cpu * 2 * nominal / (last[1] + now[1])
        self.wall, self.cpu = self.wall + self.seg_wall, self.cpu + self.seg_cpu
        self.seg_wall = self.seg_cpu = 0.0
        self.probes.append(now)

    def _pause(self) -> None:
        w, c = time.perf_counter(), time.process_time()
        self.seg_wall += w - self.mark[0]
        self.seg_cpu += c - self.mark[1]

    def _on_alarm(self, signum, frame) -> None:
        if self.busy:
            return  # a probe is running already
        self.busy = True
        if self.in_op:
            self._pause()
        w0 = time.perf_counter()
        self._probe()
        if self.in_op:
            self.op_probe_wall += time.perf_counter() - w0
            self.mark = (time.perf_counter(), time.process_time())
        self.busy = False

    def __enter__(self) -> "ProbedClock":
        probe_work(self.blas)  # warm-up
        self._probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def time_op(self, call):
        """Run one op and return its value; `op_seconds` is its wall time without probes."""
        self.busy = True  # no probe while the op's start is marked
        self.op_probe_wall = 0.0
        start = time.perf_counter()
        self.mark = (start, time.process_time())
        self.in_op, self.busy = True, False
        try:
            return call()
        finally:
            self.busy = True  # nor while its end is
            self.in_op = False
            self._pause()
            self.op_seconds = time.perf_counter() - start - self.op_probe_wall
            self.busy = False


def run_ops(wl) -> dict:
    """Run the ops one at a time under a ProbedClock."""
    results, failed, by_label = [], {}, {}
    with ProbedClock(PROBE_BLAS[wl.name]) as clock:
        i = 0
        while i < len(wl.ops):  # census-len8 queues its census ops from the first op
            label, call = wl.ops[i]
            try:
                value = clock.time_op(call)
                error = f"exit code {value}" if label.startswith("cli.") and value != 0 else None
            except Exception as exc:  # an op that raises is a failed op, not a benchmark crash
                value, error = None, f"{type(exc).__name__}: {exc}"
            by_label[label] = by_label.get(label, 0.0) + clock.op_seconds
            results.append(None if error else value)
            if error:
                failed[i] = error
            i += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": clock.wall, "cpu_s": clock.cpu, "wall_norm_s": clock.wall_norm,
            "cpu_norm_s": clock.cpu_norm, "peak_rss_mb": peak, "probe_s": [p[0] for p in clock.probes],
            "results": results, "failed": failed, "by_label": by_label}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "oracle", "cli", "replay"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--oracle", type=Path, default=None, help="oracle result for cli mode")
    parser.add_argument("--cli-workdir", type=Path, default=None, help="cli pass to compare a replay with")
    args = parser.parse_args(argv)

    import covmoments
    import workloads

    source = Path(covmoments.__file__).resolve()
    if CHECKOUT / "src" not in source.parents:
        print(f"covmoments was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    size = workloads.SIZES[args.size]
    wl = workloads.WORKLOADS[args.workload](args.seed, size, args.workdir, CHECKOUT)
    out = {"t_ready": time.monotonic()}
    probe_work(PROBE_BLAS[args.workload])  # warm-up
    out["ready_probe_s"] = probe(PROBE_BLAS[args.workload])[0]

    if args.mode == "setup":
        out["facts"] = blas_facts()
    elif args.mode == "oracle":
        tables = workloads.ss_table_oracle(size["exact_k"])
        out["tables"] = {k: [[b, r, n] for (b, r), n in sorted(t.items())] for k, t in tables.items()}
    elif args.mode == "cli":
        oracle = {}
        if args.oracle:
            data = json.loads(args.oracle.read_text())["tables"]
            oracle = {int(k): {(b, r): n for b, r, n in rows} for k, rows in data.items()}
        run = run_ops(wl)
        try:
            problems = wl.check(run["results"], oracle)
        except Exception as exc:  # unreadable output fails every op of the run
            problems = {i: f"check raised {type(exc).__name__}: {exc}" for i in range(len(wl.ops))}
        failed = {**problems, **run.pop("failed")}
        run.pop("results")
        out.update(run, ops=len(wl.ops), failed=[[i, wl.ops[i][0], m] for i, m in sorted(failed.items())])
    else:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-replay")
        with tracer.span("workload") as root:
            counts = wl.replay(tracer)
        tracer.write(args.workdir / "spans.jsonl")
        selfs = tracing.self_times(tracer.spans)
        glue = sum(s for name, s in selfs.items() if name == "workload" or name.startswith("op."))
        problems = []
        if args.cli_workdir:
            problems = wl.replay_check(counts, sorted((args.cli_workdir / "out").glob("*")))
        out.update(wall_s=root["end"] - root["start"], unaccounted_s=glue, self_times=selfs,
                   layers=wl.layer_metrics(selfs, counts),
                   failed=[[-1, "replay", m] for m in problems])
    (args.workdir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
