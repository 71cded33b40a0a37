"""covmoments benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout.  Every measured iteration starts a
fresh interpreter (perfbench/worker.py), because the program's lru_caches are
filled again by each CLI invocation.  One client makes one call at a time;
BLAS runs one thread.

--trace 0 repeats the workload until --seconds have been spent and reports
the end-to-end metrics as medians over iterations, with times at reference
speed (worker.ProbedClock).
--trace 1 runs every workload once untraced and once as a traced replay
through each module's public functions, and reports per-layer metrics.
--smoke uses tiny sizes.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every worker: with more, the threads' scheduling
# on a shared host spreads simulate-configs' times by a third, and their
# spinning slows the probes.  Set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import worker  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
RUN_ROOT = CHECKOUT / ".perfbench_run"
WORKLOADS = ("exact-k7", "quadrature-sweep", "simulate-configs", "census-len8")
SETUP_REPS = 5  # at least this many set-up-only interpreters per run, besides each iteration's own set-up
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(CHECKOUT / "src")}


def cache_sizes() -> dict:
    """L2 and L3 sizes of CPU 0, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def spawn(mode: str, workload: str, seed: int, size: str, workdir: Path, *extra: str) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--mode", mode, "--workdir", str(workdir), *extra]
    blas = worker.PROBE_BLAS[workload]
    before = worker.probe(blas)[0]
    with open(workdir / "worker.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker for {workload} timed out; see {workdir / 'worker.log'}")
    if code != 0:
        raise BenchError(f"{mode} worker for {workload} exited {code}; see {workdir / 'worker.log'}")
    result = json.loads((workdir / "result.json").read_text())
    result["setup_raw_s"] = result["t_ready"] - start
    result["setup_s"] = result["setup_raw_s"] * 2 * worker.PROBE_NOMINAL_S[blas] / (before + result["ready_probe_s"])
    return result


def oracle_args(workload: str, seed: int, size: str, run_dir: Path) -> tuple[str, ...]:
    if workload != "exact-k7":
        return ()
    spawn("oracle", workload, seed, size, run_dir / "oracle")
    return ("--oracle", str(run_dir / "oracle" / "result.json"))


def spread(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g} of {len(values)} (min {min(values):.6g}, max {max(values):.6g})"


def measure(workload: str, seed: int, seconds: float, size: str, run_dir: Path) -> dict:
    """Untraced: iterate the workload until `seconds` are spent, then take medians.

    A set-up-only interpreter follows each iteration, so the set-up times are
    sampled across the whole run, not in one burst at its end.
    """
    facts = spawn("setup", workload, seed, size, run_dir / "warmup")["facts"]  # also compiles bytecode
    oracle = oracle_args(workload, seed, size, run_dir)
    iterations, setups = [], []
    start = time.monotonic()
    while True:
        workdir = run_dir / f"iter{len(iterations)}"
        iterations.append(spawn("cli", workload, seed, size, workdir, *oracle))
        shutil.rmtree(workdir / "out", ignore_errors=True)
        setups.append(spawn("setup", workload, seed, size, run_dir / f"setup{len(setups)}"))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(iterations)) > seconds:
            break  # another iteration of average length would overrun --seconds
    while len(setups) < SETUP_REPS:
        setups.append(spawn("setup", workload, seed, size, run_dir / f"setup{len(setups)}"))
    setups += iterations
    by_label: dict[str, list[float]] = {}
    for it in iterations:
        for label, s in it["by_label"].items():
            by_label.setdefault(label, []).append(s)
    return {
        "facts": facts,
        "series": {**{k: [s[k] for s in setups] for k in ("setup_s", "setup_raw_s")},
                   **{k: [it[k] for it in iterations] for k in SERIES}},
        "probe_s": [p for it in iterations for p in it["probe_s"]],
        "by_label": by_label,
        "attempted": sum(it["ops"] for it in iterations),
        "failed": [f for it in iterations for f in it["failed"]],
    }


def trace(first: str, seed: int, size: str, run_dir: Path) -> dict:
    """Every workload once untraced and once as a traced replay, `first` first.

    Each per-layer metric comes from the workload that exercises that layer,
    so the traced run always covers all four.
    """
    facts = spawn("setup", first, seed, size, run_dir / "warmup")["facts"]
    layers: dict[str, tuple[float, str]] = {}
    cli: dict[str, float] = {}
    attempted, failed, report = 0, [], {}
    for workload in (first, *(w for w in WORKLOADS if w != first)):
        wdir = run_dir / workload
        plain = spawn("cli", workload, seed, size, wdir / "cli", *oracle_args(workload, seed, size, wdir))
        traced = spawn("replay", workload, seed, size, wdir / "replay", "--cli-workdir", str(wdir / "cli"))
        shutil.rmtree(wdir / "cli" / "out", ignore_errors=True)
        attempted += plain["ops"] + 1
        failed += plain["failed"] + traced["failed"]
        for label, s in plain["by_label"].items():
            if label.startswith("cli."):
                cli[label] = cli.get(label, 0.0) + s
        layers.update({k: tuple(v) for k, v in traced["layers"].items()})
        layers[f"trace.{workload}.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        layers[f"trace.{workload}.unaccounted_s"] = (traced["unaccounted_s"], "s")
        report[workload] = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
                            "self_times": traced["self_times"], "spans": str(wdir / "replay" / "spans.jsonl")}
    for label, s in sorted(cli.items()):
        layers[f"{label}.s"] = (s, "s")
    return {"facts": facts, "layers": layers, "report": report, "attempted": attempted, "failed": failed}


# End-to-end metrics, as BENCHMARK.json declares them.  Their times are at
# reference speed (worker.ProbedClock); the raw setup_raw_s, wall_s and cpu_s
# are printed beside them but left out of the result.
E2E_UNITS = {"setup_s": "s", "wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MiB"}
SERIES = ("wall_norm_s", "cpu_norm_s", "wall_s", "cpu_s", "peak_rss_mb")
UNITS = {**E2E_UNITS, "setup_raw_s": "s", "wall_s": "s", "cpu_s": "s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "covmoments" / "__init__.py").is_file():
        print(f"no covmoments source under {CHECKOUT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    worker.probe_work(worker.PROBE_BLAS[args.workload])  # warm-up for the probes around each spawn
    run_dir = RUN_ROOT / f"{args.workload}-s{args.seed}-t{args.trace}-{size}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            run = trace(args.workload, args.seed, size, run_dir)
        else:
            run = measure(args.workload, args.seed, args.seconds, size, run_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    machine = {"nproc": nproc(), "python": platform.python_version(), "machine": platform.machine(),
               **cache_sizes(), **run["facts"]}
    print("machine " + json.dumps(machine))
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
        for workload, r in run["report"].items():
            print(f"trace {workload}: untraced {r['untraced_wall_s']:.3f} s, traced {r['traced_wall_s']:.3f} s, "
                  f"spans {r['spans']}")
            for name, s in sorted(r["self_times"].items(), key=lambda kv: -kv[1]):
                print(f"  self {name:42s} {s:10.4f} s")
    else:
        metrics = {name: {"value": statistics.median(run["series"][name]), "unit": unit}
                   for name, unit in E2E_UNITS.items()}
        for name, values in run["series"].items():
            print(f"{name:14s} {UNITS[name]:4s} {spread(values)}")
        print(f"{'probe_s':14s} s    {spread(run['probe_s'])}")
        for label, values in sorted(run["by_label"].items()):
            print(f"{label + '.s':14s} s    {spread(values)}")
    print(f"ops_attempted  count {run['attempted']}")
    print(f"ops_failed     count {len(run['failed'])}")
    for index, label, message in run["failed"][:20]:
        print(f"  failed op {index} {label}: {message}")
    correct = not run["failed"]
    (run_dir / "result.json").write_text(json.dumps({"machine": machine, "metrics": metrics, "run": {
        k: v for k, v in run.items() if k in ("series", "probe_s", "by_label", "report", "failed", "attempted")}}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": len(run["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
