"""Benchmark of the loschmidt CLI pipeline on seeded workloads.

    python3 perfbench/run.py --workload trotter_n14 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each solve is one in-process ``loschmidt.cli.main([...])`` call on the config
generated from ``--seed`` (see workloads.py).  Solves repeat until
``--seconds`` is spent, at least ``MIN_SOLVES`` times; each output is read
back and checked against a reference computed outside the timed region.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median over ``SETUP_REPS`` fresh interpreters, run in
  groups before each worker, of import, config generation and the first
  ``load_config`` (setup_probe.py);
* ``solve_s``: best wall time of a solve.  The solves run in ``WORKERS``
  fresh interpreters, one after another, each for an equal share of
  ``--seconds``: on a shared 2-vCPU host the speed of a whole process can
  drift, so the best over several processes is steadier than the best of
  one.  The median, ``solve_p50_s``, is in the record line with the sample
  count but carries no bound;
* ``cpu_s``: process CPU time, all threads, of the best solve;
* ``peak_rss_mb``: median over the workers of the process peak RSS after
  its first solve.  The oracle's eigensystem cache is cleared after every
  solve, so later solves start from the same state.

``--trace 1`` alternates untraced and traced solves (tracer.py) and reports
the per-layer metrics of BENCHMARK.json: those of the fastest traced solve,
the tracing overhead (best traced minus best untraced solve), the largest
g_err, and the thread speedup of the solve's first ``trajectory_survivals``
call replayed at 1 and at nproc threads, whose outputs must be
byte-identical.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``; with ``--workload all`` it sums the workloads' results and keys
each metric ``<workload>.<metric>``.  A solve fails on an exception, a nonzero exit code, or g_err
above the workload tolerance.  The exit code is 0 when every solve passed,
1 when one failed, 2 when the checkout holds no ``src/loschmidt``.

OpenBLAS runs one thread (the count is in the record line): with a thread
per vCPU a solve is only fast when both vCPUs of the shared host are, and
its best time spreads widely between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SOLVES = 3
SETUP_REPS = 15
WORKERS = 5


@dataclass
class Solve:
    wall: float
    cpu: float
    ok: bool = False
    g_err: float = float("nan")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Bench:
    """One workload at one seed, with its scratch directory."""

    def __init__(self, args, scratch: Path):
        import workloads
        from loschmidt import load_config

        self.args = args
        self.scratch = scratch
        self.wl = workloads.workload(args.workload, args.tiny)
        self.config = workloads.write_config(self.wl, args.seed, scratch, args.tiny)
        self.doc = load_config(self.config)
        self.outputs: list = []

    def setup_times(self, reps: int) -> list:
        """Wall times of ``reps`` fresh set-ups (setup_probe.py)."""
        probe_dir = self.scratch / "setup"
        probe_dir.mkdir(exist_ok=True)
        argv = [sys.executable, str(HERE / "setup_probe.py"), self.wl.name,
                str(self.args.seed), str(probe_dir)] + (["--tiny"] if self.args.tiny else [])
        times = []
        for _ in range(reps):
            # no timeout: waiting with one polls in steps of up to 50 ms
            start = time.perf_counter()
            subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
        return times

    def solve(self, tracer=None) -> Solve:
        """One timed ``cli.main`` call; its output is kept for the check."""
        import workloads
        from loschmidt import cli, model
        from tracer import instrument

        outdir = self.scratch / f"out{len(self.outputs)}"
        argv = workloads.cli_argv(self.wl, self.config, outdir)
        hooks = instrument(tracer) if tracer is not None else contextlib.nullcontext()
        code = None
        try:
            with hooks:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                code = cli.main(argv)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        except Exception:
            traceback.print_exc()
            wall = cpu = float("nan")
        finally:
            model._eigensystem.cache_clear()
        g_rec = None
        if code == 0:
            try:
                g_rec = workloads.recovered_amplitudes(self.wl, outdir)
            except (OSError, ValueError, KeyError):
                traceback.print_exc()
        elif code is not None:
            print(f"solve exited with code {code}", file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        solve = Solve(wall, cpu)
        self.outputs.append((solve, g_rec))
        return solve

    def check(self) -> None:
        """Set ``ok`` and ``g_err`` of every solve against the reference."""
        import numpy as np
        import workloads

        g_ref = workloads.reference_amplitudes(self.wl, self.doc)
        for solve, g_rec in self.outputs:
            if g_rec is None or g_rec.shape != g_ref.shape:
                continue
            solve.g_err = float(np.max(np.abs(g_rec - g_ref)))
            solve.ok = bool(np.isfinite(solve.g_err)) and solve.g_err <= self.wl.tolerance
        if not any(np.isfinite(s.g_err) for s, _ in self.outputs):
            raise RuntimeError("no solve produced an output that could be checked")

    def repeat(self, once, minimum=MIN_SOLVES) -> list:
        """Call ``once`` until the run's seconds are spent, ``minimum`` times
        at least."""
        results, start = [], time.perf_counter()
        while True:
            began = time.perf_counter()
            results.append(once())
            now = time.perf_counter()
            if len(results) >= minimum and now - start + (now - began) > self.args.seconds:
                return results


def _worker(bench: Bench) -> dict:
    """Solves of one worker interpreter, checked, as a JSON-ready dict."""
    first_rss = []

    def once():
        solve = bench.solve()
        if not first_rss:
            first_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return solve

    solves = bench.repeat(once)
    bench.check()
    return {"peak_rss_mb": first_rss[0],
            "solves": [[s.wall, s.cpu, s.ok, s.g_err] for s in solves]}


def _untraced(bench: Bench):
    argv = [sys.executable, __file__, "--workload", bench.wl.name,
            "--seed", str(bench.args.seed), "--seconds", str(bench.args.seconds / WORKERS),
            "--trace", "0", "--worker"] + (["--tiny"] if bench.args.tiny else [])
    setups, solves, rss = [], [], []
    for _ in range(WORKERS):
        # set-ups spread over the run, so a slow phase of a few seconds
        # moves only some of them
        setups += bench.setup_times(SETUP_REPS // WORKERS)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        done = json.loads(proc.stdout.strip().splitlines()[-1])
        rss.append(done["peak_rss_mb"])
        solves += [Solve(*row) for row in done["solves"]]
    timed = [s for s in solves if s.ok] or solves
    best = min(timed, key=lambda s: s.wall)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": best.wall,
        "solve_p50_s": statistics.median(s.wall for s in timed),
        "cpu_s": best.cpu,
        "peak_rss_mb": statistics.median(rss),
    }
    return solves, metrics


def _thread_speedup(tracer, nproc: int) -> tuple[float, bool]:
    """Replay the first captured trajectory_survivals call at 1 and nproc
    threads: (time ratio, outputs byte-identical).  (0, True) if none ran."""
    from loschmidt.noise import trajectory_survivals

    if "trajectory_survivals" not in tracer.captured:
        return 0.0, True
    args, kwargs = tracer.captured["trajectory_survivals"]
    kwargs = {k: v for k, v in kwargs.items() if k != "threads"}
    timings, outputs = [], []
    for threads in (1, nproc):
        start = time.perf_counter()
        outputs.append(trajectory_survivals(*args[:5], threads=threads, **kwargs))
        timings.append(time.perf_counter() - start)
    return timings[0] / timings[1], outputs[0].tobytes() == outputs[1].tobytes()


def _traced(bench: Bench, nproc: int):
    from tracer import Tracer, layer_metrics

    def once():
        plain = bench.solve()
        tracer = Tracer()
        return plain, bench.solve(tracer), tracer

    pairs = bench.repeat(once, minimum=1)
    bench.check()
    plain = min((p for p, _, _ in pairs), key=lambda s: s.wall)
    traced, tracer = min(((t, tr) for _, t, tr in pairs), key=lambda p: p[0].wall)
    metrics = layer_metrics(tracer)
    speedup, identical = _thread_speedup(tracer, nproc)
    metrics["noise.thread_speedup"] = speedup
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    solves = [s for p, t, _ in pairs for s in (p, t)]
    metrics["check.g_err"] = max(s.g_err for s in solves if s.g_err == s.g_err)
    _print_spans(tracer)
    return solves, metrics, identical


def _print_spans(tracer) -> None:
    print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}", file=sys.stderr)
    for name, row in sorted(tracer.totals().items()):
        print(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}",
              file=sys.stderr)


def run(args, scratch: Path, nproc: int, declared: dict) -> dict:
    import numpy as np

    bench = Bench(args, scratch)
    identical = True
    if args.trace:
        solves, values, identical = _traced(bench, nproc)
        listed = declared["per_layer"]
    else:
        solves, values = _untraced(bench)
        listed = declared["end_to_end"]
    failed = sum(not s.ok for s in solves)
    record = {
        "workload": bench.wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(solves),
        "solve_p50_s": values.get("solve_p50_s"),
        "solve_walls_s": [round(s.wall, 4) for s in solves],
        "attempted": len(solves),
        "failed": failed,
        "fail_ratio": failed / len(solves),
        "g_err_max": max((s.g_err for s in solves if s.g_err == s.g_err), default=None),
        "tolerance": bench.wl.tolerance,
        "threads_byte_identical": identical,
        "env": {
            "nproc": nproc,
            "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
            "machine": platform.machine(),
        },
    }
    metrics = {}
    for item in listed:
        name, unit = item["name"], item["unit"]
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(json.dumps(record))
    return {
        "correct": failed == 0 and identical,
        "attempted": len(solves),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small N and K, for the harness smoke test")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "loschmidt" / "__init__.py").is_file():
        print(f"no loschmidt package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return _run_all(args, declared)
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        if args.worker:
            print(json.dumps(_worker(Bench(args, scratch))))
            return 0
        result = run(args, scratch, nproc, declared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args, declared: dict) -> int:
    """Each workload in its own process, so peak RSS is its own; the last
    line sums the results and keys each metric ``<workload>.<metric>``."""
    results = {}
    for workload in declared["workloads"]:
        name = workload["name"]
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--tiny"] if args.tiny else []
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="", flush=True)
        if not proc.stdout.strip():
            return proc.returncode or 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
