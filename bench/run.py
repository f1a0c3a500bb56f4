"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload plan --seed 1 --seconds 30 --trace 0

Workloads: plan (in-process planning queries), crosscheck (numerical
oracles) and cold_cli (one `python -m arraygain` child per operation).
Each is a closed loop with one caller.  The program is imported from
src/ of the checkout this file sits in; nothing installed is used.

--trace 0 prints the end-to-end metrics; --trace 1 plays every round
twice, once traced and once not, prints the per-layer metrics and the
tracing overhead, and writes the spans to bench/out/.  Outputs are
checked against bench/reference.py after each operation's clock stops.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import tracing
from reference import CheckError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
# one BLAS/OpenMP thread, here and in every child: pools of worker threads
# add CPU time and wall-time jitter to every cold start
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("plan", "crosscheck", "cold_cli")
# set-up is timed once per SETUP_EVERY_S of operation time, so its
# samples spread over the run, and at least SETUP_SAMPLES times
SETUP_EVERY_S = 2.5
SETUP_SAMPLES = 5
# p90 needs at least 10 samples above it
MIN_OPS = 100


def child_env() -> dict[str, str]:
    # main() has already set THREAD_VARS in os.environ
    return dict(os.environ, PYTHONPATH=SRC)


class Children:
    """Runs Python children one at a time; keeps the largest peak RSS."""

    def __init__(self, workdir: str):
        self.env = child_env()
        self.out_path = os.path.join(workdir, "child.out")
        self.peak_kb = 0

    def __call__(self, argv: list[str]) -> tuple[int, str]:
        with open(self.out_path, "w+b") as out, open(os.devnull, "wb") as err:
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *argv], self.env,
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
            )
            _, status, usage = os.wait4(pid, 0)
            out.seek(0)
            text = out.read().decode()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return os.waitstatus_to_exitcode(status), text

    def cli(self, argv: list[str]) -> tuple[int, str]:
        return self(["-m", "arraygain", *argv])


def build(name: str, seed: int, workdir: str, children: Children):
    import workloads

    if name == "cold_cli":
        return workloads.cold_cli(seed, workdir, children.cli)
    return getattr(workloads, name)(seed, workdir)


def time_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports arraygain and builds
    the workload's inputs."""
    workdir = tempfile.mkdtemp(prefix=f"setup-{name}-", dir=OUT)
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name,
            "--seed", str(seed), "--workdir", workdir]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, child_env())
    _, status, _ = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    shutil.rmtree(workdir)
    if status != 0:
        raise SystemExit(f"error: set-up child for {name} exited {os.waitstatus_to_exitcode(status)}")
    return elapsed


class Stats:
    def __init__(self):
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def play(op, tracer, stats: Stats) -> None:
    """One timed operation, then its check."""
    tracer.begin(op.kind)
    cpu0, child0 = time.process_time(), children_cpu()
    start = time.perf_counter()
    try:
        output = op.run(tracer)
        failure = None
    except Exception as exc:  # counted as a failed operation; the loop goes on
        failure = exc
    end = time.perf_counter()
    cpu = time.process_time() - cpu0 + children_cpu() - child0
    tracer.end(start, end)
    stats.attempted += 1
    stats.busy += end - start
    if failure is not None:
        stats.failed += 1
        stats.failures.append(f"{op.kind}: {failure!r}")
        return
    stats.latencies.append(end - start)
    stats.cpu.append(cpu)
    try:
        op.check(output)
    except CheckError as exc:
        stats.errors.append(f"{op.kind}: {exc}")


def timed_loop(rounds, seconds: float, tracer=None, setup=None) -> tuple[Stats, Stats, list[float]]:
    """Whole rounds until the operations' own time reaches `seconds` and
    at least MIN_OPS ran.  With a tracer, each round runs untraced and
    traced, in alternating order.  With `setup`, a callable timing one
    fresh set-up, set-up samples are taken between rounds."""
    plain, traced = Stats(), Stats()
    setup_samples: list[float] = []
    r = 0
    while plain.busy + traced.busy < seconds or plain.attempted < MIN_OPS:
        passes = [(tracing.NULL, plain)]
        if tracer is not None:
            passes = [(tracing.NULL, plain), (tracer, traced)][:: 1 if r % 2 else -1]
        for tr, stats in passes:
            for op in rounds[r % len(rounds)]:
                play(op, tr, stats)
        r += 1
        if setup is not None and plain.busy >= SETUP_EVERY_S * len(setup_samples):
            setup_samples.append(setup())
    while setup is not None and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup())
    return plain, traced, setup_samples


def end_to_end(stats: Stats, setup_samples: list[float], peak_kb: int) -> dict:
    lat = stats.latencies
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "ops_per_s": {"value": len(lat) / stats.busy, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1e3, "unit": "ms"},
        "cpu_ms_per_op": {"value": statistics.fmean(stats.cpu) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MiB"},
    }


def run_workload(args, workdir: str, children: Children):
    """Warm-up round, timed loop (with set-up samples, or followed by the
    probes when traced), run-level checks; returns
    (attempted, failed, check errors, metrics)."""
    import arraygain

    workload = build(args.workload, args.seed, workdir, children)
    warmup = Stats()
    for op in workload.rounds[0]:
        play(op, tracing.NULL, warmup)
    if args.trace:
        loop_tracer, probe_tracer = tracing.Tracer(), tracing.Tracer()
        plain, traced, _ = timed_loop(workload.rounds, args.seconds, loop_tracer)
        cold = tracing.run_probes(probe_tracer, arraygain, workdir, children)
        overhead_pct = (traced.busy / plain.busy - 1.0) * 100.0
        metrics = tracing.per_layer_metrics(loop_tracer, probe_tracer, cold, overhead_pct)
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"), "w", encoding="utf-8") as fh:
            loop_tracer.dump(fh, "workload")
            probe_tracer.dump(fh, "probe")
    else:
        plain, traced, setup = timed_loop(
            workload.rounds, args.seconds, setup=lambda: time_setup(args.workload, args.seed)
        )
        if args.workload == "cold_cli":
            peak_kb = children.peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(plain, setup, peak_kb)
    for message in (warmup.failures + plain.failures + traced.failures)[:5]:
        print(f"failed: {message}", file=sys.stderr)
    errors = warmup.errors + plain.errors + traced.errors
    try:
        workload.finish()
    except CheckError as exc:
        errors.append(str(exc))
    return plain.attempted + traced.attempted, plain.failed + traced.failed, errors, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arraygain", "__init__.py")):
        print(f"error: no arraygain sources under {SRC}", file=sys.stderr)
        return 1
    os.environ.update((var, "1") for var in THREAD_VARS)
    sys.path.insert(0, SRC)
    import arraygain

    if not os.path.abspath(arraygain.__file__).startswith(SRC + os.sep):
        print(f"error: arraygain imported from {arraygain.__file__}, not {SRC}", file=sys.stderr)
        return 1

    if args.setup_only:
        build(args.workload, args.seed, args.workdir, Children(args.workdir))
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        attempted, failed, errors, metrics = run_workload(args, workdir, Children(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors[:20]:
        print(f"check: {line}", file=sys.stderr)
    verdict = "correct" if not errors else f"{len(errors)} check errors"
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed, {verdict}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
