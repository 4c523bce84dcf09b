"""End-to-end benchmark of the DIALITE reproduction: discover -> integrate
-> analyze, on three workloads (see README.md in this directory).

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload churn --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload serve --repeat 10 --seed 1
    python3 perfbench/run.py --self-test

A run prints a per-run report line (operations attempted and failed per
type) and, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The traced run also writes its
per-layer table, the tracing overhead and every span under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "discover_p50_ms": "ms",
    "discover_p90_ms": "ms",
    "integrate_p50_ms": "ms",
    "integrate_p90_ms": "ms",
    "ingest_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
}
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3


def pin_to_one_cpu() -> int | None:
    """Run every thread of this process on one CPU (the last one allowed).

    The program is bound by the interpreter lock, so a second core adds
    little; but each request of serve and churn hops across several
    threads, and a hop to the other CPU waits until the hypervisor runs
    it.  Unpinned, that wait multiplied the host's CPU steal two to three
    times in serve's and churn's latencies; pinned, they follow it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError as error:  # a sandbox may refuse it: run unpinned
        print(f"perfbench: running unpinned ({error})", file=sys.stderr)
        return None
    return cpu


def cpu_ticks(cpu: int | None) -> tuple[int, int] | None:
    """(steal, total) jiffies of *cpu* (all CPUs when None), where
    /proc/stat exists."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields and fields[0] == label:
                    values = [int(v) for v in fields[1:]]
                    return (values[7] if len(values) > 7 else 0), sum(values)
    except (OSError, ValueError):
        return None
    return None


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run on
    anything else (an installed copy would measure the wrong code)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'repro'}; "
                 f"run from the root of a checkout")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    import repro
    from repro.store import journal

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    if not journal.fsync_enabled():
        sys.exit("perfbench: fsync is disabled (REPRO_FSYNC); the benchmark "
                 "measures the default flush policy")


def measure(workload, ctx, setups: int, label: str = "run") -> dict:
    """Set up *setups* times (keeping the last), run the timed phase and
    the phase after it; returns metrics, tally and timings."""
    from workloads import Tally, directory_bytes, remove_tree

    tally = Tally()
    setup_times: list[float] = []
    started = time.perf_counter()
    state = None
    for i in range(setups):
        path = ctx.work / f"{label}-{i}"
        t0 = time.perf_counter()
        state = workload.setup(ctx, path)
        setup_times.append(time.perf_counter() - t0)
        if i < setups - 1:
            workload.teardown(state)
            remove_tree(path)
            gc.collect()
    t_setup = time.perf_counter()
    try:
        timed = workload.timed(ctx, state, tally)
        t_timed = time.perf_counter()
        # Before the phase after: its oracles build pipelines of their own.
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.after(ctx, state, tally)
        store_bytes = directory_bytes(state["path"])
    finally:
        workload.teardown(state)
    wall = time.perf_counter() - started
    print(f"perfbench: {label} phases: set-up {t_setup - started:.1f} s, timed "
          f"{t_timed - t_setup:.1f} s, after {wall - (t_timed - started):.1f} s",
          file=sys.stderr)
    return {
        "metrics": e2e_metrics(setup_times, timed, tally, peak_rss, store_bytes),
        "tally": tally,
        "timed": timed,
        "wall": wall,
    }


def e2e_metrics(setup_times, timed, tally, peak_rss: float, store_bytes: int) -> dict[str, float]:
    from workloads import MIN_SAMPLES, percentile

    latencies = tally.latencies
    for op in ("discover", "integrate"):
        if len(latencies.get(op, ())) < MIN_SAMPLES:
            raise RuntimeError(f"only {len(latencies.get(op, ()))} {op} samples")
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": timed.ops / timed.seconds,
        "discover_p50_ms": statistics.median(latencies["discover"]) * 1000.0,
        "discover_p90_ms": percentile(latencies["discover"], 0.9) * 1000.0,
        "integrate_p50_ms": statistics.median(latencies["integrate"]) * 1000.0,
        "integrate_p90_ms": percentile(latencies["integrate"], 0.9) * 1000.0,
        "ingest_p50_ms": statistics.median(latencies["ingest"]) * 1000.0,
        "peak_rss_mb": peak_rss,
        "store_mb": store_bytes / 1e6,
    }


def operations(tallies) -> dict[str, dict[str, int]]:
    ops: dict[str, dict[str, int]] = {}
    for tally in tallies:
        for op, n in tally.attempted.items():
            entry = ops.setdefault(op, {"attempted": 0, "failed": 0})
            entry["attempted"] += n
            entry["failed"] += tally.failed[op]
    return dict(sorted(ops.items()))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from tracer import Recorder
    from workloads import WORKLOADS, Context, remove_tree

    workload = WORKLOADS[workload_name]
    cpu = pin_to_one_cpu()
    ticks = cpu_ticks(cpu)
    work = OUT / f"work-{os.getpid()}"
    remove_tree(work)
    work.mkdir(parents=True)
    try:
        if not trace:
            result = measure(workload, Context(seed, seconds, work), SETUPS)
            tallies = [result["tally"]]
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in result["metrics"].items()
            }
        else:
            # Two halves of the run length: untraced, then traced.  Their
            # end-to-end difference is the tracing overhead.
            half = seconds / 2.0
            plain = measure(workload, Context(seed, half, work), 1, "untraced")
            recorder = Recorder()
            layers.install(recorder)
            try:
                traced = measure(workload, Context(seed, half, work, recorder), 1, "traced")
            finally:
                recorder.restore()
            tallies = [plain["tally"], traced["tally"]]
            metrics = trace_outputs(workload_name, seed, plain, traced, recorder)
    finally:
        remove_tree(work)
    ops = operations(tallies)
    for tally in tallies:
        for reason in tally.reasons[:5]:
            print(f"perfbench: failed {reason}", file=sys.stderr)
    # Time the hypervisor gave this run's CPU to others while the run
    # lasted: a run on a contended host reads slower for that reason.
    steal = None
    after = cpu_ticks(cpu)
    if ticks is not None and after is not None and after[1] > ticks[1]:
        steal = round((after[0] - ticks[0]) / (after[1] - ticks[1]), 4)
    print(json.dumps({"workload": workload_name, "seed": seed, "trace": int(trace),
                      "cpu": cpu, "operations": ops, "host_steal_share": steal}))
    attempted = sum(entry["attempted"] for entry in ops.values())
    failed = sum(entry["failed"] for entry in ops.values())
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def trace_outputs(workload_name: str, seed: int, plain: dict, traced: dict, recorder) -> dict:
    """Write the per-layer table, the overhead and the spans; return the
    per-layer metrics for the result line."""
    import layers

    timed = traced["timed"]
    stats = timed.service_stats or {}
    extras = {
        "service.hit_ratio": stats.get("hits", 0) / stats["requests"] if stats.get("requests") else 0.0,
        "service.batched_ratio": (
            stats.get("batched_requests", 0) / stats["misses"] if stats.get("misses") else 0.0
        ),
        "process.cpu_ms_per_op": timed.cpu_seconds * 1000.0 / timed.ops,
        "ops": timed.ops,
    }
    table = layers.layer_table(recorder.spans, traced["wall"], extras)
    overhead = {
        name: {
            "untraced": plain["metrics"][name],
            "traced": traced["metrics"][name],
            "delta": traced["metrics"][name] - plain["metrics"][name],
        }
        for name in E2E_UNITS
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload_name}-seed{seed}"
    (OUT / f"layers-{stem}.json").write_text(json.dumps(
        {"workload": workload_name, "seed": seed, "traced_wall_s": traced["wall"],
         "layers": table, "overhead": overhead, "service_stats": stats}, indent=2))
    with (OUT / f"spans-{stem}.jsonl").open("w") as sink:
        for span in recorder.spans:
            sink.write(json.dumps(span.to_json()) + "\n")
    return {
        name: {"value": table[name]["value"], "unit": table[name]["unit"]}
        for name in layers.RESULT_LINE
    }


def repeat(workload_name: str, seed: int, seconds: float, times: int) -> int:
    """Run one workload *times* times in fresh processes, seeds
    ``seed .. seed+times-1``; print each metric's median, quartiles and
    spread against its bound in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares: list[float] = []
    steady = True
    for i in range(times):
        command = [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
                   "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        try:
            report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        except ValueError:  # no result line: the run broke off
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        shares.append(result["failed"] / result["attempted"])
        # A run whose checks failed is not steady, however close its figures.
        steady &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"run {i + 1}/{times} seed {seed + i} (steal {report['host_steal_share']}, "
              f"failed {result['failed']}/{result['attempted']}): "
              + ", ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
              flush=True)
    print(f"{'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        ok = bound is None or spread <= bound
        steady &= ok
        print(f"{name:<18}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}{spread:>9.3f}"
              f"{bound if bound is not None else float('nan'):>8.2f}{'' if ok else '  OVER'}")
    print(f"failed share per run: {sorted(set(shares))}")
    return 0 if steady else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("explore", "serve", "churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run the workload N times (seeds seed..seed+N-1) "
                             "and report each metric's spread against its bound")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every correctness check rejects a corrupted answer")
    args = parser.parse_args(argv)
    import_program()
    if args.self_test:
        import selftest

        return selftest.main(OUT / f"selftest-{os.getpid()}")
    if args.workload is None:
        parser.error("--workload is required")
    if args.repeat:
        return repeat(args.workload, args.seed, args.seconds, args.repeat)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
