"""arksim's benchmark: seeded workloads timed end to end and per layer.

One workload, as the comparison harness runs it (last line: one JSON
object with `correct`, `attempted`, `failed` and `metrics`):

    python3 perfbench/run.py --workload wide_batch --seed 1 --seconds 15 --trace 0

Every workload, each in its own process, untraced and then traced, with
the tracing overhead and the per-layer metrics written to perfbench/out/:

    python3 perfbench/run.py

The program is imported from the checkout's src/ directory; the run fails
without printing a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15
NAMES = ("wide_batch", "payment_stream", "adversarial_traces")


def _import_workloads():
    sys.path[:0] = [SRC, HERE]
    try:
        import arksim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import arksim from {SRC}: {exc}")
    if not os.path.abspath(arksim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: arksim was imported from {arksim.__file__},"
                         f" not from {SRC}")
    import tracer
    import workloads
    return tracer, workloads


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def end_to_end(run) -> dict:
    """Gated metrics; times are scaled to the reference machine's speed."""
    scale = run.speed_scale()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(run.setup_s) * scale, "s"),
        "wall_s": (statistics.median(run.pass_s) * scale, "s"),
        "op_ms": (statistics.median(run.op_s) * 1e3 * scale, "ms"),
        "onchain_vb": (statistics.median(run.pass_vb), "vB"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def unscaled(run) -> dict:
    """The same medians as measured, and the reference work's time."""
    return {
        "measured setup_s": (statistics.median(run.setup_s), "s"),
        "measured wall_s": (statistics.median(run.pass_s), "s"),
        "measured op_ms": (statistics.median(run.op_s) * 1e3, "ms"),
        "reference_ms": (statistics.median(run.reference_s) * 1e3, "ms"),
        "speed_scale": (run.speed_scale(), "ratio"),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    tracer_mod, workloads = _import_workloads()
    fn = workloads.WORKLOADS[workload]
    if trace:
        with tracer_mod.Tracer() as t:
            run = fn(seed, seconds)
        metrics = {name: (value, _unit(name))
                   for name, value in t.metrics().items()}
        metrics["trace.wall_s"] = (statistics.median(run.pass_s)
                                   * run.speed_scale(), "s")
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{workload}-seed{seed}")
        t.write(stem + "-layers.json", stem + "-spans.txt.gz",
                {"workload": workload, "seed": seed, "seconds": seconds,
                 "metrics": {k: v for k, (v, _) in metrics.items()}})
    else:
        run = fn(seed, seconds)
        metrics = end_to_end(run)
    correct = all(run.checks.values())

    print(f"{workload} seed={seed} passes={len(run.pass_s)} trace={int(trace)}"
          f" attempted={run.attempted} failed={run.failed}"
          f" fingerprint={run.fingerprint.hexdigest()[:16]}")
    shown = list(metrics.items()) + list(unscaled(run).items()) \
        + list(run.extra.items())
    for name, (value, unit) in shown:
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, ok in sorted(run.checks.items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED ' + run.details[name]}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced."""
    summary, status = {}, 0
    for workload in NAMES:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                return proc.returncode or 1
            results[trace] = json.loads(lines[-1])
        traced = results[1]["metrics"]["trace.wall_s"]["value"]
        plain = results[0]["metrics"]["wall_s"]["value"]
        overhead = traced / plain - 1
        print(f"{workload}: tracing overhead {overhead:+.1%} of wall_s\n")
        summary[workload] = {"untraced": results[0], "traced": results[1],
                             "tracing_overhead": overhead}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"summary-seed{seed}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
