"""Record the benchmark's end-to-end metrics of this checkout in one file.

    python3 tools/bench_record.py --label baseline

runs `perfbench/run.py --trace 0` on every workload, `--runs` times each on
the fixed seeds 1, 2, ..., one run at a time and the workloads interleaved,
and writes `BENCH_<label>.json` at the repo root (or into `--out`).  Per
workload, the file holds the median and quartiles of each end-to-end
metric, whether every run was `correct`, the failed operations summed over
the runs, and `onchain_vb`, and under `extra` the same spread of the lines
named in `EXTRA` that the workload's runs print (`pay_ms` and `pay_p90_ms`
on `payment_stream`); for the machine, the git commit, whether the
measured code (`src/`, `perfbench/`) differed from it, a digest of that
code as measured (`tree_sha256`, so a record made before its own commit
names the tree it measured), the Python version,
`os.cpu_count()` and the median reference-work time, by which files from
different machines can be scaled.  The exit status is 1 if the file
records an incorrect run, a failed operation or a commitment that weighs
other than the paper's figure.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("wide_batch", "payment_stream", "adversarial_traces")
METRICS = ("setup_s", "wall_s", "op_ms", "onchain_vb", "peak_rss_mb")
# the vbytes each workload confirms per pass: a 64-user batch and its
# exits, one 197 vB commitment, and the adversarial traces' ledgers
ONCHAIN_VB = {"wide_batch": 16495, "payment_stream": 197,
              "adversarial_traces": 3417}
KEYS = ("label", "commit", "dirty", "python", "cpu_count", "reference_ms",
        "runs", "seconds", "seeds", "workloads")
WORKLOAD_KEYS = ("correct", "failed", "onchain_vb", "reference_ms", "metrics")
# lines a workload's run prints besides its end-to-end metrics, each in ms,
# that a record keeps: a payment's median and 90th percentile
EXTRA = {"payment_stream": ("pay_ms", "pay_p90_ms")}
_SHA256 = re.compile(r"[0-9a-f]{64}")


def spread(values: List[float]) -> Dict[str, float]:
    """The median and quartiles of `values` (inclusive method, so one value
    is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its JSON result line, plus its reference time.
    The run's first line is printed as it ends."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_record: {workload} seed {seed} printed no result"
                         f" (exit {proc.returncode})")
    print(lines[0], flush=True)   # the run's header, with its fingerprint
    result = json.loads(lines[-1])
    result["reference_ms"] = printed_ms(proc.stdout, "reference_ms")
    result["extra"] = {name: printed_ms(proc.stdout, name)
                       for name in EXTRA.get(workload, ())}
    return result


def printed_ms(stdout: str, name: str) -> Optional[float]:
    """The value of a run's `  name  value ms` line, or None if it printed
    none."""
    found = re.search(rf"^\s+{re.escape(name)}\s+(\S+)\s+ms$", stdout, re.M)
    return float(found.group(1)) if found else None


def summarize(results: Dict[str, List[dict]]) -> dict:
    """Per workload, the spread of each end-to-end metric over its runs."""
    out = {}
    for workload, runs in results.items():
        metrics = {}
        for name in METRICS:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(spread(values), unit=runs[0]["metrics"][name]["unit"])
        references = [r["reference_ms"] for r in runs if r["reference_ms"] is not None]
        out[workload] = {
            "correct": all(r["correct"] is True for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "onchain_vb": metrics["onchain_vb"]["median"],
            "reference_ms": statistics.median(references) if references else None,
            "metrics": metrics,
        }
        extra = {}
        for name in EXTRA.get(workload, ()):
            values = [r["extra"][name] for r in runs
                      if r.get("extra", {}).get(name) is not None]
            if values:
                extra[name] = dict(spread(values), unit="ms")
        if extra:
            out[workload]["extra"] = extra
    return out


def check(record: dict) -> List[str]:
    """What is wrong with a recorded file: missing keys, a malformed tree
    digest, an incorrect run, a failed operation, a commitment off the
    paper's figure, or, in a workload that carries `extra` (records made
    before it have none), a missing `EXTRA` line or one whose quartiles
    are out of order."""
    problems = [f"missing key {k}" for k in KEYS if k not in record]
    digest = record.get("tree_sha256")
    if digest is not None and not (isinstance(digest, str) and _SHA256.fullmatch(digest)):
        problems.append(f"malformed tree_sha256 {digest!r}")
    for workload in WORKLOADS:
        entry = record.get("workloads", {}).get(workload)
        if entry is None:
            problems.append(f"missing workload {workload}")
            continue
        problems += [f"{workload}: missing key {k}" for k in WORKLOAD_KEYS if k not in entry]
        problems += [f"{workload}: missing metric {m}" for m in METRICS
                     if m not in entry.get("metrics", {})]
        if entry.get("correct") is not True:
            problems.append(f"{workload}: a run was not correct")
        if entry.get("failed") != 0:
            problems.append(f"{workload}: {entry.get('failed')} operations failed")
        if entry.get("onchain_vb") != ONCHAIN_VB[workload]:
            problems.append(f"{workload}: onchain_vb {entry.get('onchain_vb')},"
                            f" not {ONCHAIN_VB[workload]}")
        for name in EXTRA.get(workload, ()) if "extra" in entry else ():
            m = entry["extra"].get(name, {})
            if not {"median", "q1", "q3"} <= m.keys():
                problems.append(f"{workload}: missing extra {name}")
            elif not m["q1"] <= m["median"] <= m["q3"]:
                problems.append(f"{workload}: {name} quartiles out of order")
    return problems


def _git(*args: str, root: str = ROOT) -> str:
    proc = subprocess.run(["git", *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=root)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def tree_sha256(root: str = ROOT) -> str:
    """SHA-256 over every file git tracks under `root`'s src/ and
    perfbench/, in path order: each relative path and length, then its
    bytes as they are on disk (a tracked file deleted from disk is left
    out)."""
    digest = hashlib.sha256()
    for path in sorted(_git("ls-files", "--", "src", "perfbench", root=root).splitlines()):
        full = os.path.join(root, path)
        if os.path.isfile(full):
            with open(full, "rb") as fh:
                data = fh.read()
            digest.update(b"%s\0%d\0" % (path.encode(), len(data)) + data)
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload, on seeds 1..runs (default 5)")
    parser.add_argument("--seconds", type=float, default=15,
                        help="each run's --seconds (default 15)")
    parser.add_argument("--out", default=ROOT, help="directory to write into")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    seeds = list(range(1, args.runs + 1))
    tree = tree_sha256()    # the code as it is measured
    results: Dict[str, List[dict]] = {w: [] for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            results[workload].append(run_once(workload, seed, args.seconds))
    workloads = summarize(results)
    references = [r["reference_ms"] for runs in results.values() for r in runs
                  if r["reference_ms"] is not None]
    record = {
        "label": args.label,
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no",
                           "--", "src", "perfbench")),
        "tree_sha256": tree,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "reference_ms": statistics.median(references) if references else None,
        "runs": args.runs,
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": workloads,
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    problems = check(record)
    print(path)
    print("\n".join(problems) or "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
