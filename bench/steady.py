"""Steadiness report: run the benchmark over several seeds and measure spread.

Usage (from the root of a checkout):

    python3 bench/steady.py --label NAME [--traces N]

For every workload in BENCHMARK.json this runs bench/run.py once for each of
the seeds 0..9, one after another, for run_seconds each, and records each
end-to-end metric's median, quartiles and spread: (Q3 - Q1) / median, with
quartiles as statistics.quantiles(values, n=4) gives them.  The same summary
is kept for the raw times (before the calibration probes take out host
drift) and for the median probe time of each run, so that the host's drift
shows next to what the metrics kept of it.  --traces N adds N traced runs
per workload, all on seed 0, and records their per-layer metrics, the
largest self-time span groups and whether the counts repeated exactly.  The
report, with the environment it was measured in, goes to
bench/results/NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit.stdout.strip() or None,
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("run failed (%s): %s" % (" ".join(cmd), proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), wall


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--traces", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]

    report = {"environment": environment(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            detail, result, wall = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "detail": detail})
            values = " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())
            print("%s seed %d: %s probe=%.3gms failed=%d" % (
                workload, seed, values, 1000 * detail["calibration_probe_s"]["median"], result["failed"]), flush=True)
        names = runs[0]["result"]["metrics"]
        summary = {
            name: spread([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
        }
        raw_summary = {
            name: spread([r["detail"]["raw"][name] for r in runs]) for name in runs[0]["detail"]["raw"]
        }
        probe = spread([r["detail"]["calibration_probe_s"]["median"] for r in runs])
        for name, s in summary.items():
            raw = raw_summary.get(name)
            print("%s %s: median %.4g spread %.3f%s" % (
                workload, name, s["median"], s["spread"],
                " (raw median %.4g spread %.3f)" % (raw["median"], raw["spread"]) if raw else ""), flush=True)
        entry = {"runs": runs, "summary": summary, "raw_summary": raw_summary, "probe_s": probe}
        traces = []
        for _ in range(args.traces):
            detail, result, wall = run_once(workload, SEEDS[0], seconds, 1)
            selfs = detail.pop("group_self_s")
            total = sum(selfs.values())
            top = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
            traces.append({"seed": SEEDS[0], "wall_s": wall, "result": result, "detail": detail,
                           "top_self_share": [[g, t / total] for g, t in top]})
            print("%s trace seed %d: top self %s overhead %.3f" % (
                workload, SEEDS[0],
                ", ".join("%s %.0f%%" % (g, 100 * t / total) for g, t in top[:3]),
                result["metrics"]["trace.overhead_ratio"]["value"]), flush=True)
        if traces:
            # counts depend only on the seed, so repeated traced runs must agree
            counts = [{k: v["value"] for k, v in t["result"]["metrics"].items() if v["unit"] not in ("s", "ratio")}
                      for t in traces]
            entry["traces"] = traces
            entry["trace_counts_repeat"] = all(c == counts[0] for c in counts)
        report["workloads"][workload] = entry

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", args.label + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
