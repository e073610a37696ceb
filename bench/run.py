"""qspecies benchmark: seeded CLI request streams, checked, end to end.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {routes,species,laws} --seed N \
        --seconds S --trace {0,1}

The client generates the workload's stream from the seed (streams.py) and
sends each argv to one long-lived worker process (worker.py), which runs
`qspecies.cli.main(argv)` from this checkout's `src/`.  One client, closed
loop: the next request goes out when the previous reply is in.  Every reply
is checked against independent references (reference.py).

The host this runs on may change speed by tens of percent within seconds.
So every timed operation sits between two calibration probes, a fixed piece
of stdlib `Fraction` work in the client (HostSpeed), and each time is
reported at reference speed: measured seconds times CAL_REF_S over the
median of the probes around it.  The raw times and the probe times go to the
detail line.

--trace 0 runs whole rounds until the request latencies, at reference speed,
add up to S seconds, and reports the end-to-end metrics.  --trace 1 runs a
fixed number of rounds (sized from S) and serves every request twice back to
back, untraced and traced (tracer.py) in alternating order; it reports the
per-layer metrics and the tracing overhead, and writes the span records to
`.bench_out/` in the checkout.

The last line of stdout is the result object; the line before it carries
details (tail percentile, sample count, failure rate, input properties,
raw times and calibration probes).
Without a `src/qspecies` to run, the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import reference
import streams
from tracer import unit_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEADLINE_S = 170.0  # the whole run, so that it always ends within 180 s
# Set-up samples: a few before the timed loop, two after every round, and
# topped up to SETUP_SAMPLES, so that they spread over the run like the
# requests do.
SETUP_FIRST = 3
SETUP_PER_ROUND = 2
SETUP_SAMPLES = 11
SETUP_ARGV = ["bernoulli", "--order", "2"]
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from qspecies.cli import main; sys.exit(main(sys.argv[2:]))"
)
SELFTEST_ARGV = ["bernoulli", "--order", "8", "--format", "json"]
# Calibration probe: Bernoulli numbers up to CAL_ORDER by reference.py's
# uncached Akiyama-Tanigawa, 3.5 to 6.5 ms of bignum Fraction work on the 2-vCPU
# Xeon VM the benchmark was tuned on; shorter probes jitter more than the
# requests they scale.  Times are reported as if every probe had taken
# CAL_REF_S, which fixes the unit.  The probe slows down somewhat more than the
# program when the host does, so a slow host reads a little fast (see
# bench/README.md).  A probe taken less than FRESH_S before an operation also
# serves as the probe before it.
CAL_ORDER = 45
CAL_REF_S = 0.005
FRESH_S = 0.05
SMOOTH = 3


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("run exceeded its %.0f s deadline" % DEADLINE_S)
    return left


class HostSpeed:
    """Converts measured times to reference speed with probes around each one.

    An operation is scaled by the median of the probes from SMOOTH before it
    to SMOOTH after it: one probe jitters more than the host drifts between
    neighbouring probes, and a quantile of the scaled times would pick out
    that jitter.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.probed_at = -math.inf
        self.ops: list[tuple[float, int]] = []  # (seconds, index of the probe before)

    def _probe(self) -> None:
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference.bernoulli_numbers.__wrapped__(CAL_ORDER)
            self.probed_at = time.perf_counter()
        finally:
            gc.enable()
        self.probes.append(self.probed_at - t0)

    def measure(self, operation):
        """(operation id, result) of operation(), timed between two probes."""
        if time.perf_counter() - self.probed_at >= FRESH_S:
            self._probe()
        t0 = time.perf_counter()
        result = operation()
        elapsed = time.perf_counter() - t0
        self.ops.append((elapsed, len(self.probes) - 1))
        self._probe()
        return len(self.ops) - 1, result

    def raw(self, op: int) -> float:
        return self.ops[op][0]

    def scaled(self, op: int) -> float:
        """Seconds at reference speed, from the probes taken so far."""
        elapsed, before = self.ops[op]
        window = self.probes[max(0, before - SMOOTH) : before + 2 + SMOOTH]
        return elapsed * CAL_REF_S / statistics.median(window)


def setup_sample(started: float) -> subprocess.CompletedProcess:
    """A fresh interpreter importing the CLI and answering one request."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, SRC] + SETUP_ARGV
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=_remaining(started))


def timed_setup(speed: HostSpeed, started: float) -> int:
    op, proc = speed.measure(lambda: setup_sample(started))
    problem = reference.check(SETUP_ARGV, proc.returncode, proc.stdout, proc.stderr)
    if problem:
        raise BenchError("set-up request failed: %s" % problem)
    return op


class Worker:
    """The program under test, in its own process, one request at a time."""

    def __init__(self, started: float):
        self.started = started
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, SRC],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self.buffer = b""
        self.busy = True
        try:
            self.recv()
        except BenchError:
            self.close()
            raise

    def send(self, msg: dict) -> None:
        self.busy = True
        self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buffer:
            ready, _, _ = select.select([fd], [], [], _remaining(self.started))
            if not ready:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError("worker exited (code %s)" % self.proc.poll())
            self.buffer += chunk
        line, _, self.buffer = self.buffer.partition(b"\n")
        self.busy = False
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        self.send(msg)
        return self.recv()

    def close(self) -> None:
        """Ask an idle worker to quit; kill one that is stuck in a request."""
        if self.proc.poll() is None and not self.busy:
            try:
                self.send({"op": "quit"})
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def serve(worker: Worker, argv: list[str]) -> tuple[float, dict]:
    t0 = time.perf_counter()
    got = worker.call({"op": "run", "argv": argv})
    return time.perf_counter() - t0, got


def quartile_spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "median": median, "max": max(values),
            "spread": (q3 - q1) / median}


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    raise BenchError("only %d requests; the tail needs at least 11" % n)


def check_all(served: list[tuple[list[str], dict]]) -> list[str]:
    failures = []
    for argv, got in served:
        problem = "exception: %s" % got["exc"] if got["exc"] else reference.check(
            argv, got["rc"], got["out"], got["err"]
        )
        if problem:
            failures.append("%s: %s" % (" ".join(argv), problem))
    return failures


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "qspecies", "cli.py")):
        raise BenchError("no program to run: %s/qspecies/cli.py is missing" % SRC)
    speed = HostSpeed()
    setup_sample(started)  # writes the bytecode cache; not counted
    setup = [timed_setup(speed, started) for _ in range(SETUP_FIRST)]
    rounds = streams.rounds(args.workload, args.seed)
    worker = Worker(started)
    try:
        _, got = serve(worker, SELFTEST_ARGV)
        problem = got["exc"] or reference.selftest(SELFTEST_ARGV, got["out"])
        if problem:
            raise BenchError("checker self-test: %s" % problem)
        served, ops, requests, detail = [], [], [], {}
        if not args.trace:
            busy = 0.0
            while busy < args.seconds:
                for argv in next(rounds):
                    op, got = speed.measure(lambda: worker.call({"op": "run", "argv": argv}))
                    busy += speed.scaled(op)  # so host speed does not change how many rounds run
                    ops.append(op)
                    served.append((argv, got))
                    requests.append(argv)
                setup += [timed_setup(speed, started) for _ in range(SETUP_PER_ROUND)]
            while len(setup) < SETUP_SAMPLES:
                setup.append(timed_setup(speed, started))
            peak = worker.call({"op": "stats"})["peak_rss_mb"]
        else:
            count = max(1, int(args.seconds // (2 * streams.NOMINAL_ROUND_S[args.workload])))
            requests = [argv for _ in range(count) for argv in next(rounds)]
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, "trace-%s-seed%d" % (args.workload, args.seed))
            spent = {False: 0.0, True: 0.0}
            for i, argv in enumerate(requests):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        worker.call({"op": "trace_on", "path": path})
                    latency, got = serve(worker, argv)
                    if traced:
                        worker.call({"op": "trace_off"})
                    spent[traced] += latency
                    served.append((argv, got))
            report = worker.call({"op": "trace_report"})
            detail["group_self_s"] = report["group_self_s"]
            detail["rounds"] = count
            detail["untraced_s"], detail["traced_s"] = spent[False], spent[True]
    finally:
        worker.close()

    failures = check_all(served)
    attempted = len(served)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        attempted=attempted,
        fail_rate=len(failures) / attempted,
        failures=failures[:5],
        input=streams.input_properties(requests),
        calibration_probe_s=quartile_spread(speed.probes),
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    if not args.trace:
        raw = [speed.raw(op) for op in ops]
        scaled = [speed.scaled(op) for op in ops]
        setup_raw = [speed.raw(op) for op in setup]
        q, tail_s = tail(scaled)
        detail.update(
            tail_percentile=q,
            tail_samples_beyond=len(scaled) - math.ceil(q * len(scaled) / 100),
            setup_samples_s=setup_raw,
            raw={
                "throughput_rps": len(raw) / sum(raw),
                "req_p50_s": statistics.median(raw),
                "req_tail_s": sorted(raw)[math.ceil(q * len(raw) / 100) - 1],
                "setup_s": statistics.median(setup_raw),
            },
        )
        quotient = [t for argv, t in zip(requests, scaled) if "quotient" in argv]
        if quotient:
            # the quotient seeds are chosen by a model of their cost
            # (streams.quotient_work); a wide spread here means it is off
            detail["quotient_latency_s"] = quartile_spread(quotient)
        metrics = {
            "throughput_rps": (len(scaled) / sum(scaled), "1/s"),
            "req_p50_s": (statistics.median(scaled), "s"),
            "req_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(speed.scaled(op) for op in setup), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    else:
        values = dict(report["metrics"])
        values["trace.overhead_ratio"] = spent[True] / spent[False]
        values["trace.spans"] = report["spans_total"]
        metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        detail, result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print("bench: %s" % err, file=sys.stderr)
        return 2
    for failure in detail["failures"]:
        print("bench: wrong reply: %s" % failure, file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
