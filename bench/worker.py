"""Long-lived worker: serves CLI requests from the benchmark client.

Usage: python3 worker.py SRC_DIR

Imports `qspecies.cli` from SRC_DIR (and refuses any other copy), then
reads one JSON message per line on stdin and answers each with one JSON
line on stdout:

    {"op": "run", "argv": [...]}       -> {"rc", "out", "err", "exc"}
    {"op": "trace_on", "path": p}      -> {"ok": true}   wrappers in place
    {"op": "trace_off"}                -> {"ok": true}   originals back, spans to p
    {"op": "trace_report"}             -> {"metrics", "group_self_s", "spans_total"}
    {"op": "stats"}                    -> {"peak_rss_mb"}
    {"op": "quit"}                     -> exits

The first `trace_on` creates the tracer; later ones re-enable it, so one
tracer accumulates the spans of every traced request.

While a request runs, the program's stdout and stderr go to buffers; the
protocol keeps the process's real stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback


def _load_cli(src: str):
    src = os.path.realpath(src)
    sys.path.insert(0, src)
    import qspecies.cli as cli

    where = os.path.realpath(cli.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit("worker: qspecies imported from %s, not from %s" % (where, src))
    return cli


def _run(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 2
        except Exception:  # a program fault is a failed request, not a dead worker
            exc = traceback.format_exc(limit=8)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:], "exc": exc}


def main() -> int:
    cli = _load_cli(sys.argv[1])
    channel = sys.stdout
    tracer = None
    requests = 0

    def reply(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    reply({"ready": True})
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            if tracer is not None:
                tracer.request = requests
            requests += 1
            reply(_run(cli, msg["argv"]))
        elif op == "trace_on":
            if tracer is None:
                from tracer import Tracer

                tracer = Tracer(msg["path"])
                tracer.install()
            tracer.enable()
            reply({"ok": True})
        elif op == "trace_off":
            tracer.disable()
            tracer.flush()
            reply({"ok": True})
        elif op == "trace_report":
            tracer.close()
            reply(
                {
                    "metrics": tracer.metrics(),
                    "group_self_s": tracer.group_self_times(),
                    "spans_total": tracer.spans_total,
                }
            )
        elif op == "stats":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": peak_kb / 1024.0})
        elif op == "quit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
