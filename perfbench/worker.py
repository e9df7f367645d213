"""One benchmark worker: a fresh interpreter that imports gkmhess from the
checkout, says it is ready, runs one round of operations and reports.

Protocol (one JSON object per line):
  worker -> parent   {"ready": true}                  after the imports
  parent -> worker   {"ops": [[label, op], ...], "trace": bool,
                      "cache_dir": str, "trace_file": str|null}
                     or {"exit": true}
  worker -> parent   {"op_s": {...}, "op_ref_s": {...}, "outputs": {...},
                      "errors": {...}, "setup_factor": ...,
                      "round_factor": ..., "maxrss_kb": ...,
                      "trace": {...}|null}
                     or, after {"exit": true}, {"setup_factor": ...}

Timings are also given in reference seconds.  On a shared virtual machine
the speed of a CPU can drift by tens of percent over seconds, differently
on each CPU, so the worker times a fixed pure-Python loop on its own
thread: three times after the imports, before and after each operation,
and every PERIOD_S seconds during it (from SIGALRM, so on the same thread
and CPU as the program).  An operation's reference time is its wall time,
less the time spent in the loop, times REF_S over the loop's mean speed
while the operation ran.  The set-up factor, REF_S over the loop's median
time just after the imports, turns the set-up time the parent measures
into reference seconds.  Traced rounds sample only before and after each
operation, outside every span, and write their spans to "trace_file"; the
round factor, REF_S over the loop's mean speed through the round, turns
their span times into reference seconds.

Usage: python3 worker.py <checkout root>
"""

import sys

ROOT = sys.argv[1]
sys.path.insert(0, ROOT + "/src")

import gkmhess.cli  # noqa: E402  (the set-up being measured)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402
from time import perf_counter  # noqa: E402

REF_S = 0.002       # duration of one calibration loop at the reference speed
PERIOD_S = 0.25     # calibration period during an operation


def _calibration_loop():
    d = {}
    s = 0
    for i in range(4000):
        s += (i * 7919) % 104729
        d[i & 255] = d.get(i & 255, 0) + s
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i % 17, (i % 13) + 1)
    return s, f


class Calibrator:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._busy = False

    def sample(self, *_):
        if self._busy:      # the timer fired during an explicit sample
            return
        self._busy = True
        t = perf_counter()
        _calibration_loop()
        self.samples.append((t, perf_counter() - t))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)


def _run_op(op: list, cache_dir: str | None):
    """Run one operation and return its raw output."""
    if op[0] == "cli":
        argv = [cache_dir if a == "{cache}" else a for a in op[1]]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = gkmhess.cli.main(argv)
        return {"rc": rc, "text": buf.getvalue()}
    if op[0] == "crosscheck":
        from gkmhess.cohomology import graded_character, solve_graph
        from gkmhess.graphs import build_graph
        from gkmhess.hessenberg import from_string
        _, h, side = op
        space = solve_graph(build_graph(from_string(h), side))
        kind = "dot" if side == "x" else "dagger"
        char = graded_character(space, kind, cross_check=True)
        return {"character": char}
    raise ValueError(f"unknown operation {op[0]!r}")


def _finish(raw: dict) -> dict:
    """Turn a raw output into JSON-ready data, off the clock."""
    if "text" in raw:
        try:
            report = json.loads(raw["text"])
        except ValueError:
            report = None
        return {"rc": raw["rc"], "report": report}
    return {"character": raw["character"].to_json()}


def main() -> int:
    root = os.path.realpath(os.path.join(ROOT, "src"))
    where = os.path.realpath(gkmhess.cli.__file__)
    if not where.startswith(root + os.sep):
        print(f"gkmhess imported from {where}, not from {root}",
              file=sys.stderr)
        return 2
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    cal = Calibrator()
    for _ in range(3):
        cal.sample()
    setup_factor = REF_S / cal.median_s()
    job = json.loads(sys.stdin.readline() or '{"exit": true}')
    if job.get("exit"):
        out.write(json.dumps({"setup_factor": setup_factor}) + "\n")
        return 0
    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install(spans.TARGETS)
    raws, errors, op_s, op_ref = {}, {}, {}, {}
    round_first = len(cal.samples)
    if tracer is None:
        cal.start()
    for lab, op in job["ops"]:
        first = len(cal.samples)
        cal.sample()
        t0 = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    raws[lab] = _run_op(op, job.get("cache_dir"))
            else:
                raws[lab] = _run_op(op, job.get("cache_dir"))
        except Exception as exc:   # counted as a failed operation
            errors[lab] = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        cal.sample()
        window = cal.samples[first:]
        net = t1 - t0 - sum(d for t, d in window if t0 <= t < t1)
        op_s[lab] = net
        op_ref[lab] = net * REF_S * statistics.mean(1 / d for _, d in window)
    cal.stop()
    round_factor = REF_S * statistics.mean(
        1 / d for _, d in cal.samples[round_first:])
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = {lab: _finish(raw) for lab, raw in raws.items()}
    result = {"op_s": op_s, "op_ref_s": op_ref, "outputs": outputs,
              "errors": errors, "setup_factor": setup_factor,
              "round_factor": round_factor,
              "maxrss_kb": maxrss,
              "trace": tracer.summary() if tracer is not None else None}
    if tracer is not None and job.get("trace_file"):
        with open(job["trace_file"], "w") as fh:
            json.dump({"spans": tracer.kept,
                       "columns": ["id", "parent", "name", "start", "end"],
                       **tracer.summary()}, fh)
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
