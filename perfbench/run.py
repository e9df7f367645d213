"""Benchmark for gkmhess: runs one workload for a fixed time, checks every
output against independent oracles, and prints the metrics.

    python3 perfbench/run.py --workload series-n4 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                 # every workload once
    python3 perfbench/run.py --workload oracle-n4 --repeat 10   # quartiles

A run is whole rounds of the workload's operations, each round in a fresh
worker interpreter (``worker.py``): rounds start until ``--seconds`` have
passed, and there are at least two.  The seed only fixes the order of the
operations within a round.  Before each round two idle workers are
started and stopped, to sample the set-up time through the run.

With ``--trace 0`` the metrics are the end-to-end ones:
  wall_ref_s   median wall time of a round's operations in the worker, in
               reference seconds: rescaled by a calibration loop timed on
               the worker's own thread while the operations run, since CPU
               speed on a shared virtual machine drifts (see worker.py)
  setup_s      median time from spawning a worker until gkmhess.cli and
               its modules are imported, in reference seconds
  peak_rss_mb  median peak resident memory of the round workers
The raw wall and set-up times are printed beside them and kept in the
run's detail file.
With ``--trace 1`` rounds alternate untraced and traced; the metrics are
the per-layer ones from the traced rounds (medians; times in reference
seconds), plus trace.overhead_s, the traced minus the untraced median
round time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Per-run details (every round,
check errors, spans reported missing) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, label  # noqa: E402

MIN_ROUNDS = 2          # so that a median and a traced/untraced pair exist
IDLE_SPAWNS = 2         # set-up samples before each round, besides its own
DEADLINE_S = 170        # whole run, to stay inside the 180 s limit

# per-layer metric -> (how, what, unit).  how: "self" (self time summed
# over the spans), "calls", "max" (longest single span), "counter", "ratio"
# (counter / calls of a span), "fs" (files and bytes in the round's cache
# directory) or "overhead".
LAYER_METRICS = {
    "linalg.kernel_s": ("self", ["linalg.kernel_of_rows"], "s"),
    "linalg.kernel_calls": ("calls", ["linalg.kernel_of_rows"], "count"),
    "linalg.kernel_top_s": ("max", ["linalg.kernel_of_rows"], "s"),
    "linalg.kernel_rows": ("counter", "linalg.kernel_rows", "count"),
    "linalg.kernel_cols": ("counter", "linalg.kernel_cols", "count"),
    "linalg.kernel_dim": ("counter", "linalg.kernel_dim", "count"),
    "linalg.kernel_nnz": ("counter", "linalg.kernel_nnz", "count"),
    "linalg.kernel_max_bits": ("counter", "linalg.kernel_max_bits", "bits"),
    "linalg.rank_s": ("self", ["linalg.rank_of_int_rows",
                               "linalg.rank_of_columns",
                               "linalg.columns_to_int_rows"], "s"),
    "linalg.rank_calls": ("calls", ["linalg.rank_of_int_rows"], "count"),
    "linalg.rank_cols": ("counter", "linalg.rank_cols", "count"),
    "linalg.reduce_s": ("self", ["linalg.ColumnReducer.reduce",
                                 "linalg.ColumnReducer.insert"], "s"),
    "cohomology.rows_s": ("self", ["cohomology.constraint_rows"], "s"),
    "cohomology.rows_nnz": ("counter", "cohomology.rows_nnz", "count"),
    "cohomology.solve_self_s": ("self", ["cohomology.solve_graph"], "s"),
    "cohomology.solve_calls": ("calls", ["cohomology.solve_graph"], "count"),
    "cohomology.solve_graphs": ("counter", "cohomology.solve_graphs",
                                "count"),
    "cohomology.solve_useful": ("ratio", ("cohomology.solve_graphs",
                                          "cohomology.solve_graph"), "ratio"),
    "cohomology.cache_s": ("self", ["cohomology._cache_read",
                                    "cohomology._cache_write"], "s"),
    "cohomology.cache_files": ("fs", "files", "count"),
    "cohomology.cache_bytes": ("fs", "bytes", "bytes"),
    "cohomology.cache_hits": ("counter", "cohomology.cache_hits", "count"),
    "cohomology.invariance_s": ("self", ["cohomology.check_action_invariance"],
                                "s"),
    "cohomology.invariance_calls": ("calls",
                                    ["cohomology.check_action_invariance"],
                                    "count"),
    "cohomology.trace_s": ("self", ["cohomology.equivariant_trace",
                                    "cohomology._trace_on_reducer"], "s"),
    "cohomology.quotient_s": ("self", ["cohomology._cross_check_direct"],
                              "s"),
    "cohomology.character_self_s": ("self", ["cohomology.graded_character"],
                                    "s"),
    "cohomology.character_calls": ("calls", ["cohomology.graded_character"],
                                   "count"),
    "maps.images_s": ("self", ["maps.map_image_columns"], "s"),
    "maps.equivariance_s": ("self", ["maps.check_theorem_main"], "s"),
    "maps.context_calls": ("calls", ["maps.TripleContext.build"], "count"),
    "graphs.build_s": ("self", ["graphs.build_GX", "graphs.build_GY",
                                "graphs.build_graph",
                                "graphs.build_circle_graph",
                                "graphs.build_blowup"], "s"),
    "symfunc.frobenius_s": ("self", ["symfunc.frobenius"], "s"),
    "symfunc.convert_s": ("self", ["symfunc.SymmetricFunction.convert"], "s"),
    "coloring.enum_s": ("self", ["coloring.csf_q", "coloring.llt"], "s"),
    "coloring.enum_calls": ("calls", ["coloring.csf_q", "coloring.llt"],
                            "count"),
    "coloring.enum_useful": ("ratio", ("coloring.enum_distinct",
                                       "coloring.csf_q", "coloring.llt"),
                             "ratio"),
    "hessenberg.triples_s": ("self", ["hessenberg.find_modular_triples"],
                             "s"),
    "ops.other_s": ("self", ["op"], "s"),
    "trace.overhead_s": ("overhead", None, "s"),
}

E2E_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# workers

def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GKMHESS_CACHE_DIR")}
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def spawn_worker(job: dict | None, deadline: float) -> tuple[float, dict]:
    """Start a worker, time it until ready, give it a job (or tell it to
    exit) and return (set-up seconds, its result)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py"), str(ROOT)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=str(ROOT), env=_worker_env())
    try:
        if not select.select([proc.stdout], [], [], _remaining(deadline))[0]:
            raise BenchError("worker did not get ready in time")
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        if not line.startswith('{"ready"'):
            _, err = proc.communicate(timeout=_remaining(deadline))
            raise BenchError(f"worker did not start: {err.strip()[-2000:]}")
        msg = json.dumps(job if job is not None else {"exit": True})
        out, err = proc.communicate(msg + "\n", timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _cache_usage(path: Path) -> tuple[int, int]:
    files = size = 0
    if path.is_dir():
        for entry in os.scandir(path):
            if entry.is_file() and entry.name.endswith(".json"):
                files += 1
                size += entry.stat().st_size
    return files, size


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(summary: dict, fs: tuple[int, int],
                  factor: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced round; times are multiplied by
    factor (the round's reference-seconds factor)."""
    stats, counters = summary["stats"], summary["counters"]

    def col(names, i):
        return sum(stats[n][i] for n in names if n in stats)

    out = {}
    for name, (how, what, _) in LAYER_METRICS.items():
        if how == "self":
            out[name] = col(what, 2) * factor
        elif how == "calls":
            out[name] = col(what, 0)
        elif how == "max":
            out[name] = max((stats[n][3] for n in what if n in stats),
                            default=0.0) * factor
        elif how == "counter":
            out[name] = counters.get(what, 0)
        elif how == "ratio":
            calls = col(what[1:], 0)
            out[name] = counters.get(what[0], 0) / calls if calls else 0.0
        elif how == "fs":
            out[name] = fs[0] if what == "files" else fs[1]
    return out


def _median(values: list[float]) -> float:
    """Median; a value that repeats exactly (a count) is returned as is."""
    if not values:
        return 0.0
    if all(v == values[0] for v in values):
        return values[0]
    return statistics.median(values)


# ---------------------------------------------------------------------------
# one run

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "gkmhess" / "__init__.py").is_file():
        raise BenchError(f"no gkmhess sources under {ROOT / 'src'}")
    wl = WORKLOADS[workload]
    deadline = perf_counter() + DEADLINE_S
    ops = [(label(op), op) for op in wl.ops]
    random.Random(seed).shuffle(ops)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"

    setups: list[tuple[float, float]] = []   # (raw seconds, factor)
    rounds: list[dict] = []
    attempted = failed = 0
    check_errors: list[str] = []
    t_start = perf_counter()
    while (len(rounds) < MIN_ROUNDS or perf_counter() - t_start < seconds
           or (trace and len(rounds) % 2)):
        for _ in range(IDLE_SPAWNS):
            setup, res = spawn_worker(None, deadline)
            setups.append((setup, res["setup_factor"]))
        traced = trace and len(rounds) % 2 == 1
        cache = OUT / f"cache-{os.getpid()}-{len(rounds)}"
        shutil.rmtree(cache, ignore_errors=True)
        job = {"ops": ops, "trace": traced, "cache_dir": str(cache),
               "trace_file": str(OUT / f"{tag}-spans.json") if traced else None}
        try:
            setup, res = spawn_worker(job, deadline)
            fs = _cache_usage(cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        setups.append((setup, res["setup_factor"]))
        attempted += len(ops)
        failed += len(res["errors"])
        errs = wl.check(res["outputs"])
        check_errors += errs
        rounds.append({"traced": traced, "wall_s": sum(res["op_s"].values()),
                       "wall_ref_s": sum(res["op_ref_s"].values()),
                       "op_s": res["op_s"], "op_ref_s": res["op_ref_s"],
                       "errors": res["errors"],
                       "check_errors": errs, "setup_s": setup,
                       "round_factor": res["round_factor"],
                       "maxrss_kb": res["maxrss_kb"], "cache": fs,
                       "trace": res["trace"]})

    plain = [r for r in rounds if not r["traced"]]
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        per_round = [layer_metrics(r["trace"], tuple(r["cache"]),
                                   r["round_factor"])
                     for r in traced_rounds]
        values = {name: _median([m[name] for m in per_round])
                  for name in LAYER_METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            _median([r["wall_ref_s"] for r in traced_rounds])
            - _median([r["wall_ref_s"] for r in plain]))
        units = {name: spec[2] for name, spec in LAYER_METRICS.items()}
        missing = sorted({m for r in traced_rounds
                          for m in r["trace"]["missing"]})
    else:
        values = {
            "wall_ref_s": _median([r["wall_ref_s"] for r in plain]),
            "setup_s": _median([raw * factor for raw, factor in setups]),
            "peak_rss_mb": _median([r["maxrss_kb"] / 1024 for r in plain]),
        }
        units = E2E_UNITS
        missing = []
    result = {
        "correct": not check_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "order": [lab for lab, _ in ops],
              "setup_samples": [{"raw_s": raw, "factor": factor}
                                for raw, factor in setups],
              "raw_wall_s": _median([r["wall_s"] for r in plain]),
              "raw_setup_s": _median([raw for raw, _ in setups]),
              "rounds": rounds,
              "check_errors": check_errors, "missing_spans": missing,
              "result": result}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    for m in missing:
        print(f"span missing: {m}", file=sys.stderr)
    for e in check_errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    for r in rounds:
        for lab, e in r["errors"].items():
            print(f"operation failed: {lab}: {e}", file=sys.stderr)
    if not trace:
        print(f"{workload:13s} raw wall_s={detail['raw_wall_s']:.6g} s  "
              f"raw setup_s={detail['raw_setup_s']:.6g} s")
    return result


# ---------------------------------------------------------------------------
# repeated runs

def _spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload: str, seed: int, seconds: float, trace: bool,
           times: int) -> dict:
    """Run `times` runs on seeds seed, seed+1, ...; report each metric's
    median and quartiles, and its spread (q3 - q1) / median."""
    bounds = {m["name"]: m["bound"] for m in _spec().get("end_to_end", [])}
    results = [run(workload, seed + i, seconds, trace) for i in range(times)]
    summary = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bounds.get(name),
                         "values": vals}
        b = bounds.get(name)
        note = "" if b is None else f"  bound {b}  (spread/bound {spread / b:.2f})"
        print(f"{workload:13s} {name:28s} median {med:.6g}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  spread {spread:.4f}{note}")
    fail_share = {r["failed"] / r["attempted"] for r in results}
    return {"workload": workload, "runs": times,
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted(fail_share), "metrics": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run this many times on consecutive seeds and "
                         "report medians and quartiles")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = _spec().get("run_seconds", 15)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.repeat:
            out = {n: repeat(n, args.seed, seconds, bool(args.trace),
                             args.repeat) for n in names}
            print(json.dumps(out))
            return 0 if all(o["correct"] for o in out.values()) else 1
        results = {}
        for n in names:
            res = run(n, args.seed, seconds, bool(args.trace))
            results[n] = res
            shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in res["metrics"].items())
            print(f"{n:13s} {shown}  attempted={res['attempted']} "
                  f"failed={res['failed']} correct={res['correct']}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
