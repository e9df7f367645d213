"""Command-line driver: inspect the combinatorics, compute the polynomial
and cohomological invariants, and run the verification suite.

Subcommands
    triples H          modular triples of a Hessenberg function
    csf H              chromatic quasisymmetric function (JSON schema)
    llt H              unicellular LLT polynomial
    graph H            labeled GKM graph of the chosen side
    betti H            Hilbert numerator of the chosen side
    character H        graded character and Frobenius series
    check --thm T      verify a theorem on one function or a full sweep

H is the comma-separated value vector, e.g. "2,3,3"; graph, betti and
character take --side x (the default) or --side y.  Exit codes: 0 all
checks pass, 1 a check failed, 2 usage error, 141 stdout closed early.
A check item that raises is a FAIL item; a certificate or check that
raises elsewhere, as in betti or character, is one line "error: <class>:
<reason>" on stderr, with exit code 1 and no report.  Reports are
deterministic apart from the wall-time field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache

from gkmhess import coloring, hessenberg, maps
from gkmhess.cohomology import hilbert_numerator
from gkmhess.graphs import GRAPH_N_CAP, build_graph
from gkmhess.hessenberg import HessenbergFunction, find_modular_triples
from gkmhess.symfunc import DEGREE_CAP, GradedSymmetricFunction

THEOREMS = ("1.1", "1.2", "5.1", "corollary", "llt-law", "csf-law", "all")
TWO_SIDED = ("5.1", "corollary")   # one item checks side y and relabels x


class CapExceeded(ValueError):
    pass


def _check_cap(n: int, coloring_only: bool) -> None:
    cap = DEGREE_CAP if coloring_only else GRAPH_N_CAP
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the cap {cap} for this command")


def _parse_h(text: str) -> HessenbergFunction:
    return hessenberg.from_string(text)


# ---------------------------------------------------------------------------
# simple commands

def cmd_triples(h: HessenbergFunction) -> dict:
    items = []
    for t in find_modular_triples(h):
        items.append({
            "kind": t.kind,
            "params": list(t.params),
            "h_minus": str(t.h_minus),
            "h": str(t.h),
            "h_plus": str(t.h_plus),
        })
    return {"command": "triples", "h": str(h), "triples": items}


def cmd_csf(h: HessenbergFunction, basis: str) -> dict:
    _check_cap(h.n, True)
    gf = coloring.csf_q(h).convert(basis)
    return {"command": "csf", "h": str(h), "result": gf.to_json()}


def cmd_llt(h: HessenbergFunction, basis: str) -> dict:
    _check_cap(h.n, True)
    gf = coloring.llt(h).convert(basis)
    return {"command": "llt", "h": str(h), "result": gf.to_json()}


def cmd_graph(h: HessenbergFunction, side: str) -> dict:
    _check_cap(h.n, False)
    g = build_graph(h, side)
    return {"command": "graph", "h": str(h), "side": side,
            "graph": g.to_json()}


def cmd_betti(h: HessenbergFunction, side: str) -> dict:
    _check_cap(h.n, False)
    space, _ = maps.plain_side(h, side)
    numer = hilbert_numerator(space)
    return {"command": "betti", "h": str(h), "side": side,
            "numerator": numer, "total": sum(numer)}


def cmd_character(h: HessenbergFunction, side: str) -> dict:
    _check_cap(h.n, False)
    kind = "dot" if side == "x" else "dagger"
    char = maps.plain_character(h, side)
    return {"command": "character", "h": str(h), "side": side,
            "action": kind, "character": char.to_json(),
            "frobenius": maps.plain_series(h, side).to_json()}


# ---------------------------------------------------------------------------
# verification driver

def _failure(exc: Exception) -> dict:
    return {"pass": False, "error_class": type(exc).__name__,
            "error": str(exc)}


def _outcome(check) -> dict:
    """check(), or a FAIL naming the exception it raised."""
    try:
        return check()
    except Exception as exc:
        return _failure(exc)


def _run_item(item: tuple) -> list[dict]:
    """Execute one verification work item (name, h, triple), triple None
    where the check does not take one; a 5.1 or corollary item gives the
    rows of side x and side y, in that order, and every other item one row.

    A check that raises is reported as a FAIL row naming the exception,
    so one failing item never takes down the rest of a run; where side y
    raises, the side-x row names it as worded for side x.
    """
    name, h, triple = item
    head: dict = {"check": name, "h": str(h)}
    if triple is not None:
        head.update(kind=triple.kind, params=list(triple.params))
    if name not in TWO_SIDED:
        return [{**head, **_outcome(lambda: _run_check(item))}]
    try:
        y, side_x = _run_sides(item)
    except Exception as exc:
        y = _failure(exc)
        x = {**y, "error": maps.relabel_failure(y["error"])}
    else:
        x = _outcome(side_x)
    return [{**head, "side": "x", **x}, {**head, "side": "y", **y}]


def _run_check(item: tuple) -> dict:
    """The outcome of a one-sided item: "pass" and, on failure, its
    detail."""
    name, h, triple = item
    if name in ("llt-law", "csf-law"):
        fn = (coloring.check_modular_law_llt if name == "llt-law"
              else coloring.check_modular_law_csf)
        return {"pass": fn(triple)}
    check = (maps.check_theorem_1_1 if name == "1.1"
             else maps.check_theorem_1_2)
    return _law_outcome(check(h))


def _law_outcome(result: tuple) -> dict:
    ok, diff = result
    return {"pass": ok} if ok else {"pass": ok, "diff": diff.to_json()}


def _main_outcome(report: dict) -> dict:
    return {"pass": report["pass"], "degrees": report["degrees"]}


def _run_sides(item: tuple) -> tuple:
    """The side-y outcome of a 5.1 or corollary item, solved and checked
    once, and a function giving the side-x outcome from it."""
    name, _, triple = item
    if name == "5.1":
        report, report_x = maps.check_theorem_main_sides(triple)
        return _main_outcome(report), lambda: _main_outcome(report_x())
    law, law_x = maps.check_corollary_sides(triple)
    return _law_outcome(law), lambda: _law_outcome(law_x())


def _expand_items(thm: str, hs: list[HessenbergFunction]) -> list[tuple]:
    """The work items of thm over hs, in report order; CapExceeded at the
    first function too large for a check."""
    items: list[tuple] = []
    for h in hs:
        triples = find_modular_triples(h)
        for name in THEOREMS[:-1] if thm == "all" else (thm,):
            _check_cap(h.n, name.endswith("-law"))
            if name in ("1.1", "1.2"):
                items.append((name, h, None))
            elif name.endswith("-law"):
                items += [(name, h, t) for t in triples]
            else:   # 5.1 and the corollary take kind-C triples
                items += [(name, h, t) for t in triples if t.kind == "C"]
    return items


def cmd_check(thm: str, h: HessenbergFunction | None, sweep: int | None,
              jobs: int = 1) -> dict:
    if (h is None) == (sweep is None):
        raise CapExceeded("provide exactly one of a Hessenberg vector or --sweep")
    if sweep is not None:
        hs = list(hessenberg.enumerate_hessenberg(sweep))
        scope: dict = {"sweep": sweep}
    else:
        hs = [h]
        scope = {"h": str(h)}
    items = _expand_items(thm, hs)
    # the fork start method starts every worker at the first submit
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_item, items))
    else:
        rows = [_run_item(it) for it in items]
    results = [r for item_rows in rows for r in item_rows]
    return {"command": "check", "thm": thm, "scope": scope,
            "pass": all(r["pass"] for r in results),
            "count": len(results), "items": results}


# ---------------------------------------------------------------------------
# rendering

def _render_text(report: dict) -> str:
    lines = []
    cmd = report.get("command")
    if cmd == "check":
        for item in report["items"]:
            flag = "PASS" if item["pass"] else "FAIL"
            extra = " ".join(f"{k}={item[k]}" for k in
                             ("kind", "params", "side", "error_class")
                             if k in item)
            lines.append(f"{flag} check={item['check']} h={item['h']} {extra}".rstrip())
        lines.append(f"{'PASS' if report['pass'] else 'FAIL'} "
                     f"{report['count']} checks")
    elif cmd == "triples":
        for t in report["triples"]:
            lines.append(f"kind {t['kind']} params {t['params']}: "
                         f"{t['h_minus']} < {t['h']} < {t['h_plus']}")
        if not report["triples"]:
            lines.append("no modular triples")
    elif cmd in ("csf", "llt"):
        lines.append(repr(GradedSymmetricFunction.from_json(report["result"])))
    elif cmd == "betti":
        lines.append(f"numerator {report['numerator']} total {report['total']}")
    elif cmd == "character":
        lines.append(json.dumps(report["character"], indent=1))
        frob = GradedSymmetricFunction.from_json(report["frobenius"])
        lines.append(f"frobenius: {frob!r}")
    else:
        lines.append(json.dumps(report, indent=1))
    return "\n".join(lines)


def _emit(report: dict, fmt: str, out_path: str | None, wall: float) -> None:
    report["wall_time_sec"] = round(wall, 3)
    text = json.dumps(report, indent=1)
    if out_path:   # first, so that a closed stdout leaves it written
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text if fmt == "json" else _render_text(report), flush=True)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return int(text)


@lru_cache(maxsize=1)   # parse_args leaves it as it was: one per process
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    # accepted and ignored: nothing is cached on disk any more, but the
    # modular-2334 operation of perfbench/workloads.py still passes it
    common.add_argument("--cache-dir", help=argparse.SUPPRESS)
    common.add_argument("--jobs", type=_positive_int, default=1)
    common.add_argument("--output", default=None,
                        help="also write the JSON report to this file")

    ap = _Parser(
        prog="gkmhess",
        description="Hessenberg GKM graphs, graph cohomology, chromatic "
                    "quasisymmetric functions, LLT polynomials, and "
                    "modular-law verification (exact arithmetic).")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("triples", parents=[common],
                        help="modular triples of h")
    sp.add_argument("h")

    for name in ("csf", "llt"):
        sp = sub.add_parser(name, parents=[common],
                            help=f"{name} polynomial of h")
        sp.add_argument("h")
        sp.add_argument("--basis", choices=("m", "e", "h", "p", "s"),
                        default="m")

    for name in ("graph", "betti", "character"):
        sp = sub.add_parser(name, parents=[common],
                            help=f"{name} of the chosen side")
        sp.add_argument("h")
        sp.add_argument("--side", choices=("x", "y"), default="x")

    sp = sub.add_parser("check", parents=[common], help="verify a theorem")
    sp.add_argument("h", nargs="?", default=None)
    sp.add_argument("--thm", choices=THEOREMS, required=True)
    sp.add_argument("--sweep", type=int, default=None,
                    help="verify over every Hessenberg function of this size")
    return ap


def _usable_output_file(path: str) -> str | None:
    """None if path can be opened for writing; else the reason.  A file
    the check creates is removed again, so a failed run leaves none."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        return (exc.strerror or str(exc)).lower()
    if not existed:
        os.remove(path)
    return None


def main(argv=None) -> int:
    """Run one command.  The twins, plain characters and series its items
    read (:func:`maps.clear_plain_caches`) are shared between them, and by a
    forked --jobs worker between its items; they are dropped when the
    command ends, however it ends, so nothing carries over to the next."""
    try:
        ap = build_parser()
        args = ap.parse_args(argv)
        if args.output is not None:
            reason = _usable_output_file(args.output)
            if reason:
                print(f"error: cannot write output file {args.output!r}: "
                      f"{reason}", file=sys.stderr)
                return 2
        t0 = time.time()
        try:
            if args.cmd == "triples":
                report = cmd_triples(_parse_h(args.h))
            elif args.cmd == "graph":
                report = cmd_graph(_parse_h(args.h), args.side)
            elif args.cmd == "csf":
                report = cmd_csf(_parse_h(args.h), args.basis)
            elif args.cmd == "llt":
                report = cmd_llt(_parse_h(args.h), args.basis)
            elif args.cmd == "betti":
                report = cmd_betti(_parse_h(args.h), args.side)
            elif args.cmd == "character":
                report = cmd_character(_parse_h(args.h), args.side)
            elif args.cmd == "check":
                h = _parse_h(args.h) if args.h else None
                report = cmd_check(args.thm, h, args.sweep, args.jobs)
            else:   # pragma: no cover
                ap.error(f"unknown command {args.cmd}")   # exits with 2
        except (CapExceeded, hessenberg.NotNonDecreasing,
                hessenberg.ValueOutOfRange) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:   # a failed certificate or check
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        try:
            _emit(report, args.format, args.output, time.time() - t0)
        except BrokenPipeError:   # stdout closed early, as by `| head`: what
            # stays buffered goes nowhere, so exit flushes quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141   # 128 + SIGPIPE, as a shell reports a piped exit
        return 0 if report.get("pass", True) else 1
    finally:
        maps.clear_plain_caches()


if __name__ == "__main__":
    sys.exit(main())
