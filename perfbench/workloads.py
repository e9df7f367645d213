"""The benchmark's workloads and the checks on their outputs.

An operation is either a CLI call, ``("cli", argv)`` with the argv a user
would type, or a library call where the CLI has no entry,
``("crosscheck", h, side)``: solve the graph and compute the graded
character with the direct-quotient cross-check forced on.  The worker runs
one round of a workload's operations in the order the seed gives and sends
back each operation's output; the checks below compare those outputs with
the oracles in :mod:`oracles` and with properties the method must have,
never with a stored copy of an earlier output.

Each check returns a list of error strings; an empty list means correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import oracles

N8 = ("2,3,4,5,6,7,8,8", "3,4,5,6,7,8,8,8", "2,4,5,6,7,7,8,8")
CROSS = ("1,2,3,4", "2,2,3,4", "2,3,3,4", "2,3,4,4")
SERIES_H = "3,3,4,4"
MODULAR_H = "2,3,3,4"

# The items `check 2,3,3,4 --thm all` must report.  From the definitions:
# h(2) = h(3) = 3 and h^{-1}(2) = {1} give one kind-C triple, (d, d0) =
# (2, 1); h(1) + 1 = h(2) = 3 != 2 with h^{-1}(1) empty gives one kind-R
# triple, d' = 1.  5.1 and the corollary run on kind C, both sides; the two
# combinatorial laws run on both triples.
MODULAR_ITEMS = sorted([
    ("1.1", None, None, None), ("1.2", None, None, None),
    ("5.1", "C", (2, 1), "x"), ("5.1", "C", (2, 1), "y"),
    ("corollary", "C", (2, 1), "x"), ("corollary", "C", (2, 1), "y"),
    ("llt-law", "C", (2, 1), None), ("llt-law", "R", (1,), None),
    ("csf-law", "C", (2, 1), None), ("csf-law", "R", (1,), None),
], key=repr)


def cli(*argv: str) -> tuple:
    return ("cli", list(argv))


def label(op: tuple) -> str:
    if op[0] == "cli":
        text = " ".join(op[1])
        return text.replace(" --jobs 1", "").replace(" --cache-dir {cache}", "")
    return f"crosscheck {op[1]} --side {op[2]}"


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable[[dict], list[str]]


# ---------------------------------------------------------------------------
# parsing the program's JSON

def _partition(key: str) -> tuple[int, ...]:
    return tuple(int(x) for x in key.strip("[]").split(",") if x)


def parse_series(data: dict) -> dict:
    """Graded symmetric function JSON (m basis) as an oracle dict."""
    if data.get("basis") != "m":
        raise ValueError(f"expected the m basis, got {data.get('basis')!r}")
    out = {}
    for k, row in data["terms"].items():
        vals = {_partition(lam): Fraction(v) for lam, v in row.items()}
        vals = {lam: v for lam, v in vals.items() if v}
        if vals:
            out[int(k)] = vals
    return out


def parse_character(data: dict) -> dict:
    """{"values": {"[lam]": {"k": value}}} as {k: {lam: Fraction}}."""
    out: dict = {}
    for lam, row in data["values"].items():
        for k, v in row.items():
            out.setdefault(int(k), {})[_partition(lam)] = Fraction(v)
    return out


def _h(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


# ---------------------------------------------------------------------------
# checks shared by the graph workloads

def check_character(h: str, side: str, char: dict,
                    series: dict | None) -> list[str]:
    """Identity row = inversion distribution; the series rebuilt from the
    character table matches the reported one (when given) and, on side y,
    brute-force LLT, on side x, the omega twist matches brute-force csf_q."""
    errs = []
    hv = _h(h)
    n = len(hv)
    one = (1,) * n
    chars = parse_character(char)
    top = max(chars, default=-1)
    ident = tuple(int(chars.get(k, {}).get(one, 0)) for k in range(top + 1))
    if ident != oracles.inversion_distribution(hv):
        errs.append(f"{h} {side}: identity row {list(ident)} != inversion "
                    f"distribution {list(oracles.inversion_distribution(hv))}")
    rebuilt = oracles.frobenius_from_characters(chars)
    if series is not None and rebuilt != series:
        errs.append(f"{h} {side}: reported Frobenius series differs from the "
                    f"one rebuilt from the character table")
    if side == "y":
        if rebuilt != oracles.brute_coloring_series(hv, proper=False):
            errs.append(f"{h} y: Frobenius series != brute-force LLT")
    else:
        twisted = oracles.frobenius_from_characters(chars, twist=True)
        if twisted != oracles.brute_coloring_series(hv, proper=True):
            errs.append(f"{h} x: omega of the Frobenius series != "
                        f"brute-force csf_q")
    return errs


def check_sweep(report: dict, expected_count: int) -> list[str]:
    errs = []
    items = report.get("items", [])
    if len(items) != expected_count or report.get("count") != expected_count:
        errs.append(f"{report.get('thm')} sweep: {len(items)} items, "
                    f"expected {expected_count}")
    bad = [i for i in items if i.get("pass") is not True]
    if bad or report.get("pass") is not True:
        errs.append(f"{report.get('thm')} sweep: {len(bad)} items fail")
    return errs


def _cli_report(out: dict, lab: str, errs: list[str]) -> dict | None:
    if out.get("rc") != 0 or out.get("report") is None:
        errs.append(f"{lab}: exit code {out.get('rc')}")
        return None
    return out["report"]


# ---------------------------------------------------------------------------
# per-workload checks; `outs` maps operation label -> output

def check_series(outs: dict) -> list[str]:
    errs: list[str] = []
    for lab, out in outs.items():
        rep = _cli_report(out, lab, errs)
        if rep is None:
            continue
        side = rep.get("side")
        want = "dot" if side == "x" else "dagger"
        if rep.get("action") != want:
            errs.append(f"{lab}: action {rep.get('action')} != {want}")
        errs += check_character(rep["h"], side, rep["character"],
                                parse_series(rep["frobenius"]))
    return errs


def _item_key(item: dict) -> tuple:
    params = item.get("params")
    return (item.get("check"), item.get("kind"),
            tuple(params) if params is not None else None, item.get("side"))


def check_modular(outs: dict) -> list[str]:
    errs: list[str] = []
    for lab, out in outs.items():
        rep = _cli_report(out, lab, errs)
        if rep is None:
            continue
        items = rep.get("items", [])
        got = sorted((_item_key(i) for i in items), key=repr)
        if got != MODULAR_ITEMS:
            errs.append(f"{lab}: items {got} != expected {MODULAR_ITEMS}")
        if not all(i.get("pass") is True for i in items) or not rep.get("pass"):
            errs.append(f"{lab}: not every item passes")
        n = len(_h(MODULAR_H))
        for item in items:
            if item.get("check") != "5.1":
                continue
            degrees = item.get("degrees", {})
            dims = []
            for k in sorted(degrees, key=int):
                row = degrees[k]
                dims.append(row["dim_blowup"])
                if not (row.get("first_joint_rank") == row["dim_blowup"]
                        == row.get("second_joint_rank")):
                    errs.append(f"{lab} side {item['side']} degree {k}: "
                                f"joint ranks differ from dim_blowup")
                if row.get("consistency") is not True:
                    errs.append(f"{lab} side {item['side']} degree {k}: "
                                f"consistency false")
            numer = oracles.hilbert_numerator(dims, n)
            if min(numer, default=-1) < 0 or sum(numer) != 2 * factorial(n):
                errs.append(f"{lab} side {item['side']}: blow-up numerator "
                            f"{numer} is not nonnegative with sum "
                            f"{2 * factorial(n)}")
    return errs


def check_oracle(outs: dict) -> list[str]:
    errs: list[str] = []
    for lab, out in outs.items():
        if lab.startswith("crosscheck"):
            _, h, _, side = lab.split()
            errs += check_character(h, side, out["character"], None)
            continue
        rep = _cli_report(out, lab, errs)
        if rep is not None:
            errs += check_sweep(rep, 18)
    return errs


def check_coloring(outs: dict) -> list[str]:
    errs: list[str] = []
    for lab, out in outs.items():
        rep = _cli_report(out, lab, errs)
        if rep is None:
            continue
        if rep.get("command") == "check":
            errs += check_sweep(rep, 168)
            continue
        result = rep["result"]
        if result.get("basis") == "m":
            series = parse_series(result)
            n = result["degree"]
            ident = tuple(int(series.get(k, {}).get((1,) * n, 0))
                          for k in range(max(series) + 1))
            if ident != oracles.inversion_distribution(_h(rep["h"])):
                errs.append(f"{lab}: m_1^{n} coefficients {list(ident)} != "
                            f"inversion distribution")
        else:
            for k, row in result["terms"].items():
                for lam, v in row.items():
                    v = Fraction(v)
                    if v < 0 or v.denominator != 1:
                        errs.append(f"{lab}: s{lam} at q^{k} is {v}, not a "
                                    f"nonnegative integer")
    return errs


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in [
    Workload(
        "series-n4",
        [cli("character", SERIES_H, "--side", "x", "--jobs", "1"),
         cli("character", SERIES_H, "--side", "y", "--jobs", "1")],
        check_series),
    Workload(
        "modular-2334",
        [cli("check", MODULAR_H, "--thm", "all", "--jobs", "1",
             "--cache-dir", "{cache}")],
        check_modular),
    Workload(
        "oracle-n4",
        [cli("check", "--thm", "all", "--sweep", "3", "--jobs", "1")]
        + [("crosscheck", h, side) for h in CROSS for side in "xy"],
        check_oracle),
    Workload(
        "coloring-n6",
        [cli("check", "--thm", "llt-law", "--sweep", "6", "--jobs", "1"),
         cli("check", "--thm", "csf-law", "--sweep", "6", "--jobs", "1")]
        + [cli(cmd, h, "--basis", basis)
           for h in N8 for cmd in ("csf", "llt") for basis in ("m", "s")],
        check_coloring),
]}
