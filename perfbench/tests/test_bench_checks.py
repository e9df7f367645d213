"""The workload checks accept the program's real outputs and reject wrong
ones, including a wrong oracle value."""

import contextlib
import copy
import io
import json

import pytest

import oracles
import workloads
from gkmhess import cli


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return {"rc": rc, "report": json.loads(buf.getvalue())}


@pytest.fixture(scope="module")
def characters():
    return {side: _cli("character", "2,3,3", "--side", side)
            for side in "xy"}


def test_series_check_accepts_real_output(characters):
    outs = {f"character 2,3,3 --side {s}": o for s, o in characters.items()}
    assert workloads.check_series(outs) == []


def test_series_check_rejects_wrong_oracle(characters, monkeypatch):
    monkeypatch.setattr(oracles, "inversion_distribution",
                        lambda h: (1, 3, 1))
    errs = workloads.check_series({"x": characters["x"]})
    assert any("inversion distribution" in e for e in errs)


def test_series_check_rejects_wrong_brute_force(characters, monkeypatch):
    real = oracles.brute_coloring_series

    def off_by_one(h, proper):
        out = copy.deepcopy(real(h, proper))
        out[0][(1, 1, 1)] += 1
        return out

    monkeypatch.setattr(oracles, "brute_coloring_series", off_by_one)
    assert any("LLT" in e for e in
               workloads.check_series({"y": characters["y"]}))
    assert any("csf_q" in e for e in
               workloads.check_series({"x": characters["x"]}))


def test_series_check_rejects_wrong_character(characters):
    out = copy.deepcopy(characters["y"])
    out["report"]["character"]["values"]["[2,1]"]["1"] = "3"
    errs = workloads.check_series({"y": out})
    assert any("rebuilt" in e for e in errs)
    assert any("LLT" in e for e in errs)


def test_series_check_rejects_failed_exit(characters):
    out = dict(characters["x"], rc=1)
    assert workloads.check_series({"x": out})


def _modular_report():
    degrees = {}
    # dims of a blow-up with numerator [2, 22, 22, 2] on n = 4 (sum 48)
    numer = [2, 22, 22, 2, 0]
    dims = []
    for k in range(len(numer)):
        # invert b = dim series * (1-q)^4: dim_k = sum_j C(j+3, 3) b_{k-j}
        dims.append(sum((j + 1) * (j + 2) * (j + 3) // 6 * numer[k - j]
                        for j in range(k + 1)))
    for k, d in enumerate(dims):
        degrees[str(k)] = {"dim_blowup": d, "first_joint_rank": d,
                           "second_joint_rank": d, "consistency": True}
    items = []
    for check, kind, params, side in workloads.MODULAR_ITEMS:
        item = {"check": check, "h": "2,3,3,4", "pass": True}
        if kind is not None:
            item.update(kind=kind, params=list(params))
        if side is not None:
            item["side"] = side
        if check == "5.1":
            item["degrees"] = copy.deepcopy(degrees)
        items.append(item)
    return {"rc": 0, "report": {"command": "check", "pass": True,
                                "count": len(items), "items": items}}


def test_modular_check():
    assert workloads.check_modular({"m": _modular_report()}) == []
    out = _modular_report()
    out["report"]["items"].pop()
    assert workloads.check_modular({"m": out})
    out = _modular_report()
    five = [i for i in out["report"]["items"] if i["check"] == "5.1"][0]
    five["degrees"]["2"]["first_joint_rank"] -= 1
    assert any("joint ranks" in e for e in workloads.check_modular({"m": out}))
    out = _modular_report()
    five = [i for i in out["report"]["items"] if i["check"] == "5.1"][0]
    five["degrees"]["1"]["dim_blowup"] += 1
    five["degrees"]["1"]["first_joint_rank"] += 1
    five["degrees"]["1"]["second_joint_rank"] += 1
    assert any("numerator" in e for e in workloads.check_modular({"m": out}))


def test_sweep_and_coloring_checks():
    sweep = _cli("check", "--thm", "llt-law", "--sweep", "3")
    assert workloads.check_coloring({"s": sweep}) != []   # 2 items, not 168
    assert workloads.check_sweep(sweep["report"], 2) == []
    m = _cli("llt", "2,3,3", "--basis", "m")
    s = _cli("csf", "2,3,3", "--basis", "s")
    assert workloads.check_coloring({"m": m, "s": s}) == []
    bad = copy.deepcopy(s)
    bad["report"]["result"]["terms"]["1"]["[2,1]"] = "-1"
    assert workloads.check_coloring({"s": bad})
    wrong = copy.deepcopy(m)
    wrong["report"]["result"]["terms"]["0"]["[1,1,1]"] = "2"
    assert workloads.check_coloring({"m": wrong})


def test_oracle_check_on_cross_checked_character():
    from gkmhess.cohomology import graded_character, solve_graph
    from gkmhess.graphs import build_graph
    from gkmhess.hessenberg import from_string
    for side, kind in (("x", "dot"), ("y", "dagger")):
        space = solve_graph(build_graph(from_string("2,3,3"), side))
        char = graded_character(space, kind, cross_check=True).to_json()
        lab = f"crosscheck 2,3,3 --side {side}"
        assert workloads.check_oracle({lab: {"character": char}}) == []
        char["values"]["[1,1,1]"]["0"] = "2"
        assert workloads.check_oracle({lab: {"character": char}})
