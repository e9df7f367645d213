"""Command-line driver: outputs, exit codes, determinism."""

import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys

import pytest

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import maps as M


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(*argv):
    """main's return code, or the code of the SystemExit it raised."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSimpleCommands:
    def test_triples(self, capsys):
        code, data = run_json(capsys, "triples", "2,3,3")
        assert code == 0
        assert data["triples"][0] == {
            "kind": "C", "params": [2, 1], "h_minus": "1,3,3",
            "h": "2,3,3", "h_plus": "3,3,3"}

    def test_csf_e_basis(self, capsys):
        code, data = run_json(capsys, "csf", "2,3,3", "--basis", "e")
        assert code == 0
        assert data["result"]["terms"] == {
            "0": {"[3]": "1"}, "1": {"[3]": "1", "[2,1]": "1"},
            "2": {"[3]": "1"}}

    def test_llt_m_basis(self, capsys):
        code, data = run_json(capsys, "llt", "2,3,3")
        assert code == 0
        assert data["result"]["terms"]["1"] == {"[2,1]": "2", "[1,1,1]": "4"}

    def test_graph_golden(self, capsys):
        code, data = run_json(capsys, "graph", "2,2")
        assert code == 0
        assert data["graph"] == {
            "n": 2, "vertices": ["12", "21"],
            "edges": [["12", "21", [1, -1]]]}

    def test_graph_sides_differ(self, capsys):
        _, dx = run_json(capsys, "graph", "2,3,3", "--side", "x")
        _, dy = run_json(capsys, "graph", "2,3,3", "--side", "y")
        assert dx["graph"]["vertices"] == dy["graph"]["vertices"]
        assert dx["graph"]["edges"] != dy["graph"]["edges"]

    def test_betti(self, capsys):
        code, data = run_json(capsys, "betti", "3,3,3")
        assert code == 0
        assert data["numerator"] == [1, 2, 2, 1]
        assert data["total"] == 6

    def test_character(self, capsys):
        code, data = run_json(capsys, "character", "2,2", "--side", "x")
        assert code == 0
        assert data["character"]["values"]["[2]"] == {"0": "1", "1": "1"}
        assert data["frobenius"]["terms"]["0"] == {"[2]": "1", "[1,1]": "1"}

    def test_text_format(self, capsys):
        code, out = run(capsys, "betti", "2,2", "--format", "text")
        assert code == 0
        assert "numerator [1, 1] total 2" in out

    def test_character_text_format(self, capsys):
        code, out = run(capsys, "character", "2,2", "--side", "y",
                        "--format", "text")
        assert code == 0
        assert "frobenius: (m[2] + m[1,1]) + (m[1,1])*q\n" in out


class TestCheck:
    def test_single_h_all(self, capsys):
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "all")
        assert code == 0
        assert data["pass"] is True
        assert data["count"] == 10

    def test_sweep_llt_law(self, capsys):
        code, data = run_json(capsys, "check", "--thm", "llt-law",
                              "--sweep", "3")
        assert code == 0
        assert data["pass"] is True
        checked = {(i["h"], i["kind"], tuple(i["params"]))
                   for i in data["items"]}
        assert ("2,3,3", "C", (2, 1)) in checked

    def test_sweep_thm11_n2(self, capsys):
        code, data = run_json(capsys, "check", "--thm", "1.1", "--sweep", "2")
        assert code == 0
        assert data["count"] == 2

    def test_jobs_parallel_matches_serial(self, capsys):
        # "all" sends 1.1, 1.2, 5.1 and corollary items through the pool too
        for thm, sweep in (("csf-law", "4"), ("all", "3")):
            code1, d1 = run_json(capsys, "check", "--thm", thm,
                                 "--sweep", sweep, "--jobs", "1")
            code2, d2 = run_json(capsys, "check", "--thm", thm,
                                 "--sweep", sweep, "--jobs", "2")
            assert code1 == code2 == 0
            d1.pop("wall_time_sec"), d2.pop("wall_time_sec")
            assert d1 == d2, thm

    def test_raising_check_is_a_fail_item(self, capsys, monkeypatch):
        _, before = run_json(capsys, "check", "2,3,3", "--thm", "all")

        def broken(h):
            raise CH.CrossCheckFailed("degree 1, type (3,): direct 1 != 2")

        monkeypatch.setattr(cli.maps, "check_theorem_1_1", broken)
        code, after = run_json(capsys, "check", "2,3,3", "--thm", "all")
        assert code == 1
        assert after["pass"] is False and after["count"] == 10
        assert after["items"][0] == {
            "check": "1.1", "h": "2,3,3", "pass": False,
            "error_class": "CrossCheckFailed",
            "error": "degree 1, type (3,): direct 1 != 2"}
        assert after["items"][1:] == before["items"][1:]

    def test_corollary_solves_only_the_plain_graphs(self, capsys,
                                                    monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("the corollary reads only the plain graphs")

        for module in (G, cli.maps):
            monkeypatch.setattr(module, "build_blowup", unread)
            monkeypatch.setattr(module, "build_circle_graph", unread)
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "corollary")
        assert code == 0 and data["pass"] is True
        assert [i["side"] for i in data["items"]] == ["x", "y"]

    @pytest.mark.parametrize("cpus, pools",
                             [(None, []), (3, [3]), (64, [16])])
    def test_pool_size_is_bounded(self, capsys, monkeypatch, cpus, pools):
        # at most one worker per item and per CPU, whatever --jobs asks,
        # and no pool for one worker; the pool is a stand-in that runs the
        # items inline
        argv = ("check", "--thm", "all", "--sweep", "3")
        _, serial = run_json(capsys, *argv, "--jobs", "1")
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, pooled = run_json(capsys, *argv, "--jobs", "100000")
        assert code == 0 and sizes == pools   # 16 items in sweep 3
        serial.pop("wall_time_sec"), pooled.pop("wall_time_sec")
        assert pooled == serial

    def test_scope_required(self, capsys):
        assert cli.main(["check", "--thm", "1.1"]) == 2

    def test_both_scopes_rejected(self, capsys):
        assert cli.main(["check", "2,3,3", "--thm", "1.1", "--sweep", "2"]) == 2


class TestErrors:
    def test_bad_vector(self, capsys):
        assert cli.main(["csf", "2,1,3"]) == 2

    def test_cap_exceeded_graph(self, capsys):
        assert cli.main(["betti", "7,7,7,7,7,7,7"]) == 2

    def test_cap_exceeded_coloring(self, capsys):
        h = ",".join(["9"] * 9)
        assert cli.main(["csf", h]) == 2

    def test_jobs_zero(self, capsys):
        assert exit_code("check", "--thm", "llt-law", "--sweep", "3",
                         "--jobs", "0") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_jobs_negative(self, capsys):
        assert exit_code("check", "--thm", "llt-law", "--sweep", "3",
                         "--jobs", "-3") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestFailedCertificate:
    """A certificate that fails in betti or character, on the twin blocks
    at n = 3 or n = 4, is one line on stderr naming its class, exit 1 and
    no report."""

    @staticmethod
    def drop_an_edge(build):
        def built(h):
            graph = build(h)
            return dataclasses.replace(graph, edges=graph.edges[1:])
        return built

    def check_fails(self, capsys, tmp_path, argv, error_class):
        path = tmp_path / "report.json"
        assert cli.main([*argv, "--output", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not path.exists()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {error_class}: ")
        return err

    @pytest.mark.parametrize("cmd", ["betti", "character"])
    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,4,4"])
    def test_mutated_side_x(self, capsys, tmp_path, monkeypatch, cmd, hstr):
        monkeypatch.setattr(M, "build_GX", self.drop_an_edge(G.build_GX))
        with pytest.raises(CH.RelabelFailed):
            getattr(cli, f"cmd_{cmd}")(H.from_string(hstr), "x")
        err = self.check_fails(capsys, tmp_path, [cmd, hstr, "--side", "x"],
                               "RelabelFailed")
        assert f"on the plain graph of {hstr}: the edge " in err

    @pytest.mark.parametrize("cmd", ["betti", "character"])
    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,4,4"])
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_failing_twin_certificate(self, capsys, tmp_path, monkeypatch,
                                      cmd, hstr, side):
        monkeypatch.setattr(M, "build_GY", self.drop_an_edge(G.build_GY))
        self.check_fails(capsys, tmp_path, [cmd, hstr, "--side", side],
                         "NotTwinGraph")


class TestUnusableOutputFile:
    """An --output path that cannot be written is a user error found
    before any computation: exit 2 and one line, no report."""

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("csf", "2,3,3"), ("check", "2,3,3", "--thm", "all")])
    @pytest.mark.parametrize("where, reason", [
        ("directory", "is a directory"),
        ("missing", "no such file or directory"),
        ("below_file", "not a directory")])
    def test_rejected(self, capsys, tmp_path, a_file, argv, where, reason):
        path = {"directory": str(tmp_path),
                "missing": os.path.join(str(tmp_path), "no", "x.json"),
                "below_file": os.path.join(a_file, "x.json")}[where]
        assert exit_code(*argv, "--output", path) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: cannot write output file {path!r}: {reason}"]

    def test_failed_run_leaves_no_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert exit_code("csf", "1,2,3,4,5,6,7,8,9",
                         "--output", str(path)) == 2
        assert not path.exists()

    def test_existing_file_is_overwritten(self, capsys, a_file):
        code, _ = run(capsys, "csf", "2,2", "--output", a_file)
        assert code == 0
        with open(a_file) as fh:
            assert json.load(fh)["command"] == "csf"


class TestClosedStdout:
    """A reader that closes the pipe before the report is printed, as
    `| head` does: the --output file is written all the same, and the
    command exits 141 with nothing on stderr."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_quiet_exit_and_output_file(self, tmp_path, fmt):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        path, err = tmp_path / "report.json", tmp_path / "stderr"
        with open(err, "wb") as err_fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "gkmhess.cli", "check", "3,3,3",
                 "--thm", "5.1", "--format", fmt, "--output", str(path)],
                stdout=subprocess.PIPE, stderr=err_fh, env=env)
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
        assert err.read_bytes() == b""
        assert json.loads(path.read_text())["pass"] is True


class TestDeterminismAndCache:
    def test_byte_identical_outputs(self, capsys):
        _, out1 = run(capsys, "csf", "2,3,3,4")
        _, out2 = run(capsys, "csf", "2,3,3,4")
        a, b = json.loads(out1), json.loads(out2)
        a.pop("wall_time_sec"), b.pop("wall_time_sec")
        assert json.dumps(a) == json.dumps(b)

    def test_cache_dir_is_ignored(self, capsys, tmp_path):
        # the modular-2334 benchmark operation still passes the flag
        argv = ("check", "2,3,3,4", "--thm", "all", "--jobs", "1")
        path = tmp_path / "cache"
        _, plain = run_json(capsys, *argv)
        code, flagged = run_json(capsys, *argv, "--cache-dir", str(path))
        assert code == 0 and not path.exists()
        plain.pop("wall_time_sec"), flagged.pop("wall_time_sec")
        assert flagged == plain

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run(capsys, "check", "2,2", "--thm", "1.1",
                      "--output", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["pass"] is True
