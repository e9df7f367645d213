"""Side x as the certified relabelling P of side y: the certificate, its
failures under mutation, the independence of the two sides, and the twin
cache that lets one command read each twin once."""

import json

import pytest

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import isotypic as I
from gkmhess import maps as M
from gkmhess.linalg import Echelon, kernel_of_rows
import full_kernels as FK
import graph_checks as GC
import kernel_traces as KT
from test_cohomology import row_set

# the n = 4 sample of the direct-quotient cross-check (acceptance
# criterion 7)
SAMPLE4 = ("1,2,3,4", "2,2,3,4", "2,3,3,4", "2,3,4,4")


def c_triple(hstr):
    h = H.from_string(hstr)
    return next(t for t in H.find_modular_triples(h) if t.kind == "C")


def side_pairs():
    """(name, graph y, graph x) for every plain, circle and blow-up graph
    with n <= 3, the plain graphs of the n = 4 sample, and the circle and
    blow-up graphs of the 2,3,3,4 triple."""
    for n in (1, 2, 3):
        for h in H.enumerate_hessenberg(n):
            yield f"plain graph of {h}", G.build_GY(h), G.build_GX(h)
            for t in H.find_modular_triples(h):
                if t.kind == "C":
                    ys = M.TripleGraphs.of(t, "y")
                    xs = M.TripleGraphs.of(t, "x")
                    for part in ("circle", "blowup"):
                        yield (xs.graph_name(part), ys.graphs()[part],
                               xs.graphs()[part])
    for s in SAMPLE4:
        h = H.from_string(s)
        yield f"plain graph of {h}", G.build_GY(h), G.build_GX(h)
    ys = M.TripleGraphs.of(c_triple("2,3,3,4"), "y")
    xs = M.TripleGraphs.of(c_triple("2,3,3,4"), "x")
    for part in ("circle", "blowup"):
        yield xs.graph_name(part), ys.graphs()[part], xs.graphs()[part]


def run_json(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def fresh_actions():
    """The action check is cached per (n, k); a test that mutates the
    actions needs it run again, and so does every later test."""
    CH._action_fault.cache_clear()
    yield
    CH._action_fault.cache_clear()


class TestSidesStayIndependent:
    """Side x solved on its own rows agrees with the relabelled side y:
    without this, comparing the two sides would compare y with itself."""

    def test_direct_x_kernel_is_the_relabelled_y_kernel(self):
        count = 0
        for name, gy, gx in side_pairs():
            space_y = CH.solve_graph(gy, gy.top_degree + 1)
            relabelled = FK.relabel_space(space_y, gx, name)
            direct = {}
            for k in range(space_y.max_degree + 1):
                direct[k] = kernel_of_rows(CH.constraint_rows(gx, k),
                                           space_y.bases[k].ambient_dim)
                cols = relabelled.bases[k].columns
                assert direct[k].dim == len(cols), (name, k)
                joint = Echelon.of(direct[k].columns)
                assert not any(joint.reduce(col) for col in cols), (name, k)
            space_x = CH.GradedSolutionSpace(gx, space_y.max_degree, direct)
            assert CH.graded_character(space_x, "dot") \
                == CH.graded_character(relabelled, "dot"), name
            count += 1
        assert count == 16

    def test_relabelled_space_reads_the_rows_of_side_x(self):
        # the solve keeps each degree's row adjacency for the quotient; the
        # relabelled space carries none, so its quotient reads side x's
        for n in (1, 2, 3):
            for h in H.enumerate_hessenberg(n):
                gx = G.build_GX(h)
                relabelled = FK.relabel_space(
                    CH.solve_graph(G.build_GY(h)), gx, "plain graph")
                assert relabelled.adjacency == {}
                assert CH.graded_character(relabelled, "dot") \
                    == CH.graded_character(CH.solve_graph(gx), "dot"), h

    def test_side_y_rows_in_the_side_x_quotient_are_caught(self):
        # mutation: the relabelled space carries the adjacency side y's
        # solve kept; wherever the two sides' rows differ, a generator
        # moves a side-x representative off the side-y kernel
        caught = 0
        for n in (1, 2, 3):
            for h in H.enumerate_hessenberg(n):
                gy, gx = G.build_GY(h), G.build_GX(h)
                space_y = CH.solve_graph(gy)
                relabelled = GC.replace(
                    FK.relabel_space(space_y, gx, "plain graph"),
                    adjacency=space_y.adjacency)
                if relabelled.adjacency == CH.solve_graph(gx).adjacency:
                    continue
                with pytest.raises(CH.NotInvariant,
                                   match="quotient representative"):
                    CH.graded_character(relabelled, "dot")
                caught += 1
        assert caught == 4

    @pytest.mark.parametrize("hstr", ["2,3,3", "3,3,3", "2,3,3,4"])
    def test_x_character_is_the_dot_character_of_side_x(self, hstr):
        h = H.from_string(hstr)
        space_x = CH.solve_graph(G.build_GX(h))
        assert M.plain_character(h, "x") == CH.graded_character(space_x,
                                                                "dot")

    def test_dot_traces_on_x_are_dagger_traces_on_y(self):
        h = H.from_string("2,3,3,4")
        gx, gy = G.build_GX(h), G.build_GY(h)
        space_x = CH.solve_graph(gx, gx.top_degree + 1)
        space_y = CH.solve_graph(gy, gy.top_degree + 1)
        assert KT.kernel_traces(space_x, "dot") \
            == KT.kernel_traces(space_y, "dagger")


class TestPlainSide:
    """maps.plain_side reads both sides off the twin blocks at every n,
    and graded_character cross-checks exactly the solved spaces."""

    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4"])
    def test_side_x_by_the_kind_of_twin(self, hstr):
        # blocks at every n: side x is the twin itself, once certified
        h = H.from_string(hstr)
        twin, traces = M.plain_side(h, "y")
        assert (twin, traces) == M.plain_twin(h)
        assert isinstance(twin, I.TwinBlocks)
        space, x_traces = M.plain_side(h, "x")
        assert space is twin and x_traces is traces

    def test_small_blocks_with_traces_give_the_block_character(self):
        # the direct quotient of each side solved alone, against the
        # series division of the twin's block traces
        for n in (1, 2, 3):
            for h in H.enumerate_hessenberg(n):
                blocks = I.twin_blocks(G.build_GY(h))
                for side, kind in (("x", "dot"), ("y", "dagger")):
                    assert CH.graded_character(
                        blocks, kind, traces=blocks.traces()) \
                        == CH.graded_character(
                            CH.solve_graph(G.build_graph(h, side)), kind), \
                        (h, side)

    def test_blocks_have_no_direct_quotient(self):
        blocks, traces = M.plain_twin(H.from_string("2,3,4,4"))
        for kwargs in ({}, {"cross_check": True},
                       {"traces": traces, "cross_check": True}):
            with pytest.raises(CH.NoDirectQuotient,
                               match="TwinBlocks has no direct quotient"):
                CH.graded_character(blocks, "dagger", **kwargs)
        assert issubclass(CH.NoDirectQuotient, ValueError)
        assert CH.graded_character(blocks, "dagger", traces=traces) \
            == M.plain_character(H.from_string("2,3,4,4"), "y")

    def test_solved_spaces_alone_are_cross_checked_by_default(
            self, monkeypatch):
        calls = []
        direct = CH._cross_check_direct

        def spy(*args):
            calls.append(args[0])
            return direct(*args)

        monkeypatch.setattr(CH, "_cross_check_direct", spy)
        gy = G.build_GY(H.from_string("2,3,3,4"))
        blocks = I.twin_blocks(gy)
        space = CH.solve_graph(gy)
        char = CH.graded_character(space, "dagger", traces=blocks.traces())
        assert len(calls) == 1 and calls[0] is space
        assert CH.graded_character(blocks, "dagger",
                                   traces=blocks.traces()) == char
        assert len(calls) == 1


class TestCertificate:
    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4", "1,3,4,4"])
    def test_side_x_of_a_triple_is_certified(self, hstr):
        report, side_x = M.check_theorem_main_sides(c_triple(hstr))
        assert report["pass"]
        assert side_x() == {**report, "side": "x"}

    def test_relabelling_is_a_coordinate_permutation(self):
        bl = M.TripleGraphs.of(c_triple("2,3,3"), "x").blowup
        for k in range(4):
            p = CH.relabelling(bl, k)
            assert sorted(p) == list(range(len(p)))

    def test_blowup_rows_differ_but_span_the_same_space(self):
        # the quad rows differ between the sides already in degree 0, so
        # the certificate needs more than row-set equality there
        t = c_triple("2,3,3,4")
        gy, gx = G.build_blowup(t, "y"), G.build_blowup(t, "x")
        p = CH.relabelling(gx, 0)
        pinv = {pc: c for c, pc in enumerate(p)}
        pulled = row_set({pinv[c]: v for c, v in r.items()}
                         for r in CH.constraint_rows(gx, 0))
        assert pulled != row_set(CH.constraint_rows(gy, 0))
        CH.certify_relabelling(gy, gx, "blow-up", 2)

    def test_wrong_graph_fails(self):
        gy = G.build_GY(H.from_string("2,3,3"))
        other = G.build_GX(H.from_string("1,3,3"))
        with pytest.raises(CH.RelabelFailed) as err:
            CH.certify_relabelling(gy, other, "plain graph of 2,3,3", 3)
        assert str(err.value).startswith(
            "relabelling check failed on the plain graph of 2,3,3: "
            "the edge ")
        with pytest.raises(CH.RelabelFailed, match="different vertices"):
            CH.certify_relabelling(gy, G.build_circle_graph(
                c_triple("2,3,3"), "x"), "circle graph", 3)


    def test_mutated_dot_action_fails(self, monkeypatch, fresh_actions):
        # the rows still correspond, but the dot action no longer is the
        # relabelled dagger action
        perm = CH.coordinate_perm

        def mutated(graph, k, sigma, action_kind):
            return perm(graph, k, sigma, "dagger")

        h = H.from_string("2,3,3")
        monkeypatch.setattr(CH, "coordinate_perm", mutated)
        with pytest.raises(CH.RelabelFailed) as err:
            CH.certify_relabelling(G.build_GY(h), G.build_GX(h),
                                   "plain graph", 3)
        assert str(err.value) == (
            "relabelling check failed on the plain graph, degree 1: the dot "
            "action by (2, 1, 3) is not the relabelled dagger action")


def _edges(graph, edges):
    return GC.replace(graph, edges=tuple(edges))


def _relabel(graph, pair, label):
    return _edges(graph, (e[:2] + (label,) if e[:2] == pair else e
                          for e in graph.edges))


def _flip(graph, i):
    s = graph.signs
    return GC.replace(graph, signs=s[:i] + (-s[i],) + s[i + 1:])


def _first_quad(graph, vs=None, label=None):
    (vs0, label0), *rest = graph.quads
    return GC.replace(
        graph, quads=((vs or vs0, label or label0), *rest))


def _both(mutate):
    return lambda gy, gx: (mutate(gy), mutate(gx))


def _x(mutate):
    return lambda gy, gx: (gy, mutate(gx))


# On the blow-up of 2,3,3 vertex i is the i-th permutation of S_3 in
# lex order, and circle copies come 6 later: the first 4-gon is
# (123, °123, 132, °132) with label (2, 3), and its chi = -1 pair
# 132 -- °132 is the edge (1, 7).  The edge 123 -- 213 is (0, 2), (1, 2).
GRAPH_MUTATIONS = {
    "vertices": (_x(lambda g: GC.replace(
        g, vertices=(g.vertices[1], g.vertices[0], *g.vertices[2:]))),
        "the two sides have different vertices"),
    "x-edge-dropped": (_x(lambda g: _edges(g, g.edges[1:])),
                       "the edge 123 -- 132 is on one side only"),
    "x-edge-added": (_x(GC.augment_blowup), "is on one side only"),
    "edge-repeated": (_x(lambda g: _edges(g, g.edges + g.edges[:1])),
                      "an edge is repeated or off the vertices"),
    "edge-off-the-vertices": (
        _both(lambda g: _edges(g, g.edges + ((0, 12, (1, 2)),))),
        "an edge is repeated or off the vertices"),
    "y-edge-off-its-label": (
        lambda gy, gx: (_relabel(gy, (0, 2), (1, 3)), gx),
        "the y edge 123 -- 213 is not along its label (1, 3)"),
    "x-edge-label": (_x(lambda g: _relabel(g, (0, 2), (1, 3))),
                     "the x edge 123 -- 213 is labelled (1, 3), not (1, 2)"),
    "x-4-gon-dropped": (_x(lambda g: GC.replace(
        g, quads=g.quads[1:])), "side y has 3 4-gons, side x 2"),
    "x-4-gon-vertices": (_x(lambda g: _first_quad(g, vs=(6, 0, 1, 7))),
                         "the y 4-gon (0, 6, 1, 7) is not the x 4-gon "
                         "(6, 0, 1, 7)"),
    "4-gon-off-the-vertices": (_both(lambda g: _first_quad(
        g, vs=(0, 6, 1, 12))), "(0, 6, 1, 12), or is off the vertices"),
    "x-4-gon-label": (_x(lambda g: _first_quad(g, label=(1, 3))),
                      "the x 4-gon 123 °123 132 °132 is labelled (1, 3), "
                      "not (2, 3)"),
    "4-gon-off-its-coset": (_both(lambda g: _first_quad(g, vs=(0, 6, 1, 8))),
                            "has a vertex off w and w (2, 3)"),
    "flipped-y-sign": (lambda gy, gx: (_flip(gy, 0), gx),
                       "the signs of the 4-gon 123 °123 132 °132 do not "
                       "correspond"),
    "flipped-x-sign": (_x(lambda g: _flip(g, 6)), "do not correspond"),
    "chi-pair-without-its-edge": (
        _both(lambda g: _edges(g, (e for e in g.edges if e[:2] != (1, 7)))),
        "the chi = -1 pair of the 4-gon 123 °123 132 °132 is not a y edge "
        "labelled (2, 3) with opposite x signs"),
    "chi-pair-with-equal-x-signs": (
        _both(lambda g: _flip(g, 7)), "the chi = -1 pair of the 4-gon"),
    "a-single-chi-minus-vertex": (
        _both(lambda g: _first_quad(g, vs=(0, 6, 6, 1))),
        "the chi = -1 pair of the 4-gon"),
}


class TestGraphConditions:
    """Each condition of the graph check, broken alone, fails the
    certificate with a message naming the graph and no degree."""

    def test_every_small_pair_passes(self):
        pairs = [(G.build_GY(h), G.build_GX(h)) for n in range(1, 6)
                 for h in H.enumerate_hessenberg(n)]
        for n in range(1, 5):
            for h in H.enumerate_hessenberg(n):
                for t in H.find_modular_triples(h):
                    if t.kind == "C":
                        ys = M.TripleGraphs.of(t, "y").graphs()
                        xs = M.TripleGraphs.of(t, "x").graphs()
                        pairs += [(ys[part], xs[part]) for part in ys]
        assert len(pairs) == 94
        for gy, gx in pairs:
            assert CH._graph_fault(gy, gx) is None, gx

    @pytest.mark.parametrize("what", GRAPH_MUTATIONS)
    def test_mutation_fails(self, what):
        mutate, reason = GRAPH_MUTATIONS[what]
        t = c_triple("2,3,3")
        gy, gx = mutate(G.build_blowup(t, "y"), G.build_blowup(t, "x"))
        with pytest.raises(CH.RelabelFailed) as err:
            CH.certify_relabelling(gy, gx, "blow-up of 2,3,3", 2)
        prefix = "relabelling check failed on the blow-up of 2,3,3: "
        assert str(err.value).startswith(prefix)
        assert reason in str(err.value)


class TestMutationsFailTheCertificate:
    """A mutated side-x construction makes the x item of 5.1 a FAIL that
    names the relabelling check; side y is unaffected."""

    def check_x_fails(self, capsys, where):
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "5.1")
        assert code == 1
        x, y = data["items"]
        assert (x["side"], y["side"]) == ("x", "y")
        assert y["pass"] is True
        assert x["pass"] is False
        assert x["error_class"] == "RelabelFailed"
        assert x["error"].startswith(
            f"relabelling check failed on the {where}")
        return x["error"]

    def test_x_edge_label(self, capsys, monkeypatch):
        label = G._label

        def mutated(side, w, i, j):
            if side == "x" and w == (1, 2, 3) and (i, j) == (2, 1):
                return (1, 3)
            return label(side, w, i, j)

        monkeypatch.setattr(G, "_label", mutated)
        # the edge of 123 along (2, 1) is in G(2,3,3) but not G(1,3,3)
        self.check_x_fails(capsys, "plain graph of 2,3,3: ")

    def test_blowup_sign(self, capsys, monkeypatch):
        build = G.build_blowup

        def mutated(triple, side):
            bl = build(triple, side)
            if side == "x":
                bl = GC.replace(
                    bl, signs=(-bl.signs[0],) + bl.signs[1:])
            return bl

        monkeypatch.setattr(M, "build_blowup", mutated)
        self.check_x_fails(capsys, "blow-up of 2,3,3: ")

    def test_quad_label(self, capsys, monkeypatch):
        build = G.build_blowup

        def mutated(triple, side):
            bl = build(triple, side)
            if side == "x":
                (vs, (a, b)), *rest = bl.quads
                bl = GC.replace(
                    bl, quads=((vs, (a, 6 - a - b)), *rest))
            return bl

        monkeypatch.setattr(M, "build_blowup", mutated)
        self.check_x_fails(capsys, "blow-up of 2,3,3: ")

    @pytest.mark.parametrize("name", ["psi", "rho"])
    def test_x_branch_of_a_map(self, capsys, monkeypatch, name):
        rule, source, shift = M.MAPS[name]

        def mutated(ctx, v):
            hit = rule(ctx, v)
            if ctx.side != "x" or hit is None:
                return hit
            s, (a, b), swap = hit
            return s, (b, a), swap   # the x multiplier with its sign flipped

        monkeypatch.setitem(M.MAPS, name, (mutated, source, shift))
        error = self.check_x_fails(capsys, f"map {name} at the blow-up "
                                           f"vertex 123: multiplier ")
        a, b = M.MAPS[name][0](M.TripleGraphs.of(
            c_triple("2,3,3"), "y"), G.plain((1, 2, 3)))[1]
        assert error.endswith(f"{(b, a)} on side x, not {(a, b)}")

    def mutate_x_rule(self, monkeypatch, name, at, change):
        """The rule of name with its side-x hit at the vertex at replaced
        by change(hit)."""
        rule, source, shift = M.MAPS[name]

        def mutated(ctx, v):
            hit = rule(ctx, v)
            return change(hit) if ctx.side == "x" and v == at else hit

        monkeypatch.setitem(M.MAPS, name, (mutated, source, shift))

    def test_x_swap_of_phi(self, capsys, monkeypatch):
        at = G.plain((2, 3, 1))
        self.mutate_x_rule(monkeypatch, "phi", at,
                           lambda hit: (hit[0], hit[1], not hit[2]))
        error = self.check_x_fails(capsys, f"map phi at the blow-up vertex "
                                           f"{at}: ")
        assert error.endswith("the t_d/t_{d+1} swaps do not correspond")

    def test_x_source_moved_within_its_sheet(self, capsys, monkeypatch):
        at = G.circ((3, 1, 2))

        def moved(hit):
            s, mult, swap = hit
            return G.Vertex(s.circle, G.swap_positions(s.perm, 1, 3)), \
                mult, swap

        self.mutate_x_rule(monkeypatch, "eta", at, moved)
        error = self.check_x_fails(capsys, f"map eta at the blow-up vertex "
                                           f"{at}: source 213 on side x, ")
        assert error.endswith("312 on side y")

    def test_x_zero_at_one_vertex(self, capsys, monkeypatch):
        at = G.plain((1, 3, 2))
        self.mutate_x_rule(monkeypatch, "psi", at, lambda hit: None)
        error = self.check_x_fails(capsys, f"map psi at the blow-up vertex "
                                           f"{at}: ")
        assert error.endswith("zero on one side only")

    def test_corollary_and_theorem_1_1_name_it_too(self, capsys, monkeypatch):
        label = G._label

        def mutated(side, w, i, j):
            if side == "x" and w == (1, 2, 3) and (i, j) == (2, 1):
                return (1, 3)
            return label(side, w, i, j)

        monkeypatch.setattr(G, "_label", mutated)
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "all")
        assert code == 1
        fails = {(i["check"], i.get("side")): i for i in data["items"]
                 if not i["pass"]}
        assert set(fails) == {("1.1", None), ("5.1", "x"),
                              ("corollary", "x")}
        for item in fails.values():
            assert item["error_class"] == "RelabelFailed"
        assert fails[("1.1", None)]["error"].startswith(
            "relabelling check failed on the plain graph of 2,3,3: ")


class TestSideYFailure:
    def test_failed_y_report_fails_x_with_the_same_degrees(
            self, capsys, monkeypatch):
        # every rank reads 0 on side y; the relabelling still holds, so
        # side x reports the same degrees
        monkeypatch.setattr(M, "_ranks", lambda a, b: (0, 0, 0))
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "5.1")
        assert code == 1
        x, y = data["items"]
        assert x["pass"] is y["pass"] is False
        assert x["degrees"] == y["degrees"]

    def test_report_is_worded_for_the_dot_action(self, capsys, monkeypatch):
        # the failures of a report name no action, so side x keeps them
        graphs = M.TripleGraphs.of(c_triple("2,3,3"), "y")
        with monkeypatch.context() as mp:
            mp.setattr(M, "_ranks", lambda a, b: (0, 0, 0))
            report = M.check_theorem_blocks(graphs, 4)
        assert report["failures"] and report["side"] == "y"
        assert not any("dagger" in f for f in report["failures"])
        assert M.relabel_report(report) == {**report, "side": "x"}

        # the CLI's block check refuses a skewed rule before any report
        def skewed(ctx, v):
            return G.plain(G.compose((2, 1, 3), v.perm)), None, False

        monkeypatch.setitem(M.MAPS, "eta", (skewed, "plus", 0))
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "5.1")
        assert code == 1
        x, y = data["items"]
        assert x["error_class"] == y["error_class"] == "EquivarianceFailed"
        assert y["error"].startswith("eta does not commute with dagger action")
        assert x["error"].startswith("eta does not commute with dot action")


class TestOneSolvePerTriple:
    def spy(self, monkeypatch):
        """The (content key, degree) of every full system built, and of
        every one of them solved, as the run goes."""
        built, solved = [], []
        rows_of, kernel = CH.constraint_rows, CH.Kernel

        def rows_spy(graph, k, *groups):
            built.append((graph.content_key(), k))
            return rows_of(graph, k, *groups)

        def kernel_spy(rows, ncols):
            solved.append(built[-1])
            return kernel(rows, ncols)

        monkeypatch.setattr(CH, "constraint_rows", rows_spy)
        monkeypatch.setattr(CH, "Kernel", kernel_spy)
        return built, solved

    @pytest.mark.parametrize("argv, count", [
        (("check", "2,3,3", "--thm", "all"), 10),
        (("check", "--thm", "all", "--sweep", "3"), 18)],
        ids=["2,3,3", "sweep-3"])
    def test_small_checks_build_no_full_system(self, capsys, monkeypatch,
                                               argv, count):
        built, solved = self.spy(monkeypatch)
        code, data = run_json(capsys, *argv)
        assert code == 0 and data["count"] == count
        assert built == solved == []

    def test_n4_check_builds_no_full_system(self, capsys, monkeypatch):
        built, solved = self.spy(monkeypatch)
        code, data = run_json(capsys, "check", "2,3,3,4", "--thm", "all")
        assert code == 0 and data["count"] == 10
        assert built == solved == []

    def test_n4_betti_solves_no_full_kernel(self, capsys, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("a full kernel solved")

        for module, name in ((CH, "solve_graph"), (CH, "Kernel")):
            monkeypatch.setattr(module, name, unused)
        code, data = run_json(capsys, "betti", "4,4,4,4", "--side", "x")
        assert code == 0 and data["numerator"] == [1, 3, 5, 6, 5, 3, 1]

    def test_twin_blocks_once_per_graph(self, capsys, monkeypatch):
        # 1.1, 1.2 and the corollary's middle graph read the twin of h,
        # the corollary also those of h_- and h_+
        seen = []
        blocks = M.twin_blocks

        def spy(graph):
            seen.append(graph.content_key())
            return blocks(graph)

        monkeypatch.setattr(M, "twin_blocks", spy)
        code, _ = run_json(capsys, "check", "2,3,3,4", "--thm", "all")
        assert code == 0 and len(seen) == len(set(seen)) == 3


class TestTwinCache:
    def test_a_command_shares_its_twins(self, capsys, monkeypatch):
        # read at the end of the command, before main drops them: the
        # three twins of the corollary, each read again by another item
        seen = []
        emit = cli._emit

        def spy(*args):
            seen.append(M.plain_twin.cache_info())
            return emit(*args)

        monkeypatch.setattr(cli, "_emit", spy)
        code, _ = run_json(capsys, "check", "2,3,3,4", "--thm", "all")
        assert code == 0 and len(seen) == 1
        assert seen[0].currsize == 3 and seen[0].hits > 0
        assert M.plain_twin.cache_info().currsize == 0

    def test_main_leaves_no_twin(self, capsys):
        code, _ = run_json(capsys, "check", "2,3,3", "--thm", "all")
        assert code == 0 and M.plain_twin.cache_info().currsize == 0
        assert M.plain_character.cache_info().currsize == 0
        assert M.plain_series.cache_info().currsize == 0

    @pytest.mark.parametrize("argv, pairs", [
        (("check", "2,3,3,4", "--thm", "all"), 6),
        (("check", "--thm", "all", "--sweep", "3"), 10)])
    def test_a_command_makes_each_plain_character_once(
            self, capsys, monkeypatch, argv, pairs):
        # 1.1, 1.2 and the corollaries read some (h, side) more than once
        seen = []
        character = M.graded_character

        def spy(space, kind, **kwargs):
            seen.append((space.graph.content_key(), kind))
            return character(space, kind, **kwargs)

        monkeypatch.setattr(M, "graded_character", spy)
        code, _ = run_json(capsys, *argv)
        assert code == 0 and len(seen) == len(set(seen)) == pairs

    @pytest.mark.parametrize("argv, pairs", [
        (("character", "2,3,3", "--side", "y"), 1),
        (("check", "2,3,3,4", "--thm", "all"), 6),
        (("check", "--thm", "all", "--sweep", "3"), 10),
        (("check", "--thm", "all", "--sweep", "4"), 28)],
        ids=["character", "2,3,3,4", "sweep-3", "sweep-4"])
    def test_a_command_converts_each_plain_character_once(
            self, capsys, monkeypatch, argv, pairs):
        # 1.1 and the side-x corollary read the same series, as do 1.2
        # and the side-y corollary; a kept character is one object
        seen = []
        convert = M.frobenius_of_character

        def spy(char):
            seen.append(id(char))
            return convert(char)

        monkeypatch.setattr(M, "frobenius_of_character", spy)
        code, _ = run_json(capsys, *argv)
        assert code == 0 and len(seen) == len(set(seen)) == pairs

    def test_usage_error_leaves_no_twin(self, capsys):
        M.plain_twin(H.from_string("2,3,3"))   # kept before the call
        assert cli.main(["betti", "7,7,7,7,7,7,7"]) == 2
        assert M.plain_twin.cache_info().currsize == 0
        M.plain_twin(H.from_string("2,3,3"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "2,3,3", "--thm", "9.9"])
        assert exc.value.code == 2
        assert M.plain_twin.cache_info().currsize == 0

    def test_fail_item_leaves_no_twin(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise CH.RelabelFailed("refused")

        # side y reads the twins and passes; side x fails
        monkeypatch.setattr(M, "certify_relabelling", refused)
        code, data = run_json(capsys, "check", "2,3,3,4", "--thm",
                              "corollary")
        assert code == 1
        assert [i["pass"] for i in data["items"]] == [False, True]
        assert M.plain_twin.cache_info().currsize == 0
