"""Characters of plain twin graphs from per-irreducible blocks: the blocks
agree with the full kernel and its traces, and both certificates (the
representations and the graph shape) reject every mutation tried."""

import dataclasses
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import isotypic as I
from gkmhess import maps as M
from gkmhess.symfunc import mn_character, partitions_of

ALL_N4 = [str(h) for n in (1, 2, 3, 4) for h in H.enumerate_hessenberg(n)]


@pytest.fixture
def fresh_representations():
    """The certified representations are cached per n, and the columns
    read from them per (n, lam, a, b); a test that mutates the seminormal
    matrices needs them built again, and so does every later test."""
    I.representations.cache_clear()
    I._independent_columns.cache_clear()
    yield
    I.representations.cache_clear()
    I._independent_columns.cache_clear()


def run_json(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


class TestBlocksEqualTheTracePath:
    @pytest.mark.parametrize("hstr", ALL_N4)
    def test_dims_traces_and_characters(self, hstr):
        h = H.from_string(hstr)
        gy = G.build_GY(h)
        space = CH.solve_graph(gy)
        blocks = I.twin_blocks(gy)
        assert blocks.max_degree == space.max_degree == gy.top_degree + 1
        for k in range(space.max_degree + 1):
            assert blocks.dim(k) == space.dim(k), k
        assert blocks.traces() == CH.equivariant_traces(space, "dagger")
        name = f"plain graph of {h}"
        assert M.plain_character(h, "y") == CH.graded_character(
            space, "dagger", cross_check=False)
        assert M.plain_character(h, "x") == CH.relabelled_character(
            space, G.build_GX(h), name, cross_check=False)

    def test_n4_character_solves_no_kernel(self, monkeypatch):
        def unused(rows, ncols):
            raise AssertionError("a kernel was solved")

        monkeypatch.setattr(CH, "kernel_of_rows", unused)
        h = H.from_string("3,3,4,4")
        assert M.plain_character(h, "x").dims() == [1, 6, 10, 6, 1]
        law_y, side_x = M.check_corollary_sides(next(
            t for t in H.find_modular_triples(H.from_string("2,3,3,4"))
            if t.kind == "C"))
        assert law_y[0] and side_x()[0]

    @pytest.mark.parametrize("check", [M.check_theorem_1_1,
                                       M.check_theorem_1_2])
    def test_theorems_at_n5(self, check):
        # llt on side y, omega csf_q on side x, with no n = 5 kernel
        ok, diff = check(H.from_string("2,3,4,5,5"))
        assert ok, diff


class TestRepresentations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_certified_irreducibles(self, n):
        reps = I.representations(n)
        assert sorted(reps) == sorted(partitions_of(n))
        assert sum(len(I.standard_tableaux(lam)) ** 2 for lam in reps) \
            == factorial(n)
        for lam, mats in reps.items():
            d = len(I.standard_tableaux(lam))
            assert d == mn_character(lam, (1,) * n)
            assert len(mats) == n * (n - 1) // 2
            for m in mats.values():
                assert I._mul(m, m) == I._identity(d)
                assert sum(m[p][p] for p in range(d)) \
                    == mn_character(lam, (2,) + (1,) * (n - 2))

    def test_seminormal_matrices_of_21(self):
        # contents: 12/3 has r = -1 - 1 = -2 for s_2, 13/2 has r = 2
        assert I.standard_tableaux((2, 1)) == (((0, 0), (0, 1), (1, 0)),
                                               ((0, 0), (1, 0), (0, 1)))
        s1, s2 = I.seminormal_matrices((2, 1))
        assert s1 == [[1, 0], [0, -1]]
        assert s2 == [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]]

    def test_perturbed_entry_breaks_the_coxeter_relations(
            self, monkeypatch, fresh_representations):
        # doubling this entry keeps every class trace, so only the
        # relations see it
        build = I.seminormal_matrices

        def mutated(lam):
            mats = build(lam)
            if lam == (2, 2):
                mats[1][0][1] *= 2
            return mats

        monkeypatch.setattr(I, "seminormal_matrices", mutated)
        with pytest.raises(I.NotARepresentation,
                           match=r"shape \(2, 2\): \(s_2 s_1\)\^3 != 1"):
            I.representations(4)

    def test_wrong_shape_fails_the_character(
            self, monkeypatch, fresh_representations):
        # the matrices of 211 on shape 31: a representation, the wrong one
        build = I.seminormal_matrices

        def mutated(lam):
            return build((2, 1, 1) if lam == (3, 1) else lam)

        monkeypatch.setattr(I, "seminormal_matrices", mutated)
        with pytest.raises(I.NotARepresentation,
                           match=r"shape \(3, 1\): the trace at class"):
            I.representations(4)

    def test_perturbed_entry_is_a_fail_item(
            self, capsys, monkeypatch, fresh_representations):
        build = I.seminormal_matrices

        def mutated(lam):
            mats = build(lam)
            mats[0][0][0] += 1
            return mats

        monkeypatch.setattr(I, "seminormal_matrices", mutated)
        code, data = run_json(capsys, "check", "2,3,3,4", "--thm", "1.2")
        assert code == 1
        [item] = data["items"]
        assert item["pass"] is False
        assert item["error_class"] == "NotARepresentation"


def without_edge(graph, i=0):
    return dataclasses.replace(graph, edges=graph.edges[:i]
                               + graph.edges[i + 1:])


class TestGraphShape:
    H4 = H.from_string("2,3,3,4")

    def test_twin_graph_types(self):
        assert I.twin_edge_types(G.build_GY(self.H4)) \
            == ((1, 2), (2, 3))

    def test_dropped_edge(self):
        gy = G.build_GY(self.H4)
        for i in (0, len(gy.edges) - 1):
            with pytest.raises(I.NotTwinGraph, match="the edges are not"):
                I.twin_blocks(without_edge(gy, i))

    def test_relabelled_edge(self):
        gy = G.build_GY(self.H4)
        (u, v, _), *rest = gy.edges
        for label in ((1, 3), (2, 1), (0, 1)):
            with pytest.raises(I.NotTwinGraph, match="the edges are not"):
                I.twin_blocks(dataclasses.replace(
                    gy, edges=((u, v, label), *rest)))

    def test_side_x_graph(self):
        with pytest.raises(I.NotTwinGraph, match="the edges are not"):
            I.twin_blocks(G.build_GX(self.H4))

    @pytest.mark.parametrize("part", ["circle", "blowup"])
    def test_circle_and_blowup_graphs(self, part):
        t = next(t for t in H.find_modular_triples(self.H4) if t.kind == "C")
        graph = M.TripleGraphs.of(t, "y").graphs()[part]
        with pytest.raises(I.NotTwinGraph, match="the vertices are not S_n"):
            I.twin_blocks(graph)

    def test_plain_vertices_with_quads(self):
        gy = G.build_GY(H.from_string("2,2"))
        quad = G.SignedBlowupGraph(gy.n, gy.vertices, gy.edges,
                                   gy.top_degree, (1, 1), (((0, 1, 0, 1),
                                                            (1, 2)),),
                                   1, 1, "y")
        with pytest.raises(I.NotTwinGraph, match="the vertices are not S_n"):
            I.twin_edge_types(quad)

    @pytest.mark.parametrize("thm", ["1.1", "1.2", "corollary"])
    def test_dropped_edge_is_a_fail_item(self, capsys, monkeypatch, thm):
        build = G.build_GY
        monkeypatch.setattr(M, "build_GY", lambda h: without_edge(build(h)))
        code, data = run_json(capsys, "check", "2,3,3,4", "--thm", thm)
        assert code == 1
        assert data["items"]
        for item in data["items"]:
            assert item["pass"] is False
            assert item["error_class"] == "NotTwinGraph"


class TestCrossCheckChecksInvariance:
    def test_rows_not_permuted_raise_not_invariant(self):
        # r0 + r1 in place of r0 leaves the kernel, the traces and the
        # character as they were; with the traces given, only the direct
        # cross-check takes a trace on the space, and it must refuse
        h = H.from_string("2,3,3")
        space = CH.solve_graph(G.build_GY(h))
        traces = CH.equivariant_traces(space, "dagger")
        CH.graded_character(space, "dagger", True, traces)
        r0, r1 = space.rows[1][:2]
        summed = {c: r0.get(c, 0) + r1.get(c, 0) for c in {*r0, *r1}}
        space.rows[1][0] = {c: v for c, v in summed.items() if v}
        with pytest.raises(CH.NotInvariant, match="degree-1"):
            CH.graded_character(space, "dagger", True, traces)


def c_triple(hstr):
    return next(t for t in H.find_modular_triples(H.from_string(hstr))
                if t.kind == "C")


def _relabel_edge(graph, pair, label):
    return dataclasses.replace(graph, edges=tuple(
        e[:2] + (label,) if e[:2] == pair else e for e in graph.edges))


# On the side-y blow-up of 2,3,3 vertex i is the i-th permutation of S_3 in
# lex order, circle copies come 6 later, and tau = (2 3): the first 4-gon
# is (123, °123, 132, °132), and 123 -- °123 is the edge (0, 6).
BLOWUP_MUTATIONS = {
    "dropped-4-gon": (lambda g: dataclasses.replace(g, quads=g.quads[1:]),
                      "the 4-gons are not w, °w, w tau, °w tau"),
    "flipped-sign": (lambda g: dataclasses.replace(
        g, signs=(-g.signs[0],) + g.signs[1:]),
        "the signs of the 4-gon 123 °123 132 °132 are not"),
    "mislabelled-joining-edge": (lambda g: _relabel_edge(g, (0, 6), (1, 2)),
                                 "the edges are not the twin edges"),
    "extra-plain-edge": (lambda g: dataclasses.replace(
        g, edges=tuple(sorted(g.edges + ((0, 5, (1, 3)),)))),
        "the edges are not the twin edges"),
}


class TestTheorem51ByBlocks:
    """The CLI's 5.1 solves, maps and ranks by irreducible blocks; each
    certificate it rests on turns a mutation into a named FAIL item."""

    def test_n5_triple_builds_no_full_system(self, capsys, monkeypatch):
        def unused(graph, k):
            raise AssertionError("a full system was built")

        monkeypatch.setattr(CH, "constraint_rows", unused)
        code, data = run_json(capsys, "check", "2,3,3,4,5", "--thm", "5.1")
        assert code == 0
        x, y = data["items"]
        assert x["pass"] is y["pass"] is True
        assert x["degrees"] == y["degrees"]
        dims = [y["degrees"][k]["dim_blowup"]
                for k in sorted(y["degrees"], key=int)]
        numer = [sum((-1) ** j * comb(5, j) * dims[k - j]
                     for j in range(min(5, k) + 1)) for k in range(len(dims))]
        assert numer == [20, 100, 100, 20, 0]

    def test_circle_graph_shape(self):
        t = c_triple("2,3,3,4")
        circle = G.build_circle_graph(t, "y")
        assert I.twin_edge_types(circle, G.circ) \
            == tuple(sorted((j, i) for i, j in G.circle_pairs(t)))
        with pytest.raises(I.NotTwinGraph, match="the edges are not"):
            I.twin_edge_types(without_edge(circle), G.circ)

    def test_side_x_blowup_is_refused(self):
        with pytest.raises(I.NotTwinGraph, match="the edges are not"):
            I.blowup_edge_types(G.build_blowup(c_triple("2,3,3,4"), "x"))

    @pytest.mark.parametrize("what", BLOWUP_MUTATIONS)
    def test_blowup_mutation_is_a_fail_item(self, capsys, monkeypatch, what):
        mutate, reason = BLOWUP_MUTATIONS[what]
        build = G.build_blowup

        def mutated(triple, side):
            graph = build(triple, side)
            return mutate(graph) if side == "y" else graph

        monkeypatch.setattr(M, "build_blowup", mutated)
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "5.1")
        assert code == 1
        x, y = data["items"]
        assert x["error_class"] == y["error_class"] == "NotTwinGraph"
        assert reason in y["error"]

    def test_left_multiplying_rule_is_a_fail_item(self, capsys, monkeypatch):
        # phi reads circle(tau w) on the plain sheet instead of circle(w
        # tau): the same at the identity, a left multiplication elsewhere
        rule, source, shift = M.MAPS["phi"]

        def left(ctx, v):
            hit = rule(ctx, v)
            if v.circle:
                return hit
            tau = G.swap_positions(G.identity_perm(ctx.blowup.n), ctx.d,
                                   ctx.d + 1)
            return (G.circ(G.compose(tau, v.perm)), *hit[1:])

        monkeypatch.setitem(M.MAPS, "phi", (left, source, shift))
        code, data = run_json(capsys, "check", "2,3,3", "--thm", "5.1")
        assert code == 1
        x, y = data["items"]
        assert x["error_class"] == y["error_class"] == "EquivarianceFailed"
        assert y["error"].startswith(
            "phi does not commute with dagger action: its value at ")
