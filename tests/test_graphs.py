"""Labeled graph construction: counts, labels, signs, quads, isomorphisms."""

import pickle

import pytest

from gkmhess import graphs as G
from gkmhess import hessenberg as H
import graph_checks as GC


H233 = H.from_string("2,3,3")


def c_triple(hstr):
    h = H.from_string(hstr)
    return next(t for t in H.find_modular_triples(h) if t.kind == "C")


def edge_label(graph, s1, s2):
    names = {str(v): i for i, v in enumerate(graph.vertices)}
    a, b = sorted((names[s1], names[s2]))
    for (x, y, f) in graph.edges:
        if (x, y) == (a, b):
            return f
    raise KeyError((s1, s2))


class TestPermutations:
    def test_swap_positions(self):
        assert G.swap_positions((1, 2, 3), 2, 1) == (2, 1, 3)

    def test_compose_inverse(self):
        w = (3, 1, 2)
        assert G.compose(w, G.inverse(w)) == (1, 2, 3)

    def test_length(self):
        assert G.length((1, 2, 3)) == 0
        assert G.length((2, 1, 3)) == 1
        assert G.length((3, 2, 1)) == 3

    def test_cycle_type(self):
        assert GC.cycle_type((2, 3, 1)) == (3,)
        assert GC.cycle_type((2, 1, 3)) == (2, 1)

    def test_class_representative(self):
        for lam in [(3,), (2, 1), (1, 1, 1), (4,), (2, 2)]:
            assert GC.cycle_type(G.class_representative(lam)) == lam


class TestLinearForm:
    # a label (a, b), a < b, stands for t_a - t_b and is emitted as its
    # coefficient vector in t_1..t_n
    def test_canonical_sign(self):
        # t_2 - t_1 is stored as t_1 - t_2: first nonzero coefficient positive
        f = G._label("y", (1, 2, 3), 2, 1)
        assert G.coefficient_vector(3, f) == [1, -1, 0]

    def test_as_difference(self):
        assert G._label("y", (1, 2, 3, 4), 3, 2) == (2, 3)
        # side x: t_{w(3)} - t_{w(2)} = t_2 - t_3 for w = 4321
        assert G._label("x", (4, 3, 2, 1), 3, 2) == (2, 3)

    def test_coefficient_vector(self):
        assert G.coefficient_vector(3, (1, 3)) == [1, 0, -1]
        assert G.coefficient_vector(4, (2, 3)) == [0, 1, -1, 0]


class TestBuildGX:
    def test_counts(self):
        g = G.build_GX(H233)
        assert len(g.vertices) == 6
        assert len(g.edges) == 6

    def test_fig2_edge_label(self):
        g = G.build_GX(H233)
        # w = 123, (i,j) = (2,1): label t_{w(2)} - t_{w(1)} up to sign
        assert edge_label(g, "123", "213") == (1, 2)

    def test_fig2_colors(self):
        g = G.build_GX(H233)
        assert edge_label(g, "213", "231") == (1, 3)   # magenta
        assert edge_label(g, "123", "132") == (2, 3)   # black

    def test_isolated_for_identity(self):
        g = G.build_GX(H.from_string("1,2,3,4"))
        assert len(g.vertices) == 24
        assert len(g.edges) == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_regularity(self, n):
        for h in H.enumerate_hessenberg(n):
            g = G.build_GX(h)
            want = len(H.indifference_graph(h).edges)
            assert all(GC.degree_of(g, i) == want
                       for i in range(len(g.vertices)))

    def test_size_cap(self):
        with pytest.raises(G.SizeTooLarge):
            G.build_GX(H.validate((7,) * 7))


class TestBuildGY:
    def test_same_underlying_edges(self):
        for n in (2, 3, 4):
            for h in H.enumerate_hessenberg(n):
                gx, gy = G.build_GX(h), G.build_GY(h)
                assert GC.edge_set(gx) == GC.edge_set(gy)

    def test_labels_positional(self):
        gy = G.build_GY(H233)
        # every edge from pair (2,1) is labeled t_1 - t_2
        assert edge_label(gy, "123", "213") == (1, 2)
        assert edge_label(gy, "321", "231") == (1, 2)

    def test_h22(self):
        gy = G.build_GY(H.from_string("2,2"))
        assert [f for (_, _, f) in gy.edges] == [(1, 2)]


class TestTripleGraphs:
    def test_edge_counts_fig2(self):
        t = c_triple("2,3,3")
        gm, g, gp = GC.build_triple_graphs(t, "x")
        assert (len(gm.edges), len(g.edges), len(gp.edges)) == (3, 6, 9)

    def test_nesting(self):
        t = c_triple("2,3,3")
        gm, g, gp = GC.build_triple_graphs(t, "x")
        assert GC.edge_set(gm) <= GC.edge_set(g) <= GC.edge_set(gp)

    def test_plus_difference_is_d1_d0_orbit(self):
        t = c_triple("2,3,3")
        gm, g, gp = GC.build_triple_graphs(t, "x")
        extra = GC.edge_set(gp) - GC.edge_set(g)
        vidx = gp.vertex_index
        expected = set()
        for v in gp.vertices:
            w = v.perm
            u = G.swap_positions(w, t.d + 1, t.d0)
            a, b = sorted((vidx[v], vidx[G.plain(u)]))
            expected.add((a, b))
        assert extra == expected

    def test_kind_r_rejected(self):
        h = H.from_string("2,3,3")
        r = next(t for t in H.find_modular_triples(h) if t.kind == "R")
        with pytest.raises(H.WrongKind):
            GC.build_triple_graphs(r, "x")

    def test_kind_r_via_transpose(self):
        h = H.from_string("2,5,6,8,9,9,11,11,11,11,11")
        r = next(t for t in H.find_modular_triples(h) if t.kind == "R")
        c = G.kind_r_via_transpose(r)
        assert c.kind == "C" and c.d == h.n - r.d
        assert c.h_minus == r.h_minus.transpose()
        assert c.h_plus == r.h_plus.transpose()


class TestCircleGraph:
    def test_counts(self):
        t = c_triple("2,3,3")
        cg = G.build_circle_graph(t, "x")
        assert len(cg.vertices) == 6 and len(cg.edges) == 6
        assert all(v.circle for v in cg.vertices)

    def test_x_label_of_d1_d0_edge(self):
        t = c_triple("2,3,3")   # (d+1, d0) = (3, 1)
        cg = G.build_circle_graph(t, "x")
        # w = 123: edge {°123, °321}: label t_{w(3)} - t_{w(1)} = t_3 - t_1
        assert edge_label(cg, "°123", "°321") == (1, 3)

    def test_y_label_positional(self):
        t = c_triple("2,3,3")
        cg = G.build_circle_graph(t, "y")
        assert edge_label(cg, "°123", "°321") == (1, 3)
        assert edge_label(cg, "°123", "°132") == (2, 3)


class TestBlowup:
    def test_counts_fig3(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "x")
        assert len(bl.vertices) == 12
        assert len(bl.edges) == 18
        assert len(bl.quads) == 3

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_json_extends_the_labeled_graph(self, side):
        # a blow-up is a LabeledGraph: its JSON, and so its cache key, is
        # the graph's own JSON followed by the blow-up keys
        bl = G.build_blowup(c_triple("2,3,3"), side)
        graph = G.LabeledGraph(bl.n, bl.vertices, bl.edges, bl.top_degree)
        data = bl.to_json()
        assert isinstance(bl, G.LabeledGraph) and graph != bl
        assert list(data) == [*graph.to_json(), "side", "d", "d0", "signs",
                              "quads"]
        assert {k: data[k] for k in graph.to_json()} == graph.to_json()
        assert data["quads"][0] == [["123", "°123", "132", "°132"],
                                    [0, 1, -1]]
        assert bl.content_key() != graph.content_key()

    def test_x_signs(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "x")
        vidx = bl.vertex_index
        assert bl.signs[vidx[G.plain((2, 3, 1))]] == 1
        assert bl.signs[vidx[G.circ((2, 3, 1))]] == -1

    def test_y_signs_by_length(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "y")
        vidx = bl.vertex_index
        # l(213) = 1: s_Y(213) = -1, s_Y(°213) = +1
        assert bl.signs[vidx[G.plain((2, 1, 3))]] == -1
        assert bl.signs[vidx[G.circ((2, 1, 3))]] == 1
        assert bl.signs[vidx[G.plain((1, 2, 3))]] == 1

    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4", "1,3,4,4"])
    def test_quad_signs_sum_zero(self, side, hstr):
        bl = G.build_blowup(c_triple(hstr), side)
        for (vs, _) in bl.quads:
            assert sum(bl.signs[v] for v in vs) == 0

    def test_quad_vertex_structure(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "x")
        for (vs, form) in bl.quads:
            w = bl.vertices[vs[0]].perm
            assert bl.vertices[vs[1]] == G.circ(w)
            wt = G.swap_positions(w, t.d + 1, t.d)
            assert bl.vertices[vs[2]] == G.plain(wt)
            assert bl.vertices[vs[3]] == G.circ(wt)
            # all four boundary edges of the quad share the modulus label
            assert form == tuple(sorted((w[t.d], w[t.d - 1])))

    def test_join_edge_label_y(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "y")
        assert edge_label(bl, "123", "°123") == (2, 3)


class TestCircleIsomorphism:
    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4", "2,3,4,4"])
    def test_side_x(self, hstr):
        assert GC.circle_isomorphism_check(c_triple(hstr), "x")

    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4", "2,3,4,4"])
    def test_side_y_with_swap(self, hstr):
        assert GC.circle_isomorphism_check(c_triple(hstr), "y")

    def test_side_y_without_swap_fails(self):
        # labels touching position d change under tau, so a literal label
        # match must fail somewhere
        t = c_triple("2,3,3")
        g = G.build_graph(t.h, "y")
        cg = G.build_circle_graph(t, "y")
        cidx = cg.vertex_index
        clabels = {(min(a, b), max(a, b)): f for (a, b, f) in cg.edges}
        mismatch = False
        for (a, b, f) in g.edges:
            ca = cidx[G.circ(G.swap_positions(g.vertices[a].perm, t.d + 1, t.d))]
            cb = cidx[G.circ(G.swap_positions(g.vertices[b].perm, t.d + 1, t.d))]
            key = (min(ca, cb), max(ca, cb))
            if key not in clabels or clabels[key] != f:
                mismatch = True
        assert mismatch


class TestTwoIndependence:
    def test_gx_gy_independent(self):
        for n in (2, 3, 4):
            for h in H.enumerate_hessenberg(n):
                assert GC.two_independence_check(G.build_GX(h))[0]
                assert GC.two_independence_check(G.build_GY(h))[0]

    def test_blowup_fails_with_witness(self):
        t = c_triple("2,3,3")
        for side in ("x", "y"):
            ok, witness = GC.two_independence_check(G.build_blowup(t, side))
            assert not ok
            vertex, e1, e2 = witness
            assert e1[2] == e2[2]

    def test_single_edge_graph(self):
        g = G.build_GX(H.from_string("2,2"))
        assert GC.two_independence_check(g) == (True, None)


class TestAugment:
    def test_edge_count_and_idempotence(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "x")
        aug = GC.augment_blowup(bl)
        assert len(aug.edges) == 24
        assert len(GC.augment_blowup(aug).edges) == 24

    def test_keeps_the_blowup_data(self):
        bl = G.build_blowup(c_triple("2,3,3,4"), "x")
        aug = GC.augment_blowup(bl)
        assert (aug.n, aug.vertices, aug.top_degree, aug.signs, aug.quads,
                aug.d, aug.d0, aug.side) == (
            bl.n, bl.vertices, bl.top_degree, bl.signs, bl.quads, bl.d,
            bl.d0, bl.side)
        assert set(bl.edges) < set(aug.edges)

    def test_y_side_rejected(self):
        t = c_triple("2,3,3")
        with pytest.raises(H.WrongKind):
            GC.augment_blowup(G.build_blowup(t, "y"))


class TestTransposeGraphIsomorphism:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_right_w0_preserves_x_labels(self, n):
        # the edge {w, w(i,j)} of GX(h) corresponds to {w w0, w(i,j) w0}
        # of GX(h^t) with equal canonical label
        w0 = GC.longest_element(n)
        for h in H.enumerate_hessenberg(n):
            gx = G.build_GX(h)
            gxt = G.build_GX(h.transpose())
            tidx = gxt.vertex_index
            tlabels = {(min(a, b), max(a, b)): f for (a, b, f) in gxt.edges}
            assert len(gx.edges) == len(gxt.edges)
            for (a, b, f) in gx.edges:
                ta = tidx[G.plain(G.compose(gx.vertices[a].perm, w0))]
                tb = tidx[G.plain(G.compose(gx.vertices[b].perm, w0))]
                key = (min(ta, tb), max(ta, tb))
                assert tlabels[key] == f


class TestTwinTransposeIsomorphism:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_right_w0_relabels_y_labels(self, n):
        # on the twin side the w0 correspondence changes the label
        # t_i - t_j into t_{n+1-i} - t_{n+1-j}
        w0 = GC.longest_element(n)
        for h in H.enumerate_hessenberg(n):
            gy = G.build_GY(h)
            gyt = G.build_GY(h.transpose())
            tidx = gyt.vertex_index
            tlabels = {(min(a, b), max(a, b)): f for (a, b, f) in gyt.edges}
            assert len(gy.edges) == len(gyt.edges)
            for (a, b, f) in gy.edges:
                i, j = f
                expected = (n + 1 - j, n + 1 - i)
                ta = tidx[G.plain(G.compose(gy.vertices[a].perm, w0))]
                tb = tidx[G.plain(G.compose(gy.vertices[b].perm, w0))]
                key = (min(ta, tb), max(ta, tb))
                assert tlabels[key] == expected


def test_graph_json_shape():
    g = G.build_GX(H.from_string("2,2"))
    data = g.to_json()
    assert data["vertices"] == ["12", "21"]
    assert data["edges"] == [["12", "21", [1, -1]]]


def small_graphs():
    """Every X, Y, circle and blow-up graph with n <= 3."""
    for n in (1, 2, 3):
        for h in H.enumerate_hessenberg(n):
            yield G.build_GX(h)
            yield G.build_GY(h)
            for t in H.find_modular_triples(h):
                if t.kind == "C":
                    for side in "xy":
                        yield G.build_circle_graph(t, side)
                        yield G.build_blowup(t, side)


class TestVertexMap:
    def test_sends_each_vertex_to_sigma_times_it(self):
        kinds = set()
        for graph in small_graphs():
            kinds.add((type(graph).__name__, graph.vertices[0].circle))
            vidx = graph.vertex_index
            for sigma in G.all_perms(graph.n):
                assert list(graph.vertex_map(sigma)) == [
                    vidx[G.Vertex(v.circle, G.compose(sigma, v.perm))]
                    for v in graph.vertices]
        assert kinds == {("LabeledGraph", False), ("LabeledGraph", True),
                         ("SignedBlowupGraph", False)}

    def test_made_once_per_sigma(self, monkeypatch):
        calls = []
        compose = G.compose

        def counting(u, v):
            calls.append(u)
            return compose(u, v)

        monkeypatch.setattr(G, "compose", counting)
        graph = G.build_blowup(c_triple("2,3,3"), "y")
        assert graph.vertex_index is graph.vertex_index
        for sigma in G.all_perms(3):
            first = graph.vertex_map(sigma)
            assert graph.vertex_map(sigma) is first
        assert len(calls) == 6 * len(graph.vertices)
        assert G.build_blowup(c_triple("2,3,3"), "y").vertex_map(
            (2, 1, 3)) == graph.vertex_map((2, 1, 3))
        assert len(calls) == 7 * len(graph.vertices)


class TestValueSemantics:
    """Vertices and graphs are immutable values: equal fields compare and
    hash equal, only within one class; a graph still caches its index."""

    def test_vertex(self):
        v = G.Vertex(False, (2, 1, 3))
        assert v == G.plain((2, 1, 3)) and hash(v) == hash(G.plain((2, 1, 3)))
        assert v != G.circ((2, 1, 3)) and v != (False, (2, 1, 3))
        assert {v: 0}[G.plain((2, 1, 3))] == 0
        assert pickle.loads(pickle.dumps(v)) == v
        with pytest.raises(AttributeError, match="perm"):
            v.perm = (1, 2, 3)
        assert v.perm == (2, 1, 3)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_graphs(self, side):
        for build in (lambda: G.build_graph(H233, side),
                      lambda: G.build_blowup(c_triple("2,3,3"), side)):
            a, b = build(), build()
            assert a is not b and a == b and hash(a) == hash(b)
            assert a.vertex_index is a.vertex_index and a == b
            assert pickle.loads(pickle.dumps(a)) == a
            assert GC.replace(a, edges=a.edges[1:]) != a
            with pytest.raises(AttributeError, match="edges"):
                a.edges = ()
            assert a == b
