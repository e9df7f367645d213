"""The four maps into the blow-up cohomology, their membership (Lemma-level
properties), and the degreewise isomorphism checks."""

from fractions import Fraction

import pytest

from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import linalg as L
from gkmhess import maps as M
from gkmhess.coloring import csf_q
from gkmhess.isotypic import NotTwinGraph
import classes
import full_kernels as FK
import graph_checks as GC
import kernel_traces as KT


def c_triple(hstr):
    h = H.from_string(hstr)
    return next(t for t in H.find_modular_triples(h) if t.kind == "C")


@pytest.fixture(scope="module")
def ctx_x():
    return FK.solve(c_triple("2,3,3"), "x")


@pytest.fixture(scope="module")
def ctx_y():
    return FK.solve(c_triple("2,3,3"), "y")


def const_class(graph, value=1):
    n = graph.n
    return classes.EquivariantClass(
        graph, 0, {v: classes.const(n, value) for v in graph.vertices})


def random_class(space, graph, k, seed):
    """Deterministic rational combination of the degree-k basis columns."""
    cols = space.bases[k].columns
    combo = {}
    for i, col in enumerate(cols):
        c = Fraction((seed + 3 * i) % 7 - 3, 1 + (i % 3))
        if not c:
            continue
        for r, v in col.items():
            nv = combo.get(r, Fraction(0)) + c * v
            if nv:
                combo[r] = nv
            else:
                combo.pop(r, None)
    return classes.EquivariantClass.from_vector(graph, k, combo)


class TestMutableValues:
    """Graphs of a triple, twin blocks, solved spaces, characters and
    kernel bases compare their fields, only within one class, and are
    not hashable."""

    def test_equal_fields_compare_equal(self):
        a = M.TripleGraphs.of(c_triple("2,3,3"), "y")
        space = CH.solve_graph(a.g_mid)
        rows = CH.constraint_rows(a.g_mid, 1)
        ncols = len(a.g_mid.vertices) * len(CH.monomials(3, 1))
        pairs = [(a, M.TripleGraphs.of(c_triple("2,3,3"), "y")),
                 (M.twin_blocks(a.g_mid), M.twin_blocks(a.g_mid)),
                 (space, GC.replace(space)),
                 (CH.graded_character(space, "dagger"),
                  CH.graded_character(CH.solve_graph(a.g_mid), "dagger")),
                 (L.kernel_of_rows(rows, ncols), L.kernel_of_rows(rows, ncols))]
        for x, y in pairs:
            assert x is not y and x == y
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
        assert a != GC.replace(a, side="x")
        assert space != GC.replace(space, max_degree=0)
        # the full-kernel context of the same graphs is another class
        assert a != FK.solve(c_triple("2,3,3"), "y")


class TestPhi:
    def test_constant_one(self, ctx_x):
        out = classes.apply_map(ctx_x, "phi", const_class(ctx_x.g_circle))
        assert all(out.value(v) == classes.const(3, 1)
                   for v in ctx_x.blowup.vertices)

    def test_constant_t1_both_sides(self, ctx_x, ctx_y):
        for ctx in (ctx_x, ctx_y):
            f = classes.EquivariantClass(
                ctx.g_circle, 1,
                {v: classes.tvar(3, 1) for v in ctx.g_circle.vertices})
            out = classes.apply_map(ctx, "phi", f)
            # d = 2: tau swaps t_2, t_3 and fixes t_1
            assert all(out.value(v) == classes.tvar(3, 1)
                       for v in ctx.blowup.vertices)

    def test_x2_restriction_transports_to_x2(self, ctx_x):
        x2_blow = classes.make_class_xi(ctx_x.blowup, 2)
        f = classes.EquivariantClass(
            ctx_x.g_circle, 1,
            {v: x2_blow.value(v) for v in ctx_x.g_circle.vertices})
        out = classes.apply_map(ctx_x, "phi", f)
        for v in ctx_x.blowup.vertices:
            if not v.circle:
                assert out.value(v) == x2_blow.value(v)


class TestPsi:
    def test_one_maps_to_join_label(self, ctx_x):
        out = classes.apply_map(ctx_x, "psi", const_class(ctx_x.g_mid))
        d = ctx_x.d
        for v in ctx_x.blowup.vertices:
            if v.circle:
                assert out.value(v) == {}
            else:
                w = v.perm
                expected = classes.sub(classes.tvar(3, w[d]),
                                       classes.tvar(3, w[d - 1]))
                assert out.value(v) == expected

    def test_one_maps_to_constant_on_twin(self, ctx_y):
        out = classes.apply_map(ctx_y, "psi", const_class(ctx_y.g_mid))
        d = ctx_y.d
        expected = classes.sub(classes.tvar(3, d + 1), classes.tvar(3, d))
        for v in ctx_y.blowup.vertices:
            assert out.value(v) == ({} if v.circle else expected)

    def test_vanishes_on_circle_for_random_f(self, ctx_x):
        for k in (1, 2):
            f = random_class(ctx_x.sp_mid, ctx_x.g_mid, k, seed=5)
            out = classes.apply_map(ctx_x, "psi", f)
            assert all(out.value(v) == {} for v in ctx_x.blowup.vertices
                       if v.circle)

    def test_unfactored_map_is_not_a_class(self, ctx_x):
        # dropping the multiplication leaves the join-edge congruence broken
        x1 = classes.make_class_xi(ctx_x.g_mid, ctx_x.d0)
        values = {v: x1.value(v) for v in ctx_x.blowup.vertices
                  if not v.circle}
        with pytest.raises(CH.MembershipFailed):
            classes.EquivariantClass(ctx_x.blowup, 1, values)


class TestEta:
    def test_constant(self, ctx_x):
        out = classes.apply_map(ctx_x, "eta", const_class(ctx_x.g_plus))
        assert all(out.value(v) == classes.const(3, 1)
                   for v in ctx_x.blowup.vertices)

    def test_quad_sum_exactly_zero(self, ctx_x):
        f = random_class(ctx_x.sp_plus, ctx_x.g_plus, 2, seed=1)
        out = classes.apply_map(ctx_x, "eta", f)
        for (vs, _) in ctx_x.blowup.quads:
            acc = {}
            for vi in vs:
                acc = classes.add(acc,
                                  out.value(ctx_x.blowup.vertices[vi]),
                                  ctx_x.blowup.signs[vi])
            assert acc == {}

    def test_xi_d0_transports(self, ctx_x):
        f = classes.make_class_xi(ctx_x.g_plus, ctx_x.d0)
        out = classes.apply_map(ctx_x, "eta", f)
        for v in ctx_x.blowup.vertices:
            assert out.value(v) == f.value(G.plain(v.perm))


class TestRho:
    def test_one_on_x_side(self, ctx_x):
        out = classes.apply_map(ctx_x, "rho", const_class(ctx_x.g_minus))
        d, d0 = ctx_x.d, ctx_x.d0
        for v in ctx_x.blowup.vertices:
            w = v.perm
            a = w[d] if v.circle else w[d - 1]
            assert out.value(v) == classes.sub(classes.tvar(3, a),
                                               classes.tvar(3, w[d0 - 1]))

    def test_join_edge_difference_divisible(self, ctx_x):
        out = classes.apply_map(ctx_x, "rho", const_class(ctx_x.g_minus))
        d = ctx_x.d
        for v in ctx_x.blowup.vertices:
            if v.circle:
                continue
            w = v.perm
            diff = classes.sub(out.value(v), out.value(G.circ(w)))
            assert classes.divisible_by_diff(diff, w[d], w[d - 1])

    def test_quad_signed_sum_for_one(self, ctx_x):
        out = classes.apply_map(ctx_x, "rho", const_class(ctx_x.g_minus))
        for (vs, form) in ctx_x.blowup.quads:
            acc = {}
            for vi in vs:
                acc = classes.add(acc,
                                  out.value(ctx_x.blowup.vertices[vi]),
                                  ctx_x.blowup.signs[vi])
            assert acc == {}


class TestMatrixMatchesFormulas:
    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_images_follow_the_vertex_formulas(self, side, k, ctx_x, ctx_y):
        # the docstring formulas, evaluated on polynomials vertex by vertex
        ctx = ctx_x if side == "x" else ctx_y
        d, d0, n = ctx.d, ctx.d0, ctx.blowup.n

        def times(a, b, p):
            return classes.mul(
                classes.sub(classes.tvar(n, a), classes.tvar(n, b)), p)

        f = random_class(ctx.sp_circle, ctx.g_circle, k, seed=k)
        out = classes.apply_map(ctx, "phi", f)
        for v in ctx.blowup.vertices:
            val = f.value(v if v.circle
                          else G.circ(G.swap_positions(v.perm, d + 1, d)))
            if side == "y" and not v.circle:
                val = {G.swap_positions(e, d, d + 1): c
                       for e, c in val.items()}
            assert out.value(v) == val
        for name, sp in (("psi", ctx.sp_mid), ("eta", ctx.sp_plus),
                         ("rho", ctx.sp_minus)):
            f = random_class(sp, sp.graph, k, seed=k)
            out = classes.apply_map(ctx, name, f)
            for v in ctx.blowup.vertices:
                w = v.perm
                if side == "x":   # x_i(w) = t_{w(i)}
                    join, low = (w[d], w[d - 1]), w[d0 - 1]
                    top = w[d] if v.circle else w[d - 1]
                else:
                    join, low, top = (d + 1, d), d0, (d + 1 if v.circle else d)
                val = f.value(G.plain(w))
                if name == "psi":
                    val = {} if v.circle else times(*join, val)
                elif name == "rho":
                    val = times(top, low, val)
                assert out.value(v) == val


class TestLemmaMembership:
    @pytest.mark.parametrize("name", ["phi", "psi", "eta", "rho"])
    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_images_are_classes(self, name, side, k, ctx_x, ctx_y):
        ctx = ctx_x if side == "x" else ctx_y
        _, source, shift = M.MAPS[name]
        src_k = k - shift
        if src_k < 0:
            return
        space = getattr(ctx, f"sp_{source}")
        for seed in (1, 2):
            f = random_class(space, space.graph, src_k, seed)
            out = classes.apply_map(ctx, name, f)   # raises on violation
            assert classes.membership_check(out, ctx.blowup)


class TestTheoremMain:
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_n3_passes(self, side, ctx_x, ctx_y):
        # the full-kernel oracle on its own
        ctx = ctx_x if side == "x" else ctx_y
        report = FK.report(ctx)
        assert report["pass"]
        for k, row in report["degrees"].items():
            assert row["dims"]["circle"] + row["dims"]["mid_prev"] == \
                row["dim_blowup"]
            assert row["dims"]["plus"] + row["dims"]["minus_prev"] == \
                row["dim_blowup"]

    def test_kind_r_reduces_to_transpose(self):
        h = H.from_string("2,3,3")
        r = next(t for t in H.find_modular_triples(h) if t.kind == "R")
        report, side_x = M.check_theorem_main_sides(r)
        assert M.TripleGraphs.of(r, "y").triple.kind == "C"
        assert report["pass"] and side_x()["pass"]

    def test_degree_ok_reflects_only_that_degree(self):
        # stub dimensions and ranks that fail in degree 3 only: the first
        # images overlap there and eta is not injective
        graphs = M.TripleGraphs.of(c_triple("2,3,3"), "y")

        def dim(name, k):
            return 0 if k < 0 else 2 if name == "blowup" else 1

        def pair_ranks(k):
            yield "phi", "psi", "first", 1, 1, 1 if k == 3 else 2, 1, 1
            yield "eta", "rho", "second", 0 if k == 3 else 1, 1, 2, 1, 1

        report = M._main_report(graphs, 5, dim, pair_ranks)
        assert [k for k, row in report["degrees"].items()
                if not row["ok"]] == [3]
        assert report["failures"] == ["degree 3: images of phi and psi overlap",
                                      "degree 3: eta not injective"]
        assert report["pass"] is False

    def test_non_equivariant_rule_is_caught(self, monkeypatch):
        # eta read at (1 2) w is still a class on the twin side with the
        # same image, but it does not commute with the dagger action
        def skewed(ctx, v):
            return G.plain(G.compose((2, 1, 3), v.perm)), None, False

        monkeypatch.setitem(M.MAPS, "eta", (skewed, "plus", 0))
        with pytest.raises(M.EquivarianceFailed, match=(
                "^eta does not commute with dagger action: its value "
                "at 132 is not")):
            M.check_theorem_main_sides(c_triple("2,3,3"))

    def test_mutated_x_rule_is_caught(self, monkeypatch):
        # psi with the side-x multiplier reversed: side y is unchanged and
        # still commutes with the dagger action
        rule, source, shift = M.MAPS["psi"]

        def flipped(ctx, v):
            hit = rule(ctx, v)
            if ctx.side != "x" or hit is None:
                return hit
            s, (a, b), swap = hit
            return s, (b, a), swap

        monkeypatch.setitem(M.MAPS, "psi", (flipped, source, shift))
        report, side_x = M.check_theorem_main_sides(c_triple("2,3,3"))
        assert report["pass"]
        with pytest.raises(CH.RelabelFailed, match=(
                "^relabelling check failed on the map psi at the "
                "blow-up vertex 123: ")):
            side_x()

    def test_flipped_blowup_sign_is_caught(self, monkeypatch):
        # one vertex sign of the side-y blow-up flipped: its 4-gon no longer
        # has the signs +-(1, -1, -1, 1), so nothing shows that the dagger
        # action preserves the blow-up cohomology; the shape certificate
        # runs before any kernel is solved
        graphs = M.TripleGraphs.of(c_triple("2,3,3"), "y")
        signs = list(graphs.blowup.signs)
        signs[0] = -signs[0]
        bad = GC.replace(graphs, blowup=GC.replace(
            graphs.blowup, signs=tuple(signs)))

        def no_kernel(rows, ncols):
            raise AssertionError("a kernel was solved")

        monkeypatch.setattr(M, "kernel_of_rows", no_kernel)
        with pytest.raises(NotTwinGraph, match="^the signs of the 4-gon"):
            M.check_theorem_blocks(bad, 4)


def corollary(triple, side):
    law_y, side_x = M.check_corollary_sides(triple)
    return law_y if side == "y" else side_x()


class TestCorollary:
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_n3(self, side):
        ok, diff = corollary(c_triple("2,3,3"), side)
        assert ok
        assert diff is None

    def test_kind_r_triple(self):
        # checked on the kind-C triple of the transpose
        h = H.from_string("2,3,3")
        r = next(t for t in H.find_modular_triples(h) if t.kind == "R")
        for side in ("x", "y"):
            assert corollary(r, side)[0]

    def test_coloring_side_cross_check(self, ctx_x):
        # (1+q) omega(csf(h)) = omega(csf(h_+)) + q omega(csf(h_-))
        t = ctx_x.triple
        lhs = M.omega_graded(csf_q(t.h)).scale_qpoly({0: 1, 1: 1})
        rhs = M.omega_graded(csf_q(t.h_plus)) + \
            M.omega_graded(csf_q(t.h_minus)).scale_qpoly({1: 1})
        assert lhs == rhs


class TestTheorems11and12:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep(self, n):
        for h in H.enumerate_hessenberg(n):
            ok, diff = M.check_theorem_1_1(h)
            assert ok, (str(h), diff.to_json())
            ok, diff = M.check_theorem_1_2(h)
            assert ok, (str(h), diff.to_json())

    def test_h22_values(self):
        h = H.from_string("2,2")
        ok, _ = M.check_theorem_1_1(h)
        assert ok


class TestCharacterTransport:
    def test_circle_and_mid_characters_agree(self, ctx_x):
        # the label-preserving bijection makes the two cohomologies
        # isomorphic as graded modules
        a = CH.graded_character(ctx_x.sp_circle, "dot")
        b = CH.graded_character(ctx_x.sp_mid, "dot")
        assert a.values == b.values

    def test_equivariant_traces_agree_degreewise(self, ctx_x):
        for k in range(4):
            for lam in ((3,), (2, 1), (1, 1, 1)):
                sigma = G.class_representative(lam)
                assert KT.kernel_trace(ctx_x.sp_circle, k, sigma, "dot") \
                    == KT.kernel_trace(ctx_x.sp_mid, k, sigma, "dot")


class TestPhiModuleCompatibility:
    def test_twin_phi_twists_scalars_on_plain_copy(self, ctx_y):
        # on the twin side phi is only weakly linear over the polynomial
        # ring: phi(t f) = tau(t) phi(f) on the plain copy (where the
        # variable swap acts) and phi(t f) = t phi(f) on the circle copy
        d = ctx_y.d
        n = ctx_y.blowup.n
        for k, seed in ((0, 3), (1, 4)):
            f = random_class(ctx_y.sp_circle, ctx_y.g_circle, k, seed)
            for i in (1, d, d + 1):
                tf = classes.EquivariantClass(
                    ctx_y.g_circle, k + 1,
                    {v: classes.mul(classes.tvar(n, i), f.value(v))
                     for v in ctx_y.g_circle.vertices if f.value(v)})
                lhs = classes.apply_map(ctx_y, "phi", tf)
                tau_i = {d: d + 1, d + 1: d}.get(i, i)
                base = classes.apply_map(ctx_y, "phi", f)
                for v in ctx_y.blowup.vertices:
                    j = tau_i if not v.circle else i
                    assert lhs.value(v) == classes.mul(classes.tvar(n, j),
                                                       base.value(v))


class TestConstructivePreimage:
    def test_split_reassembles(self, ctx_x):
        for k, seed in ((1, 2), (2, 7), (3, 11)):
            f_tilde = random_class(ctx_x.sp_blowup, ctx_x.blowup, k, seed)
            f, g = classes.constructive_preimage(ctx_x, f_tilde)
            back = classes.apply_map(ctx_x, "phi", f).vector()
            psi_g = classes.apply_map(ctx_x, "psi", g).vector()
            combined = dict(back)
            for c, v in psi_g.items():
                nv = combined.get(c, Fraction(0)) + v
                if nv:
                    combined[c] = nv
                else:
                    combined.pop(c, None)
            assert combined == f_tilde.vector()

    def test_divide_by_diff(self):
        p = classes.mul_linear_diff(classes.tvar(3, 2), 3, 1, 3)
        q = classes.divide_by_diff(p, 3, 1, 3)
        assert q == classes.tvar(3, 2)
        with pytest.raises(ValueError):
            classes.divide_by_diff(classes.tvar(3, 2), 3, 1, 3)
