"""Graph cohomology: solved dimensions, numerators, characters, classes."""

import dataclasses

import pytest

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import linalg as L
from gkmhess.coloring import csf_q, llt
from gkmhess.maps import omega_graded
import classes
from test_linalg import restrict_endomorphism, trace


def c_triple(hstr):
    h = H.from_string(hstr)
    return next(t for t in H.find_modular_triples(h) if t.kind == "C")


class TestEquivariantPiece:
    def test_h22_degree0(self):
        # oracle: 2 unknown constants, one forced equality -> dim 1
        g = G.build_GX(H.from_string("2,2"))
        assert CH.equivariant_piece(g, 0).dim == 1

    def test_h22_degree1(self):
        # oracle: 4 unknowns, 1 substitution constraint -> dim 3
        g = G.build_GX(H.from_string("2,2"))
        assert CH.equivariant_piece(g, 1).dim == 3

    @pytest.mark.parametrize("hstr", ["2,2", "2,3,3", "3,3,3"])
    def test_degree0_connected(self, hstr):
        g = G.build_GX(H.from_string(hstr))
        assert CH.equivariant_piece(g, 0).dim == 1

    def test_basis_columns_are_classes(self):
        g = G.build_GX(H.from_string("2,3,3"))
        basis = CH.equivariant_piece(g, 2)
        for col in basis.columns:
            cls = classes.EquivariantClass.from_vector(g, 2, col)
            assert classes.membership_check(cls, g)


class TestMonomialIndex:
    def test_count(self):
        from math import comb
        for n in (1, 2, 3, 4):
            for k in (0, 1, 2, 3, 4):
                assert len(CH.monomials(n, k)) == comb(n + k - 1, k)
                assert len(CH.monomial_index(n, k)) == comb(n + k - 1, k)

    def test_graded_lex_t1_largest(self):
        assert CH.monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert CH.monomial_index(2, 2)[(1, 1)] == 1


class TestDegreeZeroContainsConstants:
    @pytest.mark.parametrize("hstr", ["2,2", "2,3,3", "1,2,3"])
    def test_constant_in_space(self, hstr):
        g = G.build_GX(H.from_string(hstr))
        basis = CH.equivariant_piece(g, 0)
        ones = {i: 1 for i in range(len(g.vertices))}
        ech = L.Echelon()
        for col in basis.columns:
            ech.insert(col)
        assert not ech.reduce(ones)


class TestBlowupSelfConsistency:
    def test_basis_columns_pass_membership(self):
        t = c_triple("2,3,3")
        for side in ("x", "y"):
            bl = G.build_blowup(t, side)
            sp = CH.solve_graph(bl, max_degree=2)
            for k in (0, 1, 2):
                for col in sp.bases[k].columns:
                    cls = classes.EquivariantClass.from_vector(bl, k, col)
                    assert classes.membership_check(cls, bl)


class TestHilbertNumerator:
    def test_h22(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,2")))
        assert CH.hilbert_numerator(sp) == [1, 1]

    def test_h233(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        assert CH.hilbert_numerator(sp) == [1, 4, 1]

    def test_h333_q_factorial(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("3,3,3")))
        assert CH.hilbert_numerator(sp) == [1, 2, 2, 1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_total_and_palindromy(self, n):
        import math
        for h in H.enumerate_hessenberg(n):
            sp = CH.solve_graph(G.build_GX(h))
            b = CH.hilbert_numerator(sp)
            assert sum(b) == math.factorial(n)
            assert b == b[::-1]

    def test_insufficient_margin_raises(self):
        g = G.build_GX(H.from_string("2,2"))
        sp = CH.solve_graph(g, max_degree=g.top_degree)
        with pytest.raises(CH.Truncated):
            CH.hilbert_numerator(sp)

    def test_blowup_total(self):
        import math
        t = c_triple("2,3,3")
        for side in ("x", "y"):
            sp = CH.solve_graph(G.build_blowup(t, side))
            assert sum(CH.hilbert_numerator(sp)) == 2 * math.factorial(3)


class TestOrdinaryDirect:
    def test_h233_dims(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        numer = CH.hilbert_numerator(sp)
        basis = CH.ordinary_piece_direct(sp, 1, expected=numer[1])
        assert basis.dim == 4
        basis = CH.ordinary_piece_direct(sp, 3)
        assert basis.dim == 0

    def test_degree0(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        basis = CH.ordinary_piece_direct(sp, 0)
        assert basis.dim == 1

    def test_mismatch_raises(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,2")))
        with pytest.raises(CH.DimensionMismatch):
            CH.ordinary_piece_direct(sp, 1, expected=2)

    def test_trace_on_a_non_invariant_span_raises(self):
        # sigma moves vertex 0, so the span of its unit vector is not invariant
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        image = L.Echelon()
        image.insert({0: 1})
        with pytest.raises(CH.NotInvariant):
            CH._trace_on_reducer(sp, 1, image, (2, 1, 3), "dot")

    @pytest.mark.parametrize("side,kind", [("x", "dot"), ("y", "dagger")])
    def test_cross_check_catches_a_wrong_character_value(self, side, kind):
        sp = CH.solve_graph(G.build_graph(H.from_string("2,3,3,4"), side))
        numer = CH.hilbert_numerator(sp)
        char = CH.graded_character(sp, kind, cross_check=False)
        CH._cross_check_direct(sp, kind, char, numer)
        char.values[((2, 2), 1)] = char.value((2, 2), 1) + 1
        with pytest.raises(CH.CrossCheckFailed,
                           match=r"degree 1, type \(2, 2\):"):
            CH._cross_check_direct(sp, kind, char, numer)


class TestCharacters:
    def test_identity_trace_is_dimension(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        for k in range(sp.max_degree + 1):
            tr = CH.equivariant_trace(sp, k, (1, 2, 3), "dot")
            assert tr == sp.dim(k)

    def test_h22_trivial_character(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,2")))
        char = CH.graded_character(sp, "dot")
        for lam in ((2,), (1, 1)):
            for k in (0, 1):
                assert char.value(lam, k) == 1

    def test_h22_dagger_same_dims(self):
        spy = CH.solve_graph(G.build_GY(H.from_string("2,2")))
        char = CH.graded_character(spy, "dagger")
        assert char.dims() == [1, 1]

    def test_well_defined_on_other_representatives(self):
        # trace must agree for two permutations of the same cycle type
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3,4")),
                            max_degree=2)
        for k in (0, 1, 2):
            CH.check_action_invariance(sp, k, "dot")
            a = CH.equivariant_trace(sp, k, (2, 1, 4, 3), "dot")
            b = CH.equivariant_trace(sp, k, (1, 3, 2, 4)[:4], "dot")
            ref22 = CH.equivariant_trace(
                sp, k, G.class_representative((2, 2)), "dot")
            ref21 = CH.equivariant_trace(
                sp, k, G.class_representative((2, 1, 1)), "dot")
            assert a == ref22
            assert b == ref21

    def test_trace_matches_restrict_endomorphism(self):
        # the optimized trace equals the trace of the restricted matrix
        g = G.build_GX(H.from_string("2,3,3"))
        sp = CH.solve_graph(g)
        k = 1
        sigma = (2, 1, 3)
        pi = CH.coordinate_perm(g, k, sigma, "dot")
        p = [[int(pi[c] == r) for c in range(len(pi))]
             for r in range(len(pi))]
        restricted = restrict_endomorphism(sp.bases[k], p)
        assert trace(restricted) == CH.equivariant_trace(sp, k, sigma, "dot")

    def test_degree0_traces_are_one_connected(self):
        for hstr, side, kind in (("2,3,3", "x", "dot"), ("2,3,3", "y", "dagger")):
            sp = CH.solve_graph(G.build_graph(H.from_string(hstr), side))
            char = CH.graded_character(sp, kind)
            from gkmhess.symfunc import partitions_of
            for lam in partitions_of(3):
                assert char.value(lam, 0) == 1


class TestFrobeniusSeries:
    def test_h22_dot(self):
        from gkmhess.symfunc import SymmetricFunction, GradedSymmetricFunction
        sp = CH.solve_graph(G.build_GX(H.from_string("2,2")))
        fs = CH.frobenius_series(sp, "dot")
        h2 = SymmetricFunction.generator("h", (2,)).convert("m")
        assert fs == GradedSymmetricFunction(2, {0: h2, 1: h2})

    def test_isolated_vertices_regular_rep(self):
        from gkmhess.symfunc import SymmetricFunction, GradedSymmetricFunction
        for n in (2, 3):
            h = H.validate(tuple(range(1, n + 1)))
            sp = CH.solve_graph(G.build_GX(h))
            fs = CH.frobenius_series(sp, "dot")
            expected = SymmetricFunction.generator("p", (1,) * n).convert("m")
            assert fs == GradedSymmetricFunction(n, {0: expected})

    def test_gy_233_equals_llt(self):
        sp = CH.solve_graph(G.build_GY(H.from_string("2,3,3")))
        assert CH.frobenius_series(sp, "dagger") == llt(H.from_string("2,3,3"))

    def test_gx_233_equals_omega_csf(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        assert CH.frobenius_series(sp, "dot") == \
            omega_graded(csf_q(H.from_string("2,3,3")))


class TestClasses:
    def test_xi_on_plain_graph(self):
        g = G.build_GX(H.from_string("2,3,3"))
        x2 = classes.make_class_xi(g, 2)
        for v in g.vertices:
            assert x2.value(v) == classes.tvar(3, v.perm[1])

    def test_xi_sum_is_constant(self):
        g = G.build_GX(H.from_string("2,3,3"))
        total = {}
        for i in (1, 2, 3):
            xi = classes.make_class_xi(g, i)
            for v in g.vertices:
                total[v] = classes.add(total.get(v, {}), xi.value(v))
        expected = classes.add(
            classes.add(classes.tvar(3, 1), classes.tvar(3, 2)),
            classes.tvar(3, 3))
        assert all(p == expected for p in total.values())

    def test_xi_on_blowup_example(self):
        # x_3(°123) = t_{w(3)} with w = (123) tau = 132 -> t_2
        bl = G.build_blowup(c_triple("2,3,3"), "x")
        x3 = classes.make_class_xi(bl, 3)
        assert x3.value(G.circ((1, 2, 3))) == classes.tvar(3, 2)

    def test_xi_y_side_rejected(self):
        bl = G.build_blowup(c_triple("2,3,3"), "y")
        with pytest.raises(CH.MembershipFailed):
            classes.make_class_xi(bl, 1)

    def test_constant_class_member(self):
        g = G.build_GX(H.from_string("2,3,3"))
        cls = classes.EquivariantClass(
            g, 1, {v: classes.tvar(3, 1) for v in g.vertices})
        assert classes.membership_check(cls, g)

    def test_corrupted_class_fails(self):
        g = G.build_GX(H.from_string("2,3,3"))
        values = {v: classes.tvar(3, 1) for v in g.vertices}
        values[g.vertices[0]] = classes.tvar(3, 2)
        with pytest.raises(CH.MembershipFailed):
            classes.EquivariantClass(g, 1, values)


class TestInversionStatisticOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_numerator_counts_h_inversions(self, n):
        # fully independent oracle: the graded Betti numbers count
        # permutations by the number of reversed Hessenberg pairs; the
        # solved graph at n <= 3, the betti command (by the irreducible
        # blocks of the twin at n >= 4) on both sides, at n = 5 a sample
        hs = (map(H.from_string, ("2,3,4,5,5", "3,3,4,4,5", "4,4,4,4,5"))
              if n == 5 else H.enumerate_hessenberg(n))
        for h in hs:
            pairs = G.hessenberg_pairs(h)
            dist: dict[int, int] = {}
            for w in G.all_perms(n):
                inv = sum(1 for (i, j) in pairs if w[j - 1] > w[i - 1])
                dist[inv] = dist.get(inv, 0) + 1
            oracle = [dist.get(k, 0) for k in range(h.dimension() + 1)]
            if n <= 3:
                sp = CH.solve_graph(G.build_GX(h))
                assert CH.hilbert_numerator(sp) == oracle
            with CH.solve_memo():
                for side in "xy":
                    assert cli.cmd_betti(h, side)["numerator"] == oracle


class TestQuadConditionsMatter:
    def test_signed_space_is_strictly_smaller(self):
        # dropping the 4-gon conditions gives a different (non-palindromic)
        # numerator, so the signed conditions are load bearing
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "x")
        signed = CH.solve_graph(bl)
        unsigned = CH.solve_graph(
            G.LabeledGraph(bl.n, bl.vertices, bl.edges, bl.top_degree))
        assert signed.dim(2) < unsigned.dim(2)
        numer = CH.hilbert_numerator(unsigned)
        assert numer != CH.hilbert_numerator(signed)
        assert numer != numer[::-1]


def row_set(rows):
    return {CH._row_key(r.items()) for r in rows}


def rows_closed(graph, k, rows, kind):
    """Every generator's coordinate permutation maps the row set onto
    itself up to sign (the fast path of check_action_invariance)."""
    keys = row_set(rows)
    return all(
        {CH._row_key((pi[c], v) for c, v in r.items()) for r in rows} == keys
        for pi in (CH.coordinate_perm(graph, k, sigma, kind)
                   for sigma in G.generators(graph.n)))


class TestActionInvarianceGuard:
    def test_symmetry_broken_graph_raises(self):
        # deleting one edge of the hexagon breaks vertex transitivity, so
        # the dot action no longer preserves the solution space
        g = G.build_GX(H.from_string("2,3,3"))
        broken = G.LabeledGraph(g.n, g.vertices, g.edges[1:], g.top_degree)
        sp = CH.solve_graph(broken, max_degree=1)
        with pytest.raises(CH.NotInvariant):
            CH.check_action_invariance(sp, 1, "dot")

    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4"])
    @pytest.mark.parametrize("side,kind", [("x", "dot"), ("y", "dagger")])
    def test_generators_permute_the_rows(self, hstr, side, kind):
        # the row-set test, the only invariance test, passes on every graph
        # of a triple
        t = c_triple(hstr)
        graphs = [G.build_graph(h, side)
                  for h in (t.h_minus, t.h, t.h_plus)]
        graphs += [G.build_circle_graph(t, side), G.build_blowup(t, side)]
        for g in graphs:
            for k in range(t.h_plus.dimension() + 2):
                assert rows_closed(g, k, CH.constraint_rows(g, k), kind), \
                    (type(g).__name__, k)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_quad_rows_ignore_label_orientation(self, side):
        bl = G.build_blowup(c_triple("2,3,3,4"), side)
        flipped = dataclasses.replace(bl, quads=tuple(
            (vs, (b, a)) for vs, (a, b) in bl.quads))
        for k in range(bl.top_degree + 2):
            assert row_set(CH.constraint_rows(flipped, k)) \
                == row_set(CH.constraint_rows(bl, k))

    def test_rows_not_permuted_raise(self):
        # r0 + r1 in place of r0 spans the same rows, so the kernel is
        # unchanged and invariant, but the row set is no longer permuted;
        # the row test is sufficient, not necessary, and rejects it
        g = G.build_GX(H.from_string("2,3,3"))
        sp = CH.solve_graph(g, max_degree=2)
        for k in (1, 2):
            r0, r1 = sp.rows[k][0], sp.rows[k][1]
            summed = {c: r0.get(c, 0) + r1.get(c, 0) for c in {*r0, *r1}}
            sp.rows[k][0] = {c: v for c, v in summed.items() if v}
            assert not rows_closed(g, k, sp.rows[k], "dot")
            with pytest.raises(CH.NotInvariant,
                               match=f"does not permute the degree-{k} "
                                     "constraint rows"):
                CH.check_action_invariance(sp, k, "dot")

    def test_blowup_basis_passes_polynomial_membership(self):
        # divisible_by_diff(order=2) does not read the constraint rows
        t = c_triple("2,3,3,4")
        for side in ("x", "y"):
            bl = G.build_blowup(t, side)
            sp = CH.solve_graph(bl)
            for k in range(sp.max_degree + 1):
                for col in sp.bases[k].columns:
                    # from_vector raises MembershipFailed on a violation
                    cls = classes.EquivariantClass.from_vector(bl, k, col)
                    assert classes.membership_check(cls, bl)


class TestCharacterIntegrality:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ordinary_values_are_integers(self, n):
        from gkmhess.symfunc import partitions_of
        for h in H.enumerate_hessenberg(n):
            for side, kind in (("x", "dot"), ("y", "dagger")):
                sp = CH.solve_graph(G.build_graph(h, side))
                char = CH.graded_character(sp, kind)
                for lam in partitions_of(n):
                    for k in range(char.max_q() + 1):
                        assert char.value(lam, k).denominator == 1


class TestAugmentInvariance:
    def test_equivariant_dims_unchanged(self):
        t = c_triple("2,3,3")
        bl = G.build_blowup(t, "x")
        aug = G.augment_blowup(bl)
        sp = CH.solve_graph(bl)
        spa = CH.solve_graph(aug)
        for k in range(sp.max_degree + 1):
            assert sp.dim(k) == spa.dim(k)
