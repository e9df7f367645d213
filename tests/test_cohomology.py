"""Graph cohomology: solved dimensions, numerators, characters, classes."""

import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import linalg as L
from gkmhess import symfunc as S
from gkmhess.coloring import csf_q, llt
from gkmhess.maps import omega_graded, plain_character, plain_twin
from gkmhess.symfunc import partitions_of
import classes
import graph_checks as GC
import kernel_traces as KT
from test_linalg import restrict_endomorphism, trace


def c_triple(hstr):
    h = H.from_string(hstr)
    return next(t for t in H.find_modular_triples(h) if t.kind == "C")


class TestEquivariantPiece:
    def test_h22_degree0(self):
        # oracle: 2 unknown constants, one forced equality -> dim 1
        g = G.build_GX(H.from_string("2,2"))
        assert CH.solve_graph(g, 0).bases[0].dim == 1

    def test_h22_degree1(self):
        # oracle: 4 unknowns, 1 substitution constraint -> dim 3
        g = G.build_GX(H.from_string("2,2"))
        assert CH.solve_graph(g, 1).bases[1].dim == 3

    @pytest.mark.parametrize("hstr", ["2,2", "2,3,3", "3,3,3"])
    def test_degree0_connected(self, hstr):
        g = G.build_GX(H.from_string(hstr))
        assert CH.solve_graph(g, 0).bases[0].dim == 1

    def test_basis_columns_are_classes(self):
        g = G.build_GX(H.from_string("2,3,3"))
        basis = CH.solve_graph(g, 2).bases[2]
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_renaming_table_moves_each_exponent(self, n):
        # t_i renamed t_sigma(i): the exponent of t_i lands at sigma(i)
        for k in range(6):
            idx = CH.monomial_index(n, k)
            for sigma in G.all_perms(n):
                expected = []
                for mon in CH.monomials(n, k):
                    moved = [0] * n
                    for i, e in enumerate(mon):
                        moved[sigma[i] - 1] = e
                    expected.append(idx[tuple(moved)])
                assert CH._perm_monomial_table(n, k, sigma) \
                    == tuple(expected), (k, sigma)


@st.composite
def labelled_polys(draw, reduced=False):
    """(n, k, (a, b), p): p of degree k <= 3 in n <= 4 variables, often a
    multiple of the label's factor or its square, t_a - t_b or, on the
    reduced monomials (e_1 = 0) with a = 1, t_b."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, 3))
    a = draw(st.integers(1, n - 1))
    b = draw(st.integers(a + 1, n))
    mons = CH.reduced_monomials if reduced else CH.monomials
    factor = classes.tvar(n, b) if reduced and a == 1 else \
        classes.sub(classes.tvar(n, a), classes.tvar(n, b))
    j = draw(st.integers(0, min(k, 2)))
    p = classes._collect((m, draw(st.integers(-2, 2)))
                         for m in mons(n, k - j))
    for _ in range(j):
        p = classes.mul(p, factor)
    if draw(st.booleans()):   # one more term, which may break divisibility
        p = classes.add(p, {draw(st.sampled_from(mons(n, k))): 1})
    return n, k, (a, b), p


def annihilate(rows, mons, p):
    """Whether every row kills p in the coordinates of width 1 over the
    monomials mons."""
    x = {mi: p.get(m, 0) for mi, m in enumerate(mons)}
    return all(sum(v * x[c] for c, v in row.items()) == 0 for row in rows)


class TestDivisibleRows:
    """One row per col and group, read against polynomial divisibility
    (:func:`classes.divisible_by_diff`) with width 1 and col {0: 1}."""

    @given(labelled_polys())
    @settings(max_examples=200, deadline=None)
    def test_edge_and_derivative_rows(self, case):
        n, k, (a, b), p = case
        edge = CH.divisible_rows(CH.edge_groups(n, k, a, b), [{0: 1}], 1)
        deriv = CH.divisible_rows(CH.derivative_groups(n, k, a, b),
                                  [{0: 1}], 1)
        mons = CH.monomials(n, k)
        assert annihilate(edge, mons, p) == classes.divisible_by_diff(p, a, b)
        assert annihilate(edge + deriv, mons, p) \
            == classes.divisible_by_diff(p, a, b, order=2)

    @given(labelled_polys(reduced=True))
    @settings(max_examples=200, deadline=None)
    def test_reduced_rows(self, case):
        # modulo the diagonal t_1 = 0, so t_1 - t_b divides as t_b does
        n, k, (a, b), p = case
        edge = CH.divisible_rows(CH._edge_groups(n, k, a, b), [{0: 1}], 1)
        deriv = CH.divisible_rows(CH._derivative_groups(n, k, a, b),
                                  [{0: 1}], 1)
        mons = CH.reduced_monomials(n, k)
        if a == 1:
            assert annihilate(edge, mons, p) == all(e[b - 1] for e in p)
            assert annihilate(edge + deriv, mons, p) \
                == all(e[b - 1] >= 2 for e in p)
            return
        assert annihilate(edge, mons, p) == classes.divisible_by_diff(p, a, b)
        assert annihilate(edge + deriv, mons, p) \
            == classes.divisible_by_diff(p, a, b, order=2)

    def test_one_row_per_col_and_group(self):
        groups = (((0, 1), (2, 3)), ((1, -1),))
        cols = [{0: 1, 1: -1}, {1: 2}]
        assert CH.divisible_rows(groups, cols, 2) == [
            {0: 1, 1: -1, 4: 3, 5: -3}, {2: -1, 3: 1},
            {1: 2, 5: 6}, {3: -2}]


class TestDegreeZeroContainsConstants:
    @pytest.mark.parametrize("hstr", ["2,2", "2,3,3", "1,2,3"])
    def test_constant_in_space(self, hstr):
        g = G.build_GX(H.from_string(hstr))
        basis = CH.solve_graph(g, 0).bases[0]
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

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_ranked_degree_off_by_one_raises(self, side):
        # the default solve ranks degree top + 1 and keeps only its
        # dimension, which the Truncated check still reads
        g = G.build_graph(H.from_string("2,3,3"), side)
        sp = CH.solve_graph(g)
        assert sp.ranked == {3: CH.solve_graph(g, 3).dim(3)}
        sp.ranked[3] += 1
        with pytest.raises(CH.Truncated, match="degree 3: b = 1"):
            CH.hilbert_numerator(sp)

    def test_blowup_total(self):
        import math
        t = c_triple("2,3,3")
        for side in ("x", "y"):
            sp = CH.solve_graph(G.build_blowup(t, side))
            assert sum(CH.hilbert_numerator(sp)) == 2 * math.factorial(3)


def t_multiples(space, k):
    """t_i times each degree-(k-1) basis column, for every i: a spanning
    set of I_k = sum_i t_i H^{k-1}_T in full coordinates."""
    nv = len(space.graph.vertices)
    return [{table[c // nv] * nv + c % nv: v for c, v in col.items()}
            for i in range(1, space.n + 1) if k
            for table in [CH._shift_exp_index(space.n, k, i)]
            for col in space.bases[k - 1].columns]


def trace_by_difference(space, k, sigma, kind):
    """tr(sigma | H^k_T) - tr(sigma | I_k), I_k = sum_i t_i H^{k-1}_T: each
    row r of the back-substituted image, permuted and reduced to zero, has
    coordinate v[c] / r[c] along itself, c the pivot of r."""
    image = L.Echelon.of(t_multiples(space, k))
    image.back_substitute()
    pi = CH.coordinate_perm(space.graph, k, sigma, kind)
    t_image = Fraction(0)
    for c, row in image.rows:
        permuted = {pi[j]: v for j, v in row.items()}
        assert not image.reduce(permuted)
        t_image += Fraction(permuted.get(c, 0), row[c])
    return KT.kernel_trace(space, k, sigma, kind) - t_image


def fresh_image_faults(monkeypatch):
    """_image_fault is cached per (n, k, sigma, kind): a test that breaks
    the tables it reads needs a cache of its own."""
    monkeypatch.setattr(CH, "_image_fault", lru_cache(maxsize=None)(
        CH._image_fault.__wrapped__))


def quotient_reps(space, k, expected=None):
    """The representatives of H^k_T / I_k that direct_quotients picks."""
    *_, (_, reps, _) = CH.direct_quotients(space, k, expected)
    return reps


class TestOrdinaryDirect:
    def test_h233_dims(self):
        # degree 3 is top + 1: solved, not only ranked, when asked for
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")), 3)
        numer = CH.hilbert_numerator(sp)
        assert len(quotient_reps(sp, 1, {1: numer[1]})) == 4
        assert len(quotient_reps(sp, 3)) == 0

    def test_degree0(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        assert len(quotient_reps(sp, 0)) == 1

    def test_mismatch_raises(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,2")))
        with pytest.raises(CH.DimensionMismatch):
            quotient_reps(sp, 1, {1: 2})

    @pytest.mark.parametrize("side,kind", [("x", "dot"), ("y", "dagger")])
    def test_dropped_basis_column_raises(self, side, kind):
        # a basis missing the column of a representative, a class outside
        # I_k: its quotient falls short of the numerator of the whole
        # space, and its own numerator is no longer that of a free module
        sp = CH.solve_graph(G.build_graph(H.from_string("2,3,4,4"), side))
        numer = CH.hilbert_numerator(sp)
        quotients = CH.direct_quotients(sp, sp.graph.top_degree)
        for k, (_, reps, _) in enumerate(quotients):
            basis = sp.bases[k]
            j = basis.unit_rows.index(reps[-1][0])
            short = L.SubspaceBasis(
                basis.ambient_dim, basis.columns[:j] + basis.columns[j + 1:],
                basis.unit_rows[:j] + basis.unit_rows[j + 1:])
            cut = GC.replace(sp, bases={**sp.bases, k: short})
            with pytest.raises(CH.DimensionMismatch, match=f"at degree {k}"):
                CH._cross_check_direct(cut, kind, numer)
            with pytest.raises((CH.NotFree, CH.Truncated)):
                CH.graded_character(cut, kind)

    @pytest.mark.parametrize("side,kind", [("x", "dot"), ("y", "dagger")])
    def test_tampered_quotient_raises(self, side, kind, monkeypatch):
        # unit vectors at the free coordinates of the reps: not classes,
        # and sigma moves one of them off H^k_T, already in degree 0
        real = CH.direct_quotients

        def tampered(space, top, expected=None):
            for image, reps, adj in real(space, top, expected):
                yield image, [(f, {f: 1}) for f, _ in reps], adj

        sp = CH.solve_graph(G.build_graph(H.from_string("2,3,3"), side))
        monkeypatch.setattr(CH, "direct_quotients", tampered)
        with pytest.raises(CH.NotInvariant, match="quotient representative"):
            CH.graded_character(sp, kind, cross_check=True)

    def test_broken_shift_table_raises(self, monkeypatch):
        # t_1 and t_2 multiplication swapped: the image is the same, but the
        # dot action by a 3-cycle no longer intertwines the tables
        real = CH._shift_exp_index
        swap = {1: 2, 2: 1}
        monkeypatch.setattr(CH, "_shift_exp_index",
                            lambda n, k, i: real(n, k, swap.get(i, i)))
        fresh_image_faults(monkeypatch)
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        with pytest.raises(CH.NotInvariant, match="intertwine"):
            CH.graded_character(sp, "dot", cross_check=True)

    def test_broken_dagger_table_raises(self, monkeypatch):
        # a dagger action that renames variables from degree 2 on does not
        # commute with t-multiplication into degree 2
        sp = CH.solve_graph(G.build_GY(H.from_string("2,3,3")))
        real = CH._monomial_action
        monkeypatch.setattr(
            CH, "_monomial_action",
            lambda n, k, sigma, kind: real(n, k, sigma,
                                           "dot" if k >= 2 else kind))
        fresh_image_faults(monkeypatch)
        with pytest.raises(CH.NotInvariant, match="into degree 2"):
            CH.graded_character(sp, "dagger")

    def test_image_off_the_classes_raises(self, monkeypatch):
        # t_1 "multiplication" onto the first monomial: its multiples are
        # not classes, and the dagger tables, which fix every monomial,
        # cannot tell
        real = CH._shift_exp_index
        monkeypatch.setattr(
            CH, "_shift_exp_index",
            lambda n, k, i: real(n, k, i) if i > 1 else (0,) * len(
                real(n, k, i)))
        sp = CH.solve_graph(G.build_GY(H.from_string("2,3,3")))
        with pytest.raises(CH.DimensionMismatch, match="escapes"):
            CH.graded_character(sp, "dagger", cross_check=True)

    def test_shift_tables_are_certified(self):
        # every label in either orientation, edge and 4-gon conditions
        for n in (2, 3, 4):
            for k in range(1, 7):
                tables = tuple(CH._shift_exp_index(n, k, i)
                               for i in range(1, n + 1))
                for a in range(1, n + 1):
                    for b in set(range(1, n + 1)) - {a}:
                        for second in (False, True):
                            assert CH._shift_fault(n, k, (a, b), second,
                                                   tables) is None

    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("dropped", [1, 2])
    def test_dropped_derivative_group_is_caught(self, side, dropped,
                                                monkeypatch):
        # the space is solved on every row; the certificate then reads the
        # degree-j derivative groups without their first, and the t_i
        # pullbacks of the degree-(j+1) groups leave the span of the rest
        sp = CH.solve_graph(G.build_blowup(c_triple("2,3,3"), side))
        real = CH.derivative_groups
        monkeypatch.setattr(
            CH, "derivative_groups",
            lambda n, k, a, b: real(n, k, a, b)[1 if k == dropped else 0:])
        monkeypatch.setattr(CH, "_shift_fault", lru_cache(maxsize=None)(
            CH._shift_fault.__wrapped__))
        with pytest.raises(CH.DimensionMismatch,
                           match=f"degree {dropped + 1}: the t_. table does "
                                 f"not carry the conditions of the label"):
            CH.graded_character(sp, "dot" if side == "x" else "dagger")

    def test_generators_are_class_representatives(self):
        # the quotient checks the generators in its pass over the classes
        for n in range(1, 7):
            reps = {G.class_representative(lam) for lam in partitions_of(n)}
            assert set(G.generators(n)) <= reps

    @pytest.mark.parametrize("broken", G.generators(4),
                             ids=["transposition", "4-cycle"])
    def test_action_broken_for_one_generator_raises(self, broken,
                                                    monkeypatch):
        # the dot action of (1 2), or of the 4-cycle alone, leaves the
        # variables alone; every other permutation acts as it should
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3,4")))
        tables = CH._coordinate_tables
        monkeypatch.setattr(
            CH, "_coordinate_tables",
            lambda graph, k, sigma, kind:
            tables(graph, k, sigma, "dagger" if sigma == broken else kind))
        with pytest.raises(CH.NotInvariant,
                           match=re.escape(f"by {broken} moves")):
            CH.graded_character(sp, "dot")

    @pytest.mark.parametrize("hstr", [
        *(str(h) for n in (1, 2, 3)
          for h in H.enumerate_hessenberg(n)),
        "1,2,3,4", "2,2,3,4", "2,3,3,4", "2,3,4,4"])
    def test_quotient_trace_is_trace_difference(self, hstr):
        # oracle: tr(sigma | H^k) - tr(sigma | I_k), the former on the
        # kernel basis, the latter over every row of the image echelon
        for side, kind in (("x", "dot"), ("y", "dagger")):
            sp = CH.solve_graph(G.build_graph(H.from_string(hstr), side))
            top = sp.graph.top_degree
            quotients = CH.direct_quotients(sp, top)
            for k, (image, reps, adj) in enumerate(quotients):
                for lam in partitions_of(sp.n):
                    sigma = G.class_representative(lam)
                    direct = CH._quotient_trace(sp, k, image, reps, adj,
                                                sigma, kind)
                    assert direct == trace_by_difference(sp, k, sigma, kind), \
                        (side, k, lam)

    def test_quotient_trace_scales_a_non_unit_pivot(self):
        # with no constraint rows degree 1 of 2,2 is Q^4, and sigma = (2, 1)
        # reverses it; the image row r = (2, 1, 1, 2) is fixed with pivot
        # entry 2, so the trace on Q^4 / <r> is 0 - 1, read as -3 / 3 at the
        # rep 3 e_3: it goes to 3 e_0, whose remainder is -3 at coordinate 3
        sp = CH.solve_graph(G.build_GX(H.from_string("2,2")))
        image = L.Echelon.of([{0: 2, 1: 1, 2: 1, 3: 2}])
        reps = [(1, {1: 1}), (2, {2: 1}), (3, {3: 3})]
        assert CH._quotient_trace(sp, 1, image, reps, {}, (2, 1), "dot") \
            == -1

    @pytest.mark.parametrize("side,kind", [("x", "dot"), ("y", "dagger")])
    def test_cross_check_catches_a_wrong_character_value(self, side, kind):
        sp = CH.solve_graph(G.build_graph(H.from_string("2,3,3,4"), side))
        numer = CH.hilbert_numerator(sp)
        char = plain_character(H.from_string("2,3,3,4"), side)
        assert CH._cross_check_direct(sp, kind, numer, char) == char
        char.values[((2, 2), 1)] = char.value((2, 2), 1) + 1
        with pytest.raises(CH.CrossCheckFailed,
                           match=r"degree 1, type \(2, 2\):"):
            CH._cross_check_direct(sp, kind, numer, char)

    def test_quotient_traces_act_through_coordinate_tables(self, monkeypatch):
        # with the variables of the dot action left alone, the action no
        # longer preserves H^k_T, and the quotient traces see it
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")))
        tables = CH._coordinate_tables
        monkeypatch.setattr(CH, "_coordinate_tables",
                            lambda graph, k, sigma, kind:
                            tables(graph, k, sigma, "dagger"))
        with pytest.raises(CH.NotInvariant, match="quotient representative"):
            CH.graded_character(sp, "dot")


class TestOnDemandColumns:
    """The direct quotient makes kernel columns only at its representatives,
    from the echelon the solve kept: each must be the column of the whole
    kernel basis at the same unit row."""

    def test_representatives_are_the_kernel_columns(self, store):
        for n in (1, 2, 3, 4):
            for h in H.enumerate_hessenberg(n):
                for side in ("x", "y"):
                    sp = store.space(h, side)
                    quotients = CH.direct_quotients(sp, sp.graph.top_degree)
                    for k, (_, reps, _) in enumerate(quotients):
                        oracle = L.kernel_of_rows(
                            CH.constraint_rows(sp.graph, k),
                            sp.bases[k].ambient_dim)
                        assert sp.bases[k].unit_rows == oracle.unit_rows
                        for f, col in reps:
                            assert col == oracle.column(f), (h, side, k, f)

    def test_blowup_columns_on_demand(self):
        # every unit row, not only the representatives, through degree 4:
        # the top degrees of 3,4,4,4 alone would take seconds
        count = 0
        for n in (3, 4):
            for h in H.enumerate_hessenberg(n):
                for t in H.find_modular_triples(h):
                    for side in ("x", "y") if t.kind == "C" else ():
                        bl = G.build_blowup(t, side)
                        sp = CH.solve_graph(bl, min(bl.top_degree, 4))
                        for k, basis in sp.bases.items():
                            oracle = L.kernel_of_rows(
                                CH.constraint_rows(bl, k), basis.ambient_dim)
                            assert basis.unit_rows == oracle.unit_rows
                            assert [basis.column(f) for f in basis.unit_rows] \
                                == oracle.columns, (t, side, k)
                        count += 1
        assert count == 12


class TestCharacters:
    def test_identity_trace_is_dimension(self):
        sp = CH.solve_graph(G.build_GX(H.from_string("2,3,3")), 3)
        quotients = CH.direct_quotients(sp, sp.max_degree)
        for k, (image, reps, adj) in enumerate(quotients):
            tr = CH._quotient_trace(sp, k, image, reps, adj, (1, 2, 3), "dot")
            assert tr == sp.dim(k) - image.rank

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
        for k, (image, reps, adj) in enumerate(CH.direct_quotients(sp, 2)):
            def tr(sigma):
                return CH._quotient_trace(sp, k, image, reps, adj, sigma,
                                          "dot")
            assert tr((2, 1, 4, 3)) == tr(G.class_representative((2, 2)))
            assert tr((1, 3, 2, 4)) == tr(G.class_representative((2, 1, 1)))

    def test_trace_matches_restrict_endomorphism(self):
        # the quotient trace is tr(sigma | H^k_T) - tr(sigma | I_k), each the
        # trace of a restricted matrix; so is the kernel-trace oracle's
        g = G.build_GX(H.from_string("2,3,3"))
        sp = CH.solve_graph(g)
        k = 1
        sigma = (2, 1, 3)
        pi = CH.coordinate_perm(g, k, sigma, "dot")
        p = [[int(pi[c] == r) for c in range(len(pi))]
             for r in range(len(pi))]
        *_, (image, reps, adj) = CH.direct_quotients(sp, k)
        on_h = trace(restrict_endomorphism(sp.bases[k], p))
        # I_1 = sum_i t_i H^0_T, with H^0_T the constants
        on_i = trace(restrict_endomorphism(
            L.SubspaceBasis(len(pi), t_multiples(sp, k)), p))
        assert CH._quotient_trace(sp, k, image, reps, adj, sigma, "dot") \
            == on_h - on_i
        assert KT.kernel_trace(sp, k, sigma, "dot") == on_h

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
        # blocks of the twin) on both sides, at n = 5 a sample
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


def row_key(items):
    """A row as its sorted (column, value) pairs, up to sign."""
    key = sorted(items)
    return tuple(key) if not key or key[0][1] > 0 else \
        tuple((c, -v) for c, v in key)


def row_set(rows):
    return {row_key(r.items()) for r in rows}


class TestActionInvarianceGuard:
    def test_symmetry_broken_graph_raises(self):
        # deleting one edge of the hexagon breaks vertex transitivity, so
        # neither action preserves the solution space, and the direct
        # quotient, the only path from a solved space to its character,
        # refuses it
        h = H.from_string("2,3,3")
        for side, kind in (("x", "dot"), ("y", "dagger")):
            g = G.build_graph(h, side)
            broken = G.LabeledGraph(g.n, g.vertices, g.edges[1:],
                                    g.top_degree)
            sp = CH.solve_graph(broken)
            with pytest.raises(CH.NotInvariant, match=f"{kind} action"):
                CH.graded_character(sp, kind)
            with pytest.raises(CH.NotInvariant):
                KT.kernel_traces(sp, kind)

    @pytest.mark.parametrize("hstr", ["2,3,3", "2,3,3,4"])
    @pytest.mark.parametrize("side,kind", [("x", "dot"), ("y", "dagger")])
    def test_generators_permute_the_rows(self, hstr, side, kind):
        # every generator maps the constraint rows of every graph of a
        # triple onto themselves up to sign, so each kernel is invariant:
        # a check of the encoding, independent of the direct quotient
        t = c_triple(hstr)
        graphs = [G.build_graph(h, side)
                  for h in (t.h_minus, t.h, t.h_plus)]
        graphs += [G.build_circle_graph(t, side), G.build_blowup(t, side)]
        for g in graphs:
            for k in range(t.h_plus.dimension() + 2):
                rows = CH.constraint_rows(g, k)
                keys = row_set(rows)
                for sigma in G.generators(g.n):
                    pi = CH.coordinate_perm(g, k, sigma, kind)
                    assert row_set({pi[c]: v for c, v in r.items()}
                                   for r in rows) == keys, \
                        (type(g).__name__, k, sigma)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_quad_rows_ignore_label_orientation(self, side):
        bl = G.build_blowup(c_triple("2,3,3,4"), side)
        flipped = GC.replace(bl, quads=tuple(
            (vs, (b, a)) for vs, (a, b) in bl.quads))
        for k in range(bl.top_degree + 2):
            assert row_set(CH.constraint_rows(flipped, k)) \
                == row_set(CH.constraint_rows(bl, k))

    def test_blowup_basis_passes_polynomial_membership(self):
        # divisible_by_diff(order=2) does not read the constraint rows
        t = c_triple("2,3,3,4")
        for side in ("x", "y"):
            bl = G.build_blowup(t, side)
            sp = CH.solve_graph(bl, bl.top_degree + 1)
            for k in range(sp.max_degree + 1):
                for col in sp.bases[k].columns:
                    # from_vector raises MembershipFailed on a violation
                    cls = classes.EquivariantClass.from_vector(bl, k, col)
                    assert classes.membership_check(cls, bl)


def fraction_route(char, k):
    """The degree-k Frobenius image by the Fraction route: p (chi / z_mu),
    then the conversion to m."""
    values = {lam: char.value(lam, k) for lam in partitions_of(char.n)}
    return S.frobenius(S.ClassFunction(char.n, values)).convert("m")


class TestSchurRoute:
    """symfunc.frobenius_in_m, through s in one step, against the Fraction
    route through p, degree by degree."""

    def assert_degrees_agree(self, char):
        series = CH.frobenius_of_character(char)
        for k in range(char.max_q() + 2):
            row = {lam: v for (lam, j), v in char.values.items() if j == k}
            oracle = fraction_route(char, k)
            assert S.frobenius_in_m(char.n, row).coeffs == oracle.coeffs, k
            assert series.term(k).basis == "m"
            assert series.term(k).coeffs == oracle.coeffs, k

    @pytest.mark.parametrize("hstr", [
        str(h) for n in (1, 2, 3, 4) for h in H.enumerate_hessenberg(n)])
    def test_block_characters_in_integers(self, hstr):
        h = H.from_string(hstr)
        _, traces = plain_twin(h)
        assert all(type(v) is int for row in traces.values() for v in row)
        for side in "xy":
            char = plain_character(h, side)
            assert all(type(v) is int for v in char.values.values())
            self.assert_degrees_agree(char)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_direct_quotient_characters(self, n, store):
        for h in H.enumerate_hessenberg(n):
            for side in "xy":
                char = store.character(h, side)
                assert all(type(v) is Fraction for v in char.values.values())
                self.assert_degrees_agree(char)

    def test_a_non_integral_image_is_divided_exactly(self):
        # the indicator of the class (2, 1): p_21 / z_21 = (m_3 + m_21) / 2
        got = S.frobenius_in_m(3, {(2, 1): 1})
        oracle = S.frobenius(S.ClassFunction(
            3, {(3,): 0, (2, 1): 1, (1, 1, 1): 0})).convert("m")
        assert got.coeffs == oracle.coeffs == {
            (3,): Fraction(1, 2), (2, 1): Fraction(1, 2)}

    def test_zero_values_and_the_regular_character(self):
        # classes given as 0 change nothing; the regular character of S_3
        # is p_111 = sum_lam f^lam s_lam
        regular = {(3,): 0, (2, 1): 0, (1, 1, 1): 6}
        assert S.frobenius_in_m(3, regular) == \
            S.SymmetricFunction.generator("p", (1, 1, 1))
        assert S.frobenius_in_m(3, {}).is_zero()

    def test_degree_cap(self):
        with pytest.raises(S.DegreeTooLarge):
            S.frobenius_in_m(S.DEGREE_CAP + 1, {})


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
        aug = GC.augment_blowup(bl)
        sp = CH.solve_graph(bl)
        spa = CH.solve_graph(aug)
        for k in range(sp.max_degree + 1):
            assert sp.dim(k) == spa.dim(k)
