"""Coloring enumeration: frozen polynomial values, the class decomposition
machinery, and the combinatorial modular laws."""

import gc
import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from gkmhess import coloring as C
from gkmhess import hessenberg as H
from gkmhess.symfunc import GradedSymmetricFunction, SymmetricFunction
import coloring_census as CC


def mterm(n, coeffs):
    return SymmetricFunction(n, "m", coeffs)


def graded(n, data):
    return GradedSymmetricFunction(n, {k: mterm(n, c) for k, c in data.items()})


H233 = H.from_string("2,3,3")
H22 = H.from_string("2,2")


class TestAsc:
    def test_all_ascending(self):
        assert C.asc(H233, (1, 2, 3)) == 2

    def test_all_descending(self):
        assert C.asc(H233, (3, 2, 1)) == 0

    def test_mixed(self):
        assert C.asc(H233, (1, 2, 1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            C.asc(H233, (1, 2))


class TestCsf:
    def test_h22(self):
        # oracle: the two proper colorings with content (1,1): asc 0 and 1
        assert C.csf_q(H22) == graded(2, {0: {(1, 1): 1}, 1: {(1, 1): 1}})

    def test_path_no_edges(self):
        for n in (1, 2, 3, 4):
            h = H.validate(tuple(range(1, n + 1)))
            got = C.csf_q(h)
            expected = SymmetricFunction.generator("p", (1,) * n).convert("m")
            assert got == GradedSymmetricFunction(n, {0: expected})

    def test_h233_frozen(self):
        # oracle: hand enumeration by content (frozen):
        # (1+4q+q^2) m111 + q m21
        assert C.csf_q(H233) == graded(3, {
            0: {(1, 1, 1): 1},
            1: {(2, 1): 1, (1, 1, 1): 4},
            2: {(1, 1, 1): 1}})

    def test_h233_e_expansion(self):
        got = C.csf_q(H233).convert("e")
        assert got == GradedSymmetricFunction(3, {
            0: SymmetricFunction(3, "e", {(3,): 1}),
            1: SymmetricFunction(3, "e", {(3,): 1, (2, 1): 1}),
            2: SymmetricFunction(3, "e", {(3,): 1})})


class TestLlt:
    def test_no_edges(self):
        h = H.validate((1, 2, 3))
        assert C.llt(h) == C.csf_q(h)

    def test_h22(self):
        assert C.llt(H22) == graded(2, {
            0: {(2,): 1, (1, 1): 1}, 1: {(1, 1): 1}})

    def test_h233_frozen(self):
        assert C.llt(H233) == graded(3, {
            0: {(3,): 1, (2, 1): 1, (1, 1, 1): 1},
            1: {(2, 1): 2, (1, 1, 1): 4},
            2: {(1, 1, 1): 1}})


class TestRawEnumerationAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_color_count_invariance(self, n):
        # n and n+1 colors give identical m expansions, and both match
        # the content enumeration
        for h in H.enumerate_hessenberg(n):
            fast = C.csf_q(h)
            assert CC.csf_q_raw(h, n) == fast
            assert CC.csf_q_raw(h, n + 1) == fast
            fast = C.llt(h)
            assert CC.llt_raw(h, n) == fast
            assert CC.llt_raw(h, n + 1) == fast

    @pytest.mark.parametrize("hstr", ["1,2,3,4,5,6", "2,2,4,4,6,6",
                                      "2,3,4,5,6,6", "3,4,5,6,6,6",
                                      "6,6,6,6,6,6"])
    def test_raw_sample_n6(self, hstr):
        # the exhaustive brute-force oracle over [6]^6 on a fixed sample
        h = H.from_string(hstr)
        assert CC.csf_q_raw(h, 6) == C.csf_q(h)
        assert CC.llt_raw(h, 6) == C.llt(h)

    @pytest.mark.parametrize("hstr", ["2,3,4,5,6,7,7", "7,7,7,7,7,7,7",
                                      "2,3,4,5,6,7,8,8", "3,4,5,6,7,8,8,8",
                                      "2,4,5,6,7,7,8,8"])
    def test_injective_row_is_h_inversions(self, hstr):
        # the m_{1^n} row counts bijective colorings (all proper) by
        # ascents; complementing the colors turns ascents into
        # h-inversions, so it is the h-inversion distribution over S_n
        h = H.from_string(hstr)
        n = h.n
        edges = sorted(H.indifference_graph(h).edges)
        dist = {}
        for w in permutations(range(n)):
            a = sum(1 for (i, j) in edges if w[j - 1] > w[i - 1])
            dist[a] = dist.get(a, 0) + 1
        ones = (1,) * n
        for f in (C.csf_q(h), C.llt(h)):
            row = {a: g.coeffs[ones] for a, g in f.terms.items()
                   if ones in g.coeffs}
            assert row == dist
        # the singleton tail's orderings table closes (1^n) at U = {}
        width, _ = C._packed_counts(h, True)
        *_, orderings = C._class_tables(h, width)
        assert orderings[-1] == sum(c << width * a for a, c in dist.items())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_csf_below_llt(self, n):
        # proper colorings are a subset of all colorings
        for h in H.enumerate_hessenberg(n):
            diff = C.llt(h) - C.csf_q(h)
            for f in diff.terms.values():
                assert all(c > 0 for c in f.coeffs.values())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_transpose_invariance(self, n):
        for h in H.enumerate_hessenberg(n):
            ht = h.transpose()
            assert C.csf_q(h) == C.csf_q(ht)
            assert C.llt(h) == C.llt(ht)


def c_triple(hstr):
    h = H.from_string(hstr)
    return next(t for t in H.find_modular_triples(h) if t.kind == "C")


class TestClassify:
    def test_ascending(self):
        assert CC.classify_coloring(c_triple("2,3,3"), (1, 2, 3)) == "<<"

    def test_greater_equal(self):
        assert CC.classify_coloring(c_triple("2,3,3"), (2, 1, 2)) == ">="

    def test_equal_less(self):
        # proper for G_{h_-} = single edge {3,2}: kappa(2)=1 != kappa(3)=2
        assert CC.classify_coloring(c_triple("2,3,3"), (1, 1, 2)) == "=<"

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            CC.classify_coloring(c_triple("2,3,3"), (1, 2, 2))

    def test_kind_r_rejected(self):
        h = H.from_string("2,3,3")
        r = next(t for t in H.find_modular_triples(h) if t.kind == "R")
        with pytest.raises(H.WrongKind):
            CC.classify_coloring(r, (1, 2, 3))

    def test_equal_equal_never_occurs(self):
        # {d+1, d} is an edge of G_{h_-}, so proper colorings separate
        # kappa(d) from kappa(d+1)
        for n in (3, 4):
            for h in H.enumerate_hessenberg(n):
                for t in H.find_modular_triples(h):
                    if t.kind != "C":
                        continue
                    census = CC.coloring_class_sums(t, proper_only=True,
                                                   coarse=False)
                    assert "==" not in census


class TestTau:
    def test_swap(self):
        t = c_triple("2,3,3")   # d = 2, tau swaps positions 2, 3
        assert CC.tau_bijection(t, (1, 3, 2)) == (1, 2, 3)

    def test_involution(self):
        t = c_triple("2,3,3")
        for kappa in [(1, 2, 3), (2, 2, 1), (3, 1, 2)]:
            assert CC.tau_bijection(t, CC.tau_bijection(t, kappa)) == kappa

    @pytest.mark.parametrize("n", [3, 4])
    def test_ascent_shift_on_less_geq(self, n):
        # kappa in C_{< >=}  implies  asc_-(kappa) + 1 = asc_-(kappa tau)
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                if t.kind != "C":
                    continue
                for _, kappa in CC.colorings_by_content(n):
                    if CC.classify_coloring_coarse(t, kappa) == ("<", ">="):
                        kt = CC.tau_bijection(t, kappa)
                        assert CC.asc_minus(t, kappa) + 1 == CC.asc_minus(t, kt)

    @pytest.mark.parametrize("n", [3, 4])
    def test_tau_maps_classes_bijectively(self, n):
        # tau carries C_{< >=} onto C_{>= <} preserving content
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                if t.kind != "C":
                    continue
                census = CC.coloring_class_sums(t, proper_only=False,
                                               coarse=True)
                a = census.get(("<", ">="), {})
                b = census.get((">=", "<"), {})
                for lam in set(a) | set(b):
                    assert sum(a.get(lam, {}).values()) == \
                        sum(b.get(lam, {}).values())


class TestColorSumIdentity:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_shifted_census_equality(self, n):
        # the sum over C_{< >=} equals 1/q times the sum over C_{>= <},
        # content by content
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                if t.kind != "C":
                    continue
                census = CC.coloring_class_sums(t, proper_only=False,
                                               coarse=True)
                a = census.get(("<", ">="), {})
                b = census.get((">=", "<"), {})
                for lam in set(a) | set(b):
                    pa = a.get(lam, {})
                    pb = b.get(lam, {})
                    shifted = {k + 1: v for k, v in pa.items()}
                    assert shifted == pb


class TestDecompositionTotals:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_llt_four_subset_reassembly(self, n):
        shifts = {("<", "<"): 2, ("<", ">="): 1, (">=", "<"): 1,
                  (">=", ">="): 0}
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                if t.kind != "C":
                    continue
                census = CC.coloring_class_sums(t, proper_only=False,
                                               coarse=True)
                plus = CC.census_to_graded(n, census, shifts, shifts.get)
                assert plus == C.llt(t.h_plus)
                mid = CC.census_to_graded(
                    n, census, shifts, lambda tag: 1 if tag[0] == "<" else 0)
                assert mid == C.llt(t.h)
                minus = CC.census_to_graded(n, census, shifts, lambda tag: 0)
                assert minus == C.llt(t.h_minus)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_csf_nine_subset_reassembly(self, n):
        plus_tags = ("<<", "<>", "><", ">>")
        mid_tags = ("<<", "<=", "<>", "><", ">=", ">>")
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                if t.kind != "C":
                    continue
                census = CC.coloring_class_sums(t, proper_only=True,
                                               coarse=False)
                all_tags = list(census)
                plus = CC.census_to_graded(
                    n, census, plus_tags,
                    lambda tag: (tag[0] == "<") + (tag[1] == "<"))
                assert plus == C.csf_q(t.h_plus)
                mid = CC.census_to_graded(
                    n, census, mid_tags, lambda tag: 1 if tag[0] == "<" else 0)
                assert mid == C.csf_q(t.h)
                minus = CC.census_to_graded(n, census, all_tags, lambda tag: 0)
                assert minus == C.csf_q(t.h_minus)

    def test_census_leaves_no_cyclic_garbage(self):
        # the first call fills lru caches (partitions_of builds its table
        # once per n with a nested helper); the second must leave nothing
        t = c_triple("2,3,4,5,5")
        CC.coloring_class_sums(t, proper_only=False, coarse=True)
        gc.collect()
        flags, before = gc.get_debug(), len(gc.garbage)
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            CC.coloring_class_sums(t, proper_only=False, coarse=True)
            gc.collect()
            garbage = gc.garbage[before:]
        finally:
            gc.set_debug(flags)
            del gc.garbage[before:]
        assert garbage == []

    def test_arrangements_order(self):
        assert list(CC._arrangements([2, 1])) == [(1, 1, 2), (1, 2, 1),
                                                 (2, 1, 1)]


def q_factorial_poly(k):
    coeffs = {0: 1}
    for m in range(2, k + 1):
        new = {}
        for e, v in coeffs.items():
            for j in range(m):
                new[e + j] = new.get(e + j, 0) + v
        coeffs = new
    return coeffs


class TestProductStructure:
    @pytest.mark.parametrize("pair", [("2,2", "1"), ("2,2", "2,2"),
                                      ("2,3,3", "2,2"), ("1,2", "3,3,3")])
    def test_csf_multiplicative_on_products(self, pair):
        # the indifference graph of a product is a disjoint union, and
        # ascents add, so both polynomials are multiplicative
        h1, h2 = (H.from_string(s) for s in pair)
        h = h1.product(h2)
        assert C.csf_q(h) == C.csf_q(h1).multiply(C.csf_q(h2))
        assert C.llt(h) == C.llt(h1).multiply(C.llt(h2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_initial_family_closed_form(self, n):
        # complete blocks: each factor contributes [n_i]_q! e_{n_i};
        # at n = 8 only the complete graph, [8]_q! e_8
        hs = H.enumerate_hessenberg(n) if n <= 6 else [H.validate((n,) * n)]
        for h in hs:
            ok, blocks = H.is_initial(h)
            if not ok:
                continue
            expected = GradedSymmetricFunction(
                0, {0: SymmetricFunction(0, "e", {(): 1})})
            for b in blocks:
                factor = GradedSymmetricFunction(
                    b, {0: SymmetricFunction.generator("e", (b,))})
                expected = expected.multiply(
                    factor.scale_qpoly(q_factorial_poly(b)))
            assert C.csf_q(h) == expected


class TestModularLaws:
    def test_h233_both_laws(self):
        t = c_triple("2,3,3")
        assert C.check_modular_law_llt(t)
        assert C.check_modular_law_csf(t)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive(self, n):
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                assert C.check_modular_law_llt(t)
                assert C.check_modular_law_csf(t)

    def test_corrupted_triple_fails(self):
        t = c_triple("2,3,3")
        bad = H.ModularTriple("C", t.h_minus, t.h, t.h, t.params)
        assert not C.check_modular_law_llt(bad)
        assert not C.check_modular_law_csf(bad)


def reference_law(f, triple):
    """The modular law in symmetric-function arithmetic."""
    f_minus, f_mid, f_plus = f(triple.h_minus), f(triple.h), f(triple.h_plus)
    return f_plus - f_mid == (f_mid - f_minus).scale_qpoly({1: 1})


class TestIntegerLawCheck:
    LAWS = ((C.llt, C.check_modular_law_llt),
            (C.csf_q, C.check_modular_law_csf))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_equals_reference_on_triples(self, n):
        for h in H.enumerate_hessenberg(n):
            for t in H.find_modular_triples(h):
                for f, check in self.LAWS:
                    assert check(t) == reference_law(f, t) is True

    def test_equals_reference_on_non_triples(self):
        # random same-n functions in the three slots; (g, g, g) always
        # satisfies the law, so both outcomes occur
        rng = random.Random(7)
        seen = set()
        for n in (2, 3, 4, 5):
            hs = list(H.enumerate_hessenberg(n))
            for _ in range(30):
                slots = [rng.choice(hs) for _ in range(3)]
                if rng.random() < 0.2:
                    slots = [slots[0]] * 3
                t = H.ModularTriple("C", *slots, (1, 1))
                for f, check in self.LAWS:
                    got = check(t)
                    assert got == reference_law(f, t)
                    seen.add(got)
        assert seen == {True, False}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_sum_of_two_fields_cannot_carry(self, n):
        # every count is at most n!, and the law check adds two fields
        width, _ = C._packed_counts(H.validate(tuple(range(1, n + 1))), False)
        assert 2 * factorial(n) < 1 << width


class TestMemo:
    def test_fresh_objects(self):
        h = H.from_string("2,3,4,4")
        first, second = C.csf_q(h), C.csf_q(h)
        assert first == second and first is not second
        expected = CC.csf_q_raw(h, 4)
        first.terms.clear()
        assert C.csf_q(h) == second == expected
        assert C.csf_q(h).terms

    def test_memoised_counts_are_read_only(self):
        _, counts = C._packed_counts(H.from_string("2,3,3"), True)
        with pytest.raises(TypeError):
            counts[(3,)] = 1

    def test_key_includes_proper_only(self):
        h = H.from_string("2,2")
        C.csf_q(h)
        assert C.csf_q(h) != C.llt(h)
        assert C.llt(h) == CC.llt_raw(h, 2)



class TestSpreadMask:
    @pytest.mark.parametrize("hstr", ["8,8,8,8,8,8,8,8", "2,4,5,6,7,7,8,8"])
    def test_weight_equals_member_sum(self, hstr):
        # every disjoint pair (done, S) of one n = 8 function, both kinds;
        # the table has None exactly at the S a proper coloring cannot use
        h = H.from_string(hstr)
        n = h.n
        below = [sum(1 << (j - 1) for j in range(1, i) if h(j) >= i)
                 for i in range(1, n + 1)]
        rep, spread, proper, _ = C._class_tables(h, 1)
        for proper_only in (False, True):
            spreads = proper if proper_only else spread
            assert len(spreads) == 1 << n
            for cls, spread in enumerate(spreads):
                members = [i for i in range(n) if cls >> i & 1]
                has_edge = any(below[i] & cls for i in members)
                assert (spread is None) == (proper_only and has_edge)
                if spread is None:
                    continue
                rest = (1 << n) - 1 & ~cls
                done = rest
                while True:   # every subset of the complement of S
                    w = sum((below[i] & done).bit_count() for i in members)
                    assert (spread & done * rep).bit_count() == w
                    if not done:
                        break
                    done = (done - 1) & rest


class TestShapeMemo:
    """orderings[S] is read from a per-width memo keyed by the shape code
    of S (_class_tables); the census rebuilds the tables of each h alone."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tables_equal_the_per_function_recursion(self, n):
        width = factorial(n).bit_length() + 1
        C._SHAPE_ORDERINGS.pop(width, None)   # every entry made by this test
        for h in H.enumerate_hessenberg(n):
            assert C._class_tables(h, width) == CC.class_tables(h, width)
        # a shape of size m is a Hessenberg function of size m, and each
        # one is the shape of [m] under itself, so every Catalan(m) appears
        catalan = [comb(2 * m, m) // (m + 1) for m in range(n + 1)]
        assert len(C._SHAPE_ORDERINGS[width]) == sum(catalan)


class TestSubmasks:
    @pytest.mark.parametrize("n", range(7))
    def test_lists_the_k_subsets_of_every_free_mask(self, n):
        table = C._submasks(n)
        assert len(table) == 1 << n
        for free, by_size in enumerate(table):
            members = [i for i in range(n) if free >> i & 1]
            assert len(by_size) == len(members) + 1
            for k, subsets in enumerate(by_size):
                expected = {sum(1 << i for i in c)
                            for c in combinations(members, k)}
                assert len(subsets) == len(expected)
                assert set(subsets) == expected


class TestTransposePairs:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_uncached_dp_agrees_on_h_and_its_transpose(self, n, monkeypatch):
        # with transpose the identity the DP runs on h and on h^t alike,
        # instead of h reading the memoised entry of h^t
        pairs = [(h, h.transpose()) for h in H.enumerate_hessenberg(n)]
        monkeypatch.setattr(H.HessenbergFunction, "transpose",
                            lambda self: self)
        dp = C._packed_counts.__wrapped__
        for h, ht in pairs:
            if ht.values < h.values:
                for proper_only in (False, True):
                    assert dp(h, proper_only) == dp(ht, proper_only)

    def test_one_entry_per_pair_is_computed(self):
        h, ht = next((h, h.transpose()) for h in H.enumerate_hessenberg(4)
                     if h.transpose().values < h.values)
        assert C._packed_counts(h, True) is C._packed_counts(ht, True)


class TestPlantedFaults:
    """A fault planted in either shortcut of the DP is caught by the raw
    enumeration at n <= 5 (which agrees with the unplanted DP:
    test_color_count_invariance)."""

    @pytest.fixture(autouse=True)
    def fresh_counts(self):
        C._packed_counts.cache_clear()
        yield
        C._packed_counts.cache_clear()

    @staticmethod
    def caught(f, raw):
        return any(f(h) != raw(h, n) for n in range(1, 6)
                   for h in H.enumerate_hessenberg(n))

    def test_tail_without_cross_term(self, monkeypatch):
        # csf reads its classes from the proper masks, so a zero spread
        # table drops the tail's cross term and nothing else
        tables = C._class_tables

        def no_cross(h, width):
            rep, spread, proper, orderings = tables(h, width)
            return rep, [0] * len(spread), proper, orderings

        monkeypatch.setattr(C, "_class_tables", no_cross)
        assert self.caught(C.csf_q, CC.csf_q_raw)

    def test_transpose_pointed_at_a_wrong_function(self, monkeypatch):
        # the path 1,2,...,n sorts before every other function of size n
        monkeypatch.setattr(H.HessenbergFunction, "transpose",
                            lambda self: H.validate(range(1, self.n + 1)))
        assert self.caught(C.csf_q, CC.csf_q_raw)
        C._packed_counts.cache_clear()
        assert self.caught(C.llt, CC.llt_raw)
