"""Symmetric-function layer: frozen transition values, involution and
Frobenius identities, and property-based round trips."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gkmhess import symfunc as S


def gen(basis, lam, c=1):
    return S.SymmetricFunction.generator(basis, lam, c)


# Counting oracles for the coefficient of m_lam in h_mu, e_mu and p_mu
# (Macdonald I.6); none of them uses Kostka numbers or characters.

def _rows(total, caps, binary):
    """Vectors v with sum total and 0 <= v_j <= caps_j (v_j <= 1 if binary)."""
    if not caps:
        if total == 0:
            yield ()
        return
    for v in range(min(caps[0], total, 1 if binary else total) + 1):
        for rest in _rows(total - v, caps[1:], binary):
            yield (v,) + rest


@lru_cache(maxsize=None)
def count_matrices(row_sums, col_sums, binary):
    """Nonnegative integer (0-1 if binary) matrices with the given margins."""
    if not row_sums:
        return int(not any(col_sums))
    return sum(
        count_matrices(row_sums[1:],
                       tuple(sorted((c - x for c, x in zip(col_sums, v)),
                                    reverse=True)),
                       binary)
        for v in _rows(row_sums[0], col_sums, binary))


@lru_cache(maxsize=None)
def count_fibre_maps(parts, room):
    """Maps from parts to the slots of room whose fibre sums fill every slot."""
    if not parts:
        return int(not any(room))
    first, rest = parts[0], parts[1:]
    return sum(
        count_fibre_maps(rest, tuple(sorted(
            room[:j] + (r - first,) + room[j + 1:], reverse=True)))
        for j, r in enumerate(room) if r >= first)


M_ORACLES = {
    "h": lambda mu, lam: count_matrices(mu, lam, False),
    "e": lambda mu, lam: count_matrices(mu, lam, True),
    "p": count_fibre_maps,
}


# Strip-removal oracle for the Kostka numbers of the Pieri table: the
# boxes holding the largest entry of a semistandard tableau form a
# horizontal strip, so K(lam, mu) is the sum of K(nu, mu without its last
# part) over the nu with lam/nu a horizontal strip of mu's last part.

@lru_cache(maxsize=None)
def kostka_by_strip_removal(lam, mu):
    if not lam:
        return 1 if not mu else 0
    if sum(lam) != sum(mu):
        return 0
    return sum(kostka_by_strip_removal(nu, mu[:-1])
               for nu in horizontal_strip_removals(lam, mu[-1]))


def horizontal_strip_removals(lam, size, i=0, prefix=()):
    """All partitions nu with lam/nu a horizontal strip of the given size;
    i and prefix are the recursion state, the rows of nu chosen so far."""
    if i == len(lam):
        if size == 0:
            yield tuple(x for x in prefix if x > 0)
        return
    below = lam[i + 1] if i + 1 < len(lam) else 0
    hi = lam[i] if i == 0 else min(lam[i], prefix[-1])
    for v in range(hi, below - 1, -1):
        if lam[i] - v <= size:
            yield from horizontal_strip_removals(lam, size - lam[i] + v,
                                                 i + 1, prefix + (v,))


def oracle_kostka_columns(n):
    parts = S.partitions_of(n)
    return {mu: {lam: k for lam in parts
                 if (k := kostka_by_strip_removal(lam, mu))} for mu in parts}


class TestConversions:
    def test_e2_to_m(self):
        assert gen("e", (2,)).convert("m").coeffs == {(1, 1): Fraction(1)}

    def test_p11_to_m(self):
        assert gen("p", (1, 1)).convert("m").coeffs == {
            (2,): Fraction(1), (1, 1): Fraction(2)}

    def test_s21_to_m_kostka_oracle(self):
        # oracle: SSYT of shape (2,1): content (2,1): 1 tableau;
        # content (1,1,1): 2 tableaux -> frozen
        assert gen("s", (2, 1)).convert("m").coeffs == {
            (2, 1): Fraction(1), (1, 1, 1): Fraction(2)}

    def test_h3_is_sum_of_all_m(self):
        assert gen("h", (3,)).convert("m").coeffs == {
            (3,): 1, (2, 1): 1, (1, 1, 1): 1}

    def test_degree_cap(self):
        with pytest.raises(S.DegreeTooLarge):
            gen("e", (9,)).convert("m")

    @pytest.mark.parametrize("basis", sorted(M_ORACLES))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_forward_tables_match_counting_oracles(self, n, basis):
        oracle = M_ORACLES[basis]
        parts = S.partitions_of(n)
        for mu in parts:
            want = {lam: c for lam in parts if (c := oracle(mu, lam))}
            assert gen(basis, mu).convert("m").coeffs == want, mu

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_round_trips(self, n):
        parts = S.partitions_of(n)
        f = S.SymmetricFunction(n, "m",
                                {lam: Fraction(i - 2, 3)
                                 for i, lam in enumerate(parts)})
        for b1 in S.BASES:
            g = f.convert(b1)
            for b2 in S.BASES:
                assert g.convert(b2).convert("m") == f


class TestKostka:
    @pytest.mark.parametrize("n", range(9))
    def test_pieri_table_equals_strip_removal(self, n):
        parts = S.partitions_of(n)
        assert S._kostka_columns(n) == oracle_kostka_columns(n)
        for lam in parts:
            for mu in parts:
                assert S.kostka(lam, mu) == kostka_by_strip_removal(lam, mu)

    def test_hand_values(self):
        # SSYT of shape (2,1): content (1,1,1) fills it 2 ways; (3,2,1)
        # with content 1^6 counts its 16 standard tableaux
        assert S.kostka((2, 1), (1, 1, 1)) == 2
        assert S.kostka((3, 2, 1), (1,) * 6) == 16
        assert S.kostka((1, 1), (2,)) == 0
        assert S.kostka((2,), (1,)) == 0
        assert S.kostka((), ()) == 1

    @pytest.mark.parametrize("n", range(9))
    def test_inverse_times_kostka_is_identity(self, n):
        parts = S.partitions_of(n)
        inv = S._inverse_kostka(n)
        for mu in parts:
            for rho in parts:
                total = sum(c * S.kostka(lam, rho)
                            for lam, c in inv[mu].items())
                assert total == (mu == rho)

    def test_transition_tables_equal_those_from_the_oracle(self, monkeypatch):
        degrees = range(9)
        tables = [(S._to_s(n, b), S._from_s(n, b))
                  for n in degrees for b in "mehp"]
        cached = (S._inverse_kostka, S._to_s, S._from_s)
        monkeypatch.setattr(S, "_kostka_columns", oracle_kostka_columns)
        try:
            for f in cached:
                f.cache_clear()
            assert tables == [(S._to_s(n, b), S._from_s(n, b))
                              for n in degrees for b in "mehp"]
        finally:
            for f in cached:
                f.cache_clear()


class TestOmega:
    def test_e3_to_h3(self):
        assert gen("e", (3,)).omega() == gen("h", (3,))

    def test_p2_sign(self):
        assert gen("p", (2,)).omega() == gen("p", (2,), -1)

    def test_s21_self_conjugate(self):
        # oracle: conjugate-partition rule, (2,1)' = (2,1)
        assert gen("s", (2, 1)).omega() == gen("s", (2, 1))

    def test_conjugate_rule_matches_power_sum_route(self):
        for n in range(1, 7):
            for lam in S.partitions_of(n):
                via_s = gen("s", lam).omega()
                via_p = gen("s", lam).convert("p").omega()
                assert via_s == via_p

    def test_involution_and_ring_hom(self):
        f = S.SymmetricFunction(3, "m", {(2, 1): 2, (1, 1, 1): -1})
        g = S.SymmetricFunction(2, "m", {(2,): 1, (1, 1): 3})
        assert f.omega().omega() == f
        assert (f * g).omega() == f.omega() * g.omega()


class TestMultiply:
    def test_e_multiplicativity(self):
        assert gen("e", (2,)) * gen("e", (1,)) == gen("e", (2, 1))

    def test_m1_squared(self):
        got = gen("m", (1,)) * gen("m", (1,))
        assert got.convert("m").coeffs == {(2,): 1, (1, 1): 2}

    def test_pieri_s1_s11(self):
        got = (gen("s", (1,)) * gen("s", (1, 1))).convert("s")
        assert got.coeffs == {(2, 1): 1, (1, 1, 1): 1}

    def test_cap(self):
        with pytest.raises(S.DegreeTooLarge):
            gen("e", (5,)) * gen("e", (4,))


class TestFrobenius:
    def test_trivial_character(self):
        triv = S.ClassFunction(3, {lam: 1 for lam in S.partitions_of(3)})
        assert S.frobenius(triv) == gen("s", (3,)) == gen("h", (3,))

    def test_sign_character(self):
        sgn = S.ClassFunction(
            3, {lam: (-1) ** (3 - len(lam)) for lam in S.partitions_of(3)})
        assert S.frobenius(sgn) == gen("s", (1, 1, 1)) == gen("e", (3,))

    def test_regular_character(self):
        reg = S.ClassFunction(
            3, {lam: 6 if lam == (1, 1, 1) else 0
                for lam in S.partitions_of(3)})
        assert S.frobenius(reg) == gen("p", (1, 1, 1))

    def test_additive(self):
        a = S.ClassFunction(3, {lam: 1 for lam in S.partitions_of(3)})
        b = S.ClassFunction(
            3, {lam: (-1) ** (3 - len(lam)) for lam in S.partitions_of(3)})
        assert S.frobenius(a + b) == S.frobenius(a) + S.frobenius(b)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permutation_module_h_expansion(self, n):
        # character of S_n permuting [n]: fix(sigma) = parts equal to 1;
        # Frobenius characteristic must be h_{(n-1,1)} + h_... = h_1 h_{n-1}
        if n < 2:
            return
        chi = S.ClassFunction(
            n, {lam: sum(1 for p in lam if p == 1)
                for lam in S.partitions_of(n)})
        expected = (gen("h", (n - 1,)) * gen("h", (1,))).convert("m")
        assert S.frobenius(chi) == expected

    def test_missing_cycle_type_rejected(self):
        with pytest.raises(ValueError):
            S.ClassFunction(3, {(3,): 1})


class TestCharacterTable:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_column_orthogonality(self, n):
        parts = S.partitions_of(n)
        for mu in parts:
            for nu in parts:
                total = sum(S.mn_character(lam, mu) * S.mn_character(lam, nu)
                            for lam in parts)
                assert total == (S.z_lambda(mu) if mu == nu else 0)

    def test_dimension_row(self):
        # chi^lam(1^n) is the number of standard tableaux; spot check n=4
        dims = {lam: S.mn_character(lam, (1, 1, 1, 1))
                for lam in S.partitions_of(4)}
        assert dims == {(4,): 1, (3, 1): 3, (2, 2): 2,
                        (2, 1, 1): 3, (1, 1, 1, 1): 1}


class TestGraded:
    def test_scale_by_q(self):
        e2 = gen("e", (2,))
        gf = S.GradedSymmetricFunction(2, {0: e2}).scale_qpoly({0: 1, 1: 1})
        assert gf.term(1) == e2

    def test_round_trip_equality(self):
        e2 = gen("e", (2,))
        gf = S.GradedSymmetricFunction(2, {0: e2, 1: e2})
        through_p = S.GradedSymmetricFunction(
            2, {k: f.convert("p") for k, f in gf.terms.items()})
        assert gf == through_p

    def test_distributivity_random(self):
        f = S.SymmetricFunction(3, "m", {(2, 1): 2, (3,): -1})
        a = S.GradedSymmetricFunction(3, {0: f, 2: f.scale(3)})
        lhs = a.scale_qpoly({1: 1}) + a
        rhs = a.scale_qpoly({0: 1, 1: 1})
        assert lhs == rhs
        assert (lhs - rhs) == S.GradedSymmetricFunction.zero(3)

    def test_graded_multiply(self):
        e1 = gen("e", (1,))
        a = S.GradedSymmetricFunction(1, {0: e1, 1: e1})
        b = S.GradedSymmetricFunction(1, {0: e1})
        prod = a.multiply(b)
        e11 = gen("e", (1, 1))
        assert prod == S.GradedSymmetricFunction(2, {0: e11, 1: e11})

    def test_json_round_trip(self):
        f = S.SymmetricFunction(3, "m", {(2, 1): Fraction(1, 2), (3,): -2})
        gf = S.GradedSymmetricFunction(3, {0: f, 1: f.scale(-3)})
        data = gf.to_json()
        assert data["degree"] == 3 and data["basis"] == "m"
        assert S.GradedSymmetricFunction.from_json(data) == gf

    def test_json_schema_shape(self):
        gf = S.GradedSymmetricFunction(
            3, {1: S.SymmetricFunction(3, "m", {(1, 1, 1): 4, (2, 1): 1})})
        data = gf.to_json()
        assert data["terms"] == {"1": {"[2,1]": "1", "[1,1,1]": "4"}}


@st.composite
def symfuncs(draw, n=4):
    parts = S.partitions_of(n)
    coeffs = {}
    for lam in draw(st.sets(st.sampled_from(parts), max_size=3)):
        coeffs[lam] = Fraction(draw(st.integers(-9, 9)),
                               draw(st.integers(1, 4)))
    return S.SymmetricFunction(n, "m", coeffs)


@given(symfuncs(), symfuncs())
@settings(max_examples=25, deadline=None)
def test_omega_ring_hom_random(f, g):
    assert (f * g).omega() == f.omega() * g.omega()


@given(symfuncs(), st.sampled_from(S.BASES))
@settings(max_examples=40, deadline=None)
def test_conversion_round_trip_random(f, basis):
    assert f.convert(basis).convert("m") == f


def _fraction_apply(coeffs, table):
    out = {}
    for a, c in coeffs.items():
        for b, t in table[a].items():
            out[b] = out.get(b, Fraction(0)) + Fraction(c) * t
    return out


def fraction_route(f, target):
    """f in the target basis, every sum taken in Fractions through s."""
    n, vec = f.degree, dict(f.coeffs)
    if f.basis != "s":
        vec = _fraction_apply(vec, S._to_s(n, f.basis))
    if target != "s":
        vec = _fraction_apply(vec, S._from_s(n, target))
    return {lam: c for lam, c in vec.items() if c}


@st.composite
def any_degree_symfuncs(draw, basis):
    n = draw(st.integers(1, 6))
    coeffs = {}
    for lam in draw(st.sets(st.sampled_from(S.partitions_of(n)),
                            max_size=5)):
        coeffs[lam] = Fraction(draw(st.integers(-30, 30)),
                               draw(st.sampled_from([1, 2, 3, 4, 6, 9, 35])))
    return S.SymmetricFunction(n, basis, coeffs)


@pytest.mark.parametrize("target", S.BASES)
@pytest.mark.parametrize("source", S.BASES)
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_convert_equals_the_fraction_route(source, target, data):
    f = data.draw(any_degree_symfuncs(source))
    got = f.convert(target)
    assert got.basis == target
    assert got.coeffs == fraction_route(f, target)
