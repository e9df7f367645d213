"""Hessenberg function calculus: worked examples and exhaustive properties."""

import itertools
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from gkmhess import hessenberg as H


def brute_force_hessenberg(n):
    """Independent oracle: filter all vectors with j <= h(j) <= n,
    non-decreasing."""
    out = []
    for vals in itertools.product(*(range(j, n + 1) for j in range(1, n + 1))):
        if all(vals[i] <= vals[i + 1] for i in range(n - 1)):
            out.append(vals)
    return out


class TestValidate:
    def test_fig1_left_valid(self):
        h = H.validate((2, 5, 6, 8, 9, 9, 11, 11, 11, 11, 11))
        assert h.n == 11

    def test_identity_valid(self):
        assert H.validate((1, 2, 3)).values == (1, 2, 3)
        assert H.HessenbergFunction(["1", 2.0, 3]).values == (1, 2, 3)

    def test_not_nondecreasing(self):
        with pytest.raises(H.NotNonDecreasing,
                           match=r"^h\(1\) = 2 > h\(2\) = 1$"):
            H.validate((2, 1, 3))

    def test_out_of_range(self):
        with pytest.raises(H.ValueOutOfRange,
                           match=r"^h\(2\) = 1 outside \[2, 3\]$"):
            H.validate((1, 1, 3))
        with pytest.raises(H.ValueOutOfRange,
                           match=r"^h\(1\) = 4 outside \[1, 3\]$"):
            H.validate((4, 4, 4))
        with pytest.raises(H.ValueOutOfRange, match="^empty value vector$"):
            H.HessenbergFunction(())

    def test_from_string(self):
        assert H.from_string("2,3,3").values == (2, 3, 3)
        with pytest.raises(H.ValueOutOfRange):
            H.from_string("2,x,3")


class TestTranspose:
    def test_fig1_pair(self):
        left = H.from_string("2,5,6,8,9,9,11,11,11,11,11")
        right = H.from_string("5,5,7,8,8,9,10,10,10,11,11")
        assert left.transpose() == right
        assert right.transpose() == left

    def test_full_function_self_transpose(self):
        for n in range(1, 7):
            h = H.validate((n,) * n)
            assert h.transpose() == h

    def test_n2(self):
        assert H.from_string("2,2").transpose() == H.from_string("2,2")

    def test_involution_exhaustive(self):
        for n in range(1, 9):
            for h in H.enumerate_hessenberg(n):
                assert h.transpose().transpose() == h


class TestProduct:
    def test_singletons(self):
        one = H.validate((1,))
        assert (one.product(one)).values == (1, 2)

    def test_block_and_singleton(self):
        assert H.from_string("2,2").product(H.validate((1,))).values == (2, 2, 3)

    def test_two_blocks(self):
        b = H.from_string("2,2")
        assert b.product(b).values == (2, 2, 4, 4)


class TestIndifferenceGraph:
    def test_small(self):
        g = H.indifference_graph(H.from_string("2,3,3"))
        assert g.edges == frozenset({(2, 1), (3, 2)})

    def test_empty(self):
        assert H.indifference_graph(H.from_string("1,2,3")).edges == frozenset()

    def test_complete(self):
        g = H.indifference_graph(H.from_string("3,3,3"))
        assert g.edges == frozenset({(2, 1), (3, 1), (3, 2)})


class TestValueSemantics:
    """Functions, indifference graphs and triples are immutable values:
    equal fields compare and hash equal, only within one class."""

    def values(self):
        h = H.from_string("2,3,3")
        return (h, H.indifference_graph(h), H.find_modular_triples(h)[0])

    def test_equal_fields_are_equal_and_hash_equal(self):
        for a, b in zip(self.values(), self.values()):
            assert a is not b and a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
        h, g, t = self.values()
        assert h != H.from_string("3,3,3") and h != (2, 3, 3)
        assert g != H.indifference_graph(H.from_string("3,3,3"))
        assert t != H.find_modular_triples(H.from_string("2,3,4,4"))[0]

    def test_assignment_raises(self):
        for value, field in zip(self.values(), ("values", "edges", "kind")):
            before = getattr(value, field)
            with pytest.raises(AttributeError, match=field):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            with pytest.raises(AttributeError):
                value.extra = 1
            assert getattr(value, field) == before

    def test_pickle_round_trip(self):
        for value in self.values():
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and hash(copy) == hash(value)
            with pytest.raises(AttributeError):
                copy.n = 0

    def test_wrong_kind(self):
        h = H.from_string("2,3,3")
        with pytest.raises(H.WrongKind,
                           match="^kind must be 'C' or 'R', got 'X'$"):
            H.ModularTriple("X", h, h, h, (1,))


class TestModularTriples:
    def test_fig1_left(self):
        h = H.from_string("2,5,6,8,9,9,11,11,11,11,11")
        triples = H.find_modular_triples(h)
        assert [(t.kind, t.params) for t in triples] == [
            ("C", (5, 2)), ("C", (8, 4)), ("R", (4,))]

    def test_fig1_right(self):
        h = H.from_string("5,5,7,8,8,9,10,10,10,11,11")
        triples = H.find_modular_triples(h)
        assert [(t.kind, t.params) for t in triples] == [
            ("C", (7, 3)), ("R", (3,)), ("R", (6,))]

    def test_fig2_triple(self):
        h = H.from_string("2,3,3")
        t = next(t for t in H.find_modular_triples(h) if t.kind == "C")
        assert t.params == (2, 1)
        assert t.h_minus.values == (1, 3, 3)
        assert t.h_plus.values == (3, 3, 3)

    def test_members_valid_and_nested(self):
        for n in range(2, 7):
            for h in H.enumerate_hessenberg(n):
                for t in H.find_modular_triples(h):
                    diffs = [
                        (t.h(j) - t.h_minus(j), t.h_plus(j) - t.h(j))
                        for j in range(1, n + 1)]
                    assert all(lo >= 0 and hi >= 0 for lo, hi in diffs)
                    assert sum(1 for lo, hi in diffs if lo or hi) == \
                        (1 if t.kind == "C" else 2)
                    if t.kind == "C":
                        # single position moves down and up by one
                        assert sum(lo for lo, _ in diffs) == 1
                        assert sum(hi for _, hi in diffs) == 1


class TestTransposeDuality:
    def test_fig1(self):
        h = H.from_string("2,5,6,8,9,9,11,11,11,11,11")
        assert H.transpose_duality_check(h)
        assert H.transpose_duality_check(h.transpose())

    def test_identity_trivial(self):
        for n in (1, 2, 3, 4, 5):
            assert H.transpose_duality_check(H.validate(tuple(range(1, n + 1))))

    def test_small_case_by_enumeration(self):
        # oracle: directly enumerate (C) on h^t and (R) on h;
        # (2,3,3) is self-transpose by the box-diagram flip
        h = H.from_string("2,3,3")
        ht = h.transpose()
        assert ht.values == (2, 3, 3)
        cs = [t.d for t in H.find_modular_triples(ht) if t.kind == "C"]
        rs = [t.d for t in H.find_modular_triples(h) if t.kind == "R"]
        assert sorted(3 - d for d in cs) == sorted(rs)
        assert H.transpose_duality_check(h)

    def test_exhaustive(self):
        for n in range(2, 7):
            for h in H.enumerate_hessenberg(n):
                assert H.transpose_duality_check(h)


class TestIsInitial:
    def test_product_of_blocks(self):
        assert H.is_initial(H.from_string("2,2,4,4")) == (True, (2, 2))

    def test_single_block(self):
        assert H.is_initial(H.from_string("3,3,3")) == (True, (3,))

    def test_not_initial(self):
        assert H.is_initial(H.from_string("2,3,3")) == (False, None)

    def test_matches_product_construction(self):
        blocks = [(2,), (1,), (3,)]
        h = H.validate((2, 2))
        h = h.product(H.validate((1,)))
        h = h.product(H.validate((3, 3, 3)))
        assert H.is_initial(h) == (True, (2, 1, 3))


class TestEnumerate:
    def test_n1(self):
        assert [h.values for h in H.enumerate_hessenberg(1)] == [(1,)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_brute_force(self, n):
        got = sorted(h.values for h in H.enumerate_hessenberg(n))
        assert got == sorted(brute_force_hessenberg(n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan_count(self, n):
        catalan = math.comb(2 * n, n) // (n + 1)
        assert sum(1 for _ in H.enumerate_hessenberg(n)) == catalan

    def test_cap(self):
        with pytest.raises(H.ValueOutOfRange):
            list(H.enumerate_hessenberg(11))


@given(st.integers(min_value=1, max_value=7), st.data())
def test_transpose_involution_random(n, data):
    hs = list(H.enumerate_hessenberg(n))
    h = data.draw(st.sampled_from(hs))
    assert h.transpose().transpose() == h


def test_ascii_diagram():
    assert H.ascii_diagram(H.from_string("2,3,3")) == "###\n###\n.##"
