"""The irreducible blocks solved modulo the diagonal, in t_2..t_n, against
the same blocks in all n variables (tests/full_blocks.py): multiplicities
and 5.1 reports agree in every degree, and each part of the reduction
that the lemma of gkmhess.isotypic rests on is needed.  The same for the
degree top + 1 that the full-kernel solve ranks modulo the diagonal."""

import pytest

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import isotypic as I
from gkmhess import linalg as L
from gkmhess import maps as M
import full_blocks as F

N4 = [str(h) for n in (1, 2, 3, 4) for h in H.enumerate_hessenberg(n)]
C_TRIPLES = [t for n in (3, 4) for h in H.enumerate_hessenberg(n)
             for t in H.find_modular_triples(h) if t.kind == "C"]


BLOWUPS = [(t, side) for hstr in ("2,3,3", "2,3,3,4", "2,3,4,4")
           for t in H.find_modular_triples(H.from_string(hstr))
           if t.kind == "C" for side in "xy"]


def triple_id(t):
    return f"{t.h}-{t.params}"


def reduced_dims(graph):
    """The partial sums over j <= k of the coranks of the constraint rows
    modulo the diagonal, for k = 0, ..., top_degree + 1."""
    nv = len(graph.vertices)
    return I.partial_sums(
        nv * len(CH.reduced_monomials(graph.n, k)) - L.rank_of_int_rows(
            CH.constraint_rows(graph, k, CH._edge_groups,
                               CH._derivative_groups))
        for k in range(graph.top_degree + 2))


def graphs_of(hstr):
    t = next(t for t in H.find_modular_triples(H.from_string(hstr))
             if t.kind == "C")
    return M.TripleGraphs.of(t, "y"), t.h_plus.dimension() + 1


def twin(hstr):
    return G.build_GY(H.from_string(hstr))


@pytest.mark.parametrize("hstr", N4 + ["2,3,4,5,5", "3,3,4,4,5"])
def test_twin_multiplicities_equal_the_full_blocks(hstr):
    gy = twin(hstr)
    assert I.twin_blocks(gy).mult == F.twin_mult(gy)


@pytest.mark.parametrize("triple", C_TRIPLES, ids=triple_id)
def test_block_reports_equal_the_full_blocks(triple):
    assert any(t.d0 == 1 for t in C_TRIPLES)   # the t_1 multipliers run
    graphs = M.TripleGraphs.of(triple, "y")
    full = F.block_report(graphs, triple.h_plus.dimension() + 1)
    report, side_x = M.check_theorem_main_sides(triple)
    assert report == full
    assert side_x() == M.relabel_report(full)


def test_no_n_variable_table_on_the_block_path(capsys, monkeypatch):
    seen = set()
    monomials = CH.monomials

    def spy(n, k):
        seen.add(n)
        return monomials(n, k)

    def unused(*args):
        raise AssertionError("an n-variable table was built")

    for f in (CH.reduced_monomials, I.reduced_index, CH._edge_groups,
              CH._derivative_groups):
        f.cache_clear()
    monkeypatch.setattr(CH, "monomials", spy)
    for name in ("constraint_rows", "edge_groups", "derivative_groups"):
        monkeypatch.setattr(CH, name, unused)
    # the side-x certificate reads the n-variable action tables; the
    # block systems, maps and ranks read none
    monkeypatch.setattr(M, "certify_relabelling", lambda *args: None)
    assert cli.main(["check", "2,3,3,4,5", "--thm", "all"]) == 0
    capsys.readouterr()
    assert seen == {4}


class TestRankedModuloTheDiagonal:
    """The full-kernel solve ranks degree top + 1 modulo the diagonal; the
    rank, and the partial sums in every degree, against n variables."""

    @pytest.mark.parametrize("side", "xy")
    @pytest.mark.parametrize("hstr", N4)
    def test_plain_graph(self, hstr, side, store):
        h = H.from_string(hstr)
        space = store.space(h, side)
        top = space.graph.top_degree
        full = [space.dim(k) for k in range(top + 1)] \
            + [store.top_kernel(h, side).dim]
        assert space.ranked == {top + 1: full[-1]}
        assert reduced_dims(space.graph) == full

    @pytest.mark.parametrize("triple, side", BLOWUPS,
                             ids=[f"{triple_id(t)}-{s}" for t, s in BLOWUPS])
    def test_blowup(self, triple, side):
        # side x carries 4-gons labelled (1, b)
        g = G.build_blowup(triple, side)
        top = g.top_degree
        full = CH.solve_graph(g, top + 1)
        assert CH.solve_graph(g).ranked == {top + 1: full.dim(top + 1)}
        assert reduced_dims(g) == [full.dim(k) for k in range(top + 2)]


class TestMutations:
    """Each part of the reduction, undone, breaks the agreement."""

    def test_dropped_partial_sums(self, monkeypatch):
        for module in (I, M):
            monkeypatch.setattr(module, "partial_sums", list)
        gy = twin("2,3,3,4")
        assert I.twin_blocks(gy).mult != F.twin_mult(gy)
        graphs, top = graphs_of("2,3,3,4")
        assert M.check_theorem_blocks(graphs, top) \
            != F.block_report(graphs, top)

    def test_label_1b_grouped_like_the_others(self, monkeypatch):
        # t_1 -> t_b on monomials free of t_1 groups nothing: every
        # coefficient is asked to vanish, not only those free of t_b
        monkeypatch.setattr(I, "_edge_groups", lambda n, k, a, b:
                            CH.group_edges(CH.reduced_monomials(n, k), a, b))
        gy = twin("2,3,3,4")
        assert I.twin_blocks(gy).mult != F.twin_mult(gy)

    def test_dropped_e_b_1_groups(self, monkeypatch):
        # without them a 4-gon labelled (1, b) asks t_b, not t_b^2, to
        # divide its signed sum
        derivative = CH._derivative_groups
        monkeypatch.setattr(CH, "_derivative_groups", lambda n, k, a, b:
                            () if a == 1 else derivative(n, k, a, b))
        for triple, side in BLOWUPS:
            g = G.build_blowup(triple, side)
            top = g.top_degree
            caught = CH.solve_graph(g).ranked[top + 1] \
                != CH.solve_graph(g, top + 1).dim(top + 1)
            assert caught == (side == "x"), (triple_id(triple), side)

    def test_kept_t1_term_of_a_d0_1_multiplier(self, monkeypatch):
        # rho_! multiplies by t_d - t_1 on 2,3,3,4; t_1 times a reduced
        # monomial is no reduced monomial, so no report can be made
        monkeypatch.setattr(M, "reduced_factor",
                            lambda mult: tuple(zip(mult, (1, -1))))
        graphs, top = graphs_of("2,3,3,4")
        assert graphs.d0 == 1
        with pytest.raises(KeyError):
            M.check_theorem_blocks(graphs, top)
        graphs, top = graphs_of("2,3,4,4")   # d0 = 2: no t_1 term to keep
        assert M.check_theorem_blocks(graphs, top) \
            == F.block_report(graphs, top)


def test_swap_touching_t1_raises():
    e = G.identity_perm(3)
    with pytest.raises(I.TouchesFirstVariable, match="t_1 and t_2"):
        M.block_map_matrix(3, (2, 1), [(e, None, True), None], 1, 1, 0)
    assert I.reduced_swap(2)((0, 1, 2, 3)) == (0, 2, 1, 3)


def test_blowup_block_along_t1_equals_the_n_variable_block():
    # a 4-gon labelled (1, 2), whose derivative the reduced groups read
    # as the monomials with e_2 = 1: the partial sums of the reduced
    # coranks are the n-variable ones in every degree
    args = (3, ((1, 2),), ((1, 2),), 1, (2, 1))
    width = 2 * len(I.standard_tableaux((2, 1)))
    reduced = I.partial_sums(
        width * len(CH.reduced_monomials(3, k))
        - L.rank_of_int_rows(I.blowup_block_rows(*args, k)) for k in range(4))
    assert reduced == [width * len(CH.monomials(3, k))
                       - L.rank_of_int_rows(F.blowup_block_rows(*args, k))
                       for k in range(4)]
