"""The irreducible blocks solved modulo the diagonal, in t_2..t_n, against
the same blocks in all n variables (tests/full_blocks.py): multiplicities
and 5.1 reports agree in every degree, and each part of the reduction
that the lemma of gkmhess.isotypic rests on is needed."""

import pytest

from gkmhess import cli
from gkmhess import cohomology as CH
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import isotypic as I
from gkmhess import maps as M
import full_blocks as F

N4 = [str(h) for n in (1, 2, 3, 4) for h in H.enumerate_hessenberg(n)]
C_TRIPLES = [t for n in (3, 4) for h in H.enumerate_hessenberg(n)
             for t in H.find_modular_triples(h) if t.kind == "C"]


def triple_id(t):
    return f"{t.h}-{t.params}"


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
    monomials = I.monomials

    def spy(n, k):
        seen.add(n)
        return monomials(n, k)

    def unused(*args):
        raise AssertionError("an n-variable table was built")

    for f in (I.reduced_monomials, I.reduced_index, I._edge_groups,
              I._derivative_groups):
        f.cache_clear()
    monkeypatch.setattr(I, "monomials", spy)
    monkeypatch.setattr(CH, "constraint_rows", unused)
    assert cli.main(["check", "2,3,3,4,5", "--thm", "all"]) == 0
    capsys.readouterr()
    assert seen == {4}


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
                            CH.group_edges(I.reduced_monomials(n, k), a, b))
        gy = twin("2,3,3,4")
        assert I.twin_blocks(gy).mult != F.twin_mult(gy)

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
    with pytest.raises(I.TouchesFirstVariable, match=r"label \(1, 2\)"):
        I.blowup_block_rows(3, ((1, 2),), ((1, 2),), 1, (2, 1), 2)
    assert I.reduced_swap(2)((0, 1, 2, 3)) == (0, 2, 1, 3)
