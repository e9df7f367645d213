"""Theorem 5.1 on full kernels: the oracle of the tests for the block
check of :mod:`gkmhess.maps`.

Each of the five graphs of a triple is solved in full on its own rows,
side x as well (not as the relabelled side y), and each map is a sparse
integer matrix in monomial-major coordinates (:func:`map_matrix`).  The
images of the kernel bases are checked against the blow-up constraint
rows, then ranked on the free coordinates of the blow-up basis, which
determine a kernel vector.  No certificate runs: the package makes the
same report by irreducible blocks, and the two must agree in every
degree.

:func:`relabel_space` carries a solved side-y space onto side x, basis
and all, so that the tests can compare it with side x solved alone.
"""

from __future__ import annotations

from gkmhess.cohomology import (
    GradedSolutionSpace, MembershipFailed, _restrict, certify_relabelling,
    column_adjacency, constraint_rows, first_violated_row, monomial_index,
    monomials, relabelling, solve_graph)
from gkmhess.graphs import swap_positions
from gkmhess.linalg import SubspaceBasis
from gkmhess.maps import (
    MAPS, PAIRS, MapMatrix, TripleGraphs, _apply, _image_terms, _main_report,
    _ranks)


class Context(TripleGraphs):
    """A triple's five graphs on one side with their full kernels: the
    space of the graph that :meth:`TripleGraphs.graphs` calls name is
    sp_name (sp_minus, sp_mid, sp_plus, sp_circle and sp_blowup)."""

    def __init__(self, graphs: TripleGraphs, **spaces: GradedSolutionSpace):
        super().__init__(**vars(graphs))
        vars(self).update(spaces)


def solve(triple, side: str) -> Context:
    """The five graphs of triple on side (of the kind-C transpose for kind
    R), each solved through degree h_plus.dimension() + 1."""
    graphs = TripleGraphs.of(triple, side)
    top = graphs.triple.h_plus.dimension() + 1
    return Context(graphs, **{
        f"sp_{name}": solve_graph(g, top)
        for name, g in graphs.graphs().items()})


def map_matrix(ctx: TripleGraphs, name: str, k: int) -> MapMatrix:
    """The map into blow-up degree k as a sparse integer matrix: entry c
    lists (blow-up coordinate, coefficient) for the source coordinate c of
    degree k - shift, both in monomial-major coordinates."""
    rule, source, shift = MAPS[name]
    n, d = ctx.blowup.n, ctx.d
    src_index = getattr(ctx, f"g_{source}").vertex_index
    nv_src, nv_dst = len(src_index), len(ctx.blowup.vertices)
    matrix: MapMatrix = [[] for _ in range(
        nv_src * len(monomials(n, k - shift)))]
    tables: dict = {}   # (mult, swap) -> per source monomial its image terms
    for vi, v in enumerate(ctx.blowup.vertices):
        hit = rule(ctx, v)
        if hit is None:
            continue
        s, mult, swap = hit
        if (mult, swap) not in tables:
            tables[mult, swap] = _image_terms(
                monomials(n, k - shift), monomial_index(n, k),
                None if mult is None else tuple(zip(mult, (1, -1))),
                (lambda e: swap_positions(e, d, d + 1)) if swap else None)
        si = src_index[s]
        for mi, terms in enumerate(tables[mult, swap]):
            matrix[mi * nv_src + nv_src - 1 - si] += [
                (t * nv_dst + nv_dst - 1 - vi, c) for t, c in terms]
    return matrix


def image_columns(ctx: Context, name: str, k: int, adj: dict) -> list:
    """The images in blow-up degree k of the source basis, each checked
    against the degree-k blow-up rows, whose column adjacency is adj;
    MembershipFailed otherwise."""
    _, source, shift = MAPS[name]
    if k < shift:
        return []
    matrix = map_matrix(ctx, name, k)
    cols = [_apply(matrix, col)
            for col in getattr(ctx, f"sp_{source}").bases[k - shift].columns]
    for j, col in enumerate(cols):
        bad = first_violated_row(adj, col)
        if bad is not None:
            raise MembershipFailed(f"{name} image column {j} violates the "
                                   f"degree-{k} constraint row {bad}")
    return cols


def report(ctx: Context) -> dict:
    """The degreewise 5.1 report of ctx, as
    :func:`gkmhess.maps.check_theorem_blocks` makes it by blocks."""
    def dim(name: str, k: int) -> int:
        return getattr(ctx, f"sp_{name}").dim(k)

    def pair_ranks(k: int):
        adj = column_adjacency(constraint_rows(ctx.blowup, k))
        free = set(ctx.sp_blowup.bases[k].unit_rows)
        for first, second, label in PAIRS:
            cols_a, cols_b = (image_columns(ctx, name, k, adj)
                              for name in (first, second))
            yield (first, second, label,
                   *_ranks(_restrict(cols_a, free), _restrict(cols_b, free)),
                   len(cols_a), len(cols_b))

    return _main_report(ctx, ctx.sp_blowup.max_degree, dim, pair_ranks)


def relabel_space(space_y: GradedSolutionSpace, graph_x,
                  name: str) -> GradedSolutionSpace:
    """The side-x space P(space_y) of graph_x, certified as
    :func:`gkmhess.cohomology.certify_relabelling` does: each basis column
    and unit row moved by P.  It keeps no row adjacency, so its quotient
    reads the rows of graph_x."""
    certify_relabelling(space_y.graph, graph_x, name, space_y.max_degree)
    bases = {}
    for k, basis in space_y.bases.items():
        p = relabelling(graph_x, k)
        bases[k] = SubspaceBasis(
            basis.ambient_dim,
            [{p[c]: v for c, v in col.items()} for col in basis.columns],
            unit_rows=[p[u] for u in basis.unit_rows])
    return GradedSolutionSpace(graph_x, space_y.max_degree, bases,
                               space_y.ranked)
