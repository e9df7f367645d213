"""The irreducible blocks in all n variables: the oracle of the tests for
the reduction modulo the diagonal in :mod:`gkmhess.isotypic`.

These are the block rows, multiplicities, block maps and 5.1 block report
with every polynomial in t_1..t_n, each degree solved on its own and no
partial sums.  The package solves the same blocks in t_2..t_n and sums
over the lower degrees; the two must agree in every degree.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from gkmhess.cohomology import (
    MembershipFailed, _restrict, _times_t, column_adjacency,
    derivative_groups, divisible_rows, edge_groups, first_violated_row,
    monomial_index, monomials)
from gkmhess.graphs import circ, inverse, swap_positions
from gkmhess.isotypic import (
    _independent_columns, blowup_edge_types, rho, standard_tableaux,
    twin_edge_types)
from gkmhess.linalg import Echelon, kernel_of_rows, rank_of_int_rows
from gkmhess.maps import (
    MAPS, PAIRS, _apply, _main_report, _ranks, block_rules)
from gkmhess.symfunc import partitions_of


def _type_rows(n, types, lam, k, width, offset):
    rows = []
    for (a, b) in types:
        cols = [{offset + p: v for p, v in col.items()}
                for col in _independent_columns(n, lam, a, b)]
        rows += divisible_rows(edge_groups(n, k, a, b), cols, width)
    return rows


def block_rows(n, types, lam, k):
    """The rows on one row x of rho_lam(F) in degree k, n variables."""
    return _type_rows(n, types, lam, k, len(standard_tableaux(lam)), 0)


def blowup_block_rows(n, plain_types, circle_types, d, lam, k):
    """The rows on one row (x_P, x_C) of a blow-up class, n variables."""
    dl = len(standard_tableaux(lam))
    tau = (d, d + 1)
    return (_type_rows(n, plain_types, lam, k, 2 * dl, 0)
            + _type_rows(n, circle_types, lam, k, 2 * dl, dl)
            + divisible_rows(edge_groups(n, k, *tau),
                             [{p: 1, dl + p: -1} for p in range(dl)], 2 * dl)
            + divisible_rows(
                derivative_groups(n, k, *tau),
                [{**col, **{dl + p: -v for p, v in col.items()}}
                 for col in _independent_columns(n, lam, *tau)], 2 * dl))


def twin_mult(graph):
    """lam -> m_lam(k) for k <= top_degree + 1, each degree its own
    n-variable system."""
    types = twin_edge_types(graph)
    n = graph.n
    return {lam: [len(monomials(n, k)) * len(standard_tableaux(lam))
                  - rank_of_int_rows(block_rows(n, types, lam, k))
                  for k in range(graph.top_degree + 2)]
            for lam in partitions_of(n)}


def _image_terms(n, k, shift, mult, swap, d):
    """Per degree-(k - shift) monomial its image in degree k, swapped if
    asked, then times t_a - t_b for mult = (a, b)."""
    idx = monomial_index(n, k)
    out = []
    for mon in monomials(n, k - shift):
        e = swap_positions(mon, d, d + 1) if swap else mon
        out.append([(idx[e], 1)] if mult is None else
                   [(idx[_times_t(e, mult[0])], 1),
                    (idx[_times_t(e, mult[1])], -1)])
    return out


def block_map_matrix(n, lam, reads, d, k, shift):
    """A map on one row of rho_lam of the source class, n variables."""
    dl = len(standard_tableaux(lam))
    mats = [None if r is None else rho(n, lam, inverse(r[0])) for r in reads]
    den = lcm(*(m[1] for m in mats if m))
    matrix = [[] for _ in range(dl * len(monomials(n, k - shift)))]
    for sheet, (read, m) in enumerate(zip(reads, mats)):
        if read is None:
            continue
        rows, factor = m[0], den // m[1]
        ints = [[(sheet * dl + q, x * factor) for q, x in enumerate(row)
                 if x] for row in rows]
        for mi, terms in enumerate(_image_terms(n, k, shift, read[1],
                                                read[2], d)):
            for p in range(dl):
                matrix[mi * dl + p] += [(t * 2 * dl + q, c * v)
                                        for t, c in terms for q, v in ints[p]]
    return matrix


def block_report(graphs, max_degree):
    """The side-y 5.1 report by blocks with every system in n variables,
    every degree solved, mapped and ranked on its own."""
    n, d = graphs.blowup.n, graphs.d
    types = {name: twin_edge_types(getattr(graphs, f"g_{name}"))
             for name in ("minus", "mid", "plus")}
    types["circle"] = twin_edge_types(graphs.g_circle, circ)
    plain_types, circle_types = blowup_edge_types(graphs.blowup)
    rules = block_rules(graphs)
    shapes = {lam: len(standard_tableaux(lam)) for lam in partitions_of(n)}
    bases = {(name, lam, k): kernel_of_rows(block_rows(n, t, lam, k),
                                            dl * len(monomials(n, k)))
             for name, t in types.items() for lam, dl in shapes.items()
             for k in range(max_degree + (name in ("plus", "circle")))}

    @cache
    def blowup(lam, k):
        rows = blowup_block_rows(n, plain_types, circle_types, d, lam, k)
        pivots = Echelon.of(rows).pivots
        return rows, {c for c in range(2 * shapes[lam] * len(monomials(n, k)))
                      if c not in pivots}

    def dim(name, k):
        if k < 0:
            return 0
        if name == "blowup":
            return sum(dl * len(blowup(lam, k)[1])
                       for lam, dl in shapes.items())
        return sum(dl * bases[name, lam, k].dim for lam, dl in shapes.items())

    def images(name, lam, k, adj):
        _, source, shift = MAPS[name]
        if k < shift:
            return []
        matrix = block_map_matrix(n, lam, rules[name], d, k, shift)
        cols = [_apply(matrix, col)
                for col in bases[source, lam, k - shift].columns]
        for j, col in enumerate(cols):
            if first_violated_row(adj, col) is not None:
                raise MembershipFailed(f"{name} image column {j} of {lam}")
        return cols

    def pair_ranks(k):
        adj = {lam: column_adjacency(blowup(lam, k)[0]) for lam in shapes}
        for first, second, label in PAIRS:
            total = [0] * 5
            for lam, dl in shapes.items():
                cols_a, cols_b = (images(name, lam, k, adj[lam])
                                  for name in (first, second))
                free = blowup(lam, k)[1]
                block = (*_ranks(_restrict(cols_a, free),
                                 _restrict(cols_b, free)),
                         len(cols_a), len(cols_b))
                total = [t + dl * b for t, b in zip(total, block)]
            yield (first, second, label, *total)

    return _main_report(graphs, max_degree, dim, pair_ranks)
