"""Traces of S_n on the solved equivariant pieces H^k_T: a test oracle for
the traces that the package reads on the irreducible blocks of a twin and
on the direct quotient.

Invariance is checked directly: every basis column, moved by sigma, must
satisfy the degree-k constraint rows, so sigma maps H^k_T into itself.
The kernel basis has unit rows, so the coordinate of a kernel vector along
basis column i is its value at unit row u_i over column i's own value
there, and the trace sums that coordinate of each moved column.
"""

from fractions import Fraction

from gkmhess import cohomology as CH
from gkmhess.graphs import class_representative
from gkmhess.symfunc import partitions_of


def _trace(space, k, sigma, kind, adj) -> Fraction:
    basis = space.bases[k]
    pi = CH.coordinate_perm(space.graph, k, sigma, kind)
    total = Fraction(0)
    for u, col in zip(basis.unit_rows, basis.columns):
        moved = {pi[c]: v for c, v in col.items()}
        if CH.first_violated_row(adj, moved) is not None:
            raise CH.NotInvariant(
                f"{kind} action by {sigma} moves a degree-{k} basis column "
                f"off the kernel")
        total += Fraction(moved.get(u, 0), col[u])
    return total


def kernel_trace(space, k, sigma, kind) -> Fraction:
    """tr(sigma | H^k_T) on the kernel basis; NotInvariant if sigma moves a
    basis column off the kernel."""
    adj = CH.column_adjacency(CH.constraint_rows(space.graph, k))
    return _trace(space, k, sigma, kind, adj)


def kernel_traces(space, kind) -> dict:
    """The kernel trace of each class representative in every solved
    degree, as {cycle type: [trace in degree k]}.  The default solve ranks
    degree top + 1 instead: solve with max_degree to have its traces."""
    traces = {lam: [] for lam in partitions_of(space.n)}
    for k in sorted(space.bases):
        adj = CH.column_adjacency(CH.constraint_rows(space.graph, k))
        for lam, row in traces.items():
            row.append(_trace(space, k, class_representative(lam), kind, adj))
    return traces
