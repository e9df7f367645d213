"""Twin graphs and signed blow-ups, one irreducible at a time.

On the twin graph of a Hessenberg function the vertices are S_n, and each
vertex w has the edge w -- w (a b) labelled t_a - t_b for every edge type
(a, b).  A degree-k class is F = sum_w f(w) w in Q[t]_k (x) Q[S_n]: the
edge conditions say that F (1 - s_ab) lies in (t_a - t_b) Q[t] (x) Q[S_n],
and the dagger action is left multiplication, which touches no t.

An irreducible representation rho of S_n (Young's seminormal form, with
rational matrices) takes F to a d x d matrix of degree-k polynomials, and
the conditions to x (I - rho(s_ab)) = 0 mod t_a - t_b for each row x of
that matrix.  Left multiplication acts on the d rows, so if m(k) is the
dimension of the solution space of one row, the block is m(k) copies of
the irreducible V: the degree-k piece has dimension sum_lam d_lam m_lam(k)
and dagger character sum_lam m_lam(k) chi_lam.  Each m_lam(k) is the
corank of a system with d_lam columns per monomial, against n! for the
whole space (Fulton and Harris, Representation Theory, Lecture 4).

The circle graph of a triple has the same shape on the circle vertices.
A class of the side-y signed blow-up is a pair (P, C), and its joining
edges and 4-gons are right multiplications too (:func:`blowup_edge_types`),
so it splits the same way with 2 d_lam unknowns per monomial
(:func:`blowup_block_rows`); :mod:`gkmhess.maps` checks Theorem 5.1 on
these blocks.

Two checks make this a proof.  :func:`representations` checks that the
matrices satisfy the Coxeter relations and that each has the character of
its shape, so together they are the irreducibles and the transform is an
isomorphism; :func:`twin_edge_types` and :func:`blowup_edge_types` check
that the graph has the shape above.  Either raises a named error rather
than giving a wrong character or report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from gkmhess.cohomology import derivative_groups, edge_groups, monomials
from gkmhess.graphs import (
    LabeledGraph, Perm, all_perms, circ, class_representative, plain,
    swap_positions)
from gkmhess.linalg import Echelon, IntRow, rank_of_int_rows
from gkmhess.symfunc import Partition, mn_character, partitions_of

Matrix = list[list[Fraction]]
Tableau = tuple[tuple[int, int], ...]   # (row, column) of 1, 2, ..., n


class NotARepresentation(ValueError):
    """The seminormal matrices are not the irreducibles of S_n."""


class NotTwinGraph(ValueError):
    """A graph is not the plain twin graph of a set of edge types."""


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> tuple[Tableau, ...]:
    """The standard tableaux of shape lam."""
    out = []

    def grow(cells: tuple, rows: list[int]) -> None:
        if len(cells) == sum(lam):
            out.append(cells)
            return
        for i, length in enumerate(rows):
            if length < lam[i] and (i == 0 or rows[i - 1] > length):
                rows[i] += 1
                grow(cells + ((i, length),), rows)
                rows[i] -= 1

    grow((), [0] * len(lam))
    return tuple(out)


def seminormal_matrices(lam: Partition) -> list[Matrix]:
    """Young's seminormal matrices of s_1..s_{n-1} on shape lam.

    Column T of s_k has 1/r at T, where r is the content (column - row)
    of k+1 minus that of k in T, and, when swapping k and k+1 in T gives a
    standard tableau T', 1 (r > 0) or 1 - 1/r^2 (r < 0) at T'.
    """
    tabs = standard_tableaux(lam)
    index = {t: i for i, t in enumerate(tabs)}
    mats = []
    for k in range(1, sum(lam)):
        m = [[Fraction(0)] * len(tabs) for _ in tabs]
        for q, t in enumerate(tabs):
            (ra, ca), (rb, cb) = t[k - 1], t[k]
            r = (cb - rb) - (ca - ra)
            m[q][q] = Fraction(1, r)
            if ra != rb and ca != cb:
                swapped = t[:k - 1] + (t[k], t[k - 1]) + t[k + 1:]
                m[index[swapped]][q] = 1 if r > 0 else 1 - Fraction(1, r * r)
        mats.append(m)
    return mats


def _mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, summing over the nonzero entries of each column of b (at most
    two in a seminormal matrix)."""
    cols = [[(j, row[c]) for j, row in enumerate(b) if row[c]]
            for c in range(len(b[0]))]
    return [[sum((ra[j] * x for j, x in col), Fraction(0)) for col in cols]
            for ra in a]


def _word(w: Perm) -> list[int]:
    """A reduced word k_1 ... k_l with w = s_{k_1} ... s_{k_l}."""
    w, out = list(w), []
    while True:
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            return out[::-1]
        w[i], w[i + 1] = w[i + 1], w[i]   # w s_{i+1}: one inversion fewer
        out.append(i + 1)


def _identity(d: int) -> Matrix:
    return [[Fraction(int(p == q)) for q in range(d)] for p in range(d)]


def _rho(gens: list[Matrix], d: int, w: Perm) -> Matrix:
    """rho(w) = rho(s_{k_1}) ... rho(s_{k_l}), d x d, for the generator
    matrices gens of s_1..s_{n-1} and a reduced word of w."""
    out = _identity(d)
    for k in _word(w):
        out = _mul(out, gens[k - 1])
    return out


@lru_cache(maxsize=None)
def representations(n: int) -> dict[Partition, dict[tuple[int, int], Matrix]]:
    """lam -> (a, b) -> rho_lam of the transposition (a b), for every
    shape lam of n and every a < b, once certified; NotARepresentation
    otherwise.

    The certificate: the seminormal matrices of each shape satisfy the
    Coxeter relations of S_n, so they define a representation, and its
    trace at each class representative is the Murnaghan-Nakayama
    character of the shape, so it is that irreducible.
    """
    out = {}
    for lam in partitions_of(n):
        gens = seminormal_matrices(lam)
        d = len(standard_tableaux(lam))
        one = _identity(d)
        for i, s in enumerate(gens):
            for j, u in enumerate(gens[:i + 1]):
                order = (1, 3, 2)[min(i - j, 2)]
                prod = _mul(s, u)
                power = prod
                for _ in range(order - 1):
                    power = _mul(power, prod)
                if power != one:
                    raise NotARepresentation(
                        f"shape {lam}: (s_{i + 1} s_{j + 1})^{order} != 1")
        for mu in partitions_of(n):
            m = _rho(gens, d, class_representative(mu))
            if sum(m[p][p] for p in range(d)) != mn_character(lam, mu):
                raise NotARepresentation(
                    f"shape {lam}: the trace at class {mu} is not the "
                    f"character")
        out[lam] = rhos = {}
        for a in range(1, n):
            rhos[a, a + 1] = gens[a - 1]
            for b in range(a + 2, n + 1):   # (a b) = s_{b-1} (a b-1) s_{b-1}
                rhos[a, b] = _mul(_mul(gens[b - 2], rhos[a, b - 1]),
                                  gens[b - 2])
    return out


def rho(n: int, lam: Partition, w: Perm) -> Matrix:
    """rho_lam(w), from the certified matrices of s_1..s_{n-1}."""
    mats = representations(n)[lam]
    return _rho([mats[k, k + 1] for k in range(1, n)],
                len(standard_tableaux(lam)), w)


def _twin_edges(n: int, types, offset: int = 0) -> list:
    """The edges {w, w (a b)} labelled (a, b) for every w of S_n and every
    type (a, b), a < b, on the vertices offset + index of w."""
    perms = all_perms(n)
    index = {w: offset + i for i, w in enumerate(perms)}
    return sorted({(*sorted((index[w], index[swap_positions(w, a, b)])),
                    (a, b)) for (a, b) in types if 1 <= a < b <= n
                   for w in perms})


def twin_edge_types(graph: LabeledGraph, sheet=plain
                    ) -> tuple[tuple[int, int], ...]:
    """The edge types of a twin graph; NotTwinGraph unless the vertices
    are exactly sheet(S_n) (plain, or circ for a circle graph), with no
    quads, and the edges exactly {w, w (a b)} labelled (a, b), a < b, for
    every w and every label."""
    if graph.vertices != tuple(sheet(w) for w in all_perms(graph.n)) \
            or getattr(graph, "quads", ()):
        raise NotTwinGraph("the vertices are not S_n, or there are quads")
    types = sorted({label for _, _, label in graph.edges})
    if sorted(graph.edges) != _twin_edges(graph.n, types):
        raise NotTwinGraph(
            f"the edges are not w -- w (a b) labelled (a, b) for every w "
            f"and each of the labels {types}")
    return tuple(types)


def blowup_edge_types(graph) -> tuple[tuple[tuple[int, int], ...],
                                      tuple[tuple[int, int], ...]]:
    """The plain and the circle edge types of a side-y signed blow-up
    along tau = (d, d+1), d = graph.d; NotTwinGraph unless

    - the vertices are exactly plain(S_n), then circ(S_n);
    - the edges are exactly the twin edges of the plain types on the
      plain copy, those of the circle types on the circle copy, and
      w -- °w labelled (d, d+1) for every w;
    - the 4-gons are exactly (w, °w, w tau, °w tau), w before w tau,
      labelled (d, d+1), one per coset {w, w tau}, with signs
      alpha (1, -1, -1, 1), alpha = +-1.

    Then the classes are the pairs (P, C) of Q[t] (x) Q[S_n] with P (1 -
    s_ab) divisible by t_a - t_b for each plain type, C (1 - s_ab) for
    each circle type, P - C by t_d - t_{d+1}, and (P - C)(1 - tau) by its
    square: the 4-gon's signed sum is alpha times the coefficient of w in
    (P - C)(1 - tau).
    """
    n, d = graph.n, graph.d
    perms = all_perms(n)
    nperm = len(perms)
    if graph.vertices != tuple(plain(w) for w in perms) \
            + tuple(circ(w) for w in perms) or not 1 <= d < n \
            or len(graph.signs) != 2 * nperm:
        raise NotTwinGraph(
            "the vertices are not S_n followed by its circle copy")
    tau = (d, d + 1)
    plain_types = tuple(sorted({label for _, v, label in graph.edges
                                if v < nperm}))
    circle_types = tuple(sorted({label for u, _, label in graph.edges
                                 if u >= nperm}))
    expected = sorted(_twin_edges(n, plain_types)
                      + _twin_edges(n, circle_types, nperm)
                      + [(i, nperm + i, tau) for i in range(nperm)])
    if sorted(graph.edges) != expected:
        raise NotTwinGraph(
            f"the edges are not the twin edges of {plain_types} on the "
            f"plain copy and {circle_types} on the circle copy, and "
            f"w -- °w labelled {tau}")
    index = {w: i for i, w in enumerate(perms)}
    quads = sorted(((i, nperm + i, j, nperm + j), tau)
                   for i, w in enumerate(perms)
                   for j in (index[swap_positions(w, d, d + 1)],) if i < j)
    if sorted(graph.quads) != quads:
        raise NotTwinGraph(
            f"the 4-gons are not w, °w, w tau, °w tau labelled {tau}")
    for vs, _ in quads:
        alpha = graph.signs[vs[0]]
        if alpha not in (1, -1) or [graph.signs[i] for i in vs] \
                != [alpha, -alpha, -alpha, alpha]:
            raise NotTwinGraph(
                f"the signs of the 4-gon "
                f"{' '.join(str(graph.vertices[i]) for i in vs)} are not "
                f"+-(1, -1, -1, 1)")
    return plain_types, circle_types


@lru_cache(maxsize=None)
def _independent_columns(n: int, lam: Partition, a: int, b: int
                         ) -> tuple[IntRow, ...]:
    """The independent columns of I - rho_lam(s_ab), each made integer.
    x (I - rho_lam(s_ab)) is divisible by a polynomial exactly when x
    times each of them is: the other columns are rational combinations.
    Cached per (n, lam, a, b); callers only read the dicts, and build new
    ones for the rows."""
    r = representations(n)[lam][a, b]
    d = len(r)
    span, out = Echelon(), []
    for q in range(d):
        col = {p: int(p == q) - r[p][q] for p in range(d)}
        den = lcm(*(v.denominator for v in col.values()))
        ints = {p: int(v * den) for p, v in col.items() if v}
        if span.insert(ints):
            out.append(ints)
    return tuple(out)


def _divisible_rows(n: int, k: int, label: tuple[int, int], cols,
                    width: int, order: int = 0) -> list[IntRow]:
    """The rows saying that x . col vanishes at t_a = t_b, label (a, b),
    for each col (a dict over the width unknowns of a monomial): the sum
    over each group of :func:`edge_groups`; with order=1, that its
    (d/dt_a - d/dt_b) vanishes there instead, over each group of
    :func:`derivative_groups`.  Coordinate mi * width + c is the
    coefficient of the mi-th monomial in x_c."""
    a, b = label
    if order:
        return [{mi * width + c: cf * v for mi, cf in g
                 for c, v in col.items()}
                for col in cols for g in derivative_groups(n, k, a, b)]
    return [{mi * width + c: v for mi in g for c, v in col.items()}
            for col in cols for g in edge_groups(n, k, a, b)]


def _type_rows(n: int, types, lam: Partition, k: int, width: int,
               offset: int) -> list[IntRow]:
    """For each type (a, b): x (I - rho_lam(s_ab)) divisible by t_a - t_b,
    x the unknowns offset .. offset + d_lam - 1 of each monomial."""
    rows = []
    for (a, b) in types:
        cols = _independent_columns(n, lam, a, b)
        rows += _divisible_rows(n, k, (a, b), [
            {offset + p: v for p, v in col.items()} for col in cols]
            if offset else cols, width)
    return rows


def block_rows(n: int, types: tuple[tuple[int, int], ...], lam: Partition,
               k: int) -> list[IntRow]:
    """The integer rows on one row x of rho_lam(F) in degree k: for each
    type (a, b), the independent columns q of I - rho_lam(s_ab) and each
    group of monomials with one image under t_a -> t_b, the sum over the
    group of x (I - rho_lam(s_ab)) at q.  Coordinate mi * d + p is the
    coefficient of the mi-th monomial in x_p."""
    return _type_rows(n, types, lam, k, len(standard_tableaux(lam)), 0)


def blowup_block_rows(n: int, plain_types, circle_types, d: int,
                      lam: Partition, k: int) -> list[IntRow]:
    """The integer rows on one row (x_P, x_C) of rho_lam of a blow-up
    class (P, C) in degree k (:func:`blowup_edge_types`): the plain types
    on x_P, the circle types on x_C, x_P - x_C divisible by t_d - t_{d+1},
    and (x_P - x_C)(I - rho_lam(tau)) by its square.  Given the third,
    (x_P - x_C)(I - rho_lam(tau)) vanishes at t_d = t_{d+1}, so the
    fourth adds only the rows of its derivative there.  Coordinate
    mi * 2 d_lam + p is the coefficient of the mi-th monomial in x_P at
    p, and mi * 2 d_lam + d_lam + p that in x_C."""
    dl = len(standard_tableaux(lam))
    tau = (d, d + 1)
    return (_type_rows(n, plain_types, lam, k, 2 * dl, 0)
            + _type_rows(n, circle_types, lam, k, 2 * dl, dl)
            + _divisible_rows(n, k, tau, [{p: 1, dl + p: -1}
                                          for p in range(dl)], 2 * dl)
            + _divisible_rows(
                n, k, tau, [{**col, **{dl + p: -v for p, v in col.items()}}
                            for col in _independent_columns(n, lam, *tau)],
                2 * dl, order=1))


@dataclass
class TwinBlocks:
    """The multiplicity m_lam(k) of each irreducible in each degree
    k <= max_degree of the equivariant cohomology of a plain twin graph.

    It stands for a solved space where only dimensions and dagger traces
    are read: :func:`gkmhess.cohomology.hilbert_numerator`,
    :func:`gkmhess.cohomology.graded_character` without the cross-check,
    and :func:`gkmhess.cohomology.relabelled_character`, whose
    certificate reads only the graph and max_degree.
    """

    graph: LabeledGraph
    max_degree: int
    mult: dict[Partition, list[int]]

    @property
    def n(self) -> int:
        return self.graph.n

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return sum(len(standard_tableaux(lam)) * m[k]
                   for lam, m in self.mult.items())

    def traces(self) -> dict[Partition, list[Fraction]]:
        """The dagger trace of each class representative in every degree,
        sum_lam m_lam(k) chi_lam(mu)."""
        return {mu: [Fraction(sum(m[k] * mn_character(lam, mu)
                                  for lam, m in self.mult.items()))
                     for k in range(self.max_degree + 1)]
                for mu in partitions_of(self.n)}


def twin_blocks(graph: LabeledGraph) -> TwinBlocks:
    """The multiplicities of a plain twin graph in every degree
    k <= top_degree + 1, each the number of columns of :func:`block_rows`
    less their rank."""
    types = twin_edge_types(graph)
    max_degree = graph.top_degree + 1
    n = graph.n
    mult = {lam: [len(monomials(n, k)) * len(standard_tableaux(lam))
                  - rank_of_int_rows(block_rows(n, types, lam, k))
                  for k in range(max_degree + 1)]
            for lam in partitions_of(n)}
    return TwinBlocks(graph, max_degree, mult)
