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

Every block system is solved modulo the diagonal, in n - 1 variables.

Lemma.  Let sigma = t_1 + ... + t_n and R' = Q[t_i - t_j].  Then Q[t] =
R'[sigma], a polynomial ring over R', and for alpha in R' an element
sum_j g_j sigma^j (g_j in R') is divisible by alpha, or by alpha^2,
exactly when every g_j is.  Suppose

- every label of every edge and 4-gon is an index pair (a, b), which the
  shape certificates below check, so that every condition is a
  divisibility by t_a - t_b or its square, with constant coefficients;
- every map multiplies by such a difference or by nothing, and any swap
  exchanges t_d and t_{d+1} with d >= 2 (kind-C triples have d >= 2).

Then each space is H = H' (x) Q[sigma], where H' is the same system with
values in R', every map sends H' into H' and commutes with multiplication
by sigma, and the dagger action touches no t.  The map t_1 -> 0 carries
R' isomorphically onto Q[t_2, ..., t_n]: a label (a, b) with a >= 2 keeps
its form, a label (1, b) becomes t_b, a multiplier t_d - t_1 becomes t_d,
and the swap of t_d with t_{d+1}, d >= 2, is still a swap of variables.
So the degree-k multiplicities, dimensions and ranks of H are the sums
over j <= k of those of H' in degree j (:func:`partial_sums`).  A swap
touching t_1 has no reduced form, so it raises TouchesFirstVariable.
The full-kernel path (:mod:`gkmhess.cohomology`) solves in n variables
but ranks degree top + 1 modulo the diagonal; the tests compare the two.

Two checks make this a proof.  :func:`representations` checks that the
matrices satisfy the Coxeter relations and that each has the character of
its shape, so together they are the irreducibles and the transform is an
isomorphism; both checks run in integers, on the generators scaled by D =
lcm(1, ..., n-1)^2, which clears every seminormal denominator.  It
returns those integer generators, and :func:`rho` makes every matrix
rho_lam(w) from them, the transpositions of the block rows included.
:func:`twin_edge_types` and :func:`blowup_edge_types` check that the graph
has the shape above.  Either raises a named error rather than giving a
wrong character or report.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm

from gkmhess.cohomology import (
    _derivative_groups, _edge_groups, divisible_rows, reduced_monomials)
from gkmhess.graphs import (
    LabeledGraph, Perm, all_perms, circ, class_representative,
    identity_perm, plain, swap_positions)
from gkmhess.linalg import Echelon, IntRow, rank_of_int_rows
from gkmhess.symfunc import Partition, mn_character, partitions_of

Matrix = list[list[Fraction]]
Columns = tuple[tuple[tuple[int, int], ...], ...]   # column -> (row, value)
Scaled = tuple[tuple[tuple[int, ...], ...], int]    # integer rows, den > 0
Tableau = tuple[tuple[int, int], ...]   # (row, column) of 1, 2, ..., n


class NotARepresentation(ValueError):
    """The seminormal matrices are not the irreducibles of S_n."""


class NotTwinGraph(ValueError):
    """A graph is not the plain twin graph of a set of edge types."""


class TouchesFirstVariable(ValueError):
    """A swap involves t_1, which the reduced systems set to 0."""


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


def _word(w: Perm) -> list[int]:
    """A reduced word k_1 ... k_l with w = s_{k_1} ... s_{k_l}."""
    w, out = list(w), []
    while True:
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            return out[::-1]
        w[i], w[i + 1] = w[i + 1], w[i]   # w s_{i+1}: one inversion fewer
        out.append(i + 1)


def scale(n: int) -> int:
    """D = lcm(1, ..., n-1)^2, which clears the seminormal entries 1/r and
    1 - 1/r^2 of S_n, 0 < |r| < n."""
    return lcm(*range(1, n)) ** 2


def _integer_generators(lam: Partition, den: int) -> list[Columns]:
    """den s_1, ..., den s_{n-1} of :func:`seminormal_matrices` as sparse
    integer columns; NotARepresentation if an entry stays fractional."""
    out = []
    for k, m in enumerate(seminormal_matrices(lam), start=1):
        scaled = [[x * den for x in row] for row in m]
        if any(x.denominator != 1 for row in scaled for x in row):
            raise NotARepresentation(
                f"shape {lam}: {den} s_{k} is not an integer matrix")
        out.append(_columns([[int(x) for x in row] for row in scaled]))
    return out


def _columns(rows) -> Columns:
    """The sparse columns of a dense integer matrix."""
    return tuple(tuple((p, row[q]) for p, row in enumerate(rows) if row[q])
                 for q in range(len(rows)))


def _unit(d: int, scalar: int = 1) -> list[list[int]]:
    return [[scalar * (p == q) for q in range(d)] for p in range(d)]


def _along(gens: list[Columns], word, d: int) -> list[list[int]]:
    """The rows of gens[k_1 - 1] ... gens[k_l - 1] for the word k_1 ...
    k_l, one sparse generator applied at a time: each entry sums the at
    most two entries of a generator's column."""
    rows = _unit(d)
    for k in word:
        rows = [[sum(row[p] * v for p, v in col) for col in gens[k - 1]]
                for row in rows]
    return rows


def _lowest(rows, den: int) -> Scaled:
    """rows / den with the common factor of den and every entry divided
    out, so that den is the least common denominator."""
    g = gcd(den, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


@lru_cache(maxsize=None)
def representations(n: int) -> dict[Partition, list[Columns]]:
    """lam -> the integer generators D s_1, ..., D s_{n-1} (D =
    :func:`scale`) of rho_lam as sparse columns, for every shape lam of n,
    once certified; NotARepresentation otherwise.  :func:`rho` reads every
    matrix from them.

    The certificate, in integers: with S_k = D s_k, (S_i S_j)^m = D^(2m) I
    for the Coxeter relations of S_n, so the seminormal matrices define a
    representation, and the trace of S_{k_1} ... S_{k_l} for a reduced
    word of each class representative is D^l times the Murnaghan-Nakayama
    character of the shape, so it is that irreducible.
    """
    den = scale(n)
    out = {}
    for lam in partitions_of(n):
        gens = _integer_generators(lam, den)
        d = len(standard_tableaux(lam))
        for i in range(n - 1):
            for j in range(i + 1):
                order = (1, 3, 2)[min(i - j, 2)]
                if _along(gens, [i + 1, j + 1] * order, d) \
                        != _unit(d, den ** (2 * order)):
                    raise NotARepresentation(
                        f"shape {lam}: (s_{i + 1} s_{j + 1})^{order} != 1")
        for mu in partitions_of(n):
            word = _word(class_representative(mu))
            m = _along(gens, word, d)
            if sum(m[p][p] for p in range(d)) \
                    != den ** len(word) * mn_character(lam, mu):
                raise NotARepresentation(
                    f"shape {lam}: the trace at class {mu} is not the "
                    f"character")
        out[lam] = gens
    return out


@lru_cache(maxsize=None)
def rho(n: int, lam: Partition, w: Perm) -> Scaled:
    """rho_lam(w) as (rows, den) in lowest terms, the product of the
    certified generators D s_k along a reduced word k_1 ... k_l of w over
    D^l; made once per (n, lam, w)."""
    word = _word(w)
    return _lowest(_along(representations(n)[lam], word,
                          len(standard_tableaux(lam))), scale(n) ** len(word))


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
    rows, den = rho(n, lam, swap_positions(identity_perm(n), a, b))
    span, out = Echelon(), []
    for q in range(len(rows)):
        col = {p: den * (p == q) - row[q] for p, row in enumerate(rows)}
        g = gcd(den, *col.values())
        ints = {p: v // g for p, v in col.items() if v}
        if span.insert(ints):
            out.append(ints)
    return tuple(out)


@lru_cache(maxsize=None)
def reduced_index(n: int, k: int) -> dict:
    return {m: i for i, m in enumerate(reduced_monomials(n, k))}


def partial_sums(values) -> list[int]:
    """The degree-k numbers of H = H' (x) Q[sigma], k = 0, 1, ..., from
    the degree-j numbers of H' in values: the sums over j <= k."""
    return list(accumulate(values))


def reduced_swap(d: int):
    """The exchange of t_d and t_{d+1} on reduced exponent tuples;
    TouchesFirstVariable for d < 2."""
    if d < 2:
        raise TouchesFirstVariable(f"the swap of t_{d} and t_{d + 1} "
                                   f"involves t_1")
    return lambda e: e[:d - 1] + (e[d], e[d - 1]) + e[d + 1:]


def reduced_factor(mult: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """t_a - t_b, mult = (a, b), with t_1 = 0, as (variable, coefficient)
    terms."""
    return tuple((i, c) for i, c in zip(mult, (1, -1)) if i != 1)


def _type_rows(n: int, types, lam: Partition, k: int, width: int,
               offset: int) -> list[IntRow]:
    """For each type (a, b): x (I - rho_lam(s_ab)) divisible by t_a - t_b,
    x the unknowns offset .. offset + d_lam - 1 of each monomial."""
    rows = []
    for (a, b) in types:
        cols = _independent_columns(n, lam, a, b)
        rows += divisible_rows(_edge_groups(n, k, a, b), [
            {offset + p: v for p, v in col.items()} for col in cols]
            if offset else cols, width)
    return rows


def block_rows(n: int, types: tuple[tuple[int, int], ...], lam: Partition,
               k: int) -> list[IntRow]:
    """The integer rows on one row x of rho_lam(F) in degree k, modulo the
    diagonal: for each type (a, b), the independent columns q of I -
    rho_lam(s_ab) and each group of :func:`_edge_groups`, the sum over
    the group of x (I - rho_lam(s_ab)) at q.  Coordinate mi * d + p is
    the coefficient of the mi-th reduced monomial in x_p."""
    return _type_rows(n, types, lam, k, len(standard_tableaux(lam)), 0)


def blowup_block_rows(n: int, plain_types, circle_types, d: int,
                      lam: Partition, k: int) -> list[IntRow]:
    """The integer rows on one row (x_P, x_C) of rho_lam of a blow-up
    class (P, C) in degree k (:func:`blowup_edge_types`): the plain types
    on x_P, the circle types on x_C, x_P - x_C divisible by t_d - t_{d+1},
    and (x_P - x_C)(I - rho_lam(tau)) by its square.  Given the third,
    (x_P - x_C)(I - rho_lam(tau)) vanishes at t_d = t_{d+1}, so the
    fourth adds only the rows of its derivative there.  Modulo the
    diagonal, as :func:`block_rows`.
    Coordinate mi * 2 d_lam + p is the coefficient of the mi-th reduced
    monomial in x_P at p, and mi * 2 d_lam + d_lam + p that in x_C."""
    dl = len(standard_tableaux(lam))
    tau = (d, d + 1)
    return (_type_rows(n, plain_types, lam, k, 2 * dl, 0)
            + _type_rows(n, circle_types, lam, k, 2 * dl, dl)
            + divisible_rows(_edge_groups(n, k, *tau),
                             [{p: 1, dl + p: -1} for p in range(dl)], 2 * dl)
            + divisible_rows(
                _derivative_groups(n, k, *tau),
                [{**col, **{dl + p: -v for p, v in col.items()}}
                 for col in _independent_columns(n, lam, *tau)], 2 * dl))


class TwinBlocks:
    """The multiplicity m_lam(k) of each irreducible in each degree
    k <= max_degree of the equivariant cohomology of a plain twin graph.

    It stands for the space of a plain graph at every n, of side y or,
    once the relabelling is certified on its graph and max_degree, of
    side x (:func:`gkmhess.maps.plain_side`), where only dimensions are
    read: :func:`gkmhess.cohomology.hilbert_numerator`, and
    :func:`gkmhess.cohomology.graded_character` given these traces.  It
    has no direct quotient, so no cross-check runs on it, and asking for
    one raises :class:`gkmhess.cohomology.NoDirectQuotient`.
    """

    def __init__(self, graph: LabeledGraph, max_degree: int,
                 mult: dict[Partition, list[int]]):
        self.graph, self.max_degree, self.mult = graph, max_degree, mult

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def n(self) -> int:
        return self.graph.n

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return sum(len(standard_tableaux(lam)) * m[k]
                   for lam, m in self.mult.items())

    def traces(self) -> dict[Partition, list[int]]:
        """The dagger trace of each class representative in every degree,
        sum_lam m_lam(k) chi_lam(mu), an integer."""
        return {mu: [sum(m[k] * mn_character(lam, mu)
                         for lam, m in self.mult.items())
                     for k in range(self.max_degree + 1)]
                for mu in partitions_of(self.n)}


def twin_blocks(graph: LabeledGraph) -> TwinBlocks:
    """The multiplicities of a plain twin graph in every degree
    k <= top_degree + 1: the partial sums of those modulo the diagonal,
    each the number of columns of :func:`block_rows` less their rank."""
    types = twin_edge_types(graph)
    max_degree = graph.top_degree + 1
    n = graph.n
    mult = {lam: partial_sums([
        len(reduced_monomials(n, j)) * len(standard_tableaux(lam))
        - rank_of_int_rows(block_rows(n, types, lam, j))
        for j in range(max_degree + 1)])
        for lam in partitions_of(n)}
    return TwinBlocks(graph, max_degree, mult)
