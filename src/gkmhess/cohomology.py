"""Equivariant graph cohomology over exact rationals.

For a labeled graph the degree-k equivariant piece is the space of maps
from vertices to degree-k polynomials in t_1..t_n such that the difference
across every edge is divisible by the edge label; a signed blow-up imposes
one extra condition per 4-gon: the sign-weighted vertex sum must be
divisible by the square of the shared label.  Divisibility by t_a - t_b is
encoded by substituting t_a <- t_b and asking for zero; the squared
condition also asks (d/dt_a - d/dt_b) to vanish at t_a = t_b.  Given the
first condition this is the same as asking it of d/dt_a alone, but the
antisymmetric form does not depend on the orientation of the label.  All
give integer linear constraints, solved degree by degree by the sparse
exact kernel in :mod:`gkmhess.linalg`.

Both conditions are groups of (monomial index, coefficient) pairs, one
per image monomial (:func:`group_edges`, :func:`group_derivatives`), and
:func:`divisible_rows` alone turns them into rows on a combination x . col
of the unknowns: f(u) - f(v) for an edge {u, v} and the signed vertex sum
for a 4-gon (:func:`constraint_rows`), x (I - rho(s_ab)) in the blocks of
:mod:`gkmhess.isotypic`.

Coordinates are monomial-major, the vertices reversed within each
monomial: the coefficient of the mi-th degree-k monomial (graded lex,
:func:`monomials`) at the vi-th of V vertices is coordinate
mi * V + (V - 1 - vi).  Constraint rows, kernel bases, coordinate
permutations, relabellings and the map matrices of the full-kernel test
oracle all use this order.  The echelon pivots on the smallest column of
each row, so the order is also the elimination order: on the n = 4
kernels monomial-major eliminates two to three times faster than
vertex-major, and reversing the vertices cut the ten n = 4 kind-C
blow-ups from 21-28 s to 15-17 s (2-CPU VM); it did not speed up the
blocks of :mod:`gkmhess.isotypic`, which keep their own order.

From the graded dimensions the Hilbert numerator (the dimension series
times (1-q)^n) recovers the ordinary Betti numbers; degree top_degree + 1
is ranked modulo the diagonal (:func:`solve_graph`).  The graded
character of a solved space is read on the direct quotient H^k_T / I_k,
I_k = sum_i t_i H^{k-1}_T, alone (:func:`direct_quotients`), in a pass
that also certifies the action (:func:`graded_character`).  Traces read
elsewhere (the irreducible blocks of a twin, or side y for side x)
become a character by series division in integers.  The CLI makes
every plain character that way, from blocks, and solves no full kernel;
the solve and the direct quotient stay as the independent oracle of the
benchmark and the tests, which also cross-checks traces given for a
solved space.

Side x is never solved where side y is at hand: the relabelling P of
:func:`relabelling`, certified once per graph pair and the actions once
per (n, k) (:func:`certify_relabelling`), carries the Y kernel and the
dagger action onto the X kernel and the dot action, so the X dimensions
and dot traces are the Y dimensions and dagger traces
(:func:`gkmhess.maps.plain_side`).  Nothing here keeps a solved space
between calls, and nothing is kept on disk: a graph keeps its vertex
index and vertex maps, and :func:`gkmhess.maps.plain_twin` the twin
blocks a command reads, for that command.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import itemgetter
from typing import Iterator

from gkmhess.graphs import (
    LabeledGraph, SignedBlowupGraph, all_perms, class_representative,
    generators, inverse, plain, swap_positions)
from gkmhess.linalg import (
    Echelon, IntRow, Kernel, SubspaceBasis, rank_of_int_rows, _restrict,
    column_adjacency, first_violated_row)
from gkmhess.symfunc import (
    GradedSymmetricFunction, Partition, frobenius_in_m, partitions_of)


Groups = tuple[tuple[tuple[int, int], ...], ...]   # of (mi, coefficient)


class NotFree(ValueError):
    """Hilbert numerator has a negative coefficient."""


class Truncated(ValueError):
    """Hilbert numerator fails to vanish beyond the expected top degree."""


class DimensionMismatch(ValueError):
    """Direct quotient dimension disagrees with the Hilbert numerator."""


class CrossCheckFailed(ValueError):
    """Series-division characters disagree with the direct quotient."""


class NoDirectQuotient(ValueError):
    """A character is asked of the direct quotient of a space that has
    none, such as the irreducible blocks of a twin."""


class MembershipFailed(ValueError):
    """A would-be class violates an edge or quad congruence."""


class NotInvariant(ValueError):
    """The group action does not preserve the solution space."""


class RelabelFailed(ValueError):
    """Side x is not the certified relabelling of side y."""


@lru_cache(maxsize=None)
def monomials(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Degree-k exponent tuples in n variables, graded lex, t_1 largest."""
    def rec(rem: int, slots: int):
        if slots == 1:
            yield (rem,)
            return
        for e in range(rem, -1, -1):
            for rest in rec(rem - e, slots - 1):
                yield (e,) + rest

    return tuple(rec(k, n))


def _times_t(e: tuple, i: int) -> tuple:
    """The exponent vector of t_i times the monomial with exponents e."""
    return e[:i - 1] + (e[i - 1] + 1,) + e[i:]


@lru_cache(maxsize=None)
def monomial_index(n: int, k: int) -> dict:
    return {m: i for i, m in enumerate(monomials(n, k))}


def group_edges(mons, a: int, b: int) -> Groups:
    """Divisibility by t_a - t_b on the monomials mons (exponent tuples),
    as groups of (monomial index, coefficient 1) with one image under
    t_a -> t_b, the groups in the order of their images."""
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for mi, mon in enumerate(mons):
        ee = list(mon)
        ee[b - 1] += ee[a - 1]
        ee[a - 1] = 0
        groups.setdefault(tuple(ee), []).append((mi, 1))
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def group_derivatives(mons, a: int, b: int) -> Groups:
    """(d/dt_a - d/dt_b) at t_a = t_b on the monomials mons, as groups of
    (monomial index, coefficient) with one image, the groups in the order
    of their images.  The image of t^e is (e_a - e_b) times t^e with
    t_a^{e_a} t_b^{e_b} replaced by t_b^{e_a + e_b - 1}; the same for
    either orientation of the label."""
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for mi, mon in enumerate(mons):
        ea, eb = mon[a - 1], mon[b - 1]
        if ea != eb:
            ee = list(mon)
            ee[a - 1] = 0
            ee[b - 1] += ea - 1
            groups.setdefault(tuple(ee), []).append((mi, ea - eb))
    return tuple(tuple(g) for _, g in sorted(groups.items()))


@lru_cache(maxsize=None)
def edge_groups(n: int, k: int, a: int, b: int) -> Groups:
    """:func:`group_edges` on the degree-k monomials in n variables."""
    return group_edges(monomials(n, k), a, b)


@lru_cache(maxsize=None)
def derivative_groups(n: int, k: int, a: int, b: int) -> Groups:
    """:func:`group_derivatives` on the degree-k monomials in n variables."""
    return group_derivatives(monomials(n, k), a, b)


@lru_cache(maxsize=None)
def reduced_monomials(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Degree-k exponent tuples in t_2..t_n (e_1 = 0), graded lex."""
    if n == 1:
        return ((0,),) if k == 0 else ()
    return tuple((0,) + m for m in monomials(n - 1, k))


@lru_cache(maxsize=None)
def _edge_groups(n: int, k: int, a: int, b: int) -> Groups:
    """Divisibility by t_a - t_b, a < b, at t_1 = 0 on the degree-k
    reduced monomials: :func:`group_edges` for a >= 2; for a = 1,
    divisibility by t_b, one group for each monomial free of t_b."""
    mons = reduced_monomials(n, k)
    if a == 1:
        return tuple(((mi, 1),) for mi, mon in enumerate(mons)
                     if not mon[b - 1])
    return group_edges(mons, a, b)


@lru_cache(maxsize=None)
def _derivative_groups(n: int, k: int, a: int, b: int) -> Groups:
    """(d/dt_a - d/dt_b) at t_a = t_b, a < b, on the degree-k reduced
    monomials.  For a = 1, given :func:`_edge_groups`, divisibility by
    t_b^2: one group for each monomial with e_b = 1."""
    mons = reduced_monomials(n, k)
    if a == 1:
        return tuple(((mi, 1),) for mi, mon in enumerate(mons)
                     if mon[b - 1] == 1)
    return group_derivatives(mons, a, b)


def divisible_rows(groups, cols, width: int) -> list[IntRow]:
    """The rows saying that x . col is divisible by a label, for each col
    (a dict over the width unknowns of a monomial) and each group of
    (monomial index, coefficient) pairs (:func:`group_edges`, or
    :func:`group_derivatives` for the second order): the sum over the
    group of cf * (x . col) at the mi-th monomial vanishes.  Coordinate
    mi * width + c is the coefficient of the mi-th monomial in x_c."""
    rows: list[IntRow] = []
    for col in cols:
        items = tuple(col.items())
        for group in groups:
            row = {}
            for mi, cf in group:
                base = mi * width
                for c, x in items:
                    row[base + c] = cf * x
            rows.append(row)
    return rows


def constraint_rows(graph, k: int, edges=edge_groups,
                    derivatives=derivative_groups) -> list[IntRow]:
    """Integer rows whose kernel is the degree-k equivariant piece, or
    with the reduced groups (:func:`_edge_groups`) that of H' in t_2..t_n."""
    n = graph.n
    nv = len(graph.vertices)
    last = nv - 1   # the vertex vi sits at slot last - vi
    rows: list[IntRow] = []
    for (ui, vi, (a, b)) in graph.edges:
        # f(u) - f(v) vanishes at t_a = t_b: one row per image monomial
        rows += divisible_rows(edges(n, k, a, b),
                               ({last - ui: 1, last - vi: -1},), nv)
    if isinstance(graph, SignedBlowupGraph):
        signs = graph.signs
        for (vs, (a, b)) in graph.quads:
            # the signed sum and its derivative vanish at t_a = t_b
            cols = ({last - vi: signs[vi] for vi in vs},)
            rows += divisible_rows(edges(n, k, a, b), cols, nv)
            rows += divisible_rows(derivatives(n, k, a, b), cols, nv)
    return rows


class GradedSolutionSpace:
    """Degreewise kernel bases of the equivariant cohomology; ranked holds
    the dimensions of the degrees ranked instead, and adjacency the column
    adjacency of each solved degree's rows until it is read once."""

    def __init__(self, graph, max_degree: int,
                 bases: dict[int, Kernel | SubspaceBasis],
                 ranked: dict[int, int] | None = None,
                 adjacency: dict[int, dict] | None = None):
        self.graph, self.max_degree, self.bases = graph, max_degree, bases
        self.ranked = {} if ranked is None else ranked
        self.adjacency = {} if adjacency is None else adjacency

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return self.bases[k].dim if k in self.bases else self.ranked[k]

    @property
    def n(self) -> int:
        return self.graph.n


def solve_graph(graph, max_degree: int | None = None) -> GradedSolutionSpace:
    """Solve every degree k <= max_degree as a :class:`Kernel` of its
    constraint rows, whose columns are made on demand, and keep the rows'
    column adjacency for :func:`direct_quotients`.  By default max_degree
    is top_degree + 1, read only by the Truncated check of
    :func:`hilbert_numerator`, and only ranked: H = H' (x) Q[sigma] (the
    lemma of :mod:`gkmhess.isotypic`), so its dimension is dim H^top plus
    the corank of the rows of H' in t_2..t_n."""
    rank_top = max_degree is None
    space = GradedSolutionSpace(
        graph, graph.top_degree + 1 if rank_top else max_degree, {})
    nv = len(graph.vertices)
    for k in range(space.max_degree + 1):
        if rank_top and k == space.max_degree:
            rows = constraint_rows(graph, k, _edge_groups, _derivative_groups)
            space.ranked[k] = space.dim(k - 1) + nv * len(
                reduced_monomials(graph.n, k)) - rank_of_int_rows(rows)
        else:
            rows = constraint_rows(graph, k)
            space.bases[k] = Kernel(rows, nv * len(monomials(graph.n, k)))
            space.adjacency[k] = column_adjacency(rows)
    return space


# ---------------------------------------------------------------------------
# Hilbert numerator and the direct quotient

def hilbert_numerator(space: GradedSolutionSpace) -> list[int]:
    """Dimension series times (1-q)^n, validated.  It reads only the
    space's graph, max_degree, n and dim, so a solved space and the
    irreducible blocks of a twin (:class:`gkmhess.isotypic.TwinBlocks`)
    serve alike.

    Coefficients b_k for k = 0..top_degree; NotFree on a negative entry,
    Truncated if the numerator fails to vanish on (top_degree, max_degree].
    """
    n = space.n
    top = space.graph.top_degree
    if space.max_degree < top + 1:
        raise Truncated(
            f"need degrees through {top + 1}, solved only {space.max_degree}")
    out = []
    for k in range(space.max_degree + 1):
        b = sum((-1) ** j * comb(n, j) * space.dim(k - j)
                for j in range(min(n, k) + 1))
        if b < 0:
            raise NotFree(f"numerator coefficient b_{k} = {b} < 0")
        out.append(b)
    for k in range(top + 1, space.max_degree + 1):
        if out[k]:
            raise Truncated(
                f"numerator does not vanish at degree {k}: b = {out[k]}")
    return out[:top + 1]


@lru_cache(maxsize=None)
def _shift_exp_index(n: int, k: int, i: int) -> tuple[int, ...]:
    """Map degree-(k-1) monomial index to the index of its t_i multiple."""
    dst = monomial_index(n, k)
    return tuple(dst[_times_t(mon, i)] for mon in monomials(n, k - 1))


@lru_cache(maxsize=None)
def _shift_fault(n: int, k: int, label, second: bool,
                 tables) -> str | None:
    """Why the t_i tables (tables[i - 1], degree k - 1 to k) fail to
    certify t_i H^{k-1}_T <= H^k_T on the conditions of label, or None:
    its edge groups, and its derivative groups too for a 4-gon (second).

    An injective table moves the degree-(k-1) monomial m at each vertex
    to table[m], linearly.  A degree-k group g at a vertex combination
    col, which is the same in every degree, then reads on t_i f what the
    pulled-back group {m: g[table[m]]} at col reads on f, and that is 0
    when the pulled-back group lies in the span of the degree-(k-1)
    groups.  The cache is keyed on the tables themselves.
    """
    kinds = (edge_groups, derivative_groups)[:1 + second]
    span = Echelon.of([dict(g) for kind in kinds
                       for g in kind(n, k - 1, *label)])
    for i, table in enumerate(tables, start=1):
        inverse = {mi: m for m, mi in enumerate(table)}
        if len(inverse) < len(table):
            return f"the t_{i} table is not injective"
        if any(span.reduce({inverse[mi]: cf for mi, cf in g
                            if mi in inverse})
               for kind in kinds for g in kind(n, k, *label)):
            return (f"the t_{i} table does not carry the conditions of the "
                    f"label {label}")
    return None


def direct_quotients(space: GradedSolutionSpace, top: int,
                     expected: dict[int, int] | None = None
                     ) -> Iterator[tuple[Echelon, list[tuple[int, IntRow]],
                                         dict]]:
    """H^k_T / I_k, I_k = sum_i t_i H^{k-1}_T, for k = 0, ..., top, as
    (image, reps, adj) on the free coordinates F (unit rows) of the
    kernel basis, which determine a vector of H^k_T: image is the reduced
    echelon of I_k on F, reps the (f, column) of the basis at the f that
    are not image pivots, so H^k_T = I_k + span(reps), and adj the column
    adjacency of the degree-k rows, the one the solve kept if any.  Only
    the reps' columns are made.  DimensionMismatch if :func:`_shift_fault`
    fails, or len(reps) != expected[k] where given.

    I_{k+1} is spanned by m r over the reps r of each degree j <= k and
    the monomials m of degree k + 1 - j, each m made once as
    t_{i_1} ... t_{i_d}, i_1 >= ... >= i_d; the t-multiples of all of
    H^k_T would repeat most of them.
    """
    graph, n = space.graph, space.n
    nv = len(graph.vertices)
    labels = {(label, False) for *_, label in graph.edges} | {
        (label, True) for _, label in getattr(graph, "quads", ())}
    gens: list[tuple[IntRow, int]] = []   # (m r, i_d) spanning I_k
    reps: list[tuple[int, IntRow]] = []
    for k in range(top + 1):
        tables = tuple(_shift_exp_index(n, k, i) for i in range(1, n + 1)
                       ) if k else ()
        for label, second in sorted(labels) if k else ():
            reason = _shift_fault(n, k, label, second, tables)
            if reason:
                raise DimensionMismatch(f"image escapes the solution space "
                                        f"at degree {k}: {reason}")
        gens = [({table[c // nv] * nv + c % nv: v for c, v in g.items()}, i)
                for g, last in gens + [(r, n) for _, r in reps]
                for i in range(1, last + 1)
                for table in [tables[i - 1]]]
        basis = space.bases[k]
        image = Echelon.of(_restrict([g for g, _ in gens],
                                     set(basis.unit_rows)))
        image.back_substitute()
        reps = [(f, basis.column(f)) for f in basis.unit_rows
                if f not in image.pivots]
        if expected and k in expected and len(reps) != expected[k]:
            raise DimensionMismatch(
                f"direct quotient dim {len(reps)} != numerator coefficient "
                f"{expected[k]} at degree {k}")
        yield image, reps, space.adjacency.pop(k, None) or column_adjacency(
            constraint_rows(graph, k))


# ---------------------------------------------------------------------------
# group actions, traces, characters

@lru_cache(maxsize=None)
def _perm_monomial_table(n: int, k: int, sigma) -> tuple[int, ...]:
    """Monomial index -> index of the monomial with t_i renamed t_sigma(i):
    its exponent of t_j is that of t_sigma^-1(j)."""
    idx = monomial_index(n, k)
    # a one-argument itemgetter returns the item, not a 1-tuple
    renamed = itemgetter(*(i - 1 for i in inverse(sigma))) if n > 1 else tuple
    return tuple(idx[renamed(mon)] for mon in monomials(n, k))


def coordinate_perm(graph, k: int, sigma, action_kind: str) -> list[int]:
    """The permutation pi of (monomial, vertex) coordinates for sigma, as
    an array: coordinate c of a class f contributes to coordinate pi[c] of
    sigma acting on f.  Dot: vertex w -> sigma w and variables
    t_i -> t_sigma(i); dagger: vertices only."""
    mons, slots = _coordinate_tables(graph, k, sigma, action_kind)
    return [mj * len(slots) + s for mj in mons for s in slots]


def _coordinate_tables(graph, k: int, sigma, action_kind: str):
    """(mons, slots): :func:`coordinate_perm` sends mi * V + s to
    mons[mi] * V + slots[s].  The vertex part is the graph's own
    :meth:`~gkmhess.graphs.LabeledGraph.vertex_map`."""
    vmap = graph.vertex_map(sigma)
    return _monomial_action(graph.n, k, sigma, action_kind), [
        len(vmap) - 1 - vj for vj in reversed(vmap)]


def _monomial_action(n: int, k: int, sigma, action_kind: str):
    """The monomial part of :func:`coordinate_perm`: the variables renamed
    by sigma (dot) or left alone (dagger)."""
    if action_kind == "dot":
        return _perm_monomial_table(n, k, sigma)
    if action_kind == "dagger":
        return range(len(monomials(n, k)))
    raise ValueError(f"unknown action kind {action_kind!r}")


class GradedCharacter:
    """Ordinary graded character: (cycle type, q degree) -> value."""

    def __init__(self, n: int,
                 values: dict[tuple[Partition, int], int | Fraction]):
        self.n, self.values = n, values

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def value(self, lam: Partition, k: int) -> int | Fraction:
        return self.values.get((tuple(lam), k), 0)

    def dims(self) -> list[int]:
        return [int(self.value((1,) * self.n, k))
                for k in range(self.max_q() + 1)]

    def max_q(self) -> int:
        return max((k for (_, k) in self.values), default=-1)

    def to_json(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for lam in partitions_of(self.n):
            key = "[" + ",".join(map(str, lam)) + "]"
            row = {}
            for k in range(self.max_q() + 1):
                v = self.value(lam, k)
                if v:
                    row[str(k)] = str(v)
            out[key] = row
        return {"n": self.n, "values": out}


def _ambient_factor(lam: Partition) -> list[int]:
    """Coefficients of the product over parts c of lam of (1 - q^c).

    This inverts the ambient Hilbert series: the dot action takes lam as
    the cycle type, the dagger action takes lam = 1^n, giving (1 - q)^n.
    """
    coeffs = [1]
    for c in lam:
        new = [0] * (len(coeffs) + c)
        for i, v in enumerate(coeffs):
            new[i] += v
            new[i + c] -= v
        coeffs = new
    return coeffs


def graded_character(space: GradedSolutionSpace, action_kind: str,
                     cross_check: bool | None = None,
                     traces: dict[Partition, list[int]] | None = None
                     ) -> GradedCharacter:
    """Ordinary graded character of space under the action.

    Without traces it is read on the direct quotient H^k_T / I_k,
    I_k = sum_i t_i H^{k-1}_T (:func:`_cross_check_direct`), and
    cross_check has nothing to add.  By induction on k, S_n preserves
    H^k_T and I_k once it preserves H^{k-1}_T (I_0 = 0):

    - :func:`_shift_fault` gives t_i H^{k-1}_T <= H^k_T, so I_k <= H^k_T
      and H^k_T = I_k + span(reps) (:func:`direct_quotients`);
    - for each generator sigma of S_n, (1 2) and the n-cycle,
      :func:`_image_fault` gives sigma I_k <= I_k, and the membership
      check of :func:`_quotient_trace` sigma r in H^k_T for each rep r.

    As they generate S_n, every sigma preserves H^k_T and I_k, and the
    trace read on the reps is the trace on H^k_T / I_k.  The generators
    are class representatives, checked in the pass that reads their
    traces; the other classes are read unchecked, the identity as
    len(reps).  The quotient dimensions are the numerator coefficients
    (DimensionMismatch otherwise).

    traces, if given, are the traces of the class representatives on the
    equivariant pieces H^k_T, read from the irreducible blocks of a twin
    graph and, for side x, carried over by the certified relabelling
    (:func:`gkmhess.maps.plain_side`); the blocks
    (:class:`gkmhess.isotypic.TwinBlocks`) can stand for space itself.
    The character is then their series division by the ambient factor,
    in integers for the block traces, and cross_check (by default,
    whenever space is a solved GradedSolutionSpace, the only space with a
    direct quotient) compares it with the direct quotient; a disagreement
    raises CrossCheckFailed.  Any other space, without traces or with
    cross_check, raises NoDirectQuotient.
    """
    solved = isinstance(space, GradedSolutionSpace)
    if cross_check is None:
        cross_check = solved
    if not solved and (traces is None or cross_check):
        raise NoDirectQuotient(
            f"a {type(space).__name__} has no direct quotient; give its "
            f"traces, without cross_check")
    numer = hilbert_numerator(space)
    if traces is None:
        return _cross_check_direct(space, action_kind, numer)
    n = space.n
    top = space.graph.top_degree
    one = (1,) * n
    values: dict[tuple[Partition, int], int] = {}
    for lam in partitions_of(n):
        factor = _ambient_factor(lam if action_kind == "dot" else one)
        for k in range(space.max_degree + 1):
            v = sum(factor[j] * traces[lam][k - j]
                    for j in range(min(k, len(factor) - 1) + 1))
            if k <= top:
                if v:
                    values[(lam, k)] = v
            elif v:
                raise CrossCheckFailed(
                    f"character series at {lam} does not terminate "
                    f"(degree {k}: {v})")
    for k, b in enumerate(numer):
        if values.get((one, k), 0) != b:
            raise CrossCheckFailed(
                f"identity character {values.get((one, k))} != Betti {b} "
                f"at degree {k}")
    char = GradedCharacter(n, values)
    if cross_check:
        _cross_check_direct(space, action_kind, numer, char)
    return char


def _cross_check_direct(space: GradedSolutionSpace, action_kind: str,
                        numer: list[int],
                        series: GradedCharacter | None = None
                        ) -> GradedCharacter:
    """The graded character read on the direct quotient, degree by degree
    (see :func:`graded_character`), with numer the Hilbert numerator.
    NotInvariant where :func:`_image_fault` or :func:`_quotient_trace`
    fails to certify a generator of S_n, and CrossCheckFailed at the first
    value that differs from series, where that is given.
    """
    n = space.n
    one = (1,) * n
    values: dict[tuple[Partition, int], Fraction] = {}
    quotients = direct_quotients(space, space.graph.top_degree,
                                 dict(enumerate(numer)))
    for k, (image, reps, adj) in enumerate(quotients):
        for lam in partitions_of(n):
            sigma = class_representative(lam)
            checked = sigma in generators(n)   # (1 2) and the n-cycle
            if checked and _image_fault(n, k, sigma, action_kind):
                raise NotInvariant(
                    f"{action_kind} action by {sigma} does not intertwine "
                    f"t-multiplication into degree {k}")
            direct = Fraction(len(reps)) if lam == one else _quotient_trace(
                space, k, image, reps, adj if checked else None, sigma,
                action_kind)
            if series is not None and direct != series.value(lam, k):
                raise CrossCheckFailed(
                    f"degree {k}, type {lam}: direct {direct} != "
                    f"series {series.value(lam, k)}")
            if direct:
                values[(lam, k)] = direct
    return GradedCharacter(n, values)


@lru_cache(maxsize=None)
def _image_fault(n: int, k: int, sigma, action_kind: str) -> bool:
    """Whether the monomial tables fail to certify sigma.I_k <= I_k.

    Lemma: let T_k be the monomial part of the action of sigma in degree
    k (:func:`_monomial_action`) and S_i the multiplication by t_i
    (:func:`_shift_exp_index`).  If T_k S_i = S_{tau(i)} T_{k-1} for every
    i, with tau = sigma for the dot action and the identity for the
    dagger action, then sigma (t_i f) = t_{tau(i)} (sigma f) for every f
    of degree k - 1, as the vertex part of the action is the same in
    every degree.  So sigma I_k = sum_i t_{tau(i)} sigma H^{k-1} lies in
    I_k = sum_i t_i H^{k-1} once H^{k-1} is invariant.
    """
    if k == 0:
        return False
    tk = _monomial_action(n, k, sigma, action_kind)
    tk1 = _monomial_action(n, k - 1, sigma, action_kind)
    tau = sigma if action_kind == "dot" else range(1, n + 1)
    return any(tk[a] != _shift_exp_index(n, k, j)[tk1[m]]
               for i, j in enumerate(tau, start=1)
               for m, a in enumerate(_shift_exp_index(n, k, i)))


def _quotient_trace(space: GradedSolutionSpace, k: int, image: Echelon,
                    reps: list[tuple[int, IntRow]], adj, sigma,
                    action_kind: str) -> Fraction:
    """Trace of sigma on H^k_T / I_k, read on the reps (f, r) of
    :func:`direct_quotients`, given that sigma preserves I_k.

    Each r is moved on its support (:func:`_coordinate_tables`).  Unless
    adj is None, each sigma r must satisfy the rows adj, that is lie in
    H^k_T (NotInvariant otherwise), so it is in I_k plus a combination of
    the reps; its coordinate along r is its remainder at f over r[f],
    summed in integers over the pivot entries' lcm.
    """
    mons, slots = _coordinate_tables(space.graph, k, sigma, action_kind)
    nv = len(slots)
    scale = lcm(*(r[c] for c, r in image.rows))
    den = lcm(*(col[f] for f, col in reps))
    total = 0
    for f, col in reps:
        moved = {mons[c // nv] * nv + slots[c % nv]: v
                 for c, v in col.items()}
        if adj is not None and first_violated_row(adj, moved) is not None:
            raise NotInvariant(
                f"{action_kind} action by {sigma} moves a degree-{k} "
                f"quotient representative off H^k_T")
        total += image.remainder_at(moved, f, scale) * (den // col[f])
    return Fraction(total, scale * den)


def frobenius_of_character(char: GradedCharacter) -> GradedSymmetricFunction:
    """Frobenius characteristic of a graded character, m basis, through s
    in the values' own arithmetic (:func:`gkmhess.symfunc.frobenius_in_m`)."""
    return GradedSymmetricFunction(char.n, {k: frobenius_in_m(char.n, {
        lam: v for (lam, j), v in char.values.items() if j == k})
        for k in range(char.max_q() + 1)})


def frobenius_series(space: GradedSolutionSpace, action_kind: str
                     ) -> GradedSymmetricFunction:
    """Frobenius characteristic of the ordinary graded character, m basis."""
    return frobenius_of_character(graded_character(space, action_kind))


# ---------------------------------------------------------------------------
# side x as the certified relabelling of side y

def relabelling(graph, k: int) -> list[int]:
    """The relabelling P in degree k as an array: the coordinate of the
    mi-th monomial at vertex v goes to that of w.mi at v, where w is the
    permutation of v and w.mi renames each t_i to t_w(i).

    A class g of the side-y graph gives the side-x class f = P g, that is
    f(v) = w.g(v); P carries the Y kernel onto the X kernel and the
    dagger action onto the dot action, as :func:`certify_relabelling`
    proves (:func:`_graph_fault`, :func:`_action_fault`).
    """
    nv = len(graph.vertices)
    out = [0] * (nv * len(monomials(graph.n, k)))
    for s, v in enumerate(reversed(graph.vertices)):
        for mi, mj in enumerate(_perm_monomial_table(graph.n, k, v.perm)):
            out[mi * nv + s] = mj * nv + s
    return out


def _graph_fault(graph_y, graph_x) -> str | None:
    """Why P (:func:`relabelling`) fails to carry the Y kernel onto the X
    kernel in some degree, or None.  P sends a Y class g to the X class f
    with f(v) = w.g(v), w the permutation of v.

    (V) The two vertex tuples are equal.
    (E) The (u, v) pairs of the two edge lists are the same set, with no
    repeats.  For each Y edge {u, v} labelled L = (a, b), with w the
    permutation of u, that of v is w or w (a b), and the X edge {u, v} is
    labelled (w(a), w(b)), sorted.  Then f(u) - f(v) = w.(g(u) - s.g(v))
    with s = 1 or (a b), and s.g = g mod t_a - t_b, so each X edge
    condition holds exactly when the Y one does.
    (Q) Both quad lists have the same vertex tuples, in the same order.
    For each Y 4-gon (vs, L = (a, b)), with w the permutation of vs[0]:
    the X label is (w(a), w(b)), sorted; each permutation in vs is w
    (chi = 1) or w (a b) (chi = -1); sign_x sign_y chi is the same at
    every vertex; and the two chi = -1 vertices have opposite X signs and
    are joined by a Y edge labelled L.  Given (E), their signed sum A is
    divisible by t_a - t_b, so (a b).A = -A mod L^2, and the X 4-gon sum
    is +-w.(the Y 4-gon sum) mod w(L)^2.

    :func:`constraint_rows` encodes these conditions for any graph, so
    (V), (E) and (Q) make P carry the Y kernel onto the X kernel in every
    degree.
    """
    n, verts = graph_y.n, graph_y.vertices
    if graph_x.n != n or graph_x.vertices != verts:
        return "the two sides have different vertices"
    edges_y = {(u, v): label for u, v, label in graph_y.edges}
    edges_x = {(u, v): label for u, v, label in graph_x.edges}
    pairs = edges_y.keys() | edges_x.keys()
    if len(edges_y) < len(graph_y.edges) or len(edges_x) < len(graph_x.edges) \
            or not all(0 <= u < v < len(verts) for u, v in pairs):
        return "an edge is repeated or off the vertices"
    one_sided = sorted(edges_y.keys() ^ edges_x.keys())
    if one_sided:
        u, v = one_sided[0]
        return f"the edge {verts[u]} -- {verts[v]} is on one side only"
    for (u, v), (a, b) in edges_y.items():
        w = verts[u].perm
        edge = f"{verts[u]} -- {verts[v]}"
        if not 1 <= a < b <= n \
                or verts[v].perm not in (w, swap_positions(w, a, b)):
            return f"the y edge {edge} is not along its label {(a, b)}"
        expected = tuple(sorted((w[a - 1], w[b - 1])))
        if edges_x[u, v] != expected:
            return (f"the x edge {edge} is labelled {edges_x[u, v]}, not "
                    f"{expected}")
    quads_y = getattr(graph_y, "quads", ())
    quads_x = getattr(graph_x, "quads", ())
    if len(quads_y) != len(quads_x):
        return f"side y has {len(quads_y)} 4-gons, side x {len(quads_x)}"
    for (vs, (a, b)), (vs_x, label_x) in zip(quads_y, quads_x):
        if vs_x != vs or not 1 <= a < b <= n \
                or not all(0 <= i < len(verts) for i in vs):
            return (f"the y 4-gon {vs} is not the x 4-gon {vs_x}, or is "
                    f"off the vertices")
        quad = "4-gon " + " ".join(str(verts[i]) for i in vs)
        w = verts[vs[0]].perm
        chi = {w: 1, swap_positions(w, a, b): -1}
        expected = tuple(sorted((w[a - 1], w[b - 1])))
        if label_x != expected:
            return f"the x {quad} is labelled {label_x}, not {expected}"
        if any(verts[i].perm not in chi for i in vs):
            return f"the {quad} has a vertex off w and w {(a, b)}"
        if {graph_x.signs[i] * graph_y.signs[i] * chi[verts[i].perm]
                for i in vs} not in ({1}, {-1}):
            return f"the signs of the {quad} do not correspond"
        odd = sorted(i for i in vs if chi[verts[i].perm] == -1)
        if len(odd) != 2 or graph_x.signs[odd[0]] == graph_x.signs[odd[1]] \
                or edges_y.get(tuple(odd)) != (a, b):
            return (f"the chi = -1 pair of the {quad} is not a y edge "
                    f"labelled {(a, b)} with opposite x signs")
    return None


@lru_cache(maxsize=None)
def _action_fault(n: int, k: int):
    """The first generator sigma of S_n whose dot action in degree k is
    not the relabelled dagger action, or None.

    Given (V) of :func:`_graph_fault`, the two actions and P act alike on
    every graph: each sends the coordinate of a monomial at a vertex of
    permutation w to a vertex of the same sheet, sigma w under both
    actions, w under P.  So P pi_dagger = pi_dot P reads, at the mi-th
    monomial at w, T(sigma w)(mi) = T(sigma)(T(w)(mi)), where T is
    :func:`_perm_monomial_table`, and nothing else of the graph.  It is
    checked once per (n, k) on the graph whose vertices are S_n, for the
    generators sigma and every w, through :func:`coordinate_perm` and
    :func:`relabelling` themselves.
    """
    graph = _symmetric_group(n)
    p = relabelling(graph, k)
    for sigma in generators(n):
        pi_x = coordinate_perm(graph, k, sigma, "dot")
        pi_y = coordinate_perm(graph, k, sigma, "dagger")
        if list(map(pi_x.__getitem__, p)) != list(map(p.__getitem__, pi_y)):
            return sigma
    return None


@lru_cache(maxsize=None)
def _symmetric_group(n: int) -> LabeledGraph:
    """The graph whose vertices are S_n, with no edges, whose vertex maps
    the action checks of every degree share."""
    return LabeledGraph(n, tuple(map(plain, all_perms(n))), (), 0)


def certify_relabelling(graph_y, graph_x, name: str,
                        max_degree: int) -> None:
    """Certify that P (:func:`relabelling`) carries the kernel of graph_y
    onto that of graph_x in every degree k <= max_degree, intertwining the
    dagger action with the dot action.

    The graphs are checked once (:func:`_graph_fault`), the actions once
    per (n, k) (:func:`_action_fault`).  RelabelFailed names the graph
    (as name), the degree of an action fault, and the reason.
    """
    reason = _graph_fault(graph_y, graph_x)
    if reason:
        raise RelabelFailed(
            f"relabelling check failed on the {name}: {reason}")
    for k in range(max_degree + 1):
        sigma = _action_fault(graph_x.n, k)
        if sigma is not None:
            raise RelabelFailed(
                f"relabelling check failed on the {name}, degree {k}: "
                f"the dot action by {sigma} is not the relabelled "
                f"dagger action")

