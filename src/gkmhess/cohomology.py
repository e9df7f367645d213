"""Equivariant graph cohomology over exact rationals.

For a labeled graph the degree-k equivariant piece is the space of maps
from vertices to degree-k polynomials in t_1..t_n such that the difference
across every edge is divisible by the edge label; a signed blow-up imposes
one extra condition per 4-gon: the sign-weighted vertex sum must be
divisible by the square of the shared label.  Divisibility by t_a - t_b is
encoded by substituting t_a <- t_b and asking for zero; the squared
condition also asks (d/dt_a - d/dt_b) to vanish at t_a = t_b.  Given the
first condition this is the same as asking it of d/dt_a alone, but the
antisymmetric form does not depend on the orientation of the label, so the
group action permutes these rows like the others (see
:func:`check_action_invariance`).  All give integer linear constraints,
solved degree by degree by the sparse exact kernel in
:mod:`gkmhess.linalg`.

Coordinates are monomial-major everywhere: the coefficient of the mi-th
degree-k monomial (graded lex, :func:`monomials`) at the vi-th vertex of
a graph with V vertices is coordinate mi * V + vi.  Constraint rows,
kernel bases, coordinate permutations and the map matrices of
:mod:`gkmhess.maps` all use this order.  The echelon pivots on the
smallest column of each row, so the order is also the elimination order;
on the n = 4 kernels the monomial-major order eliminates two to three
times faster than the vertex-major one.

From the graded dimensions the Hilbert numerator (the dimension series
times (1-q)^n) recovers the ordinary Betti numbers; symmetric-group
characters are computed as exact traces on the kernel bases and pushed to
ordinary cohomology either by series division (fast path) or through the
direct quotient by (t_1, ..., t_n) (authoritative path); the two are
cross-checked on demand.  Frobenius characteristics of the graded
characters land in the symmetric-function layer.

Side x is never solved where side y is at hand: the relabelling P of
:func:`relabelling` turns every X congruence into the Y congruence and the
dot action into the dagger action, so it carries the Y kernel onto the X
kernel.  :func:`certify_relabelling` checks this once per graph pair, on
its vertices, edges, 4-gons and signs, and the actions once per (n, k);
then the X dimensions and dot traces are the Y dimensions and
dagger traces.  Inside :func:`solve_memo`, :func:`memoized` keeps what
was made of the last few graphs met, the kernels of :func:`solve_graph`
among them; nothing is kept beyond the block, and nothing on disk.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from gkmhess.graphs import (
    LabeledGraph, SignedBlowupGraph, Vertex, all_perms, class_representative,
    compose, generators, inverse, plain, swap_positions)
from gkmhess.linalg import Echelon, IntRow, SubspaceBasis, kernel_of_rows
from gkmhess.symfunc import (
    ClassFunction, GradedSymmetricFunction, Partition, frobenius,
    partitions_of)


class NotFree(ValueError):
    """Hilbert numerator has a negative coefficient."""


class Truncated(ValueError):
    """Hilbert numerator fails to vanish beyond the expected top degree."""


class DimensionMismatch(ValueError):
    """Direct quotient dimension disagrees with the Hilbert numerator."""


class CrossCheckFailed(ValueError):
    """Series-division characters disagree with the direct quotient."""


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


@lru_cache(maxsize=None)
def monomial_index(n: int, k: int) -> dict:
    return {m: i for i, m in enumerate(monomials(n, k))}


def _subst_exp(e: tuple, a: int, b: int) -> tuple:
    ee = list(e)
    ee[b - 1] += ee[a - 1]
    ee[a - 1] = 0
    return tuple(ee)


@lru_cache(maxsize=None)
def edge_groups(n: int, k: int, a: int, b: int) -> tuple[tuple[int, ...], ...]:
    """The indices of the degree-k monomials grouped by their image under
    t_a -> t_b, the groups in the order of their images."""
    groups: dict[tuple, list[int]] = {}
    for mi, mon in enumerate(monomials(n, k)):
        groups.setdefault(_subst_exp(mon, a, b), []).append(mi)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


@lru_cache(maxsize=None)
def derivative_groups(n: int, k: int, a: int, b: int
                      ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(d/dt_a - d/dt_b) at t_a = t_b on the degree-k monomials, as
    groups of (monomial index, coefficient) with one image, the groups in
    the order of their images.  The image of t^e is (e_a - e_b) times
    t^e with t_a^{e_a} t_b^{e_b} replaced by t_b^{e_a + e_b - 1}; the same
    for either orientation of the label."""
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for mi, mon in enumerate(monomials(n, k)):
        ea, eb = mon[a - 1], mon[b - 1]
        if ea != eb:
            ee = list(mon)
            ee[a - 1] = 0
            ee[b - 1] += ea - 1
            groups.setdefault(tuple(ee), []).append((mi, ea - eb))
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def constraint_rows(graph, k: int) -> list[IntRow]:
    """Integer rows whose kernel is the degree-k equivariant piece."""
    n = graph.n
    nv = len(graph.vertices)
    rows: list[IntRow] = []
    for (ui, vi, (a, b)) in graph.edges:
        # f(u) - f(v) vanishes at t_a = t_b: one row per image monomial
        for group in edge_groups(n, k, a, b):
            row = {}
            for mi in group:
                row[mi * nv + ui] = 1
                row[mi * nv + vi] = -1
            rows.append(row)
    if isinstance(graph, SignedBlowupGraph):
        signs = graph.signs
        for (vs, (a, b)) in graph.quads:
            # the signed sum and its derivative vanish at t_a = t_b
            for groups in ([[(mi, 1) for mi in g]
                            for g in edge_groups(n, k, a, b)],
                           derivative_groups(n, k, a, b)):
                for group in groups:
                    row = {}
                    for mi, cf in group:
                        for vi in vs:
                            col = mi * nv + vi
                            row[col] = row.get(col, 0) + cf * signs[vi]
                    row = {c: v for c, v in row.items() if v}
                    if row:
                        rows.append(row)
    return rows


def equivariant_piece(graph, k: int) -> SubspaceBasis:
    """Kernel basis of the degree-k congruence system."""
    return kernel_of_rows(constraint_rows(graph, k),
                          len(graph.vertices) * len(monomials(graph.n, k)))


@dataclass
class GradedSolutionSpace:
    """Degreewise kernel bases of the equivariant cohomology, plus the
    constraint rows they solve (kept for invariance checks)."""

    graph: object
    max_degree: int
    bases: dict[int, SubspaceBasis]
    rows: dict[int, list[IntRow]]

    def dim(self, k: int) -> int:
        if k < 0:
            return 0
        return self.bases[k].dim

    @property
    def n(self) -> int:
        return self.graph.n


# The last MEMO_GRAPHS graphs met inside the current solve_memo() block,
# most recently used last, as content key -> {name: what memoized(graph,
# name, ...) made}; None outside a block.  Enough for the five graphs of
# one triple and one more, so that a sweep holds a bounded number.
MEMO_GRAPHS = 6
_memo: OrderedDict[str, dict] | None = None


@contextmanager
def solve_memo():
    """Within the block, :func:`memoized` makes each result of a graph (by
    content) once, so solve_graph solves each degree once: it keeps the
    last MEMO_GRAPHS graphs.  The memo belongs to the outermost block and
    is dropped when it ends, so nothing carries over to a later block; the
    CLI runs each command in one.  Outside, nothing is kept."""
    global _memo
    if _memo is not None:   # nested: the outer block's memo
        yield
        return
    _memo = OrderedDict()
    try:
        yield
    finally:
        _memo = None


def memoized(graph, name: str, make):
    """make(graph), made once per graph and name inside a
    :func:`solve_memo` block."""
    if _memo is None:
        return make(graph)
    key = graph.content_key()
    entry = _memo[key] = _memo.pop(key, {})
    while len(_memo) > MEMO_GRAPHS:
        _memo.popitem(last=False)
    if name not in entry:
        entry[name] = make(graph)
    return entry[name]


def solve_graph(graph, max_degree: int | None = None) -> GradedSolutionSpace:
    """Solve every degree k <= max_degree (default top_degree + 1).

    Each degree comes from the memo (inside :func:`solve_memo`), else from
    the kernel of its rows.
    """
    if max_degree is None:
        max_degree = graph.top_degree + 1
    # bases and rows by degree, filled in below
    bases, rows = memoized(graph, "solve_graph", lambda g: ({}, {}))
    nverts = len(graph.vertices)
    for k in range(max_degree + 1):
        if k in bases:
            continue
        rows[k] = constraint_rows(graph, k)
        bases[k] = kernel_of_rows(rows[k],
                                  nverts * len(monomials(graph.n, k)))
    degrees = range(max_degree + 1)
    return GradedSolutionSpace(graph, max_degree,
                               {k: bases[k] for k in degrees},
                               {k: rows[k] for k in degrees})


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


def _shift_exp_index(n: int, k: int, i: int):
    """Map degree-(k-1) monomial index to the index of its t_i multiple."""
    src = monomials(n, k - 1)
    dst = monomial_index(n, k)
    table = []
    for mon in src:
        ee = list(mon)
        ee[i - 1] += 1
        table.append(dst[tuple(ee)])
    return table


def _image_columns(space: GradedSolutionSpace, k: int) -> list[IntRow]:
    """Columns spanning sum_i t_i H^{k-1} inside the degree-k coordinates."""
    n = space.n
    if k == 0:
        return []
    nv = len(space.graph.vertices)
    cols = []
    for i in range(1, n + 1):
        table = _shift_exp_index(n, k, i)
        for col in space.bases[k - 1].columns:
            cols.append({table[c // nv] * nv + c % nv: v
                         for c, v in col.items()})
    return cols


def _ordinary_piece_with_image(space: GradedSolutionSpace, k: int,
                               expected: int | None = None):
    """Quotient representatives and the back-substituted echelon of the
    image of t-multiplication.

    The representatives are the basis columns that raise the rank over the
    image and the columns before them, in basis order.
    """
    image = Echelon.of(_image_columns(space, k))
    image.back_substitute()
    span = image.copy()
    basis = space.bases[k]
    reps = [col for col in basis.columns if span.insert(col)]
    dim_q = space.dim(k) - image.rank
    if len(reps) != dim_q:
        raise DimensionMismatch("image escapes the solution space")
    if expected is not None and dim_q != expected:
        raise DimensionMismatch(
            f"direct quotient dim {dim_q} != numerator coefficient {expected} "
            f"at degree {k}")
    return SubspaceBasis(basis.ambient_dim, reps), image


def ordinary_piece_direct(space: GradedSolutionSpace, k: int,
                          expected: int | None = None) -> SubspaceBasis:
    """Representatives of H^k_T / sum_i t_i H^{k-1}_T.

    When ``expected`` is given (the Hilbert-numerator coefficient), a
    mismatch raises DimensionMismatch; the direct computation is the
    authoritative value.
    """
    basis, _ = _ordinary_piece_with_image(space, k, expected)
    return basis


# ---------------------------------------------------------------------------
# group actions, traces, characters

@lru_cache(maxsize=None)
def _perm_monomial_table(n: int, k: int, sigma) -> tuple[int, ...]:
    """Monomial index -> index of the monomial with t_i renamed t_sigma(i)."""
    idx = monomial_index(n, k)
    table = []
    for mon in monomials(n, k):
        ee = [0] * n
        for i, e in enumerate(mon):
            ee[sigma[i] - 1] = e
        table.append(idx[tuple(ee)])
    return tuple(table)


def coordinate_perm(graph, k: int, sigma, action_kind: str) -> list[int]:
    """The permutation pi of (monomial, vertex) coordinates for sigma.

    Dot: vertex w -> sigma w and variables t_i -> t_sigma(i); dagger:
    vertices only.  Returns pi as an array: coordinate c of a class f
    contributes to coordinate pi[c] of sigma acting on f.
    """
    n = graph.n
    mons = monomials(n, k)
    m = len(mons)
    vidx = graph.vertex_index()
    vmap = [vidx[Vertex(v.circle, compose(sigma, v.perm))]
            for v in graph.vertices]
    if action_kind == "dot":
        mtable = _perm_monomial_table(n, k, sigma)
    elif action_kind == "dagger":
        mtable = list(range(m))
    else:
        raise ValueError(f"unknown action kind {action_kind!r}")
    nv = len(graph.vertices)
    out = []
    for mi in range(m):
        base_dst = mtable[mi] * nv
        out.extend(base_dst + vmap[vi] for vi in range(nv))
    return out


def column_adjacency(rows: list[IntRow]):
    """Column -> [(row index, coefficient)] of a row system."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for ri, row in enumerate(rows):
        for c, v in row.items():
            adj.setdefault(c, []).append((ri, v))
    return adj


def first_violated_row(adj, col: dict) -> int | None:
    """Smallest index of a row (given by its column adjacency) that does
    not annihilate the integer vector col, or None."""
    residual: dict = {}
    for c, v in col.items():
        for ri, cf in adj.get(c, ()):
            nv = residual.get(ri, 0) + cf * v
            if nv:
                residual[ri] = nv
            else:
                residual.pop(ri, None)
    return min(residual) if residual else None


def _row_key(items) -> tuple:
    """A row as its sorted (column, value) pairs, up to sign: the entry at
    the smallest column is made positive."""
    key = sorted(items)
    if key and key[0][1] < 0:
        return tuple((c, -v) for c, v in key)
    return tuple(key)


def check_action_invariance(space: GradedSolutionSpace, k: int,
                            action_kind: str) -> None:
    """Verify that the generators of S_n map the degree-k piece into
    itself; NotInvariant otherwise.

    Generators suffice: the action is a group homomorphism.  Each generator
    is checked on the constraint rows: if its coordinate permutation pi
    maps every row onto a row of the system up to sign, then
    r.(P x) = +-r'.x = 0 for every kernel vector x, so the kernel is
    invariant.  The test is sufficient, not necessary, so a generator that
    fails it is reported as NotInvariant even if the kernel happens to be
    invariant.  The action permutes edges and quads, and no row depends on
    the orientation of its label (the first-order quad rows are
    antisymmetric for that reason), so this passes on every graph built
    here.
    """
    rows = space.rows[k]
    keys = {_row_key(r.items()) for r in rows}
    for sigma in generators(space.n):
        pi = coordinate_perm(space.graph, k, sigma, action_kind)
        if not all(_row_key((pi[c], v) for c, v in r.items()) in keys
                   for r in rows):
            raise NotInvariant(
                f"{action_kind} action by {sigma} does not permute the "
                f"degree-{k} constraint rows")


def equivariant_trace(space: GradedSolutionSpace, k: int, sigma,
                      action_kind: str) -> Fraction:
    """Trace of sigma on the degree-k piece (assumes invariance checked).

    The kernel basis has unit rows, so the coordinate of a kernel element
    along basis column i is its value at unit row u_i over column i's own
    value there; the trace sums that coordinate of each permuted column.
    """
    basis = space.bases[k]
    pinv = coordinate_perm(space.graph, k, inverse(sigma), action_kind)
    total = Fraction(0)
    for u, col in zip(basis.unit_rows, basis.columns):
        v = col.get(pinv[u])
        if v:
            total += Fraction(v, col[u])
    return total


@dataclass
class GradedCharacter:
    """Ordinary graded character: (cycle type, q degree) -> value."""

    n: int
    values: dict[tuple[Partition, int], Fraction]

    def value(self, lam: Partition, k: int) -> Fraction:
        return self.values.get((tuple(lam), k), Fraction(0))

    def dims(self) -> list[int]:
        one = (1,) * self.n
        top = max((k for (_, k) in self.values), default=-1)
        return [int(self.value(one, k)) for k in range(top + 1)]

    def max_q(self) -> int:
        return max((k for (_, k) in self.values), default=-1)

    def class_function(self, k: int) -> ClassFunction:
        return ClassFunction(
            self.n, {lam: self.value(lam, k) for lam in partitions_of(self.n)})

    def to_json(self) -> dict:
        out: dict[str, dict[str, str]] = {}
        for lam in partitions_of(self.n):
            key = "[" + ",".join(map(str, lam)) + "]"
            row = {}
            for k in range(self.max_q() + 1):
                v = self.value(lam, k)
                if v:
                    row[str(k)] = str(v) if v.denominator == 1 else \
                        f"{v.numerator}/{v.denominator}"
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


def equivariant_traces(space: GradedSolutionSpace, action_kind: str
                       ) -> dict[Partition, list[Fraction]]:
    """Trace of each class representative in every degree, after checking
    that the action preserves every degree."""
    for k in range(space.max_degree + 1):
        check_action_invariance(space, k, action_kind)
    traces: dict[Partition, list[Fraction]] = {}
    for lam in partitions_of(space.n):
        sigma = class_representative(lam)
        traces[lam] = [equivariant_trace(space, k, sigma, action_kind)
                       for k in range(space.max_degree + 1)]
    return traces


def graded_character(space: GradedSolutionSpace, action_kind: str,
                     cross_check: bool | None = None,
                     traces: dict[Partition, list[Fraction]] | None = None
                     ) -> GradedCharacter:
    """Ordinary graded character by series division, optionally verified
    against the direct quotient.

    cross_check defaults to n <= 3 (the direct path runs everywhere small);
    the direct quotient is authoritative and a disagreement raises
    CrossCheckFailed.  traces, if given, stand for
    equivariant_traces(space, action_kind): computed once for two
    characters, carried over from side y by :func:`relabelled_character`,
    or read from the irreducible blocks of a twin graph
    (:class:`gkmhess.isotypic.TwinBlocks`), which can then stand for space
    itself where there is no cross-check.
    """
    n = space.n
    top = space.graph.top_degree
    numer = hilbert_numerator(space)
    traced = traces is None
    if traced:
        traces = equivariant_traces(space, action_kind)
    one = (1,) * n
    values: dict[tuple[Partition, int], Fraction] = {}
    for lam in partitions_of(n):
        factor = _ambient_factor(lam if action_kind == "dot" else one)
        for k in range(space.max_degree + 1):
            v = sum((factor[j] * traces[lam][k - j]
                     for j in range(min(k, len(factor) - 1) + 1)),
                    Fraction(0))
            if k <= top:
                if v:
                    values[(lam, k)] = v
            elif v:
                raise CrossCheckFailed(
                    f"character series at {lam} does not terminate "
                    f"(degree {k}: {v})")
    for k, b in enumerate(numer):
        if values.get((one, k), Fraction(0)) != b:
            raise CrossCheckFailed(
                f"identity character {values.get((one, k))} != Betti {b} "
                f"at degree {k}")
    char = GradedCharacter(n, values)
    if cross_check is None:
        cross_check = n <= 3
    if cross_check:
        _cross_check_direct(space, action_kind, char, numer,
                            invariant=traced)
    return char


def _cross_check_direct(space: GradedSolutionSpace, action_kind: str,
                        char: GradedCharacter, numer: list[int],
                        invariant: bool = False) -> None:
    """Direct-quotient traces; CrossCheckFailed on any disagreement.

    The traces are taken on the solved space, so the action is first
    checked to preserve each degree (NotInvariant otherwise), unless
    invariant says that equivariant_traces has done so already.
    """
    n = space.n
    for k in range(space.graph.top_degree + 1):
        if not invariant:
            check_action_invariance(space, k, action_kind)
        _, image = _ordinary_piece_with_image(space, k, expected=numer[k])
        for lam in partitions_of(n):
            sigma = class_representative(lam)
            t_total = equivariant_trace(space, k, sigma, action_kind)
            t_image = _trace_on_reducer(space, k, image, sigma, action_kind)
            direct = t_total - t_image
            if direct != char.value(lam, k):
                raise CrossCheckFailed(
                    f"degree {k}, type {lam}: direct {direct} != "
                    f"series {char.value(lam, k)}")


def _trace_on_reducer(space: GradedSolutionSpace, k: int, image: Echelon,
                      sigma, action_kind: str) -> Fraction:
    """Trace of sigma on the span of a back-substituted echelon's rows.

    The span must be invariant (it is the t-multiplication image of an
    invariant space).  Each row is zero at every other row's pivot, so a
    vector of the span has coordinate v[c] / r[c] along the row r with
    pivot c; the trace sums that coordinate of each permuted row.
    """
    pi = coordinate_perm(space.graph, k, sigma, action_kind)
    total = Fraction(0)
    for c, row in image.rows:
        permuted = {pi[j]: v for j, v in row.items()}
        if image.reduce(permuted):
            raise NotInvariant(
                "t-multiplication image is not preserved by the action")
        total += Fraction(permuted.get(c, 0), row[c])
    return total


def frobenius_of_character(char: GradedCharacter) -> GradedSymmetricFunction:
    """Frobenius characteristic of a graded character, m basis."""
    terms = {}
    for k in range(char.max_q() + 1):
        f = frobenius(char.class_function(k)).convert("m")
        if not f.is_zero():
            terms[k] = f
    return GradedSymmetricFunction(char.n, terms)


def frobenius_series(space: GradedSolutionSpace, action_kind: str,
                     cross_check: bool | None = None) -> GradedSymmetricFunction:
    """Frobenius characteristic of the ordinary graded character, m basis."""
    return frobenius_of_character(
        graded_character(space, action_kind, cross_check=cross_check))


# ---------------------------------------------------------------------------
# side x as the certified relabelling of side y

def relabelling(graph, k: int) -> list[int]:
    """The relabelling P in degree k as an array: the coordinate of the
    mi-th monomial at vertex v goes to that of w.mi at v, where w is the
    permutation of v and w.mi renames each t_i to t_w(i).

    A class g of the side-y graph gives the side-x class f = P g, that is
    f(v) = w.g(v).  Every X edge condition becomes the Y one, so does
    every quad condition given the edge conditions, and the dot action
    becomes the dagger action; so P carries the Y kernel onto the X
    kernel.  :func:`certify_relabelling` checks this on the two graphs
    (:func:`_graph_fault`) and on the actions (:func:`_action_fault`).
    """
    nv = len(graph.vertices)
    out = [0] * (nv * len(monomials(graph.n, k)))
    for vi, v in enumerate(graph.vertices):
        for mi, mj in enumerate(_perm_monomial_table(graph.n, k, v.perm)):
            out[mi * nv + vi] = mj * nv + vi
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
    graph = LabeledGraph(n, tuple(plain(w) for w in all_perms(n)), (), 0)
    p = relabelling(graph, k)
    for sigma in generators(n):
        pi_x = coordinate_perm(graph, k, sigma, "dot")
        pi_y = coordinate_perm(graph, k, sigma, "dagger")
        if any(pi_x[pc] != p[pi_y[c]] for c, pc in enumerate(p)):
            return sigma
    return None


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


def relabel_space(space_y: GradedSolutionSpace, graph_x,
                  name: str) -> GradedSolutionSpace:
    """The side-x space P(space_y) of graph_x, certified as
    certify_relabelling does: each basis column and unit row moved by P,
    with the X constraint rows."""
    certify_relabelling(space_y.graph, graph_x, name, space_y.max_degree)
    bases = {}
    for k, basis in space_y.bases.items():
        p = relabelling(graph_x, k)
        bases[k] = SubspaceBasis(
            basis.ambient_dim,
            [{p[c]: v for c, v in col.items()} for col in basis.columns],
            unit_rows=[p[u] for u in basis.unit_rows])
    return GradedSolutionSpace(
        graph_x, space_y.max_degree, bases,
        {k: constraint_rows(graph_x, k) for k in bases})


def relabelled_character(space_y: GradedSolutionSpace, graph_x, name: str,
                         cross_check: bool | None = None,
                         traces: dict[Partition, list[Fraction]] | None = None
                         ) -> GradedCharacter:
    """The dot-action graded character of graph_x, side x of the graph of
    space_y, without solving side x.

    Once the relabelling is certified, the dot traces on X are the dagger
    traces on Y (given as traces, or computed) and the dimensions are
    equal, so the character is those traces times the dot ambient factor.
    The direct-quotient cross-check (default n <= 3) runs on P(space_y).
    """
    if cross_check is None:
        cross_check = space_y.n <= 3
    if cross_check:
        space = relabel_space(space_y, graph_x, name)
    else:
        certify_relabelling(space_y.graph, graph_x, name, space_y.max_degree)
        space = space_y   # read only for its dimensions
    if traces is None:
        traces = equivariant_traces(space_y, "dagger")
    return graded_character(space, "dot", cross_check, traces)
