"""Chromatic quasisymmetric functions and unicellular LLT polynomials.

A coloring of the indifference graph G_h is a tuple kappa of positive
integers, kappa[i-1] being the color of vertex i.  The graded chromatic
symmetric function sums z_kappa q^asc(kappa) over proper colorings; the
unicellular LLT polynomial drops properness.  The coefficient of m_lam at
q^a is the number of (proper) colorings using exactly lam_i vertices of
color i with ascent statistic a.  Such a coloring is an ordered set
partition (S_1, ..., S_l) of [n] into colour classes with |S_c| = lam_c,
and an edge j < i ascends exactly when j lies in an earlier class than i,
so asc = sum over c and i in S_c of |N^-(i) & (S_1 u ... u S_{c-1})| with
N^-(i) = {j < i : h(j) >= i}.  Both are computed exactly by a dynamic
program that adds one colour class of size >= 2 at a time, each a subset
of the vertices not yet coloured (a proper coloring's classes contain no
edge), with the ascents a class adds read off by one AND and one popcount
against a spread mask, one per vertex subset.  The closing run of
singleton classes takes one step, from a table of the ascent
distributions of the orderings of each vertex subset, memoised per
process by shape.  Shape lemma: with s_1 < ... < s_m the elements of a
vertex subset S and c_a = |N^+(s_a) & S|, N^+(i) = (i, h(i)], the graph
G_h induces on S has an edge s_a s_b, a < b, exactly when b <= a + c_a,
so the distribution depends on (c_1, ..., c_m) alone.  The DP runs once per
transpose pair {h, h^t} and kind per process: its leaf counts are
memoised as one packed integer per partition, and csf_q and llt build a
fresh graded function from them on every call.

The module also carries the modular-law checks, valid for triples of both
kinds.  They compare the memoised packed counts in integers, with no
symmetric-function arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping

from gkmhess.hessenberg import (
    HessenbergFunction, ModularTriple, indifference_graph)
from gkmhess.symfunc import (
    GradedSymmetricFunction, Partition, SymmetricFunction, check_degree)

Coloring = tuple[int, ...]


def _edge_list(h: HessenbergFunction) -> list[tuple[int, int]]:
    return sorted(indifference_graph(h).edges)


def asc(h: HessenbergFunction, kappa: Coloring) -> int:
    """Number of edges {i, j} with j < i and kappa(j) < kappa(i)."""
    if len(kappa) != h.n:
        raise ValueError("coloring length differs from n")
    return sum(1 for (i, j) in _edge_list(h) if kappa[j - 1] < kappa[i - 1])


@lru_cache(maxsize=None)
def _submasks(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Entry free lists the subsets of the bitmask free by size: entry k of
    it is the tuple of the k-subsets.  3^n subsets over all 2^n masks."""
    table = []
    for free in range(1 << n):
        by_size: list[list[int]] = [[] for _ in range(free.bit_count() + 1)]
        sub = free
        while True:
            by_size[sub.bit_count()].append(sub)
            if not sub:
                break
            sub = (sub - 1) & free
        table.append(tuple(map(tuple, by_size)))
    return tuple(table)


@lru_cache(maxsize=None)
def _packed_counts(h: HessenbergFunction,
                   proper_only: bool) -> tuple[int, Mapping[Partition, int]]:
    """Colour-class dynamic program behind csf_q, llt and the modular-law
    checks (module docstring), run once per ({h, h^t}, proper_only) per
    process.

    Returns (width, {lam: packed}) with the dict read-only, packed being
    sum_a c_a 2^(width a) with c_a the number of (proper) colorings of
    content lam with a ascents.  Every c_a counts colorings of a subset of
    [n] with fixed class sizes, so c_a <= n! < 2^(width-1): no field carries
    into the next, and neither does a sum of two fields (the law checks).
    The memo keeps at most four entries per transpose pair of degree
    <= DEGREE_CAP (check_degree raises, uncached, above it).

    Transpose.  v -> n+1-v maps the edges of G_h onto those of G_{h^t}, so
    kappa -> (l+1-kappa(n+1-v))_v, l the number of colours, is a bijection
    from the (proper) colorings of G_h onto those of G_{h^t} that keeps
    every ascent and reverses the content.  Reading the m_lam coefficient
    at content lam, as the DP does, already rests on csf_q and llt being
    symmetric, so h and h^t have the same counts: when h^t sorts first,
    its memoised entry is returned.

    Classes of size >= 2 are added in colour order, the parts of lam
    weakly decreasing, so partitions sharing a prefix share its states.
    A state maps the set U of vertices coloured so far (bit i-1 for vertex
    i) to its packed ascent distribution; the next class S of size k is
    one of the k-subsets of the free vertices [n] - U (_submasks), skipped
    when its proper mask is None (an edge inside S, proper colorings
    only).  S adds w = sum over i in S of |N^-(i) & U| ascents, a shift by
    width w.  w is one AND and one popcount: the spread mask
    (_class_tables) holds N^-(i) in field i of n bits, and U * rep holds a
    copy of U in every field.

    Singleton tail.  Every state U also closes its branch with singletons
    on R = [n] - U, in colour order i_1, ..., i_r, all proper.  i_t adds
    |N^-(i_t) & U| + |N^-(i_t) & {i_1, ..., i_{t-1}}| ascents.  The first
    terms sum to cross(U), the edges from U up into R, which is
    (spread[R] & U * rep).bit_count() on the spread mask without
    properness.  The second terms are the ascents of the ordering of R;
    their distribution is orderings[R] (_class_tables): split by the
    vertex i with the last colour, which ascends over its neighbours below
    it in R.  So lam + (1,) * r gains sum_U packed_U * orderings[R] <<
    width * cross(U).  No coefficient of the product carries: each counts
    colorings of [n] of one content by ascents, so it is at most n!.
    """
    n = h.n
    check_degree(n)
    transpose = h.transpose()
    if transpose.values < h.values:
        return _packed_counts(transpose, proper_only)
    width = factorial(n).bit_length() + 1
    rep, spread, proper, orderings = _class_tables(h, width)
    classes = proper if proper_only else spread
    submasks = _submasks(n)
    full = (1 << n) - 1
    counts: dict[Partition, int] = {}
    stack: list[tuple[dict[int, int], Partition, int]] = [({0: 1}, (), n)]
    while stack:
        states, lam, rest = stack.pop()
        counts[lam + (1,) * rest] = sum(
            packed * orderings[full ^ done]
            << width * (spread[full ^ done] & done * rep).bit_count()
            for done, packed in states.items())
        for part in range(min(rest, lam[-1] if lam else n), 1, -1):
            grown: dict[int, int] = {}
            for done, packed in states.items():
                copies = done * rep
                for cls in submasks[full ^ done][part]:
                    mask = classes[cls]
                    if mask is not None:
                        w = (mask & copies).bit_count()
                        grown[done | cls] = (grown.get(done | cls, 0)
                                             + (packed << width * w))
            if grown:
                stack.append((grown, lam + (part,), rest - part))
    return width, MappingProxyType(counts)


# width -> {shape code: orderings distribution} (_class_tables)
_SHAPE_ORDERINGS: dict[int, dict[int, int]] = {}


def _class_tables(h: HessenbergFunction, width: int
                  ) -> tuple[int, list[int], list[int | None], list[int]]:
    """(rep, spread, proper, orderings), the lists over all bitmasks S.
    spread[S] is sum over i in S of N^-(i) << n i, proper[S] the same or
    None if S holds an edge, and rep = sum_k 1 << n k.  For U disjoint from
    S, (spread[S] & U * rep).bit_count() is the number of ascents S adds
    after U: N^-(i) and U lie below 2^n, so the copies of U land in
    separate fields and field i of the AND is N^-(i) & U.  orderings[S] is
    sum_a c_a 2^(width a), c_a the number of orderings of S with a edges
    j < i that list j first.

    One pass from the lowest bit i of S up: spread[S] = spread[S - i] +
    (N^-(i) << n i), S holds an edge when S - i does or i has a neighbour
    above it in S, and orderings[S] is read from the memo of the width by
    code[S] = code[S - i] << 4 | (|N^+(i) & S| + 1), code[{}] = 0.

    Shape lemma.  Let s_1 < ... < s_m be the elements of S and c_a =
    |N^+(s_a) & S|.  N^+(s_a) = (s_a, h(s_a)], so S & N^+(s_a) is the run
    of the c_a elements of S just above s_a: the graph induced on S has an
    edge s_a s_b, a < b, exactly when b <= a + c_a, and orderings[S]
    depends on (c_1, ..., c_m) alone.  The code lists the c_a + 1 <= m <=
    DEGREE_CAP < 16 in 4-bit fields from s_1 up: removing s_1 changes no
    other c_a, and the + 1 keeps codes of different sizes apart.  A shape
    of size m is a Hessenberg function of size m, so a width's memo holds
    at most sum_{m <= n} Catalan(m) entries (2056 at n = 8).  On a miss,
    orderings[S] = sum over i in S of orderings[S - i] << width
    |N^-(i) & S|, i the vertex listed last."""
    n = h.n
    below = [sum(1 << (j - 1) for j in range(1, i) if h(j) >= i)
             for i in range(1, n + 1)]
    above = [sum(1 << j for j in range(i + 1, h(i + 1))) for i in range(n)]
    memo = _SHAPE_ORDERINGS.setdefault(width, {0: 1})
    spread, proper, code, orderings = [0], [0], [0], [1]
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        spread.append(spread[mask ^ low] + (below[i] << n * i))
        up = above[i] & mask
        proper.append(None if proper[mask ^ low] is None or up
                      else spread[mask])
        code.append(key := code[mask ^ low] << 4 | (up.bit_count() + 1))
        if key not in memo:
            memo[key] = sum(orderings[mask ^ 1 << j]
                            << width * (below[j] & mask).bit_count()
                            for j in range(i, n) if mask >> j & 1)
        orderings.append(memo[key])
    return sum(1 << n * k for k in range(n)), spread, proper, orderings


def _coloring_sum(h: HessenbergFunction, proper_only: bool) -> GradedSymmetricFunction:
    """A fresh graded function, in the m basis, from the memoised counts."""
    width, packed_counts = _packed_counts(h, proper_only)
    field = (1 << width) - 1
    counts: dict[int, dict[Partition, int]] = {}
    for lam, packed in packed_counts.items():
        for a in range(packed.bit_length() // width + 1):
            c = packed >> width * a & field
            if c:
                counts.setdefault(a, {})[lam] = c
    return GradedSymmetricFunction(
        h.n, {a: SymmetricFunction(h.n, "m", c) for a, c in counts.items()})


def csf_q(h: HessenbergFunction) -> GradedSymmetricFunction:
    """Sum of z_kappa q^asc over proper colorings, in the m basis."""
    return _coloring_sum(h, proper_only=True)


def llt(h: HessenbergFunction) -> GradedSymmetricFunction:
    """Sum of z_kappa q^asc over all colorings, in the m basis."""
    return _coloring_sum(h, proper_only=False)


# ---------------------------------------------------------------------------
# Modular laws

def _modular_law_holds(triple: ModularTriple, proper_only: bool) -> bool:
    """F(h_+) + q F(h_-) = (1+q) F(h) on the memoised counts: for every lam
    and a, c_{h+}(a, lam) + c_{h-}(a-1, lam) = c_h(a, lam) + c_h(a-1, lam).
    Multiplying by q is a shift by one field; no sum of two fields carries
    (_packed_counts), so equal packed integers mean equal coefficients."""
    width, minus = _packed_counts(triple.h_minus, proper_only)
    _, mid = _packed_counts(triple.h, proper_only)
    _, plus = _packed_counts(triple.h_plus, proper_only)
    return all(plus.get(lam, 0) + (minus.get(lam, 0) << width)
               == mid.get(lam, 0) * (1 + (1 << width))
               for lam in minus.keys() | mid.keys() | plus.keys())


def check_modular_law_llt(triple: ModularTriple) -> bool:
    """LLT(h_+) - LLT(h) = q (LLT(h) - LLT(h_-)), exactly."""
    return _modular_law_holds(triple, proper_only=False)


def check_modular_law_csf(triple: ModularTriple) -> bool:
    """csf(h_+) - csf(h) = q (csf(h) - csf(h_-)), exactly."""
    return _modular_law_holds(triple, proper_only=True)
