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
program that adds one colour class at a time, each a subset of the
vertices not yet coloured (a proper coloring's classes contain no edge),
with the ascents a class adds read off by one AND and one popcount
against a spread mask, one per vertex subset.  The DP
runs once per (h, proper_only) per process: its leaf counts are memoised
as one packed integer per partition, and csf_q and llt build a fresh
graded function from them on every call.  csf_q_raw and llt_raw enumerate
colorings outright and serve as the independent reference.

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
    checks (module docstring), run once per (h, proper_only) per process.

    Returns (width, {lam: packed}) with the dict read-only, packed being
    sum_a c_a 2^(width a) with c_a the number of (proper) colorings of
    content lam with a ascents.  Every c_a counts colorings of a subset of
    [n] with fixed class sizes, so c_a <= n! < 2^(width-1): no field carries
    into the next, and neither does a sum of two fields (the law checks).
    The memo keeps at most two entries per Hessenberg function of degree
    <= DEGREE_CAP (check_degree raises, uncached, above it).

    Classes are added in colour order, the parts of lam weakly decreasing,
    so partitions sharing a prefix share its states.  A state maps the set
    U of vertices coloured so far (bit i-1 for vertex i) to its packed
    ascent distribution; the next class S of size k is one of the
    k-subsets of the free vertices [n] - U (_submasks), skipped when its
    spread mask is None (an edge inside S, proper colorings only).  S adds
    w = sum over i in S of |N^-(i) & U| ascents, a shift by width w.  w is
    one AND and one popcount: the spread mask (_class_tables) holds N^-(i)
    in field i of n bits, and U * rep holds a copy of U in every field.
    """
    n = h.n
    check_degree(n)
    width = factorial(n).bit_length() + 1
    rep, spreads = _class_tables(h, proper_only)
    submasks = _submasks(n)
    full = (1 << n) - 1
    counts: dict[Partition, int] = {}
    stack: list[tuple[dict[int, int], Partition, int]] = [({0: 1}, (), n)]
    while stack:
        states, lam, rest = stack.pop()
        if not rest:   # every vertex is coloured: the one state is [n]
            (counts[lam],) = states.values()
            continue
        for part in range(min(rest, lam[-1] if lam else n), 0, -1):
            grown: dict[int, int] = {}
            for done, packed in states.items():
                copies = done * rep
                for cls in submasks[full ^ done][part]:
                    spread = spreads[cls]
                    if spread is not None:
                        w = (spread & copies).bit_count()
                        grown[done | cls] = (grown.get(done | cls, 0)
                                             + (packed << width * w))
            if grown:
                stack.append((grown, lam + (part,), rest - part))
    return width, MappingProxyType(counts)


def _class_tables(h: HessenbergFunction, proper_only: bool
                  ) -> tuple[int, list[int | None]]:
    """(rep, spread): spread[S] for each bitmask S is sum over i in S of
    N^-(i) << n i, or None if proper_only and S holds an edge, and
    rep = sum_k 1 << n k.  For U disjoint from S,
    (spread[S] & U * rep).bit_count() is the number of ascents S adds
    after U: N^-(i) and U lie below 2^n, so the copies of U land in
    separate fields and field i of the AND is N^-(i) & U.

    Built from the lowest bit i of S up: spread[S] = spread[S - i] +
    (N^-(i) << n i), and S holds an edge when S - i does or i has a
    neighbour above it in S."""
    n = h.n
    below = [sum(1 << (j - 1) for j in range(1, i) if h(j) >= i)
             for i in range(1, n + 1)]
    above = [sum(1 << j for j in range(i + 1, h(i + 1))) for i in range(n)]
    rep = sum(1 << n * k for k in range(n))
    spread: list[int | None] = [0]
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        prev = spread[mask ^ low]
        spread.append(None if prev is None or proper_only and above[i] & mask
                      else prev + (below[i] << n * i))
    return rep, spread


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


def csf_q_raw(h: HessenbergFunction, colors: int) -> GradedSymmetricFunction:
    """csf_q by brute enumeration of all colorings [n] -> [colors].

    Reads each m_lam coefficient off the dominant monomial (content exactly
    lam on the first len(lam) colors).  Slower than csf_q; kept as an
    independent cross-check and to demonstrate that any colors >= n give
    the same answer.
    """
    return _raw_sum(h, colors, proper_only=True)


def llt_raw(h: HessenbergFunction, colors: int) -> GradedSymmetricFunction:
    """llt by brute enumeration over all colorings [n] -> [colors]."""
    return _raw_sum(h, colors, proper_only=False)


def _raw_sum(h: HessenbergFunction, colors: int,
             proper_only: bool) -> GradedSymmetricFunction:
    from itertools import product as iproduct
    n = h.n
    check_degree(n)
    edges = _edge_list(h)
    counts: dict[int, dict[Partition, int]] = {}
    for kappa in iproduct(range(1, colors + 1), repeat=n):
        content = [0] * colors
        for c in kappa:
            content[c - 1] += 1
        used = max((i + 1 for i, c in enumerate(content) if c), default=0)
        lam = tuple(content[:used])
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or 0 in lam:
            continue   # not the dominant monomial of its orbit
        if proper_only and any(kappa[i - 1] == kappa[j - 1] for (i, j) in edges):
            continue
        a = sum(1 for (i, j) in edges if kappa[j - 1] < kappa[i - 1])
        counts.setdefault(a, {})
        counts[a][lam] = counts[a].get(lam, 0) + 1
    return GradedSymmetricFunction(
        n, {a: SymmetricFunction(n, "m", c) for a, c in counts.items()})


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
