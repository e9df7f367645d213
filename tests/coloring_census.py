"""The coloring census of the modular-law proofs, read only by the tests:
every coloring whose content is a partition, properness, the nine-way
(proper) and four-way (arbitrary) classification of colorings of G_{h_-}
by how kappa(d0) compares to kappa(d) and kappa(d+1), the color-swap
bijection at positions d, d+1, the content-refined q-census of each
class, assembled into graded symmetric functions, csf_q and llt by
brute enumeration, the reference for the colour-class DP, and the DP's
class tables built for one h alone, the reference for the tables read
from the memo of ordering distributions by shape."""

from __future__ import annotations

from itertools import product
from typing import Iterator

from gkmhess.coloring import Coloring, _edge_list, asc
from gkmhess.hessenberg import HessenbergFunction, ModularTriple, WrongKind
from gkmhess.symfunc import (
    GradedSymmetricFunction, Partition, SymmetricFunction, check_degree,
    partitions_of)

def is_proper(h: HessenbergFunction, kappa: Coloring) -> bool:
    return all(kappa[i - 1] != kappa[j - 1] for (i, j) in _edge_list(h))


def _arrangements(counts: list[int], out: list[int] | None = None,
                  pos: int = 0) -> Iterator[Coloring]:
    """Distinct arrangements of the multiset {color c with multiplicity
    counts[c-1]}; colors are 1-based.  out and pos are the recursion state:
    the colors placed so far and the next position."""
    if out is None:
        out = [0] * sum(counts)
    if pos == len(out):
        yield tuple(out)
        return
    for c, left in enumerate(counts, start=1):
        if left:
            counts[c - 1] -= 1
            out[pos] = c
            yield from _arrangements(counts, out, pos + 1)
            counts[c - 1] += 1


def colorings_by_content(n: int) -> Iterator[tuple[Partition, Coloring]]:
    """All colorings with content a partition of n (colors 1..len(lam))."""
    for lam in partitions_of(n):
        for kappa in _arrangements(list(lam)):
            yield lam, kappa


NINE_TAGS = ("<<", "<=", "<>", "=<", "==", "=>", "><", ">=", ">>")


def _cmp_symbol(x: int, y: int) -> str:
    return "<" if x < y else ("=" if x == y else ">")


def classify_coloring(triple: ModularTriple, kappa: Coloring) -> str:
    """Nine-way tag comparing kappa(d0) with kappa(d) and kappa(d+1).

    Requires a kind-C triple and a proper coloring of G_{h_minus}.
    """
    if triple.kind != "C":
        raise WrongKind("classification uses the kind-C parameters (d, d0)")
    if not is_proper(triple.h_minus, kappa):
        raise ValueError("coloring is not proper for G_{h_minus}")
    d, d0 = triple.d, triple.d0
    return (_cmp_symbol(kappa[d0 - 1], kappa[d - 1])
            + _cmp_symbol(kappa[d0 - 1], kappa[d]))


def coarsen_tag(tag: str) -> tuple[str, str]:
    """Appendix-B coarsening: '=' and '>' both count as '>='."""
    return tuple("<" if c == "<" else ">=" for c in tag)  # type: ignore[return-value]


def classify_coloring_coarse(triple: ModularTriple, kappa: Coloring) -> tuple[str, str]:
    """Four-way tag for an arbitrary coloring (kind C)."""
    if triple.kind != "C":
        raise WrongKind("classification uses the kind-C parameters (d, d0)")
    d, d0 = triple.d, triple.d0
    return ("<" if kappa[d0 - 1] < kappa[d - 1] else ">=",
            "<" if kappa[d0 - 1] < kappa[d] else ">=")


def tau_bijection(triple: ModularTriple, kappa: Coloring) -> Coloring:
    """Compose with the transposition of positions d, d+1 (an involution)."""
    if triple.kind != "C":
        raise WrongKind("tau = (d+1, d) needs the kind-C parameter d")
    d = triple.d
    out = list(kappa)
    out[d - 1], out[d] = out[d], out[d - 1]
    return tuple(out)


def asc_minus(triple: ModularTriple, kappa: Coloring) -> int:
    """Ascent statistic with respect to the h_minus edge set."""
    return asc(triple.h_minus, kappa)


# keys: nine-way tag strings, or ('<'|'>=', '<'|'>=') pairs when coarse
ClassCensus = dict


def coloring_class_sums(triple: ModularTriple, proper_only: bool,
                        coarse: bool) -> ClassCensus:
    """Content-refined q-census of (proper) colorings of G_{h_minus}.

    Maps tag -> content partition -> asc_minus value -> count.  With
    coarse=True the tags are pairs like ('<', '>='); otherwise the nine
    two-symbol strings (and proper colorings never produce '==').
    """
    if triple.kind != "C":
        raise WrongKind("the decomposition uses the kind-C parameters")
    hm = triple.h_minus
    d, d0 = triple.d, triple.d0
    edges = _edge_list(hm)
    census: ClassCensus = {}
    for lam, kappa in colorings_by_content(hm.n):
        if proper_only and any(kappa[i - 1] == kappa[j - 1] for (i, j) in edges):
            continue
        nine = (_cmp_symbol(kappa[d0 - 1], kappa[d - 1])
                + _cmp_symbol(kappa[d0 - 1], kappa[d]))
        tag = coarsen_tag(nine) if coarse else nine
        a = sum(1 for (i, j) in edges if kappa[j - 1] < kappa[i - 1])
        bucket = census.setdefault(tag, {}).setdefault(lam, {})
        bucket[a] = bucket.get(a, 0) + 1
    return census


def census_to_graded(n: int, census: ClassCensus, tags, q_shift) -> GradedSymmetricFunction:
    """Assemble sum over given tags of q^(asc_minus + q_shift(tag)) z_kappa."""
    terms: dict[int, dict[Partition, int]] = {}
    for tag in tags:
        for lam, bucket in census.get(tag, {}).items():
            for a, cnt in bucket.items():
                k = a + q_shift(tag)
                terms.setdefault(k, {})
                terms[k][lam] = terms[k].get(lam, 0) + cnt
    return GradedSymmetricFunction(
        n, {k: SymmetricFunction(n, "m", c) for k, c in terms.items()})


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
    n = h.n
    check_degree(n)
    edges = _edge_list(h)
    counts: dict[int, dict[Partition, int]] = {}
    for kappa in product(range(1, colors + 1), repeat=n):
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


def class_tables(h: HessenbergFunction, width: int
                 ) -> tuple[int, list[int], list[int | None], list[int]]:
    """(rep, spread, proper, orderings) as coloring._class_tables defines
    them, with every orderings[S] summed over the last vertex i of S from
    the tables of h alone: orderings[S] = sum over i in S of
    orderings[S - i] << width |N^-(i) & S|, orderings[{}] = 1."""
    n = h.n
    below = [sum(1 << (j - 1) for j in range(1, i) if h(j) >= i)
             for i in range(1, n + 1)]
    above = [sum(1 << j for j in range(i + 1, h(i + 1))) for i in range(n)]
    spread, proper, orderings = [0], [0], [1]
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        spread.append(spread[mask ^ low] + (below[i] << n * i))
        proper.append(None if proper[mask ^ low] is None or above[i] & mask
                      else spread[mask])
        orderings.append(sum(
            orderings[mask ^ 1 << j] << width * (below[j] & mask).bit_count()
            for j in range(i, n) if mask >> j & 1))
    return sum(1 << n * k for k in range(n)), spread, proper, orderings
