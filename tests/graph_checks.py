"""Graph constructions and checks read only by the tests: the longest
permutation, vertex degrees and unlabelled edge sets, the edge
augmentation of a blow-up, the circle isomorphism of a kind-C triple,
pairwise independence of the labels at each vertex, the cycle type of a
permutation and the nested plain graphs of a kind-C triple; and
:func:`replace`, the copy of a package object with some fields changed
that the mutation tests make."""

from __future__ import annotations

import inspect

from gkmhess.graphs import (
    Perm, SignedBlowupGraph, _label, build_circle_graph, build_graph, circ,
    swap_positions)
from gkmhess.hessenberg import ModularTriple, WrongKind


def replace(obj, **changes):
    """A new obj made by its constructor from its own attributes of the
    same names as the arguments, except those given in changes."""
    params = inspect.signature(type(obj)).parameters
    unknown = changes.keys() - params.keys()
    if unknown:
        raise TypeError(f"{type(obj).__name__} takes no {sorted(unknown)}")
    return type(obj)(**{name: changes[name] if name in changes
                        else getattr(obj, name) for name in params})


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def degree_of(graph, vi: int) -> int:
    """The number of edges at vertex index vi."""
    return sum(1 for (a, b, _) in graph.edges if vi in (a, b))


def edge_set(graph) -> set[tuple[int, int]]:
    """The vertex index pairs of the edges, without labels."""
    return {(a, b) for (a, b, _) in graph.edges}


def augment_blowup(gtilde: SignedBlowupGraph) -> SignedBlowupGraph:
    """Add the edges {w, circle(w tau)} with label t_{w(d+1)} - t_{w(d)}.

    These are implied congruences, so the equivariant cohomology is
    unchanged; adding them twice adds nothing.
    """
    if gtilde.side != "x":
        raise WrongKind("the edge augmentation is an X-side construction")
    d = gtilde.d
    vidx = gtilde.vertex_index
    existing = edge_set(gtilde)
    new_edges = list(gtilde.edges)
    for v in gtilde.vertices:
        if v.circle:
            continue
        w = v.perm
        a = vidx[v]
        b = vidx[circ(swap_positions(w, d + 1, d))]
        key = (min(a, b), max(a, b))
        if key not in existing:
            new_edges.append(
                (key[0], key[1], _label("x", w, d + 1, d)))
            existing.add(key)
    new_edges.sort()
    return replace(gtilde, edges=tuple(new_edges))


def circle_isomorphism_check(triple: ModularTriple, side: str) -> bool:
    """w -> circle(w tau) is an edge bijection G -> circle copy.

    On side X the labels agree on the nose; on side Y they agree after the
    variable swap t_d <-> t_{d+1}.
    """
    if triple.kind != "C":
        raise WrongKind("kind-C triples only")
    n = triple.h.n
    d = triple.d
    g = build_graph(triple.h, side)
    cg = build_circle_graph(triple, side)
    cidx = cg.vertex_index
    clabels = {(min(a, b), max(a, b)): f for (a, b, f) in cg.edges}
    if len(g.edges) != len(cg.edges):
        return False
    for (a, b, f) in g.edges:
        ca = cidx[circ(swap_positions(g.vertices[a].perm, d + 1, d))]
        cb = cidx[circ(swap_positions(g.vertices[b].perm, d + 1, d))]
        key = (min(ca, cb), max(ca, cb))
        if key not in clabels:
            return False
        expected = f
        if side == "y":
            swap = {d: d + 1, d + 1: d}
            expected = tuple(sorted(swap.get(x, x) for x in f))
        if clabels[key] != expected:
            return False
    return True


def two_independence_check(g) -> tuple[bool, tuple | None]:
    """Pairwise linear independence of labels at every vertex.

    Returns (True, None) or (False, (vertex, edge1, edge2)) with the first
    offending vertex and edge pair in scan order.
    """
    incident: dict[int, list[tuple]] = {}
    for e in g.edges:
        incident.setdefault(e[0], []).append(e)
        incident.setdefault(e[1], []).append(e)
    for vi in range(len(g.vertices)):
        edges = incident.get(vi, [])
        for x in range(len(edges)):
            for y in range(x + 1, len(edges)):
                if edges[x][2] == edges[y][2]:
                    return False, (g.vertices[vi], edges[x], edges[y])
    return True, None


def cycle_type(w: Perm) -> tuple[int, ...]:
    n = len(w)
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s]:
            continue
        c = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = w[j] - 1
            c += 1
        parts.append(c)
    return tuple(sorted(parts, reverse=True))


def build_triple_graphs(triple: ModularTriple, side: str):
    """(G_minus, G, G_plus) for a kind-C triple; edge sets are nested."""
    if triple.kind != "C":
        raise WrongKind(
            "native construction is defined for kind C; transpose first "
            "(see kind_r_via_transpose)")
    return (build_graph(triple.h_minus, side),
            build_graph(triple.h, side),
            build_graph(triple.h_plus, side))
