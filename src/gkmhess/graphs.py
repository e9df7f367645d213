"""Labeled graphs on permutations for Hessenberg varieties and twins.

The vertices of the basic graphs are the permutations of [n] in one-line
notation; the edge {w, w(i,j)} exists whenever j < i <= h(j), where w(i,j)
is w with positions i and j exchanged (right multiplication by the
transposition).  On the X side the label is t_{w(i)} - t_{w(j)}; on the
twin Y side it is t_i - t_j.  A label is stored as the pair (a, b) with
a < b, meaning t_a - t_b; the sign is harmless because every divisibility
condition is sign-insensitive.

A modular triple of kind C yields five graphs: the nested triple for
h_minus, h, h_plus, a circle copy built from the h_minus edges plus the
(d+1, d0) transpositions, and the signed blow-up joining the two copies
with one 4-gon per coset {w, w tau}, tau = (d+1, d).  The blow-up is not
2-independent; its cohomology carries an extra second-order condition on
each 4-gon, recorded here as the quad list.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property, lru_cache

from gkmhess.hessenberg import (
    HessenbergFunction, ModularTriple, WrongKind, _frozen,
    find_modular_triples)

GRAPH_N_CAP = 6


class SizeTooLarge(ValueError):
    """Graph construction beyond the n cap."""


# ---------------------------------------------------------------------------
# permutations, one-line notation, 1-based values

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def generators(n: int) -> list[Perm]:
    """Generators of S_n: the transposition (1 2) and, for n >= 3, the
    n-cycle 2 3 ... n 1 (one-line notation); none for n = 1."""
    gens = []
    if n >= 2:
        gens.append(swap_positions(identity_perm(n), 1, 2))
    if n >= 3:
        gens.append(tuple(range(2, n + 1)) + (1,))
    return gens


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    return tuple(sorted(itertools.permutations(range(1, n + 1))))


def compose(u: Perm, v: Perm) -> Perm:
    """(u v)(k) = u(v(k))."""
    return tuple(u[v[k] - 1] for k in range(len(u)))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def swap_positions(w: Perm, i: int, j: int) -> Perm:
    """Right multiplication by the transposition (i, j): swap positions."""
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions."""
    n = len(w)
    return sum(1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b])


def class_representative(lam: tuple[int, ...]) -> Perm:
    """Canonical permutation with the given cycle type (consecutive cycles)."""
    out = []
    start = 1
    for part in lam:
        block = list(range(start + 1, start + part)) + [start]
        out.extend(block)
        start += part
    return tuple(out)


# ---------------------------------------------------------------------------
# edge labels and vertices

Label = tuple[int, int]


def coefficient_vector(n: int, label: Label) -> list[int]:
    """The coefficients of t_a - t_b in t_1..t_n, for label (a, b)."""
    a, b = label
    c = [0] * n
    c[a - 1] = 1
    c[b - 1] = -1
    return c


class Vertex:
    """A permutation vertex, plain or the circle copy."""

    def __init__(self, circle: bool, perm: Perm):
        vars(self).update(circle=circle, perm=perm)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __str__(self) -> str:
        word = "".join(str(v) for v in self.perm)
        return ("°" + word) if self.circle else word


def plain(w: Perm) -> Vertex:
    return Vertex(False, w)


def circ(w: Perm) -> Vertex:
    return Vertex(True, w)


class LabeledGraph:
    """Vertices plus edges labeled by differences of two variables.

    Edges are (vi, vj, label) with vi < vj indices into the vertex tuple
    and label (a, b), a < b, the form t_a - t_b.
    ``top_degree`` bounds the degree where the ordinary cohomology can be
    nonzero (the box count of the underlying Hessenberg data).  The vertex
    index and the vertex maps are made once per graph, on first use.
    """

    def __init__(self, n: int, vertices: tuple[Vertex, ...],
                 edges: tuple[tuple[int, int, Label], ...], top_degree: int):
        vars(self).update(n=n, vertices=vertices, edges=edges,
                          top_degree=top_degree)

    __setattr__ = __delattr__ = _frozen

    def _fields(self) -> tuple:
        return self.n, self.vertices, self.edges, self.top_degree

    def __eq__(self, other):
        return type(other) is type(self) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @cached_property
    def vertex_index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _vertex_maps(self) -> dict[Perm, tuple[int, ...]]:
        return {}

    def vertex_map(self, sigma: Perm) -> tuple[int, ...]:
        """Vertex index -> index of the vertex sigma w on the same sheet,
        for each vertex w; made once per sigma."""
        vmap = self._vertex_maps.get(sigma)
        if vmap is None:
            vidx = self.vertex_index
            vmap = self._vertex_maps[sigma] = tuple(
                vidx[Vertex(v.circle, compose(sigma, v.perm))]
                for v in self.vertices)
        return vmap

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "vertices": [str(v) for v in self.vertices],
            "edges": [[str(self.vertices[a]), str(self.vertices[b]),
                       coefficient_vector(self.n, f)]
                      for (a, b, f) in self.edges],
        }

    def content_key(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


class SignedBlowupGraph(LabeledGraph):
    """Blow-up of G(h_+) along G(h_-) with vertex signs and 4-gons.

    ``quads`` lists (vertex indices (w, circle w, w tau, circle w tau),
    squared-modulus form); the cohomology condition on a quad is that the
    sign-weighted vertex sum is divisible by the form squared.
    """

    def __init__(self, n, vertices, edges, top_degree,
                 signs: tuple[int, ...],
                 quads: tuple[tuple[tuple[int, int, int, int], Label], ...],
                 d: int, d0: int, side: str):
        super().__init__(n, vertices, edges, top_degree)
        vars(self).update(signs=signs, quads=quads, d=d, d0=d0, side=side)

    def _fields(self) -> tuple:
        return (*super()._fields(), self.signs, self.quads, self.d, self.d0,
                self.side)

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            "side": self.side,
            "d": self.d,
            "d0": self.d0,
            "signs": list(self.signs),
            "quads": [[[str(self.vertices[i]) for i in vs],
                       coefficient_vector(self.n, f)]
                      for (vs, f) in self.quads],
        }


def _check_cap(n: int) -> None:
    if n > GRAPH_N_CAP:
        raise SizeTooLarge(f"graph construction capped at n = {GRAPH_N_CAP}")


def _label(side: str, w: Perm, i: int, j: int) -> Label:
    """t_{w(i)} - t_{w(j)} on side x, t_i - t_j on side y, as a sorted pair."""
    if side == "x":
        i, j = w[i - 1], w[j - 1]
    elif side != "y":
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    return (i, j) if i < j else (j, i)


def _build_on_pairs(n: int, pairs, side: str, circle: bool,
                    top_degree: int) -> LabeledGraph:
    _check_cap(n)
    perms = all_perms(n)
    make = circ if circle else plain
    vertices = tuple(make(w) for w in perms)
    vidx = {w: i for i, w in enumerate(perms)}
    edges = []
    for w in perms:
        for (i, j) in pairs:
            v = swap_positions(w, i, j)
            if vidx[w] < vidx[v]:
                edges.append((vidx[w], vidx[v], _label(side, w, i, j)))
    edges.sort()
    return LabeledGraph(n, vertices, tuple(edges), top_degree)


def hessenberg_pairs(h: HessenbergFunction) -> list[tuple[int, int]]:
    """Position pairs (i, j), j < i <= h(j)."""
    return [(i, j) for j in range(1, h.n + 1) for i in range(j + 1, h(j) + 1)]


def build_GX(h: HessenbergFunction) -> LabeledGraph:
    """GKM graph of the Hessenberg variety: labels t_{w(i)} - t_{w(j)}."""
    return _build_on_pairs(h.n, hessenberg_pairs(h), "x", False, h.dimension())


def build_GY(h: HessenbergFunction) -> LabeledGraph:
    """GKM graph of the twin: same edges, labels t_i - t_j."""
    return _build_on_pairs(h.n, hessenberg_pairs(h), "y", False, h.dimension())


def build_graph(h: HessenbergFunction, side: str) -> LabeledGraph:
    return build_GX(h) if side == "x" else build_GY(h)


def kind_r_via_transpose(triple: ModularTriple) -> ModularTriple:
    """The kind-C triple of h^t matching a kind-R triple of h (d = n - d')."""
    if triple.kind != "R":
        raise WrongKind("expected a kind-R triple")
    d = triple.h.n - triple.d
    for cand in find_modular_triples(triple.h.transpose()):
        if cand.kind == "C" and cand.d == d:
            return cand
    raise WrongKind("no matching kind-C triple on the transpose")


def circle_pairs(triple: ModularTriple) -> list[tuple[int, int]]:
    hm = triple.h_minus
    return sorted(hessenberg_pairs(hm) + [(triple.d + 1, triple.d0)],
                  key=lambda p: (p[1], p[0]))


def build_circle_graph(triple: ModularTriple, side: str) -> LabeledGraph:
    """The circle copy: h_minus edges plus the (d+1, d0) transpositions."""
    if triple.kind != "C":
        raise WrongKind("circle graph is defined for kind-C triples")
    return _build_on_pairs(triple.h.n, circle_pairs(triple), side, True,
                           triple.h.dimension())


def build_blowup(triple: ModularTriple, side: str) -> SignedBlowupGraph:
    """Blow-up: plain copy of G(h), circle copy, and the joining edges."""
    if triple.kind != "C":
        raise WrongKind("blow-up is defined for kind-C triples")
    n = triple.h.n
    d, d0 = triple.d, triple.d0
    copy = _build_on_pairs(n, hessenberg_pairs(triple.h), side, False, 0)
    circle = build_circle_graph(triple, side)
    perms = all_perms(n)
    nperm = len(perms)
    pidx = {w: i for i, w in enumerate(perms)}
    vertices = copy.vertices + circle.vertices
    shifted = tuple((nperm + a, nperm + b, f) for a, b, f in circle.edges)
    joins = tuple((i, nperm + i, _label(side, w, d + 1, d))
                  for i, w in enumerate(perms))
    edges = tuple(sorted(copy.edges + shifted + joins))

    if side == "x":
        signs = (1,) * nperm + (-1,) * nperm
    else:
        lens = [length(w) % 2 for w in perms]
        signs = tuple(-1 if p else 1 for p in lens) \
            + tuple(1 if p else -1 for p in lens)

    quads = []
    for w in perms:
        wt = swap_positions(w, d + 1, d)
        if pidx[w] < pidx[wt]:
            vs = (pidx[w], nperm + pidx[w], pidx[wt], nperm + pidx[wt])
            quads.append((vs, _label(side, w, d + 1, d)))
    quads.sort(key=lambda q: q[0])

    return SignedBlowupGraph(n, vertices, edges,
                             triple.h_plus.dimension(), signs, tuple(quads),
                             d, d0, side)
