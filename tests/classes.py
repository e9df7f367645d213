"""Equivariant classes as vertex-to-polynomial maps: the polynomial oracle
of the tests.

gkmhess works on integer coordinate vectors only.  Here a class is a map
from the vertices of a labeled graph to homogeneous polynomials in
t_1..t_n, each a dict from exponent tuples to nonzero Fractions, and
membership is decided by polynomial divisibility, never by the constraint
rows of :mod:`gkmhess.cohomology`: t_a - t_b divides p when p vanishes at
t_a = t_b, and its square divides p when the first-order term of
t_a -> t_b + eps vanishes too.  Map images are read from the map
matrices of the full-kernel oracle (:func:`full_kernels.map_matrix`),
which test_maps checks against the vertex formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gkmhess.cohomology import MembershipFailed, monomial_index, monomials
from gkmhess.graphs import SignedBlowupGraph, Vertex, plain, swap_positions
from gkmhess.maps import MAPS
from full_kernels import map_matrix

Poly = dict[tuple, Fraction]


def _collect(terms) -> dict:
    """The (key, coefficient) terms summed by key, zeros dropped."""
    out: dict = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: Fraction(c) for e, c in out.items() if c}


def const(n: int, c) -> Poly:
    return _collect([((0,) * n, c)])


def tvar(n: int, i: int) -> Poly:
    """The variable t_i (1-based)."""
    return {tuple(int(j == i) for j in range(1, n + 1)): Fraction(1)}


def add(p: Poly, q: Poly, scale=1) -> Poly:
    return _collect([*p.items(), *((e, scale * c) for e, c in q.items())])


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, q, -1)


def mul(p: Poly, q: Poly) -> Poly:
    return _collect((tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
                    for e1, c1 in p.items() for e2, c2 in q.items())


def mul_linear_diff(p: Poly, n: int, a: int, b: int) -> Poly:
    """p times (t_a - t_b)."""
    return mul(p, sub(tvar(n, a), tvar(n, b)))


def divisible_by_diff(p: Poly, a: int, b: int, order: int = 1) -> bool:
    """Whether (t_a - t_b)^order divides p (order 1 or 2)."""
    def moved(e: tuple, drop: int) -> tuple:   # t_a^e_a -> t_b^(e_a - drop)
        ee = list(e)
        ee[b - 1] += ee[a - 1] - drop
        ee[a - 1] = 0
        return tuple(ee)

    if _collect((moved(e, 0), c) for e, c in p.items()):
        return False
    return order == 1 or not _collect(
        (moved(e, 1), e[a - 1] * c) for e, c in p.items() if e[a - 1])


@dataclass
class EquivariantClass:
    """A vertex-to-polynomial map satisfying the graph congruences;
    MembershipFailed on construction otherwise."""

    graph: object
    degree: int
    values: dict[Vertex, Poly]

    def __post_init__(self):
        for v, p in self.values.items():
            if any(sum(e) != self.degree for e in p):
                raise MembershipFailed(
                    f"value at {v} is not homogeneous of degree {self.degree}")
        if not membership_check(self, self.graph):
            raise MembershipFailed("congruence conditions violated")

    def vector(self) -> dict[int, Fraction]:
        """The class in monomial-major coordinates."""
        nv = len(self.graph.vertices)
        idx = monomial_index(self.graph.n, self.degree)
        vidx = self.graph.vertex_index
        return {idx[e] * nv + nv - 1 - vidx[v]: c
                for v, p in self.values.items() for e, c in p.items()}

    @classmethod
    def from_vector(cls, graph, degree: int,
                    col: dict) -> "EquivariantClass":
        mons = monomials(graph.n, degree)
        nv = len(graph.vertices)
        values: dict[Vertex, Poly] = {}
        for c, val in col.items():
            if val:
                values.setdefault(graph.vertices[nv - 1 - c % nv], {})[
                    mons[c // nv]] = Fraction(val)
        return cls(graph, degree, values)

    def value(self, v: Vertex) -> Poly:
        return self.values.get(v, {})


def membership_check(cls: EquivariantClass, graph) -> bool:
    """Every edge congruence, and every quad condition if signed."""
    verts = graph.vertices
    for ui, vi, (a, b) in graph.edges:
        if not divisible_by_diff(
                sub(cls.value(verts[ui]), cls.value(verts[vi])), a, b):
            return False
    if isinstance(graph, SignedBlowupGraph):
        for vs, (a, b) in graph.quads:
            acc: Poly = {}
            for vi in vs:
                acc = add(acc, cls.value(verts[vi]), graph.signs[vi])
            if not divisible_by_diff(acc, a, b, order=2):
                return False
    return True


def make_class_xi(graph, i: int) -> EquivariantClass:
    """The degree-1 class with x_i(w) = t_{w(i)} and x_i(circ(w tau)) =
    t_{w(i)}, on the X side (plain graphs from build_GX, or X-side
    blow-ups)."""
    if isinstance(graph, SignedBlowupGraph):
        if graph.side != "x":
            raise MembershipFailed("x_i classes live on the X side")
        d = graph.d
        perm = {v: swap_positions(v.perm, d + 1, d) if v.circle else v.perm
                for v in graph.vertices}
    else:
        perm = {v: v.perm for v in graph.vertices}
    return EquivariantClass(
        graph, 1, {v: tvar(graph.n, w[i - 1]) for v, w in perm.items()})


def apply_map(ctx, name: str, f: EquivariantClass) -> EquivariantClass:
    """The class name(f) on the blow-up, by the map's matrix; f lives on
    the map's source graph.  MembershipFailed if the image violates a
    congruence."""
    k = f.degree + MAPS[name][2]
    matrix = map_matrix(ctx, name, k)
    return EquivariantClass.from_vector(ctx.blowup, k, _collect(
        (t, coeff * val) for c, val in f.vector().items()
        for t, coeff in matrix[c]))


def divide_by_diff(p: Poly, n: int, a: int, b: int) -> Poly:
    """Exact quotient p / (t_a - t_b); ValueError if not divisible.

    With a < b the lex-leading monomial of any multiple of t_a - t_b has
    positive t_a exponent, so peeling leading terms terminates.
    """
    if a > b:
        return sub({}, divide_by_diff(p, n, b, a))
    rem, quot = dict(p), {}
    while rem:
        e = max(rem)   # lex-leading exponent
        if not e[a - 1]:
            raise ValueError("polynomial is not divisible by the difference")
        term = {e[:a - 1] + (e[a - 1] - 1,) + e[a:]: rem[e]}
        quot = add(quot, term)
        rem = sub(rem, mul_linear_diff(term, n, a, b))
    return quot


def constructive_preimage(ctx, f_tilde: EquivariantClass
                          ) -> tuple[EquivariantClass, EquivariantClass]:
    """Split f_tilde as phi(f) + psi_!(g) on side x: f is the circle
    restriction and g the exact quotient of the plain remainder by the
    joining label, as in the surjectivity argument."""
    if ctx.side != "x":
        raise ValueError("the splitting is implemented on side X")
    d = ctx.d
    f = EquivariantClass(ctx.g_circle, f_tilde.degree,
                         {v: f_tilde.value(v) for v in ctx.g_circle.vertices
                          if f_tilde.value(v)})
    phi_f = apply_map(ctx, "phi", f)
    g_vals: dict[Vertex, Poly] = {}
    for v in ctx.g_mid.vertices:
        w = v.perm
        rem = sub(f_tilde.value(plain(w)), phi_f.value(plain(w)))
        if rem:
            g_vals[v] = divide_by_diff(rem, ctx.blowup.n, w[d], w[d - 1])
    return f, EquivariantClass(ctx.g_mid, f_tilde.degree - 1, g_vals)
