"""Hessenberg functions and their combinatorial calculus.

A Hessenberg function of size n is a non-decreasing map h: [n] -> [n] with
h(j) >= j.  It is stored as the value vector (h(1), ..., h(n)) and can be
pictured as a staircase of shaded boxes on an n x n grid (column j shaded
in rows 1..h(j)); see :func:`ascii_diagram`.

The module also provides the indifference graph G_h, the transpose h^t
(anti-diagonal flip of the box picture), products, the detection of
modular triples of kinds (C) and (R), and exhaustive enumeration of all
Hessenberg functions of a given size (Catalan many).
"""

from __future__ import annotations

from typing import Iterator


class NotNonDecreasing(ValueError):
    """The value vector decreases somewhere."""


class ValueOutOfRange(ValueError):
    """Some value violates j <= h(j) <= n."""


class WrongKind(ValueError):
    """A kind-C-only construction was asked to handle a kind-R triple."""


def _frozen(self, name, *value):
    """The __setattr__ and __delattr__ of an immutable value type."""
    raise AttributeError(f"cannot assign to field {name!r}")


class HessenbergFunction:
    """Validated non-decreasing h: [n] -> [n] with h(j) >= j.

    ``values[j-1]`` is h(j); all indexing in the public API is 1-based to
    match the usual combinatorial conventions.
    """

    def __init__(self, values: tuple[int, ...]):
        vals = tuple(int(v) for v in values)
        object.__setattr__(self, "values", vals)
        n = len(vals)
        if n == 0:
            raise ValueOutOfRange("empty value vector")
        for j in range(1, n):
            if vals[j] < vals[j - 1]:
                raise NotNonDecreasing(
                    f"h({j}) = {vals[j-1]} > h({j+1}) = {vals[j]}")
        for j in range(1, n + 1):
            if not j <= vals[j - 1] <= n:
                raise ValueOutOfRange(
                    f"h({j}) = {vals[j-1]} outside [{j}, {n}]")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return type(other) is type(self) and self.values == other.values

    def __hash__(self):
        return hash((self.values,))

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, j: int) -> int:
        """Value h(j), 1-based."""
        return self.values[j - 1]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    def preimage(self, v: int) -> tuple[int, ...]:
        """All j with h(j) = v."""
        return tuple(j for j in range(1, self.n + 1) if self.values[j - 1] == v)

    def dimension(self) -> int:
        """Sum of h(j) - j; the complex dimension of the associated variety."""
        return sum(v - j for j, v in enumerate(self.values, start=1))

    def transpose(self) -> "HessenbergFunction":
        """Flip the box configuration along the anti-diagonal.

        h^t(j) counts the columns i whose shaded boxes reach row n+1-j,
        i.e. h^t(j) = #{i : h(i) >= n+1-j}.
        """
        n = self.n
        vals = tuple(sum(1 for v in self.values if v >= n + 1 - j)
                     for j in range(1, n + 1))
        return HessenbergFunction(vals)

    def product(self, other: "HessenbergFunction") -> "HessenbergFunction":
        """Block-diagonal concatenation: other's values shifted by self.n."""
        n1 = self.n
        return HessenbergFunction(
            self.values + tuple(v + n1 for v in other.values))


def validate(values) -> HessenbergFunction:
    """Validate a value vector, raising NotNonDecreasing / ValueOutOfRange."""
    return HessenbergFunction(tuple(values))


def from_string(text: str) -> HessenbergFunction:
    """Parse the canonical comma-separated form, e.g. "2,3,3"."""
    try:
        vals = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueOutOfRange(f"cannot parse {text!r}") from exc
    return validate(vals)


def transpose(h: HessenbergFunction) -> HessenbergFunction:
    return h.transpose()


def product(h1: HessenbergFunction, h2: HessenbergFunction) -> HessenbergFunction:
    return h1.product(h2)


class IndifferenceGraph:
    """Graph on [n] with an edge {i, j} whenever j < i <= h(j).

    Edges are stored as (i, j) pairs with i > j.
    """

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]):
        vars(self).update(n=n, edges=edges)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))


def indifference_graph(h: HessenbergFunction) -> IndifferenceGraph:
    edges = frozenset((i, j)
                      for j in range(1, h.n + 1)
                      for i in range(j + 1, h(j) + 1))
    return IndifferenceGraph(h.n, edges)


class ModularTriple:
    """A triple (h_minus, h, h_plus) satisfying condition (C) or (R).

    Kind C carries params (d, d0): h(d) = h(d+1), h^{-1}(d) = {d0} with
    1 <= d0 < d < n, and h_-/h_+ lower/raise the value at d0 to d-1/d+1.
    Kind R carries params (dprime,): h(d')+1 = h(d'+1) != d'+1 and
    h^{-1}(d') is empty; h_- lowers position d'+1, h_+ raises position d'.
    """

    def __init__(self, kind: str, h_minus: HessenbergFunction,
                 h: HessenbergFunction, h_plus: HessenbergFunction,
                 params: tuple[int, ...]):
        vars(self).update(kind=kind, h_minus=h_minus, h=h, h_plus=h_plus,
                          params=params)
        if kind not in ("C", "R"):
            raise WrongKind(f"kind must be 'C' or 'R', got {kind!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    @property
    def d(self) -> int:
        """The distinguished value d (kind C) or row d' (kind R)."""
        return self.params[0]

    @property
    def d0(self) -> int:
        if self.kind != "C":
            raise WrongKind("d0 is only defined for kind-C triples")
        return self.params[1]


def _triple_C(h: HessenbergFunction, d: int, d0: int) -> ModularTriple:
    lo = list(h.values)
    hi = list(h.values)
    lo[d0 - 1] = d - 1
    hi[d0 - 1] = d + 1
    # conditions (C)/(R) guarantee validity; validate() re-checks anyway
    return ModularTriple("C", validate(lo), h, validate(hi), (d, d0))


def _triple_R(h: HessenbergFunction, dp: int) -> ModularTriple:
    lo = list(h.values)
    hi = list(h.values)
    lo[dp] = h(dp)          # position d'+1 lowered to h(d')
    hi[dp - 1] = h(dp) + 1  # position d' raised
    return ModularTriple("R", validate(lo), h, validate(hi), (dp,))


def find_modular_triples(h: HessenbergFunction) -> list[ModularTriple]:
    """All modular triples with middle member h, kind C first, then kind R."""
    n = h.n
    out = []
    for d in range(2, n):
        if h(d) != h(d + 1):
            continue
        pre = h.preimage(d)
        if len(pre) == 1 and pre[0] < d:
            out.append(_triple_C(h, d, pre[0]))
    for dp in range(1, n):
        if h(dp) + 1 == h(dp + 1) != dp + 1 and not h.preimage(dp):
            out.append(_triple_R(h, dp))
    return out


def transpose_duality_check(h: HessenbergFunction) -> bool:
    """Kind-C triples of h^t match kind-R triples of h via d' = n - d.

    The correspondence also transposes the members: the outer functions of
    the kind-C triple of h^t are the transposes of the outer functions of
    the matching kind-R triple of h.
    """
    n = h.n
    ht = h.transpose()
    cs = {t.d: t for t in find_modular_triples(ht) if t.kind == "C"}
    rs = {t.d: t for t in find_modular_triples(h) if t.kind == "R"}
    if sorted(n - d for d in cs) != sorted(rs):
        return False
    for d, ct in cs.items():
        rt = rs[n - d]
        if ct.h_minus.transpose() != rt.h_minus:
            return False
        if ct.h_plus.transpose() != rt.h_plus:
            return False
    return True


def is_initial(h: HessenbergFunction) -> tuple[bool, tuple[int, ...] | None]:
    """Whether h is a product of full blocks (each h_i constant n_i on [n_i]).

    Returns (True, block_sizes) or (False, None).
    """
    blocks = []
    start = 0
    while start < h.n:
        size = h.values[start] - start
        for j in range(start, start + size):
            if j >= h.n or h.values[j] != start + size:
                return False, None
        blocks.append(size)
        start += size
    return True, tuple(blocks)


def enumerate_hessenberg(n: int) -> Iterator[HessenbergFunction]:
    """Yield every Hessenberg function of size n exactly once (C_n many)."""
    if n < 1:
        raise ValueOutOfRange("n must be positive")
    if n > 10:
        raise ValueOutOfRange("enumeration capped at n = 10")

    def rec(prefix: list[int]) -> Iterator[HessenbergFunction]:
        j = len(prefix) + 1
        if j > n:
            yield HessenbergFunction(tuple(prefix))
            return
        lo = max(j, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([])


def ascii_diagram(h: HessenbergFunction) -> str:
    """Render the shaded-box configuration; '#' shaded, '.' empty.

    >>> print(ascii_diagram(from_string("2,3,3")))
    ###
    ###
    .##
    """
    return "\n".join(
        "".join("#" if i <= h(j) else "." for j in range(1, h.n + 1))
        for i in range(1, h.n + 1))
