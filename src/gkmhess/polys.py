"""Sparse multivariate polynomials over Fraction, used for edge labels,
equivariant classes, and divisibility checks.

A polynomial in t_1..t_n is a dict mapping exponent tuples (length n) to
nonzero Fractions.  Divisibility by a linear form t_a - t_b is tested by
substituting t_a <- t_b and checking for zero; divisibility by its square
additionally requires the first-order coefficient of the substitution
t_a <- t_b + eps to vanish.
"""

from __future__ import annotations

from fractions import Fraction

Poly = dict[tuple, Fraction]


def const(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def tvar(n: int, i: int, coeff=1) -> Poly:
    """The variable t_i (1-based) scaled by coeff."""
    e = [0] * n
    e[i - 1] = 1
    c = Fraction(coeff)
    return {tuple(e): c} if c else {}


def add(p: Poly, q: Poly, scale=1) -> Poly:
    scale = Fraction(scale)
    out = dict(p)
    for e, c in q.items():
        nv = out.get(e, Fraction(0)) + scale * c
        if nv:
            out[e] = nv
        else:
            out.pop(e, None)
    return out


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, q, -1)


def scale(p: Poly, c) -> Poly:
    c = Fraction(c)
    if not c:
        return {}
    return {e: c * v for e, v in p.items()}


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            nv = out.get(e, Fraction(0)) + c1 * c2
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
    return out


def mul_linear_diff(p: Poly, n: int, a: int, b: int) -> Poly:
    """Multiply by (t_a - t_b)."""
    return sub(mul(p, tvar(n, a)), mul(p, tvar(n, b)))


def subst_var(p: Poly, a: int, b: int) -> Poly:
    """Substitute t_a <- t_b (1-based)."""
    out: Poly = {}
    for e, c in p.items():
        ee = list(e)
        ee[b - 1] += ee[a - 1]
        ee[a - 1] = 0
        key = tuple(ee)
        nv = out.get(key, Fraction(0)) + c
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def eps_first_order(p: Poly, a: int, b: int) -> Poly:
    """Coefficient of eps in p after substituting t_a <- t_b + eps."""
    out: Poly = {}
    for e, c in p.items():
        ea = e[a - 1]
        if not ea:
            continue
        ee = list(e)
        ee[a - 1] = 0
        ee[b - 1] += ea - 1
        key = tuple(ee)
        nv = out.get(key, Fraction(0)) + ea * c
        if nv:
            out[key] = nv
        else:
            out.pop(key, None)
    return out


def divisible_by_diff(p: Poly, a: int, b: int, order: int = 1) -> bool:
    """Whether (t_a - t_b)^order divides p (order 1 or 2)."""
    if subst_var(p, a, b):
        return False
    if order == 2:
        return not eps_first_order(p, a, b)
    return True


def is_homogeneous(p: Poly, k: int) -> bool:
    return all(sum(e) == k for e in p)
