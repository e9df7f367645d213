"""The irreducibles of S_n in rational arithmetic, read only by the tests:
Young's seminormal matrices multiplied out densely in Fractions and
certified by the same Coxeter relations and Murnaghan-Nakayama characters
as :func:`gkmhess.isotypic.representations`, which does it in integers
scaled by D = lcm(1, ..., n-1)^2.  The tests compare the two."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from gkmhess.graphs import Perm, class_representative
from gkmhess.isotypic import (
    Matrix, NotARepresentation, _word, seminormal_matrices,
    standard_tableaux)
from gkmhess.symfunc import Partition, mn_character, partitions_of


def mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, summing over the nonzero entries of each column of b."""
    cols = [[(j, row[c]) for j, row in enumerate(b) if row[c]]
            for c in range(len(b[0]))]
    return [[sum((ra[j] * x for j, x in col), Fraction(0)) for col in cols]
            for ra in a]


def identity(d: int) -> Matrix:
    return [[Fraction(int(p == q)) for q in range(d)] for p in range(d)]


def _rho(gens: list[Matrix], d: int, w: Perm) -> Matrix:
    out = identity(d)
    for k in _word(w):
        out = mul(out, gens[k - 1])
    return out


@lru_cache(maxsize=None)
def representations(n: int) -> dict[Partition, dict[tuple[int, int], Matrix]]:
    """lam -> (a, b) -> rho_lam((a b)) as a Fraction matrix, certified by
    dense products; NotARepresentation otherwise."""
    out = {}
    for lam in partitions_of(n):
        gens = seminormal_matrices(lam)
        d = len(standard_tableaux(lam))
        one = identity(d)
        for i, s in enumerate(gens):
            for j, u in enumerate(gens[:i + 1]):
                order = (1, 3, 2)[min(i - j, 2)]
                prod = mul(s, u)
                power = prod
                for _ in range(order - 1):
                    power = mul(power, prod)
                if power != one:
                    raise NotARepresentation(
                        f"shape {lam}: (s_{i + 1} s_{j + 1})^{order} != 1")
        for mu in partitions_of(n):
            m = _rho(gens, d, class_representative(mu))
            if sum(m[p][p] for p in range(d)) != mn_character(lam, mu):
                raise NotARepresentation(
                    f"shape {lam}: the trace at class {mu} is not the "
                    f"character")
        out[lam] = rhos = {}
        for a in range(1, n):
            rhos[a, a + 1] = gens[a - 1]
            for b in range(a + 2, n + 1):   # (a b) = s_{b-1} (a b-1) s_{b-1}
                rhos[a, b] = mul(mul(gens[b - 2], rhos[a, b - 1]),
                                 gens[b - 2])
    return out


def rho(n: int, lam: Partition, w: Perm) -> Matrix:
    """rho_lam(w) as a Fraction matrix."""
    mats = representations(n)[lam]
    return _rho([mats[k, k + 1] for k in range(1, n)],
                len(standard_tableaux(lam)), w)


def fractions(scaled) -> Matrix:
    """The Fraction matrix of an integer (rows, den) pair."""
    rows, den = scaled
    return [[Fraction(x, den) for x in row] for row in rows]
