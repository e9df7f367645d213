"""Exact symmetric-function arithmetic of homogeneous degree n.

Supports the five standard bases (m, e, h, p, s) with Fraction
coefficients, the involution omega, Frobenius characteristic of class
functions on the symmetric group, and q-graded versions.  The degree is
capped at DEGREE_CAP: larger inputs are rejected rather than silently
slow.

Transition routes: the power-to-Schur matrix comes from symmetric-group
characters computed by the Murnaghan-Nakayama rule; Schur-to-monomial is
Kostka numbers counted over semistandard tableaux; e and h reach p through
the Newton recurrences.  The monomial basis is the canonical comparison
basis, and every other basis converts to it through these routes (inverses
by exact Gaussian elimination on the tiny transition matrices, cached per
degree and basis).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

DEGREE_CAP = 8

BASES = ("m", "e", "h", "p", "s")

Partition = tuple[int, ...]


class DegreeTooLarge(ValueError):
    """Degree beyond DEGREE_CAP."""


def check_degree(n: int) -> None:
    if n > DEGREE_CAP:
        raise DegreeTooLarge(f"degree {n} exceeds cap {DEGREE_CAP}")


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in lexicographically decreasing order."""
    def rec(rem: int, mx: int) -> list[Partition]:
        if rem == 0:
            return [()]
        out = []
        for first in range(min(rem, mx), 0, -1):
            out.extend((first,) + rest for rest in rec(rem - first, first))
        return out

    return tuple(rec(n, n))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def z_lambda(lam: Partition) -> int:
    """Centralizer order: product of i^m_i * m_i! over part sizes i."""
    z = 1
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for i, m in mult.items():
        z *= i ** m * factorial(m)
    return z


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters and Kostka numbers

@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """Symmetric-group character value chi^lam(mu) by border-strip removal."""
    if not mu:
        return 1 if not lam else 0
    r = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = tuple(lam[i] + (ell - 1 - i) for i in range(ell))
    beta_set = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        # height of the strip = number of beta entries strictly between nb and b
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.insert(0, nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(x - (len(new_beta) - 1 - i)
                        for i, x in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * mn_character(new_lam, rest)
    return total


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    if not lam:
        return 1 if not mu else 0
    if sum(lam) != sum(mu):
        return 0
    last = mu[-1]
    rest = mu[:-1]
    total = 0
    for nu in _horizontal_strip_removals(lam, last):
        total += kostka(nu, rest)
    return total


def _horizontal_strip_removals(lam: Partition, size: int):
    """All partitions nu with lam/nu a horizontal strip of the given size."""
    ell = len(lam)

    def rec(i: int, remaining: int, prefix: list[int]):
        if i == ell:
            if remaining == 0:
                yield tuple(x for x in prefix if x > 0)
            return
        below = lam[i + 1] if i + 1 < ell else 0
        hi = lam[i] if i == 0 else min(lam[i], prefix[-1])
        lo = below
        for v in range(hi, lo - 1, -1):
            removed = lam[i] - v
            if removed > remaining:
                continue
            prefix.append(v)
            yield from rec(i + 1, remaining - removed, prefix)
            prefix.pop()

    yield from rec(0, size, [])


# ---------------------------------------------------------------------------
# p-expansions of e_k and h_k by Newton's recurrences

PExp = dict[Partition, Fraction]


def _p_mult_by_pr(exp: PExp, r: int) -> PExp:
    out: PExp = {}
    for lam, c in exp.items():
        key = tuple(sorted(lam + (r,), reverse=True))
        out[key] = out.get(key, Fraction(0)) + c
    return out


def _p_add(a: PExp, b: PExp, scale: Fraction = Fraction(1)) -> PExp:
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, Fraction(0)) + scale * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


@lru_cache(maxsize=None)
def _e_in_p(k: int):
    """p-expansion of the elementary e_k: k e_k = sum (-1)^(i-1) e_{k-i} p_i."""
    if k == 0:
        return (((), Fraction(1)),)
    acc: PExp = {}
    for i in range(1, k + 1):
        prev = dict(_e_in_p(k - i))
        acc = _p_add(acc, _p_mult_by_pr(prev, i), Fraction((-1) ** (i - 1), k))
    return tuple(sorted(acc.items()))


@lru_cache(maxsize=None)
def _h_in_p(k: int):
    """p-expansion of the complete homogeneous h_k: k h_k = sum h_{k-i} p_i."""
    if k == 0:
        return (((), Fraction(1)),)
    acc: PExp = {}
    for i in range(1, k + 1):
        prev = dict(_h_in_p(k - i))
        acc = _p_add(acc, _p_mult_by_pr(prev, i), Fraction(1, k))
    return tuple(sorted(acc.items()))


def _multiplicative_in_p(lam: Partition, single) -> PExp:
    exp: PExp = {(): Fraction(1)}
    for part in lam:
        factor = dict(single(part))
        out: PExp = {}
        for mu1, c1 in exp.items():
            for mu2, c2 in factor.items():
                key = tuple(sorted(mu1 + mu2, reverse=True))
                nv = out.get(key, Fraction(0)) + c1 * c2
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        exp = out
    return exp


# ---------------------------------------------------------------------------
# Transition matrices into the monomial basis

@lru_cache(maxsize=None)
def _to_m_matrix(n: int, basis: str):
    """Matrix rows: index partition -> m-expansion (dict over partitions)."""
    check_degree(n)
    parts = partitions_of(n)
    if basis == "m":
        return {lam: {lam: Fraction(1)} for lam in parts}
    if basis == "s":
        return {lam: {mu: Fraction(kostka(lam, mu))
                      for mu in parts if kostka(lam, mu)}
                for lam in parts}
    if basis == "p":
        s_to_m = _to_m_matrix(n, "s")
        out = {}
        for mu in parts:
            row: dict[Partition, Fraction] = {}
            for lam in parts:
                chi = mn_character(lam, mu)
                if not chi:
                    continue
                for nu, c in s_to_m[lam].items():
                    nv = row.get(nu, Fraction(0)) + chi * c
                    if nv:
                        row[nu] = nv
                    else:
                        row.pop(nu, None)
            out[mu] = row
        return out
    if basis in ("e", "h"):
        p_to_m = _to_m_matrix(n, "p")
        single = _e_in_p if basis == "e" else _h_in_p
        out = {}
        for lam in parts:
            pexp = _multiplicative_in_p(lam, single)
            row: dict[Partition, Fraction] = {}
            for mu, c in pexp.items():
                for nu, cm in p_to_m[mu].items():
                    nv = row.get(nu, Fraction(0)) + c * cm
                    if nv:
                        row[nu] = nv
                    else:
                        row.pop(nu, None)
            out[lam] = row
        return out
    raise ValueError(f"unknown basis {basis!r}")


@lru_cache(maxsize=None)
def _from_m_matrix(n: int, basis: str):
    """Inverse transition: m-vector -> coefficients in the target basis."""
    parts = partitions_of(n)
    fwd = _to_m_matrix(n, basis)
    k = len(parts)
    idx = {lam: i for i, lam in enumerate(parts)}
    # dense augmented elimination on the k x k transition matrix
    mat = [[Fraction(0)] * (2 * k) for _ in range(k)]
    for lam in parts:
        for mu, c in fwd[lam].items():
            mat[idx[mu]][idx[lam]] = c   # columns indexed by source basis
    for i in range(k):
        mat[i][k + i] = Fraction(1)
    for col in range(k):
        piv = next(r for r in range(col, k) if mat[r][col])
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(k):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
    inv = {}
    for j, mu in enumerate(parts):
        col = {}
        for i, lam in enumerate(parts):
            v = mat[i][k + j]
            if v:
                col[lam] = v
        inv[mu] = col   # m_mu -> expansion in target basis
    return inv


# ---------------------------------------------------------------------------
# SymmetricFunction

def _fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_frac(text: str) -> Fraction:
    return Fraction(text)


class SymmetricFunction:
    """Homogeneous degree-n symmetric function in one of the bases m,e,h,p,s."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: dict | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.degree = degree
        self.basis = basis
        clean = {}
        for lam, c in (coeffs or {}).items():
            lam = tuple(lam)
            if sum(lam) != degree:
                raise ValueError(f"partition {lam} has weight != {degree}")
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
                raise ValueError(f"{lam} is not weakly decreasing")
            c = Fraction(c)
            if c:
                clean[lam] = c
        self.coeffs = clean

    @classmethod
    def generator(cls, basis: str, lam, coeff=1) -> "SymmetricFunction":
        lam = tuple(lam)
        return cls(sum(lam), basis, {lam: Fraction(coeff)})

    @classmethod
    def zero(cls, degree: int, basis: str = "m") -> "SymmetricFunction":
        return cls(degree, basis, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def convert(self, target: str) -> "SymmetricFunction":
        if target == self.basis:
            return self
        check_degree(self.degree)
        fwd = _to_m_matrix(self.degree, self.basis)
        mvec: dict[Partition, Fraction] = {}
        for lam, c in self.coeffs.items():
            for mu, t in fwd[lam].items():
                nv = mvec.get(mu, Fraction(0)) + c * t
                if nv:
                    mvec[mu] = nv
                else:
                    mvec.pop(mu, None)
        if target == "m":
            return SymmetricFunction(self.degree, "m", mvec)
        inv = _from_m_matrix(self.degree, target)
        out: dict[Partition, Fraction] = {}
        for mu, c in mvec.items():
            for lam, t in inv[mu].items():
                nv = out.get(lam, Fraction(0)) + c * t
                if nv:
                    out[lam] = nv
                else:
                    out.pop(lam, None)
        return SymmetricFunction(self.degree, target, out)

    def omega(self) -> "SymmetricFunction":
        """The involution with omega(e_k) = h_k, omega(p_r) = (-1)^(r-1) p_r."""
        if self.basis == "e":
            return SymmetricFunction(self.degree, "h", self.coeffs)
        if self.basis == "h":
            return SymmetricFunction(self.degree, "e", self.coeffs)
        if self.basis == "s":
            return SymmetricFunction(
                self.degree, "s",
                {conjugate(lam): c for lam, c in self.coeffs.items()})
        if self.basis == "p":
            return SymmetricFunction(
                self.degree, "p",
                {lam: c * (-1) ** (sum(lam) - len(lam))
                 for lam, c in self.coeffs.items()})
        return self.convert("p").omega().convert("m")

    def __add__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        if other.basis != self.basis:
            other = other.convert(self.basis)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            nv = out.get(lam, Fraction(0)) + c
            if nv:
                out[lam] = nv
            else:
                out.pop(lam, None)
        return SymmetricFunction(self.degree, self.basis, out)

    def __sub__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        return self + other.scale(-1)

    def scale(self, c) -> "SymmetricFunction":
        c = Fraction(c)
        return SymmetricFunction(
            self.degree, self.basis,
            {lam: c * v for lam, v in self.coeffs.items()})

    def multiply(self, other: "SymmetricFunction") -> "SymmetricFunction":
        """Ring product, computed in the power-sum basis."""
        deg = self.degree + other.degree
        check_degree(deg)
        a = self.convert("p").coeffs
        b = other.convert("p").coeffs
        out: dict[Partition, Fraction] = {}
        for lam, c1 in a.items():
            for mu, c2 in b.items():
                key = tuple(sorted(lam + mu, reverse=True))
                nv = out.get(key, Fraction(0)) + c1 * c2
                if nv:
                    out[key] = nv
                else:
                    out.pop(key, None)
        return SymmetricFunction(deg, "p", out).convert(self.basis)

    def __mul__(self, other):
        if isinstance(other, SymmetricFunction):
            return self.multiply(other)
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if self.degree != other.degree:
            return False
        return self.convert("m").coeffs == other.convert("m").coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for lam in sorted(self.coeffs, reverse=True):
            c = self.coeffs[lam]
            body = f"{self.basis}[{','.join(map(str, lam))}]"
            bits.append(body if c == 1 else f"{_fmt_frac(c)}*{body}")
        return " + ".join(bits)


def convert(f: SymmetricFunction, target_basis: str) -> SymmetricFunction:
    return f.convert(target_basis)


def omega(f: SymmetricFunction) -> SymmetricFunction:
    return f.omega()


def multiply(f: SymmetricFunction, g: SymmetricFunction) -> SymmetricFunction:
    return f.multiply(g)


# ---------------------------------------------------------------------------
# Class functions and Frobenius characteristic

class ClassFunction:
    """Rational-valued class function on the symmetric group S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = n
        vals = {tuple(lam): Fraction(v) for lam, v in values.items()}
        missing = [lam for lam in partitions_of(n) if lam not in vals]
        if missing:
            raise ValueError(f"missing cycle types: {missing}")
        self.values = vals

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError("sizes differ")
        return ClassFunction(
            self.n, {lam: self.values[lam] + other.values[lam]
                     for lam in self.values})

    def __eq__(self, other) -> bool:
        return isinstance(other, ClassFunction) and self.n == other.n \
            and self.values == other.values


def frobenius(chi: ClassFunction) -> SymmetricFunction:
    """(1/n!) sum |C_lam| chi(lam) p_lam = sum chi(lam)/z_lam p_lam."""
    coeffs = {lam: v / z_lambda(lam)
              for lam, v in chi.values.items() if v}
    return SymmetricFunction(chi.n, "p", coeffs)


# ---------------------------------------------------------------------------
# Graded (q-polynomial) symmetric functions

class GradedSymmetricFunction:
    """Finite q-expansion with degree-n symmetric function coefficients."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict | None = None):
        self.degree = degree
        clean = {}
        for k, f in (terms or {}).items():
            if f.degree != degree:
                raise ValueError("term degree mismatch")
            if not f.is_zero():
                clean[int(k)] = f
        self.terms = clean

    @classmethod
    def zero(cls, degree: int) -> "GradedSymmetricFunction":
        return cls(degree, {})

    def term(self, k: int) -> SymmetricFunction:
        return self.terms.get(k, SymmetricFunction.zero(self.degree))

    def max_q(self) -> int:
        return max(self.terms, default=-1)

    def __add__(self, other: "GradedSymmetricFunction") -> "GradedSymmetricFunction":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        out = dict(self.terms)
        for k, f in other.terms.items():
            out[k] = out[k] + f if k in out else f
        return GradedSymmetricFunction(self.degree, out)

    def __sub__(self, other: "GradedSymmetricFunction") -> "GradedSymmetricFunction":
        return self + other.scale_qpoly({0: Fraction(-1)})

    def scale_qpoly(self, qpoly: dict) -> "GradedSymmetricFunction":
        """Multiply by a polynomial in q given as {exponent: coefficient}."""
        out: dict[int, SymmetricFunction] = {}
        for j, c in qpoly.items():
            c = Fraction(c)
            if not c:
                continue
            for k, f in self.terms.items():
                kk = k + int(j)
                add = f.scale(c)
                out[kk] = out[kk] + add if kk in out else add
        return GradedSymmetricFunction(self.degree, out)

    def multiply(self, other: "GradedSymmetricFunction") -> "GradedSymmetricFunction":
        """Graded ring product (q exponents add, coefficients multiply)."""
        out: dict[int, SymmetricFunction] = {}
        for k1, f1 in self.terms.items():
            for k2, f2 in other.terms.items():
                prod = f1.multiply(f2)
                k = k1 + k2
                out[k] = out[k] + prod if k in out else prod
        return GradedSymmetricFunction(self.degree + other.degree, out)

    def convert(self, basis: str) -> "GradedSymmetricFunction":
        return GradedSymmetricFunction(
            self.degree, {k: f.convert(basis) for k, f in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSymmetricFunction):
            return NotImplemented
        if self.degree != other.degree:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(self.term(k) == other.term(k) for k in keys)

    def to_json(self) -> dict:
        """Shared CLI schema; mixed-basis terms are normalized to m first."""
        bases = {f.basis for f in self.terms.values()}
        gf = self if len(bases) <= 1 else self.convert("m")
        terms = {}
        for k in sorted(gf.terms):
            coeffs = gf.terms[k].coeffs
            terms[str(k)] = {
                "[" + ",".join(map(str, lam)) + "]": _fmt_frac(c)
                for lam, c in sorted(coeffs.items(), reverse=True)}
        return {"degree": gf.degree,
                "basis": next(iter(bases)) if len(bases) == 1 else "m",
                "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "GradedSymmetricFunction":
        degree = int(data["degree"])
        basis = data["basis"]
        terms = {}
        for k, coeffs in data["terms"].items():
            parsed = {}
            for key, val in coeffs.items():
                lam = tuple(int(x) for x in key.strip("[]").split(",") if x)
                parsed[lam] = _parse_frac(val)
            terms[int(k)] = SymmetricFunction(degree, basis, parsed)
        return cls(degree, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            f = repr(self.terms[k])
            q = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            bits.append(f"({f})" + (f"*{q}" if q else ""))
        return " + ".join(bits)
