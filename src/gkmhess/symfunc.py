"""Exact symmetric-function arithmetic of homogeneous degree n.

Supports the five standard bases (m, e, h, p, s) with Fraction
coefficients, the involution omega, Frobenius characteristic of class
functions on the symmetric group, and q-graded versions.  The degree is
capped at DEGREE_CAP: larger inputs are rejected rather than silently
slow.

Transition routes: every conversion goes through the Schur basis, by two
tables per degree and basis, one into s and one out of it, each cached.
All of them are closed forms in Kostka numbers K (counted over
semistandard tableaux), their inverse L = K^-1 (integer and unitriangular,
by back substitution) and symmetric-group characters chi (Murnaghan-
Nakayama rule): s_lam = sum K(lam, mu) m_mu, h_mu = sum K(lam, mu) s_lam,
e_mu = sum K(lam', mu) s_lam and p_mu = sum chi^lam(mu) s_lam, with
inverses m_mu = sum L(mu, lam) s_lam, s_lam = sum L(mu, lam) h_mu =
sum L(mu, lam') e_mu = sum chi^lam(mu) / z_mu p_mu (Macdonald, Symmetric
Functions and Hall Polynomials, I.6-I.7).  Only the p table out of s has
non-integer entries.  A conversion scales the coefficients to integers
over one denominator, the lcm of theirs, applies the tables in integers
(skipping the identity table on the s side) and divides once at the end.
The monomial basis is the canonical comparison basis; products are taken
in p.  A Frobenius image goes to p (:func:`frobenius`), or through s to m
in one step, in integers for an integer character (:func:`frobenius_in_m`).

K is one table per degree, made by the Pieri rule h_k s_nu = sum s_lam
over lam/nu a horizontal strip of k boxes (Macdonald I.5.16): K(lam, mu)
counts the ways to reach lam from the empty shape by strips of sizes mu_1,
mu_2, ..., and partitions sharing a prefix share its shapes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

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


def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    return _kostka_columns(sum(mu))[mu].get(lam, 0)


@lru_cache(maxsize=None)
def _kostka_columns(n: int) -> dict[Partition, dict[Partition, int]]:
    """{mu: {lam: K(lam, mu)}} over the partitions of n, zeros dropped, by
    the Pieri rule (module docstring).  A state is a prefix of mu with the
    number of ways each shape is reached by strips of its parts."""
    columns: dict[Partition, dict[Partition, int]] = {}
    stack: list[tuple[dict[Partition, int], Partition, int]] = [
        ({(): 1}, (), n)]
    while stack:
        shapes, mu, rest = stack.pop()
        if not rest:
            columns[mu] = shapes
        for part in range(min(rest, mu[-1] if mu else n), 0, -1):
            grown: dict[Partition, int] = {}
            for nu, k in shapes.items():
                for lam in _strip_additions(nu, part):
                    grown[lam] = grown.get(lam, 0) + k
            stack.append((grown, mu + (part,), rest - part))
    return columns


def _strip_additions(nu: Partition, size: int) -> list[Partition]:
    """The partitions lam with lam/nu a horizontal strip of size boxes: at
    most one box per column, so nu_(i-1) >= lam_i >= nu_i for i >= 2 (row
    len(nu) + 1 opens below), and row 1 takes the boxes left over."""
    tails: list[tuple[Partition, int]] = [((), size)]
    for i in range(len(nu), 0, -1):
        low = nu[i] if i < len(nu) else 0
        tails = [((v,) + tail, left - v + low) for tail, left in tails
                 for v in range(low, min(nu[i - 1], low + left) + 1)]
    first = nu[0] if nu else 0
    return [tuple(x for x in (first + left,) + tail if x)
            for tail, left in tails]


# ---------------------------------------------------------------------------
# Transition tables through the Schur basis

Table = dict[Partition, dict[Partition, object]]


def _table(n: int, entry) -> Table:
    """Rows a -> {b: entry(a, b)} over partitions of n, zeros dropped."""
    parts = partitions_of(n)
    return {a: {b: v for b in parts if (v := entry(a, b))} for a in parts}


@lru_cache(maxsize=None)
def _inverse_kostka(n: int) -> Table:
    """Rows of L = K^-1, so that m_mu = sum_lam L[mu][lam] s_lam.

    K(lam, mu) != 0 forces lam >= mu in dominance order, hence lam comes
    no later than mu in partitions_of(n), and K(lam, lam) = 1: K is integer
    unitriangular, and so is L, by back substitution from the smallest
    partition up, L(mu, .) = e_mu - sum_{nu after mu} K(mu, nu) L(nu, .).
    """
    parts = partitions_of(n)
    columns = _kostka_columns(n)
    inv: Table = {}
    for i in range(len(parts) - 1, -1, -1):
        mu = parts[i]
        row = {mu: 1}
        for nu in parts[i + 1:]:
            k = columns[nu].get(mu, 0)
            if k:
                for lam, c in inv[nu].items():
                    row[lam] = row.get(lam, 0) - k * c
        inv[mu] = {lam: c for lam, c in row.items() if c}
    return inv


@lru_cache(maxsize=None)
def _to_s(n: int, basis: str) -> Table:
    """Rows: generator of the basis -> its s-expansion, for basis != s.

    m_mu = sum L(mu, lam) s_lam, h_mu = sum K(lam, mu) s_lam,
    e_mu = sum K(lam', mu) s_lam = omega(h_mu), p_mu = sum chi^lam(mu) s_lam.
    """
    inv, columns = _inverse_kostka(n), _kostka_columns(n)
    entries = {
        "m": lambda mu, lam: inv[mu].get(lam, 0),
        "h": lambda mu, lam: columns[mu].get(lam, 0),
        "e": lambda mu, lam: columns[mu].get(conjugate(lam), 0),
        "p": lambda mu, lam: mn_character(lam, mu),
    }
    return _table(n, entries[basis])


@lru_cache(maxsize=None)
def _from_s(n: int, basis: str) -> Table:
    """Rows: s_lam -> its expansion in the basis != s, the inverse of _to_s.

    s_lam = sum K(lam, mu) m_mu = sum L(mu, lam) h_mu = sum L(mu, lam') e_mu
    = sum chi^lam(mu) / z_mu p_mu (character orthogonality).
    """
    inv, columns = _inverse_kostka(n), _kostka_columns(n)
    entries = {
        "m": lambda lam, mu: columns[mu].get(lam, 0),
        "h": lambda lam, mu: inv[mu].get(lam, 0),
        "e": lambda lam, mu: inv[mu].get(conjugate(lam), 0),
        "p": lambda lam, mu: Fraction(mn_character(lam, mu), z_lambda(mu)),
    }
    if basis not in entries:
        raise ValueError(f"unknown basis {basis!r}")
    return _table(n, entries[basis])


def _apply(coeffs: dict, table: Table) -> dict:
    """The linear combination sum c * table[a] over coeffs {a: c}."""
    out: dict = {}
    for a, c in coeffs.items():
        for b, t in table[a].items():
            out[b] = out.get(b, 0) + c * t
    return out


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
        den = lcm(*(c.denominator for c in self.coeffs.values()))
        vec = {lam: c.numerator * (den // c.denominator)
               for lam, c in self.coeffs.items()}
        if self.basis != "s":
            vec = _apply(vec, _to_s(self.degree, self.basis))
        if target != "s":
            vec = _apply(vec, _from_s(self.degree, target))
        if den != 1:
            vec = {lam: Fraction(c, den) for lam, c in vec.items()}
        return SymmetricFunction(self.degree, target, vec)

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
        return self.convert("s").omega().convert("m")

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


def frobenius_in_m(n: int, values: dict) -> SymmetricFunction:
    """sum_lam <chi, chi^lam> s_lam in m, chi given as {mu: chi(mu)} (0 off
    it): n! <chi, chi^lam> = sum_mu (n!/z_mu) chi(mu) chi^lam(mu) in the
    values' own arithmetic, over n! exactly, then the Kostka rows to m."""
    check_degree(n)
    order = factorial(n)
    scaled = _apply({mu: order // z_lambda(mu) * v
                     for mu, v in values.items() if v}, _to_s(n, "p"))
    s = {lam: q if not r else Fraction(c, order)
         for lam, c in scaled.items() for q, r in [divmod(c, order)]}
    return SymmetricFunction(n, "m", _apply(s, _from_s(n, "m")))


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
