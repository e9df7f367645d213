"""Independent oracles for the benchmark's output checks.

Nothing here imports gkmhess: every value is rebuilt from the definitions
with plain integers and Fractions, so a fault in the program cannot hide in
the oracle.

* Betti numbers of the Hessenberg variety (and of its twin) are the
  distribution of h-inversions over S_n: pairs i < j <= h(i) with
  w(i) > w(j).
* csf_q and the unicellular LLT polynomial by brute force over every
  coloring [n] -> [n], reading the coefficient of m_lam off the monomial
  x^lam.
* The Frobenius series rebuilt from a character table as
  sum_lam chi(lam) p_lam / z_lam, with p_lam expanded in the m basis by
  counting how the parts of lam fill the rows of mu; the omega twist
  multiplies by the sign eps_lam = (-1)^(n - len(lam)).

Graded symmetric functions are plain dicts {q degree: {partition: value}}
with zero entries dropped, so equality is dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

Partition = tuple[int, ...]
Graded = dict[int, dict[Partition, Fraction]]


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of n, parts weakly decreasing."""
    def rec(rem: int, top: int):
        if rem == 0:
            yield ()
            return
        for p in range(min(rem, top), 0, -1):
            for rest in rec(rem - p, p):
                yield (p,) + rest
    return tuple(rec(n, n))


def z_lambda(lam: Partition) -> int:
    out = 1
    for part in set(lam):
        mult = lam.count(part)
        out *= part ** mult * factorial(mult)
    return out


def sign(lam: Partition) -> int:
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def edges(h: tuple[int, ...]) -> list[tuple[int, int]]:
    """Pairs i < j <= h(i) (1-based), the edges of the indifference graph."""
    return [(i, j) for i in range(1, len(h) + 1)
            for j in range(i + 1, h[i - 1] + 1)]


@lru_cache(maxsize=None)
def inversion_distribution(h: tuple[int, ...]) -> tuple[int, ...]:
    """Number of w in S_n with k h-inversions, k = 0, 1, ..."""
    pairs = [(i - 1, j - 1) for i, j in edges(h)]
    counts: dict[int, int] = {}
    for w in permutations(range(len(h))):
        k = sum(1 for i, j in pairs if w[i] > w[j])
        counts[k] = counts.get(k, 0) + 1
    return tuple(counts.get(k, 0) for k in range(max(counts) + 1))


@lru_cache(maxsize=None)
def brute_coloring_series(h: tuple[int, ...], proper: bool) -> Graded:
    """csf_q (proper=True) or LLT (proper=False) by enumerating [n]^n.

    The coefficient of m_lam at q^a is the number of colorings with
    content exactly x^lam and ascent statistic a, where an ascent is an
    edge i < j with kappa(i) < kappa(j).
    """
    n = len(h)
    pairs = [(i - 1, j - 1) for i, j in edges(h)]
    out: Graded = {}
    for kappa in product(range(n), repeat=n):
        content = [0] * n
        for c in kappa:
            content[c] += 1
        lam = tuple(c for c in content if c)
        if list(lam) + [0] * (n - len(lam)) != content:
            continue
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            continue
        if proper and any(kappa[i] == kappa[j] for i, j in pairs):
            continue
        a = sum(1 for i, j in pairs if kappa[i] < kappa[j])
        row = out.setdefault(a, {})
        row[lam] = row.get(lam, Fraction(0)) + 1
    return out


@lru_cache(maxsize=None)
def power_sum_in_m(lam: Partition) -> dict[Partition, int]:
    """p_lam = sum_mu R(lam, mu) m_mu, R counting the ways to drop each part
    of lam into a row of mu so that the rows fill exactly."""
    n = sum(lam)
    out: dict[Partition, int] = {}
    for mu in partitions(n):
        if len(mu) > len(lam):
            continue
        count = 0

        def fill(i: int, room: list[int]) -> None:
            nonlocal count
            if i == len(lam):
                count += 1
                return
            for r in range(len(room)):
                if room[r] >= lam[i]:
                    room[r] -= lam[i]
                    fill(i + 1, room)
                    room[r] += lam[i]

        fill(0, list(mu))
        if count:
            out[mu] = count
    return out


def frobenius_from_characters(chars: dict[int, dict[Partition, Fraction]],
                              twist: bool = False) -> Graded:
    """sum_lam chi_k(lam) p_lam / z_lam in the m basis, for each q degree k;
    with twist the omega image (each class weighted by eps_lam)."""
    out: Graded = {}
    for k, row in chars.items():
        acc: dict[Partition, Fraction] = {}
        for lam, value in row.items():
            if not value:
                continue
            weight = Fraction(value, 1) / z_lambda(lam)
            if twist:
                weight *= sign(lam)
            for mu, c in power_sum_in_m(lam).items():
                acc[mu] = acc.get(mu, Fraction(0)) + weight * c
        acc = {mu: v for mu, v in acc.items() if v}
        if acc:
            out[k] = acc
    return out


def hilbert_numerator(dims: list[int], n: int) -> list[int]:
    """b_k = sum_j (-1)^j C(n, j) dim_{k-j}: the dimension series times
    (1 - q)^n, truncated to the degrees given."""
    return [sum((-1) ** j * comb(n, j) * dims[k - j]
                for j in range(min(n, k) + 1))
            for k in range(len(dims))]
