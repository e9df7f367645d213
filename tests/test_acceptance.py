"""Acceptance suite: the seven release criteria, exact arithmetic throughout.

Each criterion is one test that prints a single PASS/FAIL line.  Expensive
intermediate results (Frobenius series, Hilbert numerators) are shared
through the session-scoped store of conftest.py, keyed by (h, side).
"""

import math

from gkmhess import cohomology as CH
from gkmhess import coloring as C
from gkmhess import graphs as G
from gkmhess import hessenberg as H
from gkmhess import maps as M
from gkmhess.symfunc import GradedSymmetricFunction, SymmetricFunction
import coloring_census as CC
import full_kernels as FK
import graph_checks as GC

# n = 4 kind-C triples exercised by the main-theorem check (criterion 4)
TRIPLES4 = ("2,3,3,4", "1,3,4,4", "2,3,4,4")


def all_h(*sizes):
    for n in sizes:
        yield from H.enumerate_hessenberg(n)


def all_triples(*sizes, kind=None):
    for h in all_h(*sizes):
        for t in H.find_modular_triples(h):
            if kind is None or t.kind == kind:
                yield t


def report(num, ok, detail=""):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_theorem_1_1_sweep(store):
    """omega(csf_q) equals the dot-action Frobenius series, n = 2, 3, 4."""
    failures = []
    count = 0
    for h in all_h(2, 3, 4):
        count += 1
        lhs = M.omega_graded(C.csf_q(h)).convert("m")
        _, rhs = store.compute(h, "x")
        if lhs != rhs:
            failures.append(str(h))
    # named instance: (2,3,3) -> (1+q+q^2) h_3 + q h_21, numerator 1+4q+q^2
    h233 = H.from_string("2,3,3")
    numer, series = store.compute(h233, "x")
    h3 = SymmetricFunction.generator("h", (3,)).convert("m")
    h21 = SymmetricFunction.generator("h", (2, 1)).convert("m")
    named = GradedSymmetricFunction(3, {0: h3, 1: h3 + h21, 2: h3})
    if series != named or numer != [1, 4, 1]:
        failures.append("named instance 2,3,3")
    report(1, not failures, f"{count} functions")
    assert not failures, failures


def test_criterion_2_theorem_1_2_sweep(store):
    """llt equals the dagger-action Frobenius series of the twin graph."""
    failures = []
    count = 0
    for h in all_h(2, 3, 4):
        count += 1
        lhs = C.llt(h).convert("m")
        _, rhs = store.compute(h, "y")
        if lhs != rhs:
            failures.append(str(h))
    h233 = H.from_string("2,3,3")
    _, series = store.compute(h233, "y")
    named = GradedSymmetricFunction(3, {
        0: SymmetricFunction(3, "m", {(3,): 1, (2, 1): 1, (1, 1, 1): 1}),
        1: SymmetricFunction(3, "m", {(2, 1): 2, (1, 1, 1): 4}),
        2: SymmetricFunction(3, "m", {(1, 1, 1): 1})})
    if series != named:
        failures.append("named instance 2,3,3")
    report(2, not failures, f"{count} functions")
    assert not failures, failures


def test_criterion_3_combinatorial_modular_laws():
    """Both coloring modular laws for every triple of both kinds, n <= 5,
    plus the refined decomposition identities at n <= 4."""
    failures = []
    count = 0
    for t in all_triples(2, 3, 4, 5):
        count += 1
        if not C.check_modular_law_llt(t):
            failures.append(("llt", str(t.h), t.kind, t.params))
        if not C.check_modular_law_csf(t):
            failures.append(("csf", str(t.h), t.kind, t.params))
    for t in all_triples(3, 4, kind="C"):
        n = t.h.n
        coarse = CC.coloring_class_sums(t, proper_only=False, coarse=True)
        shifts = {("<", "<"): 2, ("<", ">="): 1, (">=", "<"): 1,
                  (">=", ">="): 0}
        if CC.census_to_graded(n, coarse, shifts, shifts.get) != C.llt(t.h_plus):
            failures.append(("llt-decomp", str(t.h), t.params))
        nine = CC.coloring_class_sums(t, proper_only=True, coarse=False)
        plus = CC.census_to_graded(
            n, nine, ("<<", "<>", "><", ">>"),
            lambda tag: (tag[0] == "<") + (tag[1] == "<"))
        if plus != C.csf_q(t.h_plus):
            failures.append(("csf-decomp", str(t.h), t.params))
        # tau preserves cardinality between the mixed classes and shifts
        # the h_minus ascent statistic by exactly one
        a = coarse.get(("<", ">="), {})
        b = coarse.get((">=", "<"), {})
        for lam in set(a) | set(b):
            if {k + 1: v for k, v in a.get(lam, {}).items()} != b.get(lam, {}):
                failures.append(("color-sum", str(t.h), t.params, lam))
        for _, kappa in CC.colorings_by_content(n):
            if CC.classify_coloring_coarse(t, kappa) == ("<", ">="):
                kt = CC.tau_bijection(t, kappa)
                if CC.asc_minus(t, kappa) + 1 != CC.asc_minus(t, kt):
                    failures.append(("asc", str(t.h), kappa))
    report(3, not failures, f"{count} triples")
    assert not failures, failures


def test_criterion_4_main_theorem():
    """Degreewise isomorphisms onto the signed blow-up cohomology: every
    kind-C triple at n = 3 and three triples at n = 4, both sides, the
    report made by irreducible blocks equal in every degree to the one of
    the full-kernel oracle, side x solved on its own rows."""
    failures = []
    count = 0
    triples = list(all_triples(3, kind="C"))
    triples += [next(t for t in H.find_modular_triples(H.from_string(s))
                     if t.kind == "C") for s in TRIPLES4]
    for t in triples:
        blocks, _ = M.check_theorem_main_sides(t)
        for side in ("x", "y"):
            count += 1
            rep = FK.report(FK.solve(t, side))
            if not (rep["pass"] and blocks["pass"]
                    and rep["degrees"] == blocks["degrees"]):
                failures.append((str(t.h), t.params, side))
    report(4, not failures, f"{count} contexts")
    assert not failures, failures


def test_criterion_5_geometric_modular_law(store):
    """(1+q) F(h) = F(h_+) + q F(h_-) for all kind-C triples, n <= 4."""
    failures = []
    count = 0
    for t in all_triples(2, 3, 4, kind="C"):
        for side in ("x", "y"):
            count += 1
            _, f_mid = store.compute(t.h, side)
            _, f_plus = store.compute(t.h_plus, side)
            _, f_minus = store.compute(t.h_minus, side)
            lhs = f_mid.scale_qpoly({0: 1, 1: 1})
            rhs = f_plus + f_minus.scale_qpoly({1: 1})
            if lhs != rhs:
                failures.append((str(t.h), t.params, side))
    report(5, not failures, f"{count} checks")
    assert not failures, failures


def _q_factorial(n):
    coeffs = [1]
    for k in range(2, n + 1):
        new = [0] * (len(coeffs) + k - 1)
        for i, v in enumerate(coeffs):
            for j in range(k):
                new[i + j] += v
        coeffs = new
    return coeffs


def test_criterion_6_structural_invariants(store):
    """Numerator totals and palindromy, the q-factorial instance, transpose
    invariance, augmentation invariance, and 2-independence."""
    failures = []
    for n in (2, 3, 4):
        for h in H.enumerate_hessenberg(n):
            numer, series_x = store.compute(h, "x")
            if sum(numer) != math.factorial(n):
                failures.append(("total", str(h)))
            if numer != numer[::-1]:
                failures.append(("palindrome", str(h)))
            # independent counting oracle: permutations by reversed pairs
            pairs = G.hessenberg_pairs(h)
            dist: dict = {}
            for w in G.all_perms(n):
                inv = sum(1 for (i, j) in pairs if w[j - 1] > w[i - 1])
                dist[inv] = dist.get(inv, 0) + 1
            if numer != [dist.get(k, 0) for k in range(h.dimension() + 1)]:
                failures.append(("inversion-oracle", str(h)))
            numer_y, series_y = store.compute(h, "y")
            if numer_y != numer:
                failures.append(("sides-differ", str(h)))
            ht = h.transpose()
            if store.compute(ht, "x")[1] != series_x:
                failures.append(("transpose-x", str(h)))
            if store.compute(ht, "y")[1] != series_y:
                failures.append(("transpose-y", str(h)))
        full = H.validate((n,) * n)
        if store.compute(full, "x")[0] != _q_factorial(n):
            failures.append(("q-factorial", n))
    # blow-up numerator totals at n <= 4 (solved triples only, to keep the
    # run inside the stated budget), 2-independence with witnesses everywhere
    for t in all_triples(3, 4, kind="C"):
        for side in ("x", "y"):
            bl = G.build_blowup(t, side)
            ok, witness = GC.two_independence_check(bl)
            if ok or witness is None:
                failures.append(("2-indep-blowup", str(t.h), side))
            else:
                _, e1, e2 = witness
                if e1[2] != e2[2]:
                    failures.append(("witness", str(t.h), side))
    for h in all_h(2, 3, 4):
        if not GC.two_independence_check(G.build_GX(h))[0]:
            failures.append(("2-indep-x", str(h)))
        if not GC.two_independence_check(G.build_GY(h))[0]:
            failures.append(("2-indep-y", str(h)))
    for t in all_triples(3, 4, kind="C"):
        for side in ("x", "y"):
            sp = CH.solve_graph(G.build_blowup(t, side))
            if sum(CH.hilbert_numerator(sp)) != 2 * math.factorial(t.h.n):
                failures.append(("blowup-total", str(t.h), side))
    # Appendix-level edge augmentation: equivariant dimensions unchanged
    t3 = next(all_triples(3, kind="C"))
    bl = G.build_blowup(t3, "x")
    sp = CH.solve_graph(bl)
    spa = CH.solve_graph(GC.augment_blowup(bl))
    if any(sp.dim(k) != spa.dim(k) for k in range(sp.max_degree + 1)):
        failures.append(("augment",))
    report(6, not failures)
    assert not failures, failures


def test_criterion_7_oracle_cross_checks(store):
    """Series-division characters equal direct-quotient characters: every
    instance with n <= 4 (all 14 at n = 4), both sides.

    The series division is that of the CLI (maps.plain_character, from the
    dagger traces of the irreducible blocks of the twin), the direct
    quotient that of the solved graph of each side, as the store keeps it
    for criteria 1, 2, 5 and 6.
    """
    failures = []
    hs = list(all_h(1, 2, 3, 4))
    for h in hs:
        for side in ("x", "y"):
            if M.plain_character(h, side) != store.character(h, side):
                failures.append((str(h), side))
    report(7, not failures, f"{2 * len(hs)} instances")
    assert not failures, failures
