"""The four comparison maps into the blow-up cohomology and the theorem
verification engine.

For a kind-C modular triple there are five labeled graphs: the nested
triple for h_minus, h, h_plus, the circle copy, and the signed blow-up.
Four maps land in the signed blow-up cohomology:

  phi   from the circle copy      (restriction/transport along w -> °w tau)
  psi_! from the middle graph     (multiply by the d+1/d difference, degree +1)
  eta   from the plus graph       (duplicate onto both copies)
  rho_! from the minus graph      (multiply by d/d0 resp. d+1/d0 differences)

On the twin side the multiplications use t_d, t_{d+1}, t_{d0} themselves
and phi additionally swaps t_d with t_{d+1}.  The main theorem states that
phi + psi_! and eta + rho_! are both isomorphisms onto the signed blow-up
cohomology; it is verified degreewise by exact rank computations.  The
library check (:class:`TripleContext`, :func:`check_theorem_main`) solves
the five graphs in full.  The CLI's check (:func:`check_theorem_blocks`)
solves, maps and ranks one irreducible of S_n at a time on side y.  Both
take equivariance from the vertex rules, never from a map matrix: every
side-y rule is certified a right multiplication (:func:`block_rules`),
so the dagger action commutes with it, and every side-x rule the
relabelled side-y rule (:func:`certify_side_x`).  The two checks give the
same report.  The corollary (the modular law for the graded characters)
is checked as an identity of Frobenius series; it reads only the three
plain graphs.  The characters of plain graphs come from the irreducible
blocks of their twins (:mod:`gkmhess.isotypic`).

The CLI checks both on side y only.  Side x is its relabelling (see
:func:`gkmhess.cohomology.relabelling`): once the graphs, the actions and
the four rules are certified to correspond, the side-x 5.1 report is the
side-y one, and the side-x characters are the side-y traces times the
dot ambient factor.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from math import lcm
from typing import Callable

from gkmhess.cohomology import (
    GradedCharacter, GradedSolutionSpace, MembershipFailed, NotInvariant,
    RelabelFailed, certify_relabelling, check_action_invariance,
    column_adjacency, first_violated_row, frobenius_of_character,
    graded_character, memoized, monomial_index, monomials, relabel_space,
    relabelled_character, solve_graph)
from gkmhess.graphs import (
    LabeledGraph, Perm, SignedBlowupGraph, Vertex, build_blowup,
    build_circle_graph, build_graph, build_GX, build_GY, circ, compose,
    identity_perm, inverse, kind_r_via_transpose, plain, swap_positions)
from gkmhess.hessenberg import HessenbergFunction, ModularTriple
from gkmhess.isotypic import (
    TwinBlocks, block_rows, blowup_block_rows, blowup_edge_types, rho,
    standard_tableaux, twin_blocks, twin_edge_types)
from gkmhess.linalg import Echelon, IntRow, kernel_of_rows, rank_of_int_rows
from gkmhess.symfunc import GradedSymmetricFunction, Partition, partitions_of


class RankDeficit(ValueError):
    """A map fails to be injective in some degree."""


class Overlap(ValueError):
    """The two images intersect nontrivially in some degree."""


class DimensionGap(ValueError):
    """Injective with zero overlap but not surjective."""


class EquivarianceFailed(ValueError):
    """A map rule is not certified to commute with the group action."""


@dataclass
class TripleGraphs:
    """A kind-C triple with its five graphs on one side."""

    triple: ModularTriple
    side: str
    g_minus: LabeledGraph
    g_mid: LabeledGraph
    g_plus: LabeledGraph
    g_circle: LabeledGraph
    blowup: SignedBlowupGraph

    @property
    def d(self) -> int:
        return self.triple.d

    @property
    def d0(self) -> int:
        return self.triple.d0

    @property
    def action_kind(self) -> str:
        return "dot" if self.side == "x" else "dagger"

    @classmethod
    def of(cls, triple: ModularTriple, side: str) -> "TripleGraphs":
        """The graphs of triple, of the kind-C transpose for kind R."""
        if triple.kind == "R":
            triple = kind_r_via_transpose(triple)
        return cls(triple, side,
                   *(build_graph(h, side)
                     for h in (triple.h_minus, triple.h, triple.h_plus)),
                   build_circle_graph(triple, side),
                   build_blowup(triple, side))

    def graphs(self) -> dict[str, LabeledGraph]:
        """The five graphs by the names MAPS uses for sources."""
        return {"minus": self.g_minus, "mid": self.g_mid, "plus": self.g_plus,
                "circle": self.g_circle, "blowup": self.blowup}

    def graph_name(self, name: str) -> str:
        """How a relabelling failure names the graph called name."""
        t = self.triple
        return {"minus": f"plain graph of {t.h_minus}",
                "mid": f"plain graph of {t.h}",
                "plus": f"plain graph of {t.h_plus}",
                "circle": f"circle graph of {t.h}",
                "blowup": f"blow-up of {t.h}"}[name]


@dataclass
class TripleContext(TripleGraphs):
    """A triple's five graphs with their solved cohomologies."""

    sp_minus: GradedSolutionSpace
    sp_mid: GradedSolutionSpace
    sp_plus: GradedSolutionSpace
    sp_circle: GradedSolutionSpace
    sp_blowup: GradedSolutionSpace

    @classmethod
    def build(cls, triple: ModularTriple, side: str) -> "TripleContext":
        """Solve side y through degree h_plus.dimension() + 1; side x is
        its certified relabelling, with bases P(side-y bases)."""
        if side not in ("x", "y"):
            raise ValueError(f"side must be 'x' or 'y', got {side!r}")
        graphs = TripleGraphs.of(triple, "y")
        max_degree = graphs.triple.h_plus.dimension() + 1
        spaces = {name: solve_graph(g, max_degree)
                  for name, g in graphs.graphs().items()}
        if side == "x":
            graphs = TripleGraphs.of(graphs.triple, "x")
            spaces = {name: relabel_space(spaces[name], g,
                                          graphs.graph_name(name))
                      for name, g in graphs.graphs().items()}
        return cls(**{f.name: getattr(graphs, f.name)
                      for f in fields(TripleGraphs)},
                   **{f"sp_{name}": sp for name, sp in spaces.items()})


# ---------------------------------------------------------------------------
# the four maps, vertex by vertex

# Each map is a rule (ctx, v) -> (source vertex, multiplier (a, b) or None,
# swap t_d/t_{d+1}) or None (value zero) for the blow-up vertex v: the value
# at v is the source value, swapped if asked, times t_a - t_b if given.
Hit = tuple[Vertex, tuple[int, int] | None, bool] | None
MapMatrix = list[list[tuple[int, int]]]


def phi(ctx: TripleContext, v: Vertex) -> Hit:
    """phi(f)(w) = f(°w tau), phi(f)(°w) = f(°w); on the twin side the
    plain values additionally swap t_d with t_{d+1}."""
    if v.circle:
        return v, None, False
    w_tau = swap_positions(v.perm, ctx.d + 1, ctx.d)
    return circ(w_tau), None, ctx.side == "y"


def psi_shriek(ctx: TripleContext, v: Vertex) -> Hit:
    """psi_!(f)(w) = (x_{d+1} - x_d) f(w) on plain vertices, 0 on circle;
    the twin side multiplies by t_{d+1} - t_d instead."""
    if v.circle:
        return None
    w, d = v.perm, ctx.d
    return v, ((w[d], w[d - 1]) if ctx.side == "x" else (d + 1, d)), False


def eta(ctx: TripleContext, v: Vertex) -> Hit:
    """eta(f)(w) = eta(f)(°w) = f(w)."""
    return plain(v.perm), None, False


def rho_shriek(ctx: TripleContext, v: Vertex) -> Hit:
    """rho_!(f)(w) = (x_d - x_{d0}) f(w), rho_!(f)(°w) = (x_{d+1} - x_{d0}) f(w);
    the twin side uses the t variables directly."""
    w, d, d0 = v.perm, ctx.d, ctx.d0
    if ctx.side == "x":   # w(d+1) or w(d), minus w(d0)
        return plain(w), (w[d] if v.circle else w[d - 1], w[d0 - 1]), False
    return plain(w), ((d + 1) if v.circle else d, d0), False


# name -> (rule, source: graph g_<source> and space sp_<source>, degree shift)
MAPS = {
    "phi": (phi, "circle", 0),
    "psi": (psi_shriek, "mid", 1),
    "eta": (eta, "plus", 0),
    "rho": (rho_shriek, "minus", 1),
}


def _times_t(e: tuple, i: int) -> tuple:
    """The exponent vector of t_i times the monomial with exponents e."""
    return e[:i - 1] + (e[i - 1] + 1,) + e[i:]


def _image_terms(n: int, k: int, shift: int, mult: tuple[int, int] | None,
                 swap: bool, d: int) -> list[list[tuple[int, int]]]:
    """Per degree-(k - shift) monomial, its image in degree k as (monomial
    index, coefficient) pairs: swapped (t_d with t_{d+1}) if asked, then
    times t_a - t_b for mult = (a, b)."""
    idx = monomial_index(n, k)
    out = []
    for mon in monomials(n, k - shift):
        e = swap_positions(mon, d, d + 1) if swap else mon
        out.append([(idx[e], 1)] if mult is None else
                   [(idx[_times_t(e, mult[0])], 1),
                    (idx[_times_t(e, mult[1])], -1)])
    return out


def map_matrix(ctx: TripleGraphs, name: str, k: int) -> MapMatrix:
    """The map into blow-up degree k as a sparse integer matrix: entry c
    lists (blow-up coordinate, coefficient) for the source coordinate c of
    degree k - shift, both in monomial-major coordinates."""
    rule, source, shift = MAPS[name]
    n, d = ctx.blowup.n, ctx.d
    src_index = getattr(ctx, f"g_{source}").vertex_index()
    nv_src, nv_dst = len(src_index), len(ctx.blowup.vertices)
    matrix: MapMatrix = [[] for _ in range(
        nv_src * len(monomials(n, k - shift)))]
    tables: dict = {}   # (mult, swap) -> per source monomial its image terms
    for vi, v in enumerate(ctx.blowup.vertices):
        hit = rule(ctx, v)
        if hit is None:
            continue
        s, mult, swap = hit
        if (mult, swap) not in tables:
            tables[mult, swap] = _image_terms(n, k, shift, mult, swap, d)
        si = src_index[s]
        for mi, terms in enumerate(tables[mult, swap]):
            matrix[mi * nv_src + si] += [(t * nv_dst + vi, c)
                                         for t, c in terms]
    return matrix


def _apply(matrix: MapMatrix, col: dict) -> dict:
    """M col for an integer vector."""
    out: dict = {}
    for c, v in col.items():
        for t, coeff in matrix[c]:
            out[t] = out.get(t, 0) + coeff * v
    return {t: v for t, v in out.items() if v}


def map_image_columns(ctx: TripleContext, name: str, k: int,
                      adj: dict) -> list[IntRow]:
    """Images in blow-up degree k of the source basis, as integer vectors,
    by :func:`map_matrix`: phi/eta take the degree-k source basis and
    psi/rho the degree-(k-1) one.  Every image is verified to satisfy the
    blow-up constraint rows, whose column adjacency is adj (membership in
    the signed space); MembershipFailed otherwise."""
    _, source, shift = MAPS[name]
    if k < shift:
        return []
    matrix = map_matrix(ctx, name, k)
    blowup = ctx.sp_blowup.graph.vertices
    out = [_apply(matrix, col)
           for col in getattr(ctx, f"sp_{source}").bases[k - shift].columns]
    for j, col in enumerate(out):
        bad = first_violated_row(adj, col)
        if bad is not None:
            verts = sorted({str(blowup[c % len(blowup)])
                            for c in ctx.sp_blowup.rows[k][bad]})
            raise MembershipFailed(
                f"{name} image column {j} violates a degree-{k} congruence "
                f"touching vertices {verts} (constraint row {bad})")
    return out


# ---------------------------------------------------------------------------
# theorem checks

def _ranks(cols_a: list[IntRow], cols_b: list[IntRow]
           ) -> tuple[int, int, int]:
    """The ranks of cols_a, of cols_b and of both together."""
    ech_a = Echelon.of(cols_a)
    joint = ech_a.copy()   # insert never changes stored rows
    for vec in sorted(cols_b, key=len):   # as Echelon.of does
        joint.insert(vec)
    ra, rab = ech_a.rank, joint.rank
    # rab <= ra + rb <= ra + len(cols_b), so equality pins rb
    rb = len(cols_b) if rab == ra + len(cols_b) \
        else rank_of_int_rows(cols_b)
    return ra, rb, rab


def _restrict(cols: list[IntRow], free: set[int]) -> list[IntRow]:
    return [{c: v for c, v in col.items() if c in free} for col in cols]


# the two sums of Theorem 5.1: (first map, second map, report label)
PAIRS = (("phi", "psi", "first"), ("eta", "rho", "second"))


def _main_report(graphs: TripleGraphs, max_degree: int, dim, pair_ranks,
                 raise_on_failure: bool = False) -> dict:
    """The degreewise 5.1 report.  dim(name, k) is the dimension of the
    graph called name (as in :meth:`TripleGraphs.graphs`) in degree k, 0
    for k < 0; pair_ranks(k) yields, for each of PAIRS, (first, second,
    label, rank of the first image, of the second, of both together,
    dimension of the first source, of the second), and raises
    MembershipFailed or NotInvariant at a failed check of degree k."""
    report: dict = {"side": graphs.side, "h": str(graphs.triple.h),
                    "params": list(graphs.triple.params), "degrees": {}}
    failures = []
    for k in range(max_degree + 1):
        fails: list[Exception] = []
        dim_blow = dim("blowup", k)
        row: dict = {"dim_blowup": dim_blow, "dims": {
            "circle": dim("circle", k), "mid_prev": dim("mid", k - 1),
            "plus": dim("plus", k), "minus_prev": dim("minus", k - 1)}}
        try:
            for first, second, label, ra, rb, rab, na, nb in pair_ranks(k):
                row[f"{first}_rank"] = ra
                row[f"{second}_rank"] = rb
                row[f"{label}_joint_rank"] = rab
                if ra < na or rb < nb:
                    fails.append(RankDeficit(
                        f"degree {k}: {first if ra < na else second} "
                        f"not injective"))
                elif rab < ra + rb:
                    fails.append(Overlap(
                        f"degree {k}: images of {first} and {second} overlap"))
                elif rab != dim_blow:
                    fails.append(DimensionGap(
                        f"degree {k}: {label} sum has rank {rab}, "
                        f"space has dim {dim_blow}"))
        except (MembershipFailed, NotInvariant) as exc:
            fails.append(exc)
        row["consistency"] = (
            row["dims"]["circle"] + row["dims"]["mid_prev"]
            == row["dims"]["plus"] + row["dims"]["minus_prev"])
        if not row["consistency"]:
            fails.append(DimensionGap(
                f"degree {k}: the two decompositions disagree"))
        row["ok"] = not fails
        report["degrees"][k] = row
        failures += fails
        if failures and raise_on_failure:
            raise failures[0]
    report["failures"] = [str(f) for f in failures]
    report["pass"] = not failures
    return report


def check_theorem_main(ctx: TripleContext,
                       raise_on_failure: bool = True) -> dict:
    """Degreewise verification that phi + psi_! and eta + rho_! are
    equivariant isomorphisms onto the signed blow-up cohomology.

    For every degree: each map is injective (image rank = source dim), the
    two images meet trivially (joint rank = rank sum), the sum fills the
    space (joint rank = blow-up dim), and the group action preserves the
    blow-up space.  Returns the per-degree report; with raise_on_failure
    the named errors fire at the first violation.

    Equivariance of the maps is certified once, on their vertex rules,
    before any degree and in both modes: :func:`block_rules` on the side-y
    graphs (the dagger action commutes with every map, EquivarianceFailed
    otherwise) and, for a side-x context as :meth:`TripleContext.build`
    makes it, :func:`certify_side_x`, which carries that onto the dot
    action (RelabelFailed otherwise).

    The ranks are taken on the free coordinates of the blow-up basis (its
    unit rows).  The images lie in the kernel, which is checked first, and
    a kernel vector is determined by its free coordinates, so the ranks
    are the same; a degree that does not pass that way is ranked again in
    all coordinates, so even a basis that misses part of the kernel gets
    the same report.
    """
    graphs_y = ctx if ctx.side == "y" else TripleGraphs.of(ctx.triple, "y")
    block_rules(graphs_y)
    if ctx.side == "x":
        certify_side_x(graphs_y, ctx.sp_blowup.max_degree)

    def dim(name: str, k: int) -> int:
        return getattr(ctx, f"sp_{name}").dim(k)

    def pair_ranks(k: int):
        check_action_invariance(ctx.sp_blowup, k, ctx.action_kind)
        adj = column_adjacency(ctx.sp_blowup.rows[k])
        free = set(ctx.sp_blowup.bases[k].unit_rows)
        for first, second, label in PAIRS:
            cols_a, cols_b = (map_image_columns(ctx, name, k, adj)
                              for name in (first, second))
            ra, rb, rab = _ranks(_restrict(cols_a, free),
                                 _restrict(cols_b, free))
            if not (ra == len(cols_a) and rb == len(cols_b)
                    and rab == ra + rb == ctx.sp_blowup.dim(k)):
                ra, rb, rab = _ranks(cols_a, cols_b)
            yield first, second, label, ra, rb, rab, len(cols_a), len(cols_b)

    return _main_report(ctx, ctx.sp_blowup.max_degree, dim, pair_ranks,
                        raise_on_failure)


# ---------------------------------------------------------------------------
# Theorem 5.1 one irreducible at a time

# A map read at the identity of one sheet of the blow-up: (g, multiplier,
# swap), or None where the map is zero on that sheet.
Read = tuple[Perm, tuple[int, int] | None, bool] | None


def block_rules(graphs: TripleGraphs) -> dict[str, list[Read]]:
    """name -> [the read of its rule on the plain sheet, on the circle
    sheet], once each rule of MAPS is certified a right multiplication:
    at every blow-up vertex v of a sheet read as (g, mult, swap), the hit
    is the source vertex of permutation v.perm g, with the same mult and
    swap.  EquivarianceFailed otherwise.

    Such a rule sends the source class F = sum_w f(w) w to mult swap(F
    g^-1) on that sheet, since the value at w is mult swap(f(w g)).
    """
    e = identity_perm(graphs.blowup.n)
    out = {}
    for name, (rule, source, _) in MAPS.items():
        reads: list[Read] = []
        for circle in (False, True):
            hit = rule(graphs, Vertex(circle, e))
            reads.append(None if hit is None else (hit[0].perm, *hit[1:]))
        for v in graphs.blowup.vertices:
            read = reads[v.circle]
            if rule(graphs, v) != (None if read is None else (
                    Vertex(source == "circle", compose(v.perm, read[0])),
                    *read[1:])):
                raise EquivarianceFailed(
                    f"{name} does not commute with dagger action: its value "
                    f"at {v} is not the right multiplication it reads at "
                    f"the identity")
        out[name] = reads
    return out


def block_map_matrix(n: int, lam: Partition, reads: list[Read], d: int,
                     k: int, shift: int) -> MapMatrix:
    """A map into blow-up degree k on one row x of rho_lam of the source
    class, with the reads of :func:`block_rules`: on a sheet read as (g,
    mult, swap), x goes to mult swap(x rho_lam(g^-1)).  The entries are
    multiplied by the common denominator D of those matrices, one factor
    for the whole map, which changes no rank and no membership.

    Source coordinate mi * d_lam + p is the coefficient of the mi-th
    degree-(k - shift) monomial in x_p, as in :func:`block_rows`; blow-up
    coordinates are those of :func:`blowup_block_rows`.
    """
    dl = len(standard_tableaux(lam))
    mats = [None if r is None else rho(n, lam, inverse(r[0])) for r in reads]
    den = lcm(*(x.denominator for m in mats if m for row in m for x in row))
    matrix: MapMatrix = [[] for _ in range(
        dl * len(monomials(n, k - shift)))]
    for sheet, (read, m) in enumerate(zip(reads, mats)):
        if read is None:
            continue
        ints = [[(sheet * dl + q, int(x * den)) for q, x in enumerate(row)
                 if x] for row in m]
        for mi, terms in enumerate(_image_terms(n, k, shift, read[1],
                                                read[2], d)):
            for p in range(dl):
                matrix[mi * dl + p] += [(t * 2 * dl + q, c * v)
                                        for t, c in terms for q, v in ints[p]]
    return matrix


def check_theorem_blocks(graphs: TripleGraphs, max_degree: int) -> dict:
    """The side-y report of :func:`check_theorem_main` on the graphs
    through max_degree, with every space solved, mapped and ranked one
    irreducible lam of S_n at a time; no full kernel is solved.

    The shape certificates (:func:`twin_edge_types` on the plain and
    circle graphs, :func:`blowup_edge_types`) show that each space is the
    set of classes F = sum_w f(w) w in Q[t] (x) Q[S_n], or pairs (P, C)
    on the blow-up, cut out by divisibilities of right multiples of F.
    :func:`block_rules` shows that each map is a right multiplication,
    times constants and the t_d/t_{d+1} swap.  The dagger action is left
    multiplication, which commutes with all of these; so it preserves
    every space and commutes with every map, with no further check.

    The certified irreducibles rho_lam give Q[S_n] = sum_lam End(V_lam).
    A space is then the sum over lam of the d_lam x d_lam matrices whose
    rows x solve :func:`block_rows` (:func:`blowup_block_rows` on the
    blow-up), and a map acts on each row by :func:`block_map_matrix`.  So
    every dimension and rank is sum_lam d_lam (the block value), and an
    image lies in the blow-up space exactly when every block image
    satisfies the blow-up block rows, which is checked
    (MembershipFailed).  A vector of the blow-up block space is
    determined by its free (non-pivot) coordinates in the echelon of its
    rows, so the images, once members, are ranked on those coordinates.
    Certificate faults raise NotTwinGraph or EquivarianceFailed.
    """
    n, d = graphs.blowup.n, graphs.d
    types = {name: twin_edge_types(getattr(graphs, f"g_{name}"))
             for name in ("minus", "mid", "plus")}
    types["circle"] = twin_edge_types(graphs.g_circle, circ)
    plain_types, circle_types = blowup_edge_types(graphs.blowup)
    rules = block_rules(graphs)
    shapes = {lam: len(standard_tableaux(lam)) for lam in partitions_of(n)}
    # mid and minus feed degree k from degree k - 1
    bases = {(name, lam, k): kernel_of_rows(block_rows(n, t, lam, k),
                                            dl * len(monomials(n, k)))
             for name, t in types.items() for lam, dl in shapes.items()
             for k in range(max_degree + (name in ("plus", "circle")))}
    @cache
    def blowup(lam: Partition, k: int) -> tuple[list[IntRow], set[int]]:
        """The blow-up block rows and their free coordinates."""
        rows = blowup_block_rows(n, plain_types, circle_types, d, lam, k)
        pivots = Echelon.of(rows).pivots
        return rows, {c for c in range(2 * shapes[lam] * len(monomials(n, k)))
                      if c not in pivots}

    def dim(name: str, k: int) -> int:
        if k < 0:
            return 0
        if name == "blowup":
            return sum(dl * len(blowup(lam, k)[1])
                       for lam, dl in shapes.items())
        return sum(dl * bases[name, lam, k].dim for lam, dl in shapes.items())

    def images(name: str, lam: Partition, k: int, adj: dict) -> list[IntRow]:
        _, source, shift = MAPS[name]
        if k < shift:
            return []
        matrix = block_map_matrix(n, lam, rules[name], d, k, shift)
        cols = [_apply(matrix, col)
                for col in bases[source, lam, k - shift].columns]
        for j, col in enumerate(cols):
            bad = first_violated_row(adj, col)
            if bad is not None:
                raise MembershipFailed(
                    f"{name} image column {j} of shape {lam} violates the "
                    f"degree-{k} block row {bad}")
        return cols

    def pair_ranks(k: int):
        adj = {lam: column_adjacency(blowup(lam, k)[0]) for lam in shapes}
        for first, second, label in PAIRS:
            total = [0] * 5
            for lam, dl in shapes.items():
                cols_a, cols_b = (images(name, lam, k, adj[lam])
                                  for name in (first, second))
                free = blowup(lam, k)[1]
                block = (*_ranks(_restrict(cols_a, free),
                                 _restrict(cols_b, free)),
                         len(cols_a), len(cols_b))
                total = [t + dl * b for t, b in zip(total, block)]
            yield (first, second, label, *total)

    return _main_report(graphs, max_degree, dim, pair_ranks)


def certify_side_x(graphs: TripleGraphs, max_degree: int) -> None:
    """Certify that side x of a triple is the relabelling P of its side-y
    graphs through max_degree: the five graphs and the actions
    (:func:`certify_relabelling`), then each rule of MAPS at each blow-up
    vertex v of permutation w (:func:`_hit_fault`).  RelabelFailed
    otherwise, naming the map and the vertex.

    P sends a side-y class g to f with f(u) = u.perm . g(u).  With hits (s,
    m_y, swap_y) and (s_x, m_x, swap_x), P M_y g at v is w(m_y) (w
    tau^swap_y).g(s), and M_x P g is m_x (tau^swap_x s.perm).g(s), tau =
    (d d+1).  So when both hits are zero or s_x = s, m_x = w(m_y) and the
    two renamings agree, M_x P_src = P_dst M_y in every degree: P carries
    every side-y rank, dimension and image onto side x, and the dagger
    action after a map onto the dot action after it.
    """
    xs = TripleGraphs.of(graphs.triple, "x")
    ys, gx = graphs.graphs(), xs.graphs()
    for name, graph in gx.items():
        certify_relabelling(ys[name], graph, xs.graph_name(name), max_degree)
    tau = swap_positions(identity_perm(graphs.blowup.n), graphs.d,
                         graphs.d + 1)
    for name, (rule, _, _) in MAPS.items():
        for v in graphs.blowup.vertices:
            fault = _hit_fault(rule(graphs, v), rule(xs, v), v.perm, tau)
            if fault:
                raise RelabelFailed(
                    f"relabelling check failed on the map {name} at the "
                    f"blow-up vertex {v}: {fault}")


def _hit_fault(hit_y: Hit, hit_x: Hit, w: Perm, tau: Perm) -> str | None:
    """Why the side-x hit of a rule at a blow-up vertex of permutation w
    is not the relabelled side-y hit, or None: the multiplier (a, b) must
    become (w(a), w(b)) as an ordered pair, since its sign matters, and w
    after the side-y swap must be the side-x swap after the source."""
    if hit_y is None or hit_x is None:
        return None if hit_y is hit_x else "zero on one side only"
    (s, m_y, swap_y), (s_x, m_x, swap_x) = hit_y, hit_x
    if s_x != s:
        return f"source {s_x} on side x, {s} on side y"
    m_w = None if m_y is None else (w[m_y[0] - 1], w[m_y[1] - 1])
    if m_x != m_w:
        return f"multiplier {m_x} on side x, not {m_w}"
    if (compose(w, tau) if swap_y else w) \
            != (compose(tau, s.perm) if swap_x else s.perm):
        return "the t_d/t_{d+1} swaps do not correspond"
    return None


def relabel_failure(text: str) -> str:
    """A side-y failure as worded for side x, its relabelling, which
    turns the dagger action into the dot action."""
    return text.replace("dagger", "dot")


def relabel_report(report: dict) -> dict:
    """The side-x 5.1 report of a side-y report whose relabelling is
    certified: the same degrees, failures worded for the dot action."""
    return {**report, "side": "x",
            "failures": [relabel_failure(f) for f in report["failures"]]}


def check_theorem_main_sides(triple: ModularTriple
                             ) -> tuple[dict, Callable[[], dict]]:
    """The side-y 5.1 report of triple by irreducible blocks
    (:func:`check_theorem_blocks`), through degree h_plus.dimension() + 1,
    and a function that certifies side x (:func:`certify_side_x`) and
    returns its report.  Solves no full kernel."""
    graphs = TripleGraphs.of(triple, "y")
    max_degree = graphs.triple.h_plus.dimension() + 1
    report = check_theorem_blocks(graphs, max_degree)

    def side_x() -> dict:
        certify_side_x(graphs, max_degree)
        return relabel_report(report)

    return report, side_x


def plain_twin(h: HessenbergFunction
               ) -> tuple[GradedSolutionSpace | TwinBlocks, dict]:
    """The twin graph of h as (space, dagger traces).  The traces are read
    from its irreducible blocks (:func:`twin_blocks`, once per graph in a
    :func:`gkmhess.cohomology.solve_memo` block), and so is the space,
    except at n <= 3: there the graph is solved as well, and the direct
    quotient on the solved space cross-checks every character made from
    these traces."""
    graph = build_GY(h)
    blocks = memoized(graph, "twin_blocks", twin_blocks)
    space = solve_graph(graph) if h.n <= 3 else blocks
    return space, blocks.traces()


def plain_character(h: HessenbergFunction, side: str) -> GradedCharacter:
    """The graded character of the plain graph of h from its twin
    (:func:`plain_twin`): the dagger action on side y, and on side x the
    dot action through the certified relabelling
    (:func:`relabelled_character`)."""
    space, traces = plain_twin(h)
    if side == "y":
        return graded_character(space, "dagger", traces=traces)
    return relabelled_character(space, build_GX(h), f"plain graph of {h}",
                                traces=traces)


# (ok, difference) of a modular law of Frobenius series
Law = tuple[bool, GradedSymmetricFunction]


def _modular_law(series) -> Law:
    """(ok, difference) of (1+q) F(h) = F(h_+) + q F(h_-) for the series
    (F(h_-), F(h), F(h_+))."""
    f_minus, f_mid, f_plus = series
    lhs = f_mid.scale_qpoly({0: 1, 1: 1})
    rhs = f_plus + f_minus.scale_qpoly({1: 1})
    return lhs == rhs, lhs - rhs


def check_corollary_sides(triple: ModularTriple
                          ) -> tuple[Law, Callable[[], Law]]:
    """(1+q) F(h) = F(h_+) + q F(h_-) for the graded Frobenius series:
    the side-y law of triple, and a function giving the side-x one.

    Reads only the twins of the three plain graphs of the triple (a
    kind-R triple is transposed first, as in :meth:`TripleGraphs.of`),
    each through its own top degree + 1, by :func:`plain_twin`.  Both
    sides come from one set of dagger traces: side x through the
    certified relabelling.  Each law is (ok, difference); the difference
    is the zero graded symmetric function exactly when the law holds.
    """
    if triple.kind == "R":
        triple = kind_r_via_transpose(triple)
    hs = (triple.h_minus, triple.h, triple.h_plus)
    spaces, traces = zip(*(plain_twin(h) for h in hs))
    law_y = _modular_law(
        frobenius_of_character(graded_character(sp, "dagger", traces=tr))
        for sp, tr in zip(spaces, traces))

    def side_x() -> Law:
        return _modular_law(
            frobenius_of_character(relabelled_character(
                sp, build_GX(h), f"plain graph of {h}", traces=tr))
            for h, sp, tr in zip(hs, spaces, traces))

    return law_y, side_x


def omega_graded(gf: GradedSymmetricFunction) -> GradedSymmetricFunction:
    """Apply the omega involution to every q coefficient."""
    return GradedSymmetricFunction(
        gf.degree, {k: f.omega() for k, f in gf.terms.items()})


def check_theorem_1_1(h: HessenbergFunction
                      ) -> tuple[bool, GradedSymmetricFunction]:
    """omega(csf_q(h)) equals the dot-action Frobenius series of the
    Hessenberg GKM graph; returns (ok, difference in the m basis)."""
    from gkmhess.coloring import csf_q as _csf
    lhs = omega_graded(_csf(h)).convert("m")
    rhs = frobenius_of_character(plain_character(h, "x"))
    return lhs == rhs, lhs - rhs


def check_theorem_1_2(h: HessenbergFunction
                      ) -> tuple[bool, GradedSymmetricFunction]:
    """llt(h) equals the dagger-action Frobenius series of the twin graph."""
    from gkmhess.coloring import llt as _llt
    lhs = _llt(h).convert("m")
    rhs = frobenius_of_character(plain_character(h, "y"))
    return lhs == rhs, lhs - rhs
