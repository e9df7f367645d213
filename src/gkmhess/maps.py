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
check (:func:`check_theorem_blocks`, entered by
:func:`check_theorem_main_sides`) solves, maps and ranks one irreducible
of S_n at a time on side y, in t_2..t_n (:mod:`gkmhess.isotypic` states
the lemma), and solves no full kernel.  It takes equivariance from the
graphs and the vertex rules, never from a solved space or a map matrix:
the side-y blow-up is certified a twin shape (:func:`blowup_edge_types`),
so the dagger action preserves its cohomology, every side-y rule a right
multiplication (:func:`block_rules`), so the dagger action commutes with
it, and every side-x graph and rule the relabelled side-y one
(:func:`certify_side_x`).  The corollary (the modular law for the graded
characters) is checked as an identity of Frobenius series; it reads only
the three plain graphs.  The characters of plain graphs come from the
irreducible blocks of their twins (:mod:`gkmhess.isotypic`).

Both are checked on side y only.  Side x is its relabelling (see
:func:`gkmhess.cohomology.relabelling`): once the graphs, the actions and
the four rules are certified to correspond, the side-x 5.1 report is the
side-y one, and the side-x characters are the side-y traces times the
dot ambient factor.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import Callable

from gkmhess.cohomology import (
    GradedCharacter, MembershipFailed, RelabelFailed, _restrict, _times_t,
    certify_relabelling, column_adjacency, first_violated_row,
    frobenius_of_character, graded_character, reduced_monomials)
from gkmhess.graphs import (
    LabeledGraph, Perm, SignedBlowupGraph, Vertex, build_blowup,
    build_circle_graph, build_graph, build_GX, build_GY, circ, compose,
    identity_perm, inverse, kind_r_via_transpose, plain, swap_positions)
from gkmhess.hessenberg import HessenbergFunction, ModularTriple
from gkmhess.isotypic import (
    TwinBlocks, block_rows, blowup_block_rows, blowup_edge_types,
    partial_sums, reduced_factor, reduced_index, reduced_swap, rho,
    standard_tableaux, twin_blocks, twin_edge_types)
from gkmhess.linalg import Echelon, IntRow, kernel_of_rows, rank_of_int_rows
from gkmhess.symfunc import GradedSymmetricFunction, Partition, partitions_of


class EquivarianceFailed(ValueError):
    """A map rule is not certified to commute with the group action."""


class TripleGraphs:
    """A kind-C triple with its five graphs on one side."""

    def __init__(self, triple: ModularTriple, side: str,
                 g_minus: LabeledGraph, g_mid: LabeledGraph,
                 g_plus: LabeledGraph, g_circle: LabeledGraph,
                 blowup: SignedBlowupGraph):
        self.triple, self.side = triple, side
        self.g_minus, self.g_mid, self.g_plus = g_minus, g_mid, g_plus
        self.g_circle, self.blowup = g_circle, blowup

    def __eq__(self, other):
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def d(self) -> int:
        return self.triple.d

    @property
    def d0(self) -> int:
        return self.triple.d0

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


# ---------------------------------------------------------------------------
# the four maps, vertex by vertex

# Each map is a rule (ctx, v) -> (source vertex, multiplier (a, b) or None,
# swap t_d/t_{d+1}) or None (value zero) for the blow-up vertex v: the value
# at v is the source value, swapped if asked, times t_a - t_b if given.
Hit = tuple[Vertex, tuple[int, int] | None, bool] | None
MapMatrix = list[list[tuple[int, int]]]


def phi(ctx: TripleGraphs, v: Vertex) -> Hit:
    """phi(f)(w) = f(°w tau), phi(f)(°w) = f(°w); on the twin side the
    plain values additionally swap t_d with t_{d+1}."""
    if v.circle:
        return v, None, False
    w_tau = swap_positions(v.perm, ctx.d + 1, ctx.d)
    return circ(w_tau), None, ctx.side == "y"


def psi_shriek(ctx: TripleGraphs, v: Vertex) -> Hit:
    """psi_!(f)(w) = (x_{d+1} - x_d) f(w) on plain vertices, 0 on circle;
    the twin side multiplies by t_{d+1} - t_d instead."""
    if v.circle:
        return None
    w, d = v.perm, ctx.d
    return v, ((w[d], w[d - 1]) if ctx.side == "x" else (d + 1, d)), False


def eta(ctx: TripleGraphs, v: Vertex) -> Hit:
    """eta(f)(w) = eta(f)(°w) = f(w)."""
    return plain(v.perm), None, False


def rho_shriek(ctx: TripleGraphs, v: Vertex) -> Hit:
    """rho_!(f)(w) = (x_d - x_{d0}) f(w), rho_!(f)(°w) = (x_{d+1} - x_{d0}) f(w);
    the twin side uses the t variables directly."""
    w, d, d0 = v.perm, ctx.d, ctx.d0
    if ctx.side == "x":   # w(d+1) or w(d), minus w(d0)
        return plain(w), (w[d] if v.circle else w[d - 1], w[d0 - 1]), False
    return plain(w), ((d + 1) if v.circle else d, d0), False


# name -> (rule, source: the graph g_<source>, degree shift)
MAPS = {
    "phi": (phi, "circle", 0),
    "psi": (psi_shriek, "mid", 1),
    "eta": (eta, "plus", 0),
    "rho": (rho_shriek, "minus", 1),
}


def _image_terms(sources, index: dict, factor, swap
                 ) -> list[list[tuple[int, int]]]:
    """Per source monomial (an exponent tuple of sources), its image as
    (index of the monomial, coefficient) pairs: swap(e) for swap given,
    then times the linear form factor, (variable, coefficient) terms, or
    times 1 for None."""
    out = []
    for mon in sources:
        e = swap(mon) if swap else mon
        out.append([(index[e], 1)] if factor is None else
                   [(index[_times_t(e, i)], c) for i, c in factor])
    return out


def _apply(matrix: MapMatrix, col: dict) -> dict:
    """M col for an integer vector."""
    out: dict = {}
    for c, v in col.items():
        for t, coeff in matrix[c]:
            out[t] = out.get(t, 0) + coeff * v
    return {t: v for t, v in out.items() if v}


# ---------------------------------------------------------------------------
# theorem checks

def _ranks(cols_a: list[IntRow], cols_b: list[IntRow]
           ) -> tuple[int, int, int]:
    """The ranks of cols_a, of cols_b and of both together."""
    ech = Echelon.of(cols_a)
    ra = ech.rank
    for vec in sorted(cols_b, key=len):   # as Echelon.of does
        ech.insert(vec)
    rab = ech.rank
    # rab <= ra + rb <= ra + len(cols_b), so equality pins rb
    rb = len(cols_b) if rab == ra + len(cols_b) \
        else rank_of_int_rows(cols_b)
    return ra, rb, rab


# the two sums of Theorem 5.1: (first map, second map, report label)
PAIRS = (("phi", "psi", "first"), ("eta", "rho", "second"))


def _main_report(graphs: TripleGraphs, max_degree: int, dim, pair_ranks
                 ) -> dict:
    """The degreewise 5.1 report.  dim(name, k) is the dimension of the
    graph called name (as in :meth:`TripleGraphs.graphs`) in degree k, 0
    for k < 0; pair_ranks(k) yields, for each of PAIRS, (first, second,
    label, rank of the first image, of the second, of both together,
    dimension of the first source, of the second), and raises
    MembershipFailed at a failed check of degree k."""
    report: dict = {"side": graphs.side, "h": str(graphs.triple.h),
                    "params": list(graphs.triple.params), "degrees": {}}
    failures: list[str] = []
    for k in range(max_degree + 1):
        fails: list[str] = []
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
                    fails.append(f"degree {k}: {first if ra < na else second} "
                                 f"not injective")
                elif rab < ra + rb:
                    fails.append(
                        f"degree {k}: images of {first} and {second} overlap")
                elif rab != dim_blow:
                    fails.append(f"degree {k}: {label} sum has rank {rab}, "
                                 f"space has dim {dim_blow}")
        except MembershipFailed as exc:
            fails.append(str(exc))
        row["consistency"] = (
            row["dims"]["circle"] + row["dims"]["mid_prev"]
            == row["dims"]["plus"] + row["dims"]["minus_prev"])
        if not row["consistency"]:
            fails.append(f"degree {k}: the two decompositions disagree")
        row["ok"] = not fails
        report["degrees"][k] = row
        failures += fails
    report["failures"] = failures
    report["pass"] = not failures
    return report


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
    class, modulo the diagonal, with the reads of :func:`block_rules`: on
    a sheet read as (g, mult, swap), x goes to mult swap(x rho_lam(g^-1)),
    with t_1 = 0 in mult (:func:`reduced_factor`) and the swap of t_d and
    t_{d+1} on the reduced monomials (:func:`reduced_swap`, d >= 2).  The
    entries are multiplied by the least common denominator of those
    matrices (:func:`rho`), one factor for the whole map, which changes no
    rank and no membership.

    Source coordinate mi * d_lam + p is the coefficient of the mi-th
    degree-(k - shift) reduced monomial in x_p, as in :func:`block_rows`;
    blow-up coordinates are those of :func:`blowup_block_rows`.
    """
    dl = len(standard_tableaux(lam))
    mats = [None if r is None else rho(n, lam, inverse(r[0])) for r in reads]
    den = lcm(*(m[1] for m in mats if m))
    sources = reduced_monomials(n, k - shift)
    matrix: MapMatrix = [[] for _ in range(dl * len(sources))]
    for sheet, (read, m) in enumerate(zip(reads, mats)):
        if read is None:
            continue
        _, mult, swap = read
        ints = [[(sheet * dl + q, x * den // m[1]) for q, x in enumerate(row)
                 if x] for row in m[0]]
        terms = _image_terms(sources, reduced_index(n, k),
                             None if mult is None else reduced_factor(mult),
                             reduced_swap(d) if swap else None)
        for mi, image in enumerate(terms):
            for p in range(dl):
                matrix[mi * dl + p] += [(t * 2 * dl + q, c * v)
                                        for t, c in image for q, v in ints[p]]
    return matrix


def check_theorem_blocks(graphs: TripleGraphs, max_degree: int) -> dict:
    """Degreewise verification that phi + psi_! and eta + rho_! are
    equivariant isomorphisms onto the signed blow-up cohomology, on the
    side-y graphs through max_degree (:func:`_main_report`): each image
    lies in the blow-up space, each map is injective, the two images meet
    trivially and their sum fills the space.  Every space is solved,
    mapped and ranked one irreducible lam of S_n at a time, modulo the
    diagonal; no full kernel is solved.

    The shape certificates (:func:`twin_edge_types` on the plain and
    circle graphs, :func:`blowup_edge_types`) show that each space is the
    set of classes F = sum_w f(w) w in Q[t] (x) Q[S_n], or pairs (P, C)
    on the blow-up, cut out by divisibilities of right multiples of F by
    label differences.  :func:`block_rules` shows that each map is a
    right multiplication, times constants, label differences and the
    t_d/t_{d+1} swap, d >= 2.  The dagger action is left multiplication,
    which commutes with all of these; so it preserves every space and
    commutes with every map, with no further check.

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

    Every block is solved in t_2..t_n, and by the lemma of
    :mod:`gkmhess.isotypic` each number of the report in degree k is the
    partial sum (:func:`partial_sums`) of the reduced numbers in degrees
    j <= k: each space is H' (x) Q[sigma], and each map, as its
    multipliers lie in R', is the reduced map tensored with Q[sigma].
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
    tops = {name: max_degree - (name in ("mid", "minus")) for name in types}
    bases = {(name, lam, j): kernel_of_rows(
        block_rows(n, t, lam, j), dl * len(reduced_monomials(n, j)))
        for name, t in types.items() for lam, dl in shapes.items()
        for j in range(tops[name] + 1)}
    blowup = {}   # (lam, j) -> the blow-up block rows' column adjacency,
    for lam, dl in shapes.items():   # and their free columns
        for j in range(max_degree + 1):
            rows = blowup_block_rows(n, plain_types, circle_types, d, lam, j)
            pivots = Echelon.of(rows).pivots
            blowup[lam, j] = column_adjacency(rows), {
                c for c in range(2 * dl * len(reduced_monomials(n, j)))
                if c not in pivots}
    dims = {name: partial_sums([
        sum(dl * bases[name, lam, j].dim for lam, dl in shapes.items())
        for j in range(top + 1)]) for name, top in tops.items()}
    dims["blowup"] = partial_sums([
        sum(dl * len(blowup[lam, j][1]) for lam, dl in shapes.items())
        for j in range(max_degree + 1)])

    def dim(name: str, k: int) -> int:
        return dims[name][k] if k >= 0 else 0

    def images(name: str, lam: Partition, j: int, adj: dict) -> list[IntRow]:
        _, source, shift = MAPS[name]
        if j < shift:
            return []
        matrix = block_map_matrix(n, lam, rules[name], d, j, shift)
        cols = [_apply(matrix, col)
                for col in bases[source, lam, j - shift].columns]
        for i, col in enumerate(cols):
            bad = first_violated_row(adj, col)
            if bad is not None:
                raise MembershipFailed(
                    f"{name} image column {i} of shape {lam} violates the "
                    f"reduced degree-{j} block row {bad}")
        return cols

    def reduced_pair(first: str, second: str, j: int) -> list[int]:
        """The two images' ranks, their joint rank and the two source
        dimensions in reduced degree j, summed over lam."""
        total = [0] * 5
        for lam, dl in shapes.items():
            adj, free = blowup[lam, j]
            cols_a, cols_b = (images(name, lam, j, adj)
                              for name in (first, second))
            block = (*_ranks(_restrict(cols_a, free),
                             _restrict(cols_b, free)),
                     len(cols_a), len(cols_b))
            total = [t + dl * b for t, b in zip(total, block)]
        return total

    # per pair, the reduced values of degrees 0, 1, ... made so far; a
    # membership failure in degree j is raised again in every degree >= j
    reduced: dict[str, list[list[int]]] = {label: [] for *_, label in PAIRS}

    def pair_ranks(k: int):
        for first, second, label in PAIRS:
            made = reduced[label]
            while len(made) <= k:
                made.append(reduced_pair(first, second, len(made)))
            yield (first, second, label,
                   *(partial_sums(column)[k] for column in zip(*made)))

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
    certified: the same degrees and failures, none of which names an
    action, as every action fault raises before any degree."""
    return {**report, "side": "x"}


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


@lru_cache(maxsize=None)
def plain_twin(h: HessenbergFunction) -> tuple[TwinBlocks, dict]:
    """The irreducible blocks of the twin graph of h (:func:`twin_blocks`)
    and their dagger traces, made once per h and kept until
    :func:`clear_plain_caches`; callers only read them."""
    blocks = twin_blocks(build_GY(h))
    return blocks, blocks.traces()


def plain_side(h: HessenbergFunction, side: str
               ) -> tuple[TwinBlocks, dict]:
    """The plain graph of h on side as (blocks, traces), read off its twin
    (:func:`plain_twin`): side y is the twin, and side x the same blocks
    and traces once the relabelling is certified on the graphs and the
    actions (:func:`certify_relabelling`), as the dot traces of side x
    are the dagger traces of side y.  RelabelFailed otherwise."""
    blocks, traces = plain_twin(h)
    if side == "x":
        certify_relabelling(blocks.graph, build_GX(h), f"plain graph of {h}",
                            blocks.max_degree)
    return blocks, traces


@lru_cache(maxsize=None)
def plain_character(h: HessenbergFunction, side: str) -> GradedCharacter:
    """The graded character of the plain graph of h (:func:`plain_side`):
    the dot action on side x, the dagger action on side y."""
    space, traces = plain_side(h, side)
    return graded_character(space, "dot" if side == "x" else "dagger",
                            traces=traces)


@lru_cache(maxsize=None)
def plain_series(h: HessenbergFunction, side: str
                 ) -> GradedSymmetricFunction:
    """The Frobenius series of :func:`plain_character`, m basis, made once
    per (h, side) and kept with it; callers only read it."""
    return frobenius_of_character(plain_character(h, side))


def clear_plain_caches() -> None:
    """Empty the plain_twin, plain_character and plain_series caches."""
    plain_twin.cache_clear()
    plain_character.cache_clear()
    plain_series.cache_clear()


# (True, None) where a law of Frobenius series holds, else (False, lhs - rhs)
Law = tuple[bool, GradedSymmetricFunction | None]


def _modular_law(series) -> Law:
    """(ok, difference) of (1+q) F(h) = F(h_+) + q F(h_-) for the series
    (F(h_-), F(h), F(h_+))."""
    f_minus, f_mid, f_plus = series
    lhs = f_mid.scale_qpoly({0: 1, 1: 1})
    rhs = f_plus + f_minus.scale_qpoly({1: 1})
    return (True, None) if lhs == rhs else (False, lhs - rhs)


def check_corollary_sides(triple: ModularTriple
                          ) -> tuple[Law, Callable[[], Law]]:
    """(1+q) F(h) = F(h_+) + q F(h_-) for the graded Frobenius series:
    the side-y law of triple, and a function giving the side-x one.

    Reads only the twins of the three plain graphs of the triple (a
    kind-R triple is transposed first, as in :meth:`TripleGraphs.of`),
    each through its own top degree + 1, by :func:`plain_series`.
    Both sides come from one set of dagger traces (:func:`plain_twin`):
    side x through the certified relabelling.  Each law is a
    :data:`Law`.
    """
    if triple.kind == "R":
        triple = kind_r_via_transpose(triple)
    hs = (triple.h_minus, triple.h, triple.h_plus)

    def law(side: str) -> Law:
        return _modular_law(plain_series(h, side) for h in hs)

    return law("y"), lambda: law("x")


def omega_graded(gf: GradedSymmetricFunction) -> GradedSymmetricFunction:
    """Apply the omega involution to every q coefficient."""
    return GradedSymmetricFunction(
        gf.degree, {k: f.omega() for k, f in gf.terms.items()})


def check_theorem_1_1(h: HessenbergFunction) -> Law:
    """omega(csf_q(h)) equals the dot-action Frobenius series of the
    Hessenberg GKM graph; the difference is in the m basis."""
    from gkmhess.coloring import csf_q as _csf
    lhs = omega_graded(_csf(h)).convert("m")
    rhs = plain_series(h, "x")
    return (True, None) if lhs == rhs else (False, lhs - rhs)


def check_theorem_1_2(h: HessenbergFunction) -> Law:
    """llt(h) equals the dagger-action Frobenius series of the twin graph."""
    from gkmhess.coloring import llt as _llt
    lhs = _llt(h).convert("m")
    rhs = plain_series(h, "y")
    return (True, None) if lhs == rhs else (False, lhs - rhs)
