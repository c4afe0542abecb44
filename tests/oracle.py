"""Reference implementations that the tests check the package against.

The engine oracles use only the per-symbol field helpers (``vec_add``,
``vec_scale``), never the ``FieldContext.lincombs`` kernel the engine is
built on, so they stay independent of the code under test.  The GF(2)
polynomial helpers (``poly_mulmod``, ``is_irreducible``) check the field's
product table by carry-less multiplication and trial division.  Helpers that
only the tests use (``FieldElement``, ``field_dot``, ``canonical_relabel``,
``min_subpacketization``, ``lsub_parameters``, ``subpacketization_compare``,
``restrict_corners``, ``f_bound``, ``uncoded_points``, ``vec_sub``,
``zero_randomness``) live here too.  ``column_plans`` builds ``PDA.plans``
column by column, the reference for its one pass over the array's index.
The tradeoff oracles build the t-subset curve as a lower convex envelope
and read its pieces through ``TradeoffCurve.evaluate``, the generic path
the closed form replaces; ``fraction_lower_convex_envelope``, the hull with
its cross-product test in Fractions, builds those envelopes and is the
reference for the integer test of ``lower_convex_envelope``.
``per_piece_sup`` runs ``ratio_sup`` on every piece of a certified ratio,
the path that one candidate per (N, K) replaces, and
``fraction_pda_lower_bound`` and ``fraction_cutset_bound`` are the converse
bounds in Fraction arithmetic, the references for their integer forms.
``raw_atoms`` walks every atom of an audit over ``libraries`` (every file
realization), each with weight 1, and ``weighted_atoms`` each effective
atom once, weighed by the raw atoms it stands for, its active symbols of r
those ``active_symbols`` reads off ``Randomness.effective``: the reference
for the symbols the audit reads off its run.  ``walk_security`` and
``walk_privacy`` count either walk with an engine call per atom and test
every identity pair with ``pairwise_violations``: the references for the
audit's enumerations, which count from the formal model by class or by
atom, and for the one-pass ``factorization_violations``.  ``cache_key``
is a cache as the walks observe it.  ``enumerate_correctness`` decodes
every raw atom for every user, the reference for the correctness
certificate, which alone decides the audit.  ``walk_two_rounds`` counts
the files against two rounds' signals around a key refresh, and
``walk_two_rounds_privacy`` the other users' demands in both rounds
against a colluding subset's view at one W, which no audit covers yet.
``file_models`` builds the affine model of the concrete engine at every
file realization W, from its probe points
(``probe_points``: r = 0, each unit vector of r, each demand move), and
``per_file_correctness``, ``per_file_security`` and ``per_file_privacy``
decide the certificates W by W on them, by dense elimination (``echelon``,
``reduce``, ``in_span``): the references for the certificates read off
the formal model, and ``echelon`` the reference for the audit's sparse
eliminator.  ``outputs`` reads the concrete
engine's signal, caches and decoding errors at one point, and
``evaluate`` the formal model's at the same point, the differential test
of the premise the certificates rest on.  ``composed_gathered`` is the
formal context's ``gathered`` as a composition of its other methods, the
reference for its direct sum of the picked slots.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby, product, zip_longest
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import splfr.audit as audit
from splfr.engine import Library, NonDivisibleB, Randomness, Vector, update_round
from splfr.field import FieldContext, FieldError
from splfr.pda import PDA, STAR, ColumnPlan, PdaError, validate
from splfr.tradeoff import (
    CurvePoint,
    Supremum,
    TradeoffCurve,
    TradeoffError,
    _cutset_pieces,
    cutset_bound,
    man_curve,
    man_points,
    pda_lower_bound,
    ratio_sup,
)


# -- field elements with operators ---------------------------------------


class ContextMismatchError(FieldError):
    """Operands belong to different field contexts."""


@dataclass(frozen=True)
class FieldElement:
    """A single element of GF(q), carrying its field context."""

    value: int
    ctx: FieldContext

    @classmethod
    def of(cls, ctx: FieldContext, value: int) -> "FieldElement":
        return cls(ctx.check(value), ctx)

    def _coerce(self, other: "FieldElement") -> int:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")
        return other.value

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.ctx.add(self.value, self._coerce(other)), self.ctx)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + -other

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.ctx.mul(self.value, self._coerce(other)), self.ctx)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx.neg(self.value), self.ctx)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.ctx.inv(self.value), self.ctx)

    def __repr__(self) -> str:
        return f"{self.value}@GF({self.ctx.q})"


def field_dot(ctx: FieldContext, u: Sequence[int], w: Sequence[int]) -> int:
    """Inner product of two equal-length vectors of field values."""
    return ctx.lincomb(u, [(b,) for b in w])[0] if u or w else 0


def dot(u: Iterable[FieldElement], w: Iterable[FieldElement]) -> FieldElement:
    """Inner product of two equal-length FieldElement vectors."""
    u, w = list(u), list(w)
    if not u or not w:
        raise FieldError("dot of empty vectors")
    ctx = u[0].ctx
    for e in u + w:
        if e.ctx != ctx:
            raise ContextMismatchError("mixed contexts in dot")
    if len(u) != len(w):
        raise FieldError(f"length mismatch: {len(u)} vs {len(w)}")
    return FieldElement(field_dot(ctx, [e.value for e in u], [e.value for e in w]), ctx)


# -- polynomials over GF(2), as bitmasks ----------------------------------


def poly_mod(a: int, m: int) -> int:
    """Remainder of polynomial a modulo m over GF(2)."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def poly_mulmod(a: int, b: int, m: int) -> int:
    """Carry-less product of a and b, reduced modulo m."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return poly_mod(r, m)


def is_irreducible(poly: int, m: int) -> bool:
    """Brute-force irreducibility test for a degree-m polynomial over GF(2)."""
    if poly.bit_length() - 1 != m:
        return False
    # any nontrivial factorization has a factor of degree <= m // 2
    for d in range(1, m // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if poly_mod(poly, cand) == 0:
                return False
    return True


# -- arrays and curves ------------------------------------------------------


def canonical_relabel(pda: PDA) -> PDA:
    """Relabel ordinary symbols by first occurrence in row-major order.

    Two PDAs that differ only in the choice of the symbol-indexing bijection
    compare equal after relabeling.
    """
    mapping: dict[int, int] = {}
    grid = []
    for row in pda.entries:
        new_row = []
        for e in row:
            if e is STAR:
                new_row.append(STAR)
            else:
                if e not in mapping:
                    mapping[e] = len(mapping) + 1
                new_row.append(mapping[e])
        grid.append(new_row)
    return validate(grid)


def column_plans(pda: PDA) -> tuple[ColumnPlan, ...]:
    """``PDA.plans`` built column by column: each column's rows in order, then
    each ordinary row's symbol looked up in ``index``."""
    plans = []
    for k in range(pda.k):
        stars, symbols, rows = [], [], []
        for i, row in enumerate(pda.entries):
            if row[k] is STAR:
                rows.append((0, len(stars)))
                stars.append(i)
            else:
                rows.append((1, len(symbols)))
                symbols.append(row[k] - 1)
        star = {i: z for z, i in enumerate(stars)}
        # the other positions of each ordinary row's symbol: (user, star slot)
        others = [[(j, star[i]) for i, j in pda.index[s + 1] if j != k] for s in symbols]
        sharers = sorted({j for pos in others for j, _ in pos})
        sharer = {j: a for a, j in enumerate(sharers)}
        plans.append(ColumnPlan(
            symbols=tuple(symbols),
            sharers=tuple(sharers),
            cross=tuple(zip_longest(*[[(sharer[j], z) for j, z in pos] for pos in others])),
            rows=tuple(rows),
        ))
    return tuple(plans)


def min_subpacketization(k: int, g: int) -> int:
    """Smallest row count C(k, g-1) of a g-regular array with g-1 stars per row.

    The combinatorial argument needs g >= 2; g = 1 and g = k + 1 are accepted
    as degenerate endpoints where the bound C(k, g-1) is trivially valid.
    """
    if not 1 <= g <= k + 1:
        raise PdaError(f"need 1 <= g <= k+1, got k={k}, g={g}")
    return math.comb(k, g - 1)


def lsub_parameters(k: int, t: int) -> tuple[Fraction, Fraction, int]:
    """Memory coefficient, load, and subpacketization of the low-F construction.

    Valid for k > 2 and t in [2, k-1] with t | k or (k-t) | k.  Returns
    (t/k, (k-t)/t, F) where F = (t/k) * (k / min(t, k-t)) ** min(t, k-t);
    memory is M = 1 + (t/k)(N-1).
    """
    if k <= 2 or not 2 <= t <= k - 1:
        raise PdaError(f"need k > 2 and t in [2, k-1], got k={k}, t={t}")
    if k % t != 0 and k % (k - t) != 0:
        raise PdaError(f"need t | k or (k-t) | k, got k={k}, t={t}")
    mcoeff = Fraction(t, k)
    r = Fraction(k - t, t)
    base = min(t, k - t)
    f = Fraction(t, k) * Fraction(k, base) ** base
    assert f.denominator == 1
    return mcoeff, r, int(f)


#: Rational lower bound on e^(1/3) * 2*pi: a partial sum of the exponential
#: series, whose terms are all positive, times pi truncated to 8 decimals.
STIRLING_C_LOW = (
    sum(Fraction(1, 3**j * math.factorial(j)) for j in range(12))
    * 2
    * Fraction(314159265, 10**8)
)


def subpacketization_compare(k: int, t: int) -> dict:
    """Compare the t-subset construction with the low-subpacketization one.

    Requires t | k and t in [2, k-1].  Verifies the exact load identity
    R_man = (t/(t+1)) R_lsub and certifies the Stirling-based inequality
    B_man >= B_lsub * (K/t)^{3/2} (K/A)^A / (e^{1/6} sqrt(2 pi (K-t)))
    with A = max(t, K-t), by squaring and replacing e^{1/3} * 2 pi with the
    rational lower bound STIRLING_C_LOW (so a reported pass is a true
    inequality).
    """
    if k % t != 0 or not 2 <= t <= k - 1:
        raise TradeoffError(f"need t | k and t in [2, k-1], got k={k}, t={t}")
    b_man = math.comb(k, t)
    _, r_lsub, b_lsub = lsub_parameters(k, t)
    r_man = Fraction(k - t, t + 1)
    identity_ok = r_man == Fraction(t, t + 1) * r_lsub

    a = max(t, k - t)
    lhs = Fraction(b_man) ** 2 * STIRLING_C_LOW * (k - t)
    rhs = Fraction(b_lsub) ** 2 * Fraction(k, t) ** 3 * Fraction(k, a) ** (2 * a)
    stirling_ok = lhs >= rhs

    return {
        "k": k,
        "t": t,
        "b_man": b_man,
        "b_lsub": b_lsub,
        "r_man": r_man,
        "r_lsub": r_lsub,
        "identity_ok": identity_ok,
        "stirling_ok": stirling_ok,
    }


def f_bound(n: int, m) -> Fraction:
    """Smooth envelope (1/4)(N/(N-1))(N/M - M/N) of the cut-set lines."""
    m = Fraction(m)
    lo = Fraction(n, 2 * (n // 2) + 1)
    if not lo <= m <= n:
        raise TradeoffError(f"memory {m} outside [{lo}, {n}]")
    return Fraction(1, 4) * Fraction(n, n - 1) * (Fraction(n, 1) / m - m / Fraction(n))


def restrict_corners(curve: TradeoffCurve, m_lo, m_hi) -> tuple[CurvePoint, ...]:
    """The corners of ``curve`` with memory in [m_lo, m_hi]."""
    lo, hi = Fraction(m_lo), Fraction(m_hi)
    return tuple(p for p in curve.corners if lo <= p.m <= hi)


def uncoded_points(n: int, k: int) -> list[CurvePoint]:
    """Corner points (tN/K, (K-t)/(t+1)) of the uncoded-placement optimum."""
    return [
        CurvePoint(Fraction(t * n, k), Fraction(k - t, t + 1)) for t in range(k + 1)
    ]


def fraction_lower_convex_envelope(points) -> TradeoffCurve:
    """Lower hull of a point set, with the cross-product test in Fractions."""
    pts = sorted((Fraction(m), Fraction(r)) for m, r in points)
    if not pts:
        raise TradeoffError("no points")
    # keep only the lowest load at each memory: the first, as pts is sorted
    dedup: list[tuple[Fraction, Fraction]] = []
    for m, r in pts:
        if not dedup or dedup[-1][0] != m:
            dedup.append((m, r))
    hull: list[tuple[Fraction, Fraction]] = []
    for p in dedup:
        while len(hull) >= 2:
            (m1, r1), (m2, r2) = hull[-2], hull[-1]
            # pop while the middle point lies on or above segment (m1,r1)-(p)
            if (r2 - r1) * (p[0] - m1) >= (p[1] - r1) * (m2 - m1):
                hull.pop()
            else:
                break
        hull.append(p)
    return TradeoffCurve(tuple(CurvePoint(m, r) for m, r in hull))


def uncoded_curve(n: int, k: int) -> TradeoffCurve:
    return fraction_lower_convex_envelope(uncoded_points(n, k))


def hull_man_curve(n: int, k: int) -> TradeoffCurve:
    """The t-subset curve as the lower convex envelope of its points."""
    return fraction_lower_convex_envelope(man_points(n, k))


def linear(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(c0, c1, d) with a + theta*(b - a) = (c0 + c1*theta)/d and d > 0."""
    d = math.lcm(a.denominator, b.denominator)
    c0 = a.numerator * (d // a.denominator)
    return c0, b.numerator * (d // b.denominator) - c0, d


def segments(curve: TradeoffCurve, lo, hi):
    """The curve's linear pieces over [lo, hi], in integer theta forms.

    Yields ((m0, m1, dm), (r0, r1, dr)) with M = (m0 + m1*theta)/dm and
    R = (r0 + r1*theta)/dr for theta in [0, 1].
    """
    lo, hi = Fraction(lo), Fraction(hi)
    pts = [CurvePoint(lo, curve.evaluate(lo))]
    pts += [p for p in curve.corners if lo < p.m < hi]
    pts.append(CurvePoint(hi, curve.evaluate(hi)))
    for a, b in zip(pts, pts[1:]):
        yield linear(a.m, b.m), linear(a.r, b.r)


def hull_man_segments(n: int, k: int, lo, hi):
    """``segments`` of ``hull_man_curve``: the generic form of the pieces."""
    return segments(hull_man_curve(n, k), lo, hi)


def evaluated_coded_uncoded_ratio_max(n: int, k: int) -> Fraction:
    """Max of the coded-over-uncoded load ratio over the corners in [1, N).

    Evaluates both hull curves at every corner memory of either.
    """
    coded = hull_man_curve(n, k)
    uncoded = uncoded_curve(n, k)
    candidates = {p.m for p in coded.corners} | {p.m for p in uncoded.corners}
    return max(
        coded.evaluate(m) / uncoded.evaluate(m) for m in candidates if 1 <= m < n
    )


# -- per-piece suprema and Fraction bounds -----------------------------------
#
# The certified suprema as ``ratio_sup`` over every piece, the path that one
# candidate per (N, K) replaces, and the converse bounds in Fraction
# arithmetic: the references for the integer paths of ``splfr.tradeoff``.


def simple_converse_pieces(n: int, k: int):
    """(p, q) per piece of R(M)(M-1)/(N-M) over [1, N)."""
    for (m0, m1, dm), (r0, r1, dr) in hull_man_segments(n, k, 1, n):
        # R(M-1)/(N-M) = (r0 + r1*theta)(m0 - dm + m1*theta) / (dr (N dm - m0 - m1*theta))
        e0 = m0 - dm
        p = (r1 * m1, r0 * m1 + r1 * e0, r0 * e0)
        yield p, (0, -dr * m1, dr * (n * dm - m0))


def smooth_bound_pieces(n: int, k: int):
    """(p, q) per piece of R(M)/f(M) over [2, N)."""
    for (m0, m1, dm), (r0, r1, dr) in hull_man_segments(n, k, 2, n):
        # R/f = 4(N-1) M R / (N^2 - M^2), both sides times dr dm^2
        c = 4 * (n - 1) * dm
        p = (c * r1 * m1, c * (r0 * m1 + r1 * m0), c * r0 * m0)
        q = (-dr * m1 * m1, -2 * dr * m0 * m1, dr * (n * n * dm * dm - m0 * m0))
        yield p, q


def cutset_ratio_pieces(n: int, k: int, lo: Fraction, hi: Fraction):
    """(p, q) per piece of R(M) over the cut-set bound on [lo, hi)."""
    for u, a, b in _cutset_pieces(n, k, lo, hi):
        for (m0, m1, dm), (r0, r1, dr) in hull_man_segments(n, k, a, b):
            # R/line_u = (N-1) dm (r0 + r1*theta) / (dr (uN dm - u^2 (m0 + m1*theta)))
            p = (0, (n - 1) * dm * r1, (n - 1) * dm * r0)
            q = (0, -dr * u * u * m1, dr * (u * n * dm - u * u * m0))
            yield p, q


def per_piece_sup(pieces) -> Supremum:
    """The largest ``ratio_sup`` of the pieces, each run in full."""
    return max(ratio_sup(p, q) for p, q in pieces)


def end_ratios(p, q) -> tuple[Fraction, Fraction]:
    """P/Q at theta = 0 and at theta = 1, the latter as P'(1)/Q'(1) where Q(1) = 0."""
    (p2, p1, p0), (q2, q1, q0) = p, q
    if q2 + q1 + q0:
        return Fraction(p0, q0), Fraction(p2 + p1 + p0, q2 + q1 + q0)
    return Fraction(p0, q0), Fraction(2 * p2 + p1, 2 * q2 + q1)


def fraction_pda_lower_bound(n: int, k: int, m) -> Fraction:
    """K(N-M)/(N-1+K(M-1)), in Fraction arithmetic."""
    m = Fraction(m)
    if not 1 <= m <= n:
        raise TradeoffError(f"memory {m} outside [1, {n}]")
    return Fraction(k * (n - m), (n - 1) + k * (m - 1))


def fraction_cutset_bound(n: int, k: int, m) -> Fraction:
    """max_u (uN - u^2 M)/(N-1), floored at zero, one Fraction per cut size."""
    m = Fraction(m)
    if not 1 <= m <= n:
        raise TradeoffError(f"memory {m} outside [1, {n}]")
    best = Fraction(0)
    for u in range(1, min(n // 2, k) + 1):
        best = max(best, Fraction(u * n - u * u * m, n - 1))
    return best


# -- engine -------------------------------------------------------------------


def split(file: Sequence[int], f: int) -> tuple[Vector, ...]:
    """A file cut into f contiguous equal-size packets, as plain tuples."""
    b = len(file)
    if f <= 0 or b % f != 0:
        raise NonDivisibleB(f"packet count {f} does not divide file length {b}")
    size = b // f
    return tuple(tuple(file[i * size : (i + 1) * size]) for i in range(f))


def privacy_key(library: Library, pda: PDA, p_j: Vector, i: int) -> Vector:
    """The block sum_n p_j[n] * W_{n,i} for packet row i (0-based)."""
    ctx = library.ctx
    packets = [split(file, pda.f)[i] for file in library.files]
    block = (0,) * (library.b // pda.f)
    for coeff, pkt in zip(p_j, packets):
        if coeff:
            block = ctx.vec_add(block, ctx.vec_scale(coeff, pkt))
    return block


def vec_sub(ctx, u: Sequence[int], w: Sequence[int]) -> Vector:
    """u - w, by the context's ``vec_add`` and scalar ``neg``."""
    return ctx.vec_add(u, tuple(map(ctx.neg, w)))


def zero_randomness(pda: PDA, n: int, b: int) -> Randomness:
    """The randomness r = 0."""
    return Randomness.of(pda, n, b, (0,) * Randomness.symbols(pda, n, b))


def combine(library: Library, demand: Vector) -> Vector:
    """The full-length combination sum_n demand[n] * W_n."""
    ctx = library.ctx
    out = (0,) * library.b
    for coeff, file in zip(demand, library.files):
        if coeff:
            out = ctx.vec_add(out, ctx.vec_scale(coeff, file))
    return out


# -- audit -------------------------------------------------------------------


def libraries(cfg: audit.AuditConfig):
    """Every file realization W, in ``product`` order."""
    files = list(product(range(cfg.ctx.q), repeat=cfg.b))
    for combo in product(files, repeat=cfg.n):
        yield Library(cfg.ctx, tuple(combo))


def raw_atoms(cfg: audit.AuditConfig):
    """Every (files, keys, demands) atom: files, placement, demands, signal, weight 1.

    The files are outermost and the demands innermost, so the atoms of one
    file realization, and of one placement, are consecutive.  The engine is
    called through ``splfr.audit``, so that a fault patched in there reaches
    this walk as it reaches the audit's own.
    """
    return _walk(cfg, (True,) * Randomness.symbols(cfg.pda, cfg.n, cfg.b))


def weighted_atoms(cfg: audit.AuditConfig):
    """Each effective atom once, in the order of ``raw_atoms``, weighed by q^(masked).

    A symbol of r that the mode masks reaches no cache and no signal, so the
    walk holds it at 0 and weighs the atom by the q^(masked) raw atoms it
    stands for.
    """
    return _walk(cfg, active_symbols(cfg))


def active_symbols(cfg: audit.AuditConfig) -> tuple[bool, ...]:
    """Per symbol of r, whether the engine's masking for the mode lets it through."""
    args = cfg.pda, cfg.n, cfg.b
    ones = Randomness.of(*args, (1,) * Randomness.symbols(*args))
    ones = ones.effective(*args, cfg.ctx, cfg.mode)
    return tuple(map(bool, chain(*ones.security_keys, *ones.privacy_vectors)))


def _walk(cfg: audit.AuditConfig, active: Sequence[bool]):
    """The atoms with each symbol of r that ``active`` leaves out held at 0."""
    cfg.check_budget()
    pda, n, b, q = cfg.pda, cfg.n, cfg.b, cfg.ctx.q
    weight = q ** list(active).count(False)
    demand_tuples = cfg.demand_tuples()
    for library in libraries(cfg):
        for r in product(*(range(q) if a else (0,) for a in active)):
            state = audit.place(pda, library, Randomness.of(pda, n, b, r), cfg.mode)
            for demands in demand_tuples:
                yield library, state, demands, audit.deliver(state, demands), weight


def pairwise_violations(counts: Counter) -> tuple[int, tuple | None]:
    """``factorization_violations`` by testing every (a, b) pair of the margins."""
    total = counts.total()
    margin_a: dict = {}
    margin_b: dict = {}
    for (a, b), c in counts.items():
        margin_a[a] = margin_a.get(a, 0) + c
        margin_b[b] = margin_b.get(b, 0) + c
    violations, first = 0, None
    for a, ca in margin_a.items():
        for b, cb in margin_b.items():
            if counts.get((a, b), 0) * total != ca * cb:
                violations += 1
                first = first or (a, b)
    return violations, first


def cache_key(cfg: audit.AuditConfig, k: int, cache) -> tuple:
    """User k's cache re-laid by row, as the audit reports it: (row, the N
    files' packets) pairs under stars, then (row, record) pairs, in row order."""
    block, column = cfg.b // cfg.pda.f, cfg.pda.column(k)

    def packets(v) -> list[Vector]:
        return [tuple(v[i : i + block]) for i in range(0, len(v), block)]

    starred, records = [packets(v) for v in cache.starred], iter(packets(cache.records))
    stars = [i for i, e in enumerate(column) if e is STAR]
    return (
        tuple((i, tuple(p[j] for p in starred)) for j, i in enumerate(stars)),
        tuple((i, next(records)) for i, e in enumerate(column) if e is not STAR),
    )


def walk_security(cfg: audit.AuditConfig, atoms) -> audit.AuditReport:
    """The security enumeration, one engine call per atom of ``atoms``."""
    counts = Counter()
    for library, _, demands, payload, weight in atoms:
        counts[(library.files, demands), (payload.coeff_vectors, payload.blocks)] += weight
    violations, first = pairwise_violations(counts)
    counterexample = None
    if first is not None:
        (files, demands), observed = first
        counterexample = {
            "files": [list(f) for f in files],
            "demands": [list(d) for d in demands],
            "signal": repr(observed),
        }
    return audit.AuditReport(violations == 0, counts.total(), violations, counterexample)


def walk_privacy(cfg: audit.AuditConfig, subsets, atoms) -> list:
    """The privacy enumeration per subset, one engine call per atom of ``atoms``."""
    cuts = []
    for subset in subsets:
        colluders = [u - 1 for u in audit._subset(cfg, subset)]
        others = [k for k in range(cfg.pda.k) if k not in colluders]
        cuts.append((colluders, others))
    reports = [audit.AuditReport(True, 0, 0) for _ in cuts]
    for library, group in groupby(atoms, itemgetter(0)):
        tables = [Counter() for _ in cuts]
        for _, state, demands, payload, weight in group:
            for (colluders, others), table in zip(cuts, tables):
                hidden = tuple(demands[k] for k in others)
                seen = tuple(demands[k] for k in colluders)
                caches = tuple(cache_key(cfg, k, state.caches[k]) for k in colluders)
                table[hidden, (payload.coeff_vectors, payload.blocks, seen, caches)] += weight
        for report, table in zip(reports, tables):
            violations, first = pairwise_violations(table)
            report.atoms += table.total()
            report.violations += violations
            report.verdict = report.violations == 0
            if first is not None and report.counterexample is None:
                hidden, observed = first
                report.counterexample = {
                    "files": [list(f) for f in library.files],
                    "hidden_demands": [list(d) for d in hidden],
                    "observed": repr(observed),
                }
    return reports


def enumerate_correctness(cfg: audit.AuditConfig) -> audit.AuditReport:
    """Decoder exactness at every raw atom and user, the reference for the certificate.

    A failure reports the 1-based position of its atom in ``raw_atoms`` and
    the atom itself, its keys as placed, with the user that decodes wrongly.
    """
    atoms = 0
    for atoms, (library, state, demands, payload, _) in enumerate(raw_atoms(cfg), 1):
        for k, demand in enumerate(demands):
            if audit.decode(state.user_view(k), payload, demand) != library.combine(demand):
                detail = {
                    "files": [list(f) for f in library.files],
                    "security_keys": [list(v) for v in state.randomness.security_keys],
                    "privacy_vectors": [list(p) for p in state.randomness.privacy_vectors],
                    "demands": [list(d) for d in demands],
                    "user": k + 1,
                }
                return audit.AuditReport(False, atoms, 1, detail)
    return audit.AuditReport(True, atoms, 0)


def walk_two_rounds(cfg: audit.AuditConfig, demands, coeffs) -> tuple[Counter, Counter]:
    """The files against both signals of ``place``, ``deliver``, ``update_round``, ``deliver``.

    Every W, r and fresh security key, each once, with ``demands`` in both
    rounds and the local coefficients ``coeffs``; one count table with the
    fresh keys hidden from the observer, and one with them in its view.
    """
    pda, n, b, q = cfg.pda, cfg.n, cfg.b, cfg.ctx.q
    block = b // pda.f
    hidden, public = Counter(), Counter()
    for library in libraries(cfg):
        for r in product(range(q), repeat=Randomness.symbols(pda, n, b)):
            state = audit.place(pda, library, Randomness.of(pda, n, b, r), cfg.mode)
            first = audit.deliver(state, demands)
            for fresh in product(range(q), repeat=pda.s * block):
                keys = tuple(fresh[j * block : (j + 1) * block] for j in range(pda.s))
                second = audit.deliver(update_round(state, demands, keys, coeffs), demands)
                hidden[library.files, (first, second)] += 1
                public[library.files, (first, second, keys)] += 1
    return hidden, public


def walk_two_rounds_privacy(
    cfg: audit.AuditConfig, library: Library, coeffs, colluders=(0,)
) -> tuple[Counter, Counter]:
    """The other users' demands in both rounds against the colluders' view, at one W.

    Every r, demand tuple, fresh security key and second demand tuple, each
    once, through ``place``, ``deliver``, ``update_round`` with the local
    coefficients ``coeffs`` and ``deliver``.  The colluders (0-based) see
    both signals, their own demands in both rounds and their caches before
    and after the refresh; one count table with the fresh keys hidden from
    them, and one with the keys in their view.
    """
    pda, n, b, q = cfg.pda, cfg.n, cfg.b, cfg.ctx.q
    block, tuples = b // pda.f, cfg.demand_tuples()
    others = [k for k in range(pda.k) if k not in colluders]
    hidden, public = Counter(), Counter()
    for r in product(range(q), repeat=Randomness.symbols(pda, n, b)):
        state = audit.place(pda, library, Randomness.of(pda, n, b, r), cfg.mode)
        for demands in tuples:
            first = audit.deliver(state, demands)
            for fresh in product(range(q), repeat=pda.s * block):
                keys = tuple(fresh[j * block : (j + 1) * block] for j in range(pda.s))
                refreshed = update_round(state, demands, keys, coeffs)
                for again in tuples:
                    second = audit.deliver(refreshed, again)
                    others_demands = tuple((demands[k], again[k]) for k in others)
                    seen = tuple(
                        (demands[k], again[k], cache_key(cfg, k, state.caches[k]),
                         cache_key(cfg, k, refreshed.caches[k]))
                        for k in colluders
                    )
                    hidden[others_demands, (first, second, seen)] += 1
                    public[others_demands, (first, second, seen, keys)] += 1
    return hidden, public


class FileModel(NamedTuple):
    """The engine at one file realization W, as an affine map of (r, d).

    A point is the signal, then each user's cache.  ``offset`` is the point
    r = 0, d = d0; ``keys[i]`` is what A_W adds per unit of symbol i of r;
    ``demands`` holds (user, C_W * delta) per single-user demand move away
    from d0 (see ``probe_points``).
    """

    offset: tuple[Vector, ...]
    keys: tuple[tuple[Vector, ...], ...]
    demands: tuple[tuple[int, tuple[Vector, ...]], ...]


def probe_libraries(cfg: audit.AuditConfig):
    """W = 0, then each unit vector e_i of the N*B file symbols."""
    n, b = cfg.n, cfg.b
    for i in range(-1, n * b):
        files = tuple(tuple(int(i == f * b + j) for j in range(b)) for f in range(n))
        yield Library(cfg.ctx, files)


def probe_points(cfg: audit.AuditConfig, library: Library):
    """(placement, demands, mover) at r = 0 and d0, at each unit vector of r, at each demand move.

    Every point is a demand tuple of the demand space, and their affine
    hull contains all of it: for ``all``, d0 = 0 and each user moves to
    each unit vector; for ``units``, d0 puts every user on file 1 and each
    user moves to each other file.  ``mover`` is the moving user, or None.
    """
    pda, n, b = cfg.pda, cfg.n, cfg.b
    size = Randomness.symbols(pda, n, b)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    start, targets = (units[0], units[1:]) if cfg.demand_space == "units" else ((0,) * n, units)
    base = (start,) * pda.k
    state = audit.place(pda, library, zero_randomness(pda, n, b), cfg.mode)
    yield state, base, None
    for j in range(size):
        r = Randomness.of(pda, n, b, [int(i == j) for i in range(size)])
        yield audit.place(pda, library, r, cfg.mode), base, None
    for j in range(pda.k):
        for t in targets:
            yield state, base[:j] + (t,) + base[j + 1 :], j


def file_model(cfg: audit.AuditConfig, library: Library) -> FileModel:
    """The engine at the probe points of one W, less its offset, caches included."""
    ctx, points = cfg.ctx, list(probe_points(cfg, library))
    seen = [(outputs(state, demands)[: 1 + cfg.pda.k], j) for state, demands, j in points]
    (offset, _), *seen = seen
    parts = [(tuple(vec_sub(ctx, u, w) for u, w in zip(p, offset)), j) for p, j in seen]
    keys = [p for p, j in parts if j is None]
    return FileModel(offset, tuple(keys), tuple((j, p) for p, j in parts if j is not None))


def file_models(cfg: audit.AuditConfig):
    """The model at every file realization W: q^(N*B) of them."""
    return (file_model(cfg, library) for library in libraries(cfg))


def per_file_correctness(cfg: audit.AuditConfig) -> bool:
    """Every decoder is exact at every probe point of every W."""
    return all(
        not any(map(any, outputs(state, demands)[1 + cfg.pda.k :]))
        for library in libraries(cfg)
        for state, demands, _ in probe_points(cfg, library)
    )


def _pivot(row: Sequence[int]) -> int | None:
    """Index of the first nonzero entry, or None for a zero row."""
    return next((i for i, x in enumerate(row) if x), None)


def echelon(ctx: FieldContext, rows: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """The reduced row echelon basis of the span of ``rows``.

    Rows are ordered by pivot column; each pivot is 1 and the only nonzero
    entry of its column.  The basis is canonical: two row sets span the
    same subspace iff their bases are equal, and the rank is the length of
    the basis.
    """
    basis: list[Vector] = []
    for row in rows:
        row = reduce(ctx, basis, row)
        pivot = _pivot(row)
        if pivot is None:
            continue
        row = ctx.vec_scale(ctx.inv(row[pivot]), row)
        # clear the new pivot column from the rows already kept
        basis = [vec_sub(ctx, b, ctx.vec_scale(b[pivot], row)) if b[pivot] else b for b in basis]
        basis.append(row)
    return tuple(sorted(basis, key=lambda b: b.index(1)))


def reduce(ctx: FieldContext, basis: Sequence[Vector], v: Sequence[int]) -> Vector:
    """The residue of ``v`` against a reduced echelon ``basis``.

    It is zero iff ``v`` lies in the span of the basis.  Each basis row's
    pivot, its first nonzero entry, is 1, so ``index(1)`` finds it.
    """
    v = tuple(v)
    for b in basis:
        c = v[b.index(1)]
        if c:
            v = vec_sub(ctx, v, ctx.vec_scale(c, b))
    return v


def in_span(ctx: FieldContext, basis, vectors) -> bool:
    """Whether every vector lies in the span of the reduced echelon ``basis``."""
    return not any(any(reduce(ctx, basis, v)) for v in vectors)


def per_file_security(cfg: audit.AuditConfig, models) -> bool:
    """The signal's coset, offset + Im(A_W), is the same for every (W, d), W by W.

    Equal cosets have equal images, and equal offset residues against them.
    """
    ctx, first = cfg.ctx, None
    for model in models:
        image = echelon(ctx, (p[0] for p in model.keys))
        coset = image, reduce(ctx, image, model.offset[0])
        first = first or coset
        if coset != first or not in_span(ctx, image, (p[0] for _, p in model.demands)):
            return False
    return True


def per_file_privacy(cfg: audit.AuditConfig, models, subset: Sequence[int]) -> bool:
    """Moving another user's demand shifts the colluders' view within Im(A_W), W by W."""
    ctx, colluders = cfg.ctx, [u - 1 for u in subset]

    def view(point) -> Vector:
        return tuple(x for v in (point[0], *(point[k + 1] for k in colluders)) for x in v)

    for model in models:
        moves = (view(p) for j, p in model.demands if j not in colluders)
        if not in_span(ctx, echelon(ctx, map(view, model.keys)), moves):
            return False
    return True


def outputs(state, demands) -> tuple[Vector, ...]:
    """Signal, each user's cache and each user's decoding error, at one placement."""
    ctx, library = state.library.ctx, state.library
    payload = audit.deliver(state, demands)
    signal = tuple(x for v in (*payload.coeff_vectors, *payload.blocks) for x in v)
    caches = tuple(tuple(x for v in (*c.starred, c.records) for x in v) for c in state.caches)
    errors = tuple(
        vec_sub(ctx, audit.decode(state.user_view(k), payload, d), combine(library, d))
        for k, d in enumerate(demands)
    )
    return (signal, *caches, *errors)


def composed_gathered(formal, rows, vectors, layers, size: int) -> tuple:
    """``gathered`` as the composition it sums: the rows' combinations from
    ``lincombs``, one ``gather`` per layer, and the layers added by ``lincomb``."""
    products = formal.lincombs(rows, vectors)
    laid = [formal.gather(products, layer, size) for layer in layers]
    return formal.lincomb((1,) * len(laid), laid)


def evaluate(cfg: audit.AuditConfig, model, library: Library, randomness: Randomness, demands):
    """The audit's formal model at (W, r, d), laid out as ``outputs``.

    Slot w * width + x holds the coefficient of the w-th W-monomial (1,
    W_1, ..., W_(N*B)) times the x-th (r, d)-monomial (1, each symbol of r,
    each demand move: d_(k,n) for every n, or for n > 1 under unit demands,
    where d_(k,1) is 1 less the others).  A symbol of r that the mode masks
    has no coefficient, so the raw r is read as it is.
    """
    ctx, k, n = cfg.ctx, cfg.pda.k, cfg.n
    moved = range(1 if cfg.demand_space == "units" else 0, n)
    w_values = (1, *(x for f in library.files for x in f))
    r_values = (
        1,
        *(x for v in randomness.security_keys for x in v),
        *(x for p in randomness.privacy_vectors for x in p),
        *(demands[j][t] for j in range(k) for t in moved),
    )
    width = len(r_values)

    def at(row) -> int:
        value = 0
        for slot, c in row.items():
            w, x = divmod(slot, width)
            value = ctx.add(value, ctx.mul(c, ctx.mul(w_values[w], r_values[x])))
        return value

    rows = (model.signal, *model.caches, *model.errors)
    return tuple(tuple(map(at, vector)) for vector in rows)


# -- grid samplers for the tradeoff checks -------------------------------
#
# These sample a rational grid.  A sampled maximum can only undershoot the
# true supremum, and a sampled bound check can only miss a violation, so
# they serve as one-sided oracles for the certified checks.


def grid(lo: Fraction, hi: Fraction, per_unit: int) -> list[Fraction]:
    """Rational grid over [lo, hi] with per_unit points per unit interval."""
    count = max(1, int((hi - lo) * per_unit))
    points = (lo + Fraction(i, per_unit) for i in range(count + 1))
    return [m for m in points if m <= hi]


def simple_converse_samples(n: int, k: int, per_unit: int) -> dict:
    """R(M)(M-1)/(N-M) at the corners and grid points of [1, N)."""
    curve = man_curve(n, k)
    ms = {p.m for p in curve.corners} | set(grid(Fraction(1), Fraction(n), per_unit))
    return {m: curve.evaluate(m) * (m - 1) / (n - m) for m in ms if 1 <= m < n}


def smooth_bound_samples(n: int, k: int, per_unit: int) -> dict:
    """R(M)/f(M) at the corners, 2 and grid points of [2, N)."""
    curve = man_curve(n, k)
    ms = {p.m for p in curve.corners} | set(grid(Fraction(2), Fraction(n), per_unit))
    return {m: curve.evaluate(m) / f_bound(n, m) for m in ms if 2 <= m < n}


def bounds_grid_ok(n: int, k: int, per_unit: int) -> bool:
    """The sampled form of the certified bounds checks of ``bounds_report``."""
    curve = man_curve(n, k)
    ms = grid(Fraction(1), Fraction(n), per_unit)
    ok = all(curve.evaluate(m) >= pda_lower_bound(n, k, m) for m in ms)
    if k >= n // 2:
        ok = ok and all(f_bound(n, m) <= cutset_bound(n, k, m) for m in ms)
    return ok
