"""Exact-rational memory-load analytics.

Achievable curves, converse bounds, ratio/gap checks, and CSV/SVG export.
The t-subset curve is closed-form: its corners are all vertices, so it
needs no hull, and its linear pieces come straight from t in integers.
Lower convex envelopes are built only for the comparison schemes, by an
integer cross-product test on each point's numerator and denominator.  All
curve math is exact, over integers or fractions.Fraction; decimals appear
only at serialization time.  Ratio and bound claims are certified over the
whole continuum, one curve segment at a time, not sampled.  A supremum over
all the segments of an (N, K) takes one pass with a running candidate, the
largest ratio at a segment end so far, as an integer pair; a segment that
fails its integer test is retested against the final candidate, and only
the segments that fail that are reduced and searched for an interior
maximum.  The converse bounds are computed in integers from the memory's
numerator and denominator, with one Fraction at the end.
"""

from __future__ import annotations

import csv
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from typing import Iterable, NamedTuple, Sequence


class TradeoffError(ValueError):
    pass


class CurvePoint(NamedTuple):
    m: Fraction  # memory, in files
    r: Fraction  # load, in files


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with the convention C(n, k) = 0 for k > n or n < 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class TradeoffCurve:
    """Piecewise-linear convex memory-load curve given by its corner points."""

    corners: tuple[CurvePoint, ...]

    def __post_init__(self):
        ms = [m.as_integer_ratio() for m in self.memories]  # a/b < c/d: ad < cb
        if any(a * d >= c * b for (a, b), (c, d) in zip(ms, ms[1:])):
            raise TradeoffError("corner memories must be strictly increasing")

    @cached_property
    def memories(self) -> tuple[Fraction, ...]:
        """Corner memories, in increasing order."""
        return tuple(p.m for p in self.corners)

    def evaluate(self, m) -> Fraction:
        """Linear interpolation between corners (memory sharing)."""
        m, ms = _frac(m), self.memories
        if not ms[0] <= m <= ms[-1]:
            raise TradeoffError(f"memory {m} outside [{ms[0]}, {ms[-1]}]")
        idx = bisect_right(ms, m)
        if idx == len(ms):
            return self.corners[-1].r
        left, right = self.corners[idx - 1], self.corners[idx]
        if m == left.m:
            return left.r
        theta = (m - left.m) / (right.m - left.m)
        return left.r + theta * (right.r - left.r)


def lower_convex_envelope(points: Iterable[CurvePoint]) -> TradeoffCurve:
    """Lower hull of a point set in the (memory, load) plane.

    Between corners the curve is the linear interpolation, matching the
    memory-sharing argument; collinear middle points are dropped.  The test
    runs in integers: memory x/L over the lcm L of the memories'
    denominators, load c/d as the point's own numerator and denominator.
    """
    pts = [(_frac(m), _frac(r)) for m, r in points]
    if not pts:
        raise TradeoffError("no points")
    scale = math.lcm(*(m.denominator for m, _ in pts))
    hull: list[tuple] = []  # (x, c, d, point) with memory x/scale and load c/d
    # sorted by memory, then load: the first point at a memory is its lowest
    for x, r, m in sorted((m.numerator * (scale // m.denominator), r, m) for m, r in pts):
        if hull and hull[-1][0] == x:
            continue
        c, d = r.numerator, r.denominator
        while len(hull) >= 2:
            (x1, c1, d1, _), (x2, c2, d2, _) = hull[-2], hull[-1]
            # pop while the middle point lies on or above the segment from 1 to
            # this point: (r2 - r1)(x - x1) >= (r - r1)(x2 - x1), times d d1 d2
            if (c2 * d1 - c1 * d2) * d * (x - x1) >= (c * d1 - c1 * d) * d2 * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, c, d, CurvePoint(m, r)))
    return TradeoffCurve(tuple(p for *_, p in hull))


# -- achievable corner points --------------------------------------------


def _check_sizes(n: int, k: int) -> None:
    """Refuse a file or user count for which the curves are not defined."""
    if n < 2 or k < 1:
        raise TradeoffError(f"need N >= 2 and K >= 1, got N={n}, K={k}")


def man_points(n: int, k: int) -> list[CurvePoint]:
    """Corner points (1 + t(N-1)/K, (K-t)/(t+1)) for t = 0..K."""
    _check_sizes(n, k)
    return [CurvePoint(1 + Fraction(t * (n - 1), k), Fraction(k - t, t + 1))
            for t in range(k + 1)]


def man_curve(n: int, k: int) -> TradeoffCurve:
    """The t-subset curve, whose corners are all of ``man_points``.

    M is affine in t and R = (K+1)/(t+1) - 1 is strictly convex in t, so
    every point is a vertex of its own lower convex envelope.
    """
    return TradeoffCurve(tuple(man_points(n, k)))


# -- converse bounds ------------------------------------------------------


def _memory(n: int, m) -> tuple[int, int]:
    """The memory m in [1, N] as its reduced (numerator, denominator)."""
    m = _frac(m)
    if not m.denominator <= m.numerator <= n * m.denominator:
        raise TradeoffError(f"memory {m} outside [1, {n}]")
    return m.numerator, m.denominator


def pda_lower_bound(n: int, k: int, m) -> Fraction:
    """Load lower bound K(N-M)/(N-1+K(M-1)) for any array-based scheme."""
    a, b = _memory(n, m)  # M = a/b; times b above and below
    return Fraction(k * (n * b - a), (n - 1) * b + k * (a - b))


def cutset_bound(n: int, k: int, m) -> Fraction:
    """Cut-set load bound max_u (uN - u^2 M)/(N-1), floored at zero."""
    a, b = _memory(n, m)  # M = a/b: the cut u gives u(Nb - ua)/(b(N-1))
    # concave in u: largest at the floor or ceiling of Nb/(2a), clamped, and >= 0 at u = 1
    top = min(n // 2, k)
    u = min(max(n * b // (2 * a), 1), top)
    v = min(u + 1, top)
    return Fraction(max(u * (n * b - u * a), v * (n * b - v * a)), b * (n - 1))


# -- known-scheme curves (comparison table) -------------------------------

SCHEMES = ("splfr", "seckey", "privkey-plfr", "privkey-pfr", "yma", "wsjtc", "virtual")


def _coded_load(k: int, r: int, t: int) -> Fraction:
    """(C(K, t+1) - C(K-r, t+1)) / C(K, t): coded delivery to K users, r leaders.

    Each (t+1)-subset of the users gets one multicast symbol, except the
    subsets without one of the r leaders; a file is split into C(K, t)
    packets.
    """
    return Fraction(comb0(k, t + 1) - comb0(k - r, t + 1), comb0(k, t))


def scheme_points(scheme: str, n: int, k: int) -> list[CurvePoint]:
    """Corner points of a known achievable scheme, before the envelope.

    The privacy-key rows additionally include the trivial point (0, N)
    achievable with unit subpacketization.
    """
    _check_sizes(n, k)
    if scheme in ("splfr", "seckey"):
        return man_points(n, k)
    if scheme in ("yma", "wsjtc"):
        # identical load formulas; wsjtc serves linear-combination demands
        return [CurvePoint(Fraction(t * n, k), _coded_load(k, min(n, k), t))
                for t in range(k + 1)]
    if scheme in ("privkey-plfr", "privkey-pfr"):
        r = min(n if scheme == "privkey-plfr" else n - 1, k)
        pts = [CurvePoint(1 + Fraction(t * (n - 1), k), _coded_load(k, r, t))
               for t in range(k + 1)]
        return [CurvePoint(Fraction(0), Fraction(n))] + pts
    if scheme == "virtual":
        # note: guarantees a weaker per-user privacy notion than the rest
        return [CurvePoint(Fraction(t, k), _coded_load(k * n, n, t)) for t in range(k * n + 1)]
    raise TradeoffError(f"unknown scheme {scheme!r}")


def scheme_curve(scheme: str, n: int, k: int) -> TradeoffCurve:
    if scheme in ("splfr", "seckey"):
        return man_curve(n, k)
    return lower_convex_envelope(scheme_points(scheme, n, k))


# -- exact certification on curve segments ---------------------------------
#
# Every ratio and bound claim below is, on one linear piece of a curve, a
# quadratic inequality in the memory M.  Each piece is parametrized by
# theta in [0, 1] with integer coefficients, so the sign tests that decide a
# claim over the whole continuum run in integers.  A ratio's supremum over
# all the pieces is ``_pieces_sup``: one pass with a running candidate, and
# ``ratio_sup`` only on the pieces whose supremum lies above the final one.


class Supremum(NamedTuple):
    """Supremum of a ratio over an interval.

    Suprema order by value; of two equal values the exact one is larger.
    """

    value: Fraction  # the supremum, or its rational upper bracket
    exact: bool  # False only for an irrational supremum bracketed from above


#: scale of the math.isqrt bracket of an irrational supremum
_BRACKET_SCALE = 1 << 64


def quadratic_nonneg(c2, c1, c0, lo, hi, *, strict: bool = False) -> bool:
    """Whether c2*x^2 + c1*x + c0 >= 0 (> 0 if strict) for every x in [lo, hi].

    A quadratic is smallest over an interval at an endpoint or, when it
    opens upward, at its vertex.  So the sign of the least of the two end
    values and, for a vertex inside, 4*c2 times the vertex value decides the
    claim over the whole interval.  Integer arguments keep it in integers.
    """
    least = min((c2 * lo + c1) * lo + c0, (c2 * hi + c1) * hi + c0)
    if c2 > 0 and 2 * c2 * lo < -c1 < 2 * c2 * hi:
        # 4*c2 times the vertex value (4*c2*c0 - c1^2) / (4*c2), of the same sign
        least = min(least, 4 * c2 * c0 - c1 * c1)
    return least > 0 if strict else least >= 0


def _candidate(forms: Iterable[tuple]) -> tuple[int, int, list]:
    """Candidate a/b of forms (p2, p1, p0, q2, q1, q0), and (i, form) of each piece i failing it.

    If Q(1) = 0, P(1) must be 0 too, and the factor (1 - theta) is divided
    out of both.  Each Q must then be positive on all of [0, 1], as
    ``quadratic_nonneg`` decides it, inline.  The candidate a/b, the largest
    end ratio, open ends' limits included, is raised by a piece's two ends
    before the piece is tested, so only the vertex clause of U*Q - P >= 0 is
    left, for U = a/b.  A piece failing it is retested against the final a/b:
    U only grows, and a larger U only raises U*Q - P.
    """
    a, b, kept = -1, 0, []  # -1/0: below every P/Q with Q > 0
    for i, (p2, p1, p0, q2, q1, q0) in enumerate(forms):
        p, q = p2 + p1 + p0, q2 + q1 + q0  # P(1), Q(1)
        if not q:
            if p:
                raise TradeoffError("ratio unbounded at the open end")
            # P = (1 - theta)(-p2*theta - p2 - p1), and likewise Q
            p2, p1, p0, q2, q1, q0 = 0, -p2, -p2 - p1, 0, -q2, -q2 - q1
            p, q = p1 + p0, q1 + q0
        if q0 <= 0 or q <= 0 or 0 < -q1 < 2 * q2 and 4 * q2 * q0 <= q1 * q1:
            raise TradeoffError("ratio denominator must be positive")
        if p0 * b > a * q0:
            a, b = p0, q0
        if p * b > a * q:
            a, b = p, q
        c1 = a * q1 - b * p1  # the vertex clause on U*Q - P = c2 theta^2 + c1 theta + c0
        if c1 < 0:
            c2 = a * q2 - b * p2
            if -c1 < 2 * c2 and 4 * c2 * (a * q0 - b * p0) < c1 * c1:
                kept.append((i, (p2, p1, p0, q2, q1, q0)))
    return a, b, [(i, form) for i, form in kept if not _at_most(form, a, b)]


def _at_most(form: tuple, a: int, b: int) -> bool:
    """Whether P/Q <= a/b on all of [0, 1], for Q positive there and b > 0."""
    p2, p1, p0, q2, q1, q0 = form
    return quadratic_nonneg(a * q2 - b * p2, a * q1 - b * p1, a * q0 - b * p0, 0, 1)


def ratio_sup(p: tuple[int, int, int], q: tuple[int, int, int]) -> Supremum:
    """Supremum over 0 <= theta < 1 of P(theta)/Q(theta).

    ``p`` and ``q`` are integer coefficients (c2, c1, c0).  Q must be
    positive on [0, 1).  If Q(1) = 0, P(1) must be 0 too, and the open end
    is the limit at theta = 1 (see ``_candidate``).

    The supremum is the smallest U with U*Q - P >= 0 on [0, 1], which
    ``quadratic_nonneg`` decides.  The larger endpoint value is tried first.
    It fails only if an interior point beats both ends: a stationary point
    theta* where P'Q - PQ' changes sign from + to -.  There U*Q - P has the
    double root theta*, so U is a root of the discriminant
    D(U) = (U*q1 - p1)^2 - 4(U*q2 - p2)(U*q0 - p0).  Its roots are tried in
    increasing order, an irrational one as its upper bracket from
    ``math.isqrt``, and the first that passes is returned.
    """
    a, b, failing = _candidate([(*p, *q)])
    best = Fraction(a, b)
    if not failing:
        return Supremum(best, True)
    [(_, form)] = failing
    p2, p1, p0, q2, q1, q0 = form
    roots = _upper_roots(q1 * q1 - 4 * q2 * q0, 4 * (q2 * p0 + p2 * q0) - 2 * p1 * q1,
                         p1 * p1 - 4 * p2 * p0)
    for cand in sorted(r for r in roots if r.value > best):
        if _at_most(form, cand.value.numerator, cand.value.denominator):
            return cand
    raise TradeoffError("no certified supremum")


def _pieces_sup(forms: Iterable[tuple], reduced) -> Supremum:
    """The largest ``ratio_sup`` over the pieces with ``forms``, from ``_candidate``'s a/b.

    A piece's supremum is at most a/b unless it fails a/b, so ``ratio_sup`` runs only on
    such a piece i, on ``reduced(i)``: its (p, q) at the scale its bracket is reported at.
    """
    a, b, failing = _candidate(forms)
    return max([Supremum(Fraction(a, b), True), *(ratio_sup(*reduced(i)) for i, _ in failing)])


def _upper_roots(a: int, b: int, c: int) -> list[Supremum]:
    """Real roots of a*U^2 + b*U + c, each exact or as its upper bracket."""
    if a == 0:
        return [Supremum(Fraction(-c, b), True)] if b else []
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root == disc:
        return [Supremum(Fraction(-b + s * root, 2 * a), True) for s in (1, -1)]
    # sqrt(disc) * scale lies in (low, low + 1); each root (-b + s*sqrt(disc))/(2a)
    # takes the end of that interval that bounds it from above
    scale = _BRACKET_SCALE
    low = math.isqrt(disc * scale * scale)
    return [Supremum(Fraction(-b * scale + s * (low + (s * a > 0)), 2 * a * scale), False)
            for s in (1, -1)]


def _man_pieces(n: int, k: int, lo, hi) -> list[tuple[int, ...]]:
    """The t-subset curve's linear pieces over [lo, hi], in flat integer theta forms.

    Each is (m0, m1, dm, r0, r1, dr) with M = (m0 + m1*theta)/dm and
    R = (r0 + r1*theta)/dr for theta in [0, 1], unreduced.  ``lo`` and ``hi``
    are ints or Fractions, and dm is the lcm of K and their denominators, so
    that corner t sits at dm + t*c for c = (dm/K)(N-1).  On a piece from
    corner t the load falls by (K+1)/((t+1)(t+2)) per memory c/dm from
    (K-t)/(t+1), so it is over dr = (t+1)(t+2)c.  ``_reduced`` gives a piece
    at the scale that ``ratio_sup`` reports a bracket at.
    """
    _check_sizes(n, k)
    (a, b), (p, q) = (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)
    dm = math.lcm(k, b, q)
    c, k1 = dm // k * (n - 1), k + 1
    x0, end = a * (dm // b), p * (dm // q)
    t, past = divmod(x0 - dm, c)  # x0 is ``past`` beyond corner t
    pieces = []
    while x0 < end:
        x1, s = min(x0 - past + c, end), (t + 2) * c
        pieces.append((x0, x1 - x0, dm, (k - t) * s - k1 * past, -k1 * (x1 - x0), (t + 1) * s))
        x0, t, past = x1, t + 1, 0
    return pieces


def _reduced(piece: tuple[int, ...]) -> tuple[int, ...]:
    """``piece`` with each form over the lcm of its two ends' reduced denominators.

    ``ratio_sup`` brackets an irrational supremum at a fixed scale of the
    coefficients, so this scale is part of every reported bracket.
    """
    m0, m1, dm, r0, r1, dr = piece
    g, h = math.gcd(math.gcd(m0, dm), m0 + m1), math.gcd(math.gcd(r0, dr), r0 + r1)
    return m0 // g, m1 // g, dm // g, r0 // h, r1 // h, dr // h


def _cutset_pieces(n: int, k: int, lo: Fraction, hi: Fraction):
    """Yield (u, a, b): on [a, b] the cut-set bound is (uN - u^2 M)/(N-1).

    The lines of cut sizes u and u+1 cross at M = N/(2u+1); below the last
    crossing the largest cut size wins.  The pieces tile [lo, hi] for
    0 <= lo < hi <= N, where the bound's floor at zero never binds.
    """
    top = min(n // 2, k)
    for u in range(1, top + 1):
        a = max(lo, Fraction(n, 2 * u + 1)) if u < top else lo
        b = min(hi, Fraction(n, 2 * u - 1))
        if a < b:
            yield u, a, b


def _man_sup(n: int, k: int, lo: int, weights) -> Supremum:
    """Supremum over the t-subset curve on [lo, N), lo = 1 or 2, of a weighted R.

    With M = m/dm and R = r/dr, the ratio is r(u m + v) / (dr (N dm - m)(w m + z))
    for (u, v, w, z) = ``weights(dm)``.  The pass runs on ``_man_forms``; only a
    piece that fails the candidate is rebuilt by ``_man_pieces``, in ``_reduced`` form.
    """
    _check_sizes(n, k)
    t0 = (lo - 1) * k // (n - 1)

    def reduced(i: int) -> tuple:  # piece i spans corners t0 + i and t0 + i + 1
        x0, x1 = max(lo * k, k + (t0 + i) * (n - 1)), k + (t0 + i + 1) * (n - 1)
        [piece] = _man_pieces(n, k, Fraction(x0, k), Fraction(x1, k))
        m0, m1, dm, r0, r1, dr = _reduced(piece)
        u, v, w, z = weights(dm)
        e0, e1, g0, h0, h1 = u * m0 + v, u * m1, n * dm - m0, w * m0 + z, w * m1
        return ((r1 * e1, r0 * e1 + r1 * e0, r0 * e0),
                (-dr * m1 * h1, dr * (g0 * h1 - m1 * h0), dr * g0 * h0))

    return _pieces_sup(_man_forms(n, k, lo, *weights(k)), reduced)


def _man_forms(n: int, k: int, lo: int, u, v, w, z):
    """Yield the form of r(u m + v) / (dr (N dm - m)(w m + z)) on each t-subset piece over [lo, N).

    Memory m = MK runs from max(lo K, K + t(N-1)) to K + (t+1)(N-1) over dm = K,
    and load over dr = (t+1)(t+2)(N-1): the forms of ``_man_pieces(n, k, lo, n)``,
    weighted as in ``_man_sup``'s ``reduced``, straight from t and inline for speed.
    """
    n1, k1, nk = n - 1, k + 1, n * k
    x0 = lo * k
    for t in range((lo - 1) * k // n1, k):
        x1 = k + (t + 1) * n1
        m1, s = x1 - x0, (t + 2) * n1
        # x0 is n1 - m1 past corner t, which is nonzero only on the first piece
        r0, r1, dr = (k - t) * s - (n1 - m1) * k1, -m1 * k1, (t + 1) * s
        e0, e1, g0, h0, h1 = u * x0 + v, u * m1, nk - x0, w * x0 + z, w * m1
        yield (r1 * e1, r0 * e1 + r1 * e0, r0 * e0,
               -dr * m1 * h1, dr * (g0 * h1 - m1 * h0), dr * g0 * h0)
        x0 = x1


def _simple_converse_sup(n: int, k: int) -> Supremum:
    """Supremum of R(M)(M-1)/(N-M) over [1, N): r(m - dm) / (dr (N dm - m))."""
    return _man_sup(n, k, 1, lambda dm: (1, -dm, 0, 1))


def _smooth_bound_sup(n: int, k: int) -> Supremum:
    """Supremum of R/f = 4(N-1) M R / (N^2 - M^2) over [2, N), times dr dm^2 above and below."""
    if not (n < k and n >= 3):
        raise TradeoffError(f"needs N < K and N >= 3, got N={n}, K={k}")
    return _man_sup(n, k, 2, lambda dm: (4 * (n - 1) * dm, 0, 1, n * dm))


def _cutset_ratio_sup(n: int, k: int, lo: Fraction, hi: Fraction) -> Supremum:
    """Supremum of R(M) over the cut-set bound on [lo, hi), by ``_pieces_sup``."""
    pieces = []
    for u, a, b in _cutset_pieces(n, k, lo, hi):
        for m0, m1, dm, r0, r1, dr in map(_reduced, _man_pieces(n, k, a, b)):
            c = (n - 1) * dm  # R/line_u = c (r0 + r1*theta) / (dr u (N dm - u (m0 + m1*theta)))
            pieces.append(((0, c * r1, c * r0), (0, -dr * u * u * m1, dr * u * (n * dm - u * m0))))
    return _pieces_sup((p + q for p, q in pieces), pieces.__getitem__)


def achievable_above_converse(n: int, k: int) -> bool:
    """Whether the t-subset curve stays on or above the array-class converse.

    Certified over all of [1, N]: on each piece, R(M) >= K(N-M)/(N-1+K(M-1))
    is R(M)(N-1+K(M-1)) - K(N-M) >= 0, a quadratic in M, whose sign a positive
    scale of a piece's forms does not change, so the pieces are not reduced.
    """
    for m0, m1, dm, r0, r1, dr in _man_pieces(n, k, 1, n):
        # times dr dm: (r0 + r1*theta)(e0 + e1*theta) - K dr (N dm - m0 - m1*theta)
        e0, e1 = dm * (n - 1 - k) + k * m0, k * m1
        c2, c1, c0 = r1 * e1, r0 * e1 + r1 * e0 + k * dr * m1, r0 * e0 - k * dr * (n * dm - m0)
        if not quadratic_nonneg(c2, c1, c0, 0, 1):
            return False
    return True


def f_below_cutset(n: int, k: int) -> bool:
    """Whether f(M) <= cutset_bound(M) over all of [1, N].

    On the piece of cut size u, f <= (uN - u^2 M)/(N-1) is, times 4M(N-1),
    (1 - 4u^2) M^2 + 4uN M - N^2 >= 0.
    """
    return all(
        quadratic_nonneg(1 - 4 * u * u, 4 * u * n, -n * n, a, b)
        for u, a, b in _cutset_pieces(n, k, Fraction(1), Fraction(n))
    )


# -- ratio and gap checks -------------------------------------------------
#
# ``per_unit``, a sampling density, is accepted and ignored for old callers.


def simple_converse_ratio_max(n: int, k: int, *, per_unit: int | None = None) -> Fraction:
    """Supremum of R(M)(M-1)/(N-M) over [1, N), certified on every segment.

    The value at the open end M = N is the limit.  An irrational supremum
    is returned as its certified rational upper bracket.  ``per_unit`` is
    ignored.
    """
    return _simple_converse_sup(n, k).value


def coded_uncoded_ratio_max(n: int, k: int) -> Fraction:
    """Max of the coded-over-uncoded load ratio on [1, N).

    Both curves are piecewise linear, so the ratio is monotone between
    breakpoints and the maximum is attained at a corner of either curve.
    Both have the loads (K-t)/(t+1) at their corners t; in units of 1/K
    file, the coded corners sit at memory K + t(N-1) and the uncoded ones
    at tN, so one pass over these integers finds it.
    """
    if not n >= k >= 2:
        raise TradeoffError(f"need N >= K >= 2, got N={n}, K={k}")
    best_p, best_q = 0, 1
    # the corners in [1, N): the coded ones from t = 0, and the uncoded ones
    # from t = 1, which is at or above M = 1 because N >= K
    for x in chain(range(k, k * n, n - 1), range(n, k * n, n)):
        t, a = divmod(x - k, n - 1)  # each load a past its corner t, as in _man_pieces
        coded_p, coded_q = (k - t) * (t + 2) * (n - 1) - a * (k + 1), (t + 1) * (t + 2) * (n - 1)
        t, a = divmod(x, n)
        uncoded_p, uncoded_q = (k - t) * (t + 2) * n - a * (k + 1), (t + 1) * (t + 2) * n
        p, q = coded_p * uncoded_q, coded_q * uncoded_p
        if p * best_q > best_p * q:
            best_p, best_q = p, q
    return Fraction(best_p, best_q)


def coded_uncoded_threshold(n: int, k: int) -> Fraction:
    """The bound on ``coded_uncoded_ratio_max`` for N >= K >= 2, (N, K) != (2, 2)."""
    if not n >= k >= 2 or n == k == 2:
        raise TradeoffError(f"need N >= K >= 2 and (N, K) != (2, 2), got N={n}, K={k}")
    if n >= k + 2:
        return Fraction(2)
    if n == k + 1:
        return Fraction(5, 2)
    return Fraction(3)  # N == K >= 3


def smooth_bound_ratio_max(n: int, k: int, *, per_unit: int | None = None) -> Fraction:
    """Supremum of R(M)/f(M) over [2, N), certified on every segment.

    The value at the open end M = N is the limit.  An irrational supremum
    is returned as its certified rational upper bracket.  ``per_unit`` is
    ignored.
    """
    return _smooth_bound_sup(n, k).value


#: the uncoded-placement-versus-optimal factor of Yu, Maddah-Ali and Avestimehr
#: (IEEE Trans. IT, 2019), an external result used as given, not re-derived here
_YMA_FACTOR = Fraction("2.00884")
_SMOOTH_BOUND, _RATIO2_BOUND = Fraction(8), Fraction(2)

#: Composed multiplicative-gap constants: each the certified bound of a ratio
#: check, times ``_YMA_FACTOR`` where the composition uses it.  The pairs
#: (3, 3), (3, 2) and (4, 2) stand for N = K >= 3, N = K + 1 and N >= K + 2.
COMPOSED_GAP_CONSTANTS = {
    "K=1": 1.0,
    "N=K=2": float(_RATIO2_BOUND),
    "N=K>=3": float(_YMA_FACTOR * coded_uncoded_threshold(3, 3)),
    "N=K+1": float(_YMA_FACTOR * coded_uncoded_threshold(3, 2)),
    "N>=K+2": float(_YMA_FACTOR * coded_uncoded_threshold(4, 2)),
    "N<K, M in [2,N)": float(_SMOOTH_BOUND),
}


def ratio_checks(n: int, k: int, *, per_unit: int | None = None) -> dict:
    """Run every ratio check that applies to (N, K).

    Each entry holds the supremum over its memory range under "max", with
    "exact" false only when that supremum is irrational and "max" is its
    certified upper bracket.  ``per_unit`` is ignored.
    """
    report: dict = {"n": n, "k": k, "checks": {}}
    checks = report["checks"]

    def add(name: str, sup: Supremum, bound: Fraction, ok: bool) -> None:
        checks[name] = {"max": sup.value, "exact": sup.exact, "bound": bound, "ok": ok}

    s5 = _simple_converse_sup(n, k)
    add("simple_converse", s5, Fraction(1), s5.value <= 1)

    # the coded/uncoded ratio bound needs N >= K >= 2 but excludes N = K = 2,
    # which is covered by the dedicated ratio2 check below
    if n >= k >= 2 and (n, k) != (2, 2):
        s6 = Supremum(coded_uncoded_ratio_max(n, k), True)
        bound = coded_uncoded_threshold(n, k)
        add("coded_uncoded", s6, bound, s6.value <= bound)

    if n < k and n >= 3:
        s8 = _smooth_bound_sup(n, k)
        add("smooth_bound", s8, _SMOOTH_BOUND, s8.value < _SMOOTH_BOUND)

    if n == k == 2:
        # the ratio to the cut-set bound over [1, 3/2] peaks at exactly 2
        s2 = _cutset_ratio_sup(2, 2, Fraction(1), Fraction(3, 2))
        add("ratio2", s2, _RATIO2_BOUND, s2.exact and s2.value == _RATIO2_BOUND)

    report["ok"] = all(c["ok"] for c in checks.values())
    report["composed_gap_constants"] = COMPOSED_GAP_CONSTANTS
    return report


# -- CSV / SVG export -----------------------------------------------------


#: intervals of the uniform grid of [1, N] the reference bounds are drawn on
BOUND_SAMPLES = 200


def emit_curves(n: int, k: int, schemes: Sequence[str], out_dir: str) -> dict:
    """Write corner-point CSV and an SVG chart for the selected schemes.

    The array-class converse and the cut-set bound are included as
    reference series, sampled at BOUND_SAMPLES + 1 points of [1, N].  Every
    series is built before ``out_dir`` is made, so an unknown scheme leaves
    no directory behind.
    """
    _check_sizes(n, k)
    series = [(scheme, list(scheme_curve(scheme, n, k).corners)) for scheme in schemes]

    grid = [Fraction(BOUND_SAMPLES + i * (n - 1), BOUND_SAMPLES) for i in range(BOUND_SAMPLES + 1)]
    for name, fn in (
        ("pda-bound", lambda m: pda_lower_bound(n, k, m)),
        ("cutset-bound", lambda m: cutset_bound(n, k, m)),
    ):
        series.append((name, [CurvePoint(m, fn(m)) for m in grid]))

    plotted = [(name, [(float(p.m), float(p.r)) for p in pts]) for name, pts in series]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"curves_n{n}_k{k}.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "M", "R", "M_exact", "R_exact"])
        for (name, pts), (_, xy) in zip(series, plotted):
            for p, (m, r) in zip(pts, xy):
                writer.writerow([name, f"{m:.12f}", f"{r:.12f}", str(p.m), str(p.r)])

    svg_path = os.path.join(out_dir, f"curves_n{n}_k{k}.svg")
    with open(svg_path, "w") as fh:
        fh.write(_render_svg(n, k, plotted))
    return {"csv": csv_path, "svg": svg_path, "series": [s for s, _ in series]}


_SVG_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2",
               "#7f7f7f", "#bcbd22")


def _render_svg(n: int, k: int, series) -> str:
    """The chart of ``series``: (name, [(M, R) as floats]) each."""
    width, height, pad = 720, 480, 60
    max_m = max(m for _, pts in series for m, _ in pts)
    max_r = max(r for _, pts in series for _, r in pts) or 1.0

    def sx(m: float) -> float:
        return pad + (width - 2 * pad) * m / max_m

    def sy(r: float) -> float:
        return height - pad - (height - 2 * pad) * r / max_r

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-15}" text-anchor="middle" font-size="14">'
        f"memory M (files), N={n}, K={k}</text>",
        f'<text x="18" y="{height//2}" font-size="14" transform="rotate(-90 18 {height//2})" '
        f'text-anchor="middle">load R (files)</text>',
    ]
    for idx, (name, pts) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(m):.2f},{sy(r):.2f}" for m, r in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{width-pad+5}" y="{pad+15*idx}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
