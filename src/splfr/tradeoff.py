"""Exact-rational memory-load analytics.

Achievable curves, converse bounds, ratio/gap checks, subpacketization
comparison, and CSV/SVG export.  The t-subset curve is closed-form: its
corners are all vertices, so it needs no hull, and its linear pieces come
straight from t in integers.  Lower convex envelopes are built only for
the comparison schemes.  All curve math is exact, over integers or
fractions.Fraction; decimals appear only at serialization time.  Ratio and
bound claims are certified over the whole continuum, one curve segment at
a time, not sampled.
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

from .pda import lsub_parameters


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
        ms = self.memories
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise TradeoffError("corner memories must be strictly increasing")

    @cached_property
    def memories(self) -> tuple[Fraction, ...]:
        """Corner memories, in increasing order."""
        return tuple(p.m for p in self.corners)

    @property
    def m_min(self) -> Fraction:
        return self.corners[0].m

    @property
    def m_max(self) -> Fraction:
        return self.corners[-1].m

    def evaluate(self, m) -> Fraction:
        """Linear interpolation between corners (memory sharing)."""
        m = _frac(m)
        if not self.m_min <= m <= self.m_max:
            raise TradeoffError(f"memory {m} outside [{self.m_min}, {self.m_max}]")
        ms = self.memories
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
    memory-sharing argument; collinear middle points are dropped.
    """
    pts = sorted((_frac(m), _frac(r)) for m, r in points)
    if not pts:
        raise TradeoffError("no points")
    # keep only the lowest load at each memory
    dedup: list[tuple[Fraction, Fraction]] = []
    for m, r in pts:
        if dedup and dedup[-1][0] == m:
            if r < dedup[-1][1]:
                dedup[-1] = (m, r)
        else:
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


# -- achievable corner points --------------------------------------------


def _check_sizes(n: int, k: int) -> None:
    """Refuse a file or user count for which the curves are not defined."""
    if n < 2 or k < 1:
        raise TradeoffError(f"need N >= 2 and K >= 1, got N={n}, K={k}")


def man_points(n: int, k: int) -> list[CurvePoint]:
    """Corner points (1 + t(N-1)/K, (K-t)/(t+1)) for t = 0..K."""
    _check_sizes(n, k)
    return [
        CurvePoint(1 + Fraction(t * (n - 1), k), Fraction(k - t, t + 1))
        for t in range(k + 1)
    ]


def man_curve(n: int, k: int) -> TradeoffCurve:
    """The t-subset curve, whose corners are all of ``man_points``.

    M is affine in t and R = (K+1)/(t+1) - 1 is strictly convex in t, so
    every point is a vertex of its own lower convex envelope.
    """
    return TradeoffCurve(tuple(man_points(n, k)))


# -- converse bounds ------------------------------------------------------


def pda_lower_bound(n: int, k: int, m) -> Fraction:
    """Load lower bound K(N-M)/(N-1+K(M-1)) for any array-based scheme."""
    m = _frac(m)
    if not 1 <= m <= n:
        raise TradeoffError(f"memory {m} outside [1, {n}]")
    return Fraction(k * (n - m), (n - 1) + k * (m - 1))


def cutset_bound(n: int, k: int, m) -> Fraction:
    """Cut-set load bound max_u (uN - u^2 M)/(N-1), floored at zero."""
    m = _frac(m)
    if not 1 <= m <= n:
        raise TradeoffError(f"memory {m} outside [1, {n}]")
    best = Fraction(0)
    for u in range(1, min(n // 2, k) + 1):
        best = max(best, Fraction(u * n - u * u * m, n - 1))
    return best


# -- known-scheme curves (comparison table) -------------------------------

SCHEMES = (
    "splfr",
    "seckey",
    "privkey-plfr",
    "privkey-pfr",
    "yma",
    "wsjtc",
    "virtual",
)


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
        return [
            CurvePoint(Fraction(t * n, k), _coded_load(k, min(n, k), t))
            for t in range(k + 1)
        ]
    if scheme in ("privkey-plfr", "privkey-pfr"):
        r = min(n if scheme == "privkey-plfr" else n - 1, k)
        pts = [
            CurvePoint(1 + Fraction(t * (n - 1), k), _coded_load(k, r, t))
            for t in range(k + 1)
        ]
        return [CurvePoint(Fraction(0), Fraction(n))] + pts
    if scheme == "virtual":
        # note: guarantees a weaker per-user privacy notion than the rest
        return [
            CurvePoint(Fraction(t, k), _coded_load(k * n, n, t)) for t in range(k * n + 1)
        ]
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
# claim over the whole continuum run in integers.


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
    opens upward, at its vertex, so three exact sign tests decide the claim
    over the whole interval.  Integer arguments keep the tests in integers.
    """

    def holds(value) -> bool:
        return value > 0 if strict else value >= 0

    if not (holds((c2 * lo + c1) * lo + c0) and holds((c2 * hi + c1) * hi + c0)):
        return False
    if c2 > 0 and 2 * c2 * lo < -c1 < 2 * c2 * hi:
        # the vertex value is (4*c2*c0 - c1^2) / (4*c2)
        return holds(4 * c2 * c0 - c1 * c1)
    return True


def ratio_sup(p: tuple[int, int, int], q: tuple[int, int, int]) -> Supremum:
    """Supremum over 0 <= theta < 1 of P(theta)/Q(theta).

    ``p`` and ``q`` are integer coefficients (c2, c1, c0).  Q must be
    positive on [0, 1).  If Q(1) = 0, P(1) must be 0 too, and the open end
    is the limit at theta = 1, found by dividing out the factor (1 - theta).

    The supremum is the smallest U with U*Q - P >= 0 on [0, 1], which
    ``quadratic_nonneg`` decides.  The larger endpoint value is tried first.
    It fails only if an interior point beats both ends: a stationary point
    theta* where P'Q - PQ' changes sign from + to -.  There U*Q - P has the
    double root theta*, so U is a root of the discriminant
    D(U) = (U*q1 - p1)^2 - 4(U*q2 - p2)(U*q0 - p0).  Its roots are tried in
    increasing order, an irrational one as its upper bracket from
    ``math.isqrt``, and the first that passes is returned.
    """
    (p2, p1, p0), (q2, q1, q0) = p, q
    if q2 + q1 + q0 == 0:
        if p2 + p1 + p0 != 0:
            raise TradeoffError("ratio unbounded at the open end")
        # P = (1 - theta)(-p2*theta - p2 - p1), and likewise Q
        (p2, p1, p0), (q2, q1, q0) = (0, -p2, -p2 - p1), (0, -q2, -q2 - q1)
    if not quadratic_nonneg(q2, q1, q0, 0, 1, strict=True):
        raise TradeoffError("ratio denominator must be positive")

    def bounds(u: Fraction) -> bool:
        a, b = u.numerator, u.denominator
        return quadratic_nonneg(a * q2 - b * p2, a * q1 - b * p1, a * q0 - b * p0, 0, 1)

    best = max(Fraction(p0, q0), Fraction(p2 + p1 + p0, q2 + q1 + q0))
    if bounds(best):
        return Supremum(best, True)
    roots = _upper_roots(
        q1 * q1 - 4 * q2 * q0,
        4 * (q2 * p0 + p2 * q0) - 2 * p1 * q1,
        p1 * p1 - 4 * p2 * p0,
    )
    for cand in sorted(r for r in roots if r.value > best):
        if bounds(cand.value):
            return cand
    raise TradeoffError("no certified supremum")


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
    return [
        Supremum(Fraction(-b * scale + s * (low + (s * a > 0)), 2 * a * scale), False)
        for s in (1, -1)
    ]


def _man_corner(n: int, k: int, t: int):
    """Corner t of the t-subset curve as reduced (numerator, denominator) pairs."""
    x = k + t * (n - 1)  # M = x/K
    g, h = math.gcd(x, k), math.gcd(k - t, t + 1)
    return (x // g, k // g), ((k - t) // h, (t + 1) // h)


def _man_point(n: int, k: int, m: Fraction):
    """The t-subset curve's point at memory m in [1, N], reduced like a corner."""
    # corner t sits at (M - 1)K = t(N - 1)
    t, rest = divmod((m - 1) * k, n - 1)
    if not rest:
        return _man_corner(n, k, t)
    r = Fraction(*_load_between(k, t, rest, n - 1))
    return (m.numerator, m.denominator), (r.numerator, r.denominator)


def _load_between(k: int, t: int, a, step: int):
    """(p, q) with p/q the load a/step of the way from corner t to t+1.

    R falls by (K+1)/((t+1)(t+2)) from corner t to corner t+1, so this is
    (K-t)/(t+1) - (a/step)(K+1)/((t+1)(t+2)), for 0 <= t < K.
    """
    return (k - t) * (t + 2) * step - a * (k + 1), (t + 1) * (t + 2) * step


def _theta_form(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int]:
    """(c0, c1, d) with a + theta*(b - a) = (c0 + c1*theta)/d and d > 0.

    ``a`` and ``b`` are reduced fractions as (numerator, denominator), and d
    is the lcm of their denominators.
    """
    d = math.lcm(a[1], b[1])
    c0 = a[0] * (d // a[1])
    return c0, b[0] * (d // b[1]) - c0, d


def _man_segments(n: int, k: int, lo, hi):
    """The t-subset curve's linear pieces over [lo, hi], in integer theta forms.

    Yields ((m0, m1, dm), (r0, r1, dr)) with M = (m0 + m1*theta)/dm and
    R = (r0 + r1*theta)/dr for theta in [0, 1].  Each form is taken over
    the lcm of the piece's reduced end denominators; ``ratio_sup`` brackets
    an irrational supremum at a fixed scale of these coefficients, so that
    scaling is part of every reported bracket.  The corners inside (lo, hi)
    come from t in integers; only an end that is not a corner is evaluated
    as a Fraction.
    """
    _check_sizes(n, k)
    lo, hi = _frac(lo), _frac(hi)
    first = (lo - 1) * k // (n - 1) + 1  # the first corner above lo
    last = -((1 - hi) * k // (n - 1)) - 1  # the last corner below hi
    pts = [_man_point(n, k, lo)]
    pts += [_man_corner(n, k, t) for t in range(first, last + 1)]
    pts.append(_man_point(n, k, hi))
    for (am, ar), (bm, br) in zip(pts, pts[1:]):
        yield _theta_form(am, bm), _theta_form(ar, br)


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


def _simple_converse_sup(n: int, k: int) -> Supremum:
    """Supremum of R(M)(M-1)/(N-M) over [1, N)."""
    pieces = []
    for (m0, m1, dm), (r0, r1, dr) in _man_segments(n, k, 1, n):
        # R(M-1)/(N-M) = (r0 + r1*theta)(m0 - dm + m1*theta) / (dr (N dm - m0 - m1*theta))
        e0 = m0 - dm
        p = (r1 * m1, r0 * m1 + r1 * e0, r0 * e0)
        pieces.append(ratio_sup(p, (0, -dr * m1, dr * (n * dm - m0))))
    return max(pieces)


def _smooth_bound_sup(n: int, k: int) -> Supremum:
    if not (n < k and n >= 3):
        raise TradeoffError(f"needs N < K and N >= 3, got N={n}, K={k}")
    pieces = []  # of R(M)/f(M) over [2, N)
    for (m0, m1, dm), (r0, r1, dr) in _man_segments(n, k, 2, n):
        # R/f = 4(N-1) M R / (N^2 - M^2), both sides times dr dm^2
        c = 4 * (n - 1) * dm
        p = (c * r1 * m1, c * (r0 * m1 + r1 * m0), c * r0 * m0)
        q = (-dr * m1 * m1, -2 * dr * m0 * m1, dr * (n * n * dm * dm - m0 * m0))
        pieces.append(ratio_sup(p, q))
    return max(pieces)


def _cutset_ratio_sup(n: int, k: int, lo: Fraction, hi: Fraction) -> Supremum:
    """Supremum of R(M) over the cut-set bound on [lo, hi)."""
    pieces = []
    for u, a, b in _cutset_pieces(n, k, lo, hi):
        for (m0, m1, dm), (r0, r1, dr) in _man_segments(n, k, a, b):
            # R/line_u = (N-1) dm (r0 + r1*theta) / (dr (uN dm - u^2 (m0 + m1*theta)))
            p = (0, (n - 1) * dm * r1, (n - 1) * dm * r0)
            q = (0, -dr * u * u * m1, dr * (u * n * dm - u * u * m0))
            pieces.append(ratio_sup(p, q))
    return max(pieces)


def achievable_above_converse(n: int, k: int) -> bool:
    """Whether the t-subset curve stays on or above the array-class converse.

    Certified over all of [1, N]: on each piece, R(M) >= K(N-M)/(N-1+K(M-1))
    is R(M)(N-1+K(M-1)) - K(N-M) >= 0, a quadratic in M.
    """
    for (m0, m1, dm), (r0, r1, dr) in _man_segments(n, k, 1, n):
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
# ``per_unit`` (a sampling density) is accepted and ignored, so that callers
# that still pass it keep working.


def simple_converse_ratio_max(n: int, k: int, *, per_unit: int | None = None) -> Fraction:
    """Supremum of R(M)(M-1)/(N-M) over [1, N), certified on each segment.

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
        coded_p, coded_q = _load_between(k, *divmod(x - k, n - 1), n - 1)
        uncoded_p, uncoded_q = _load_between(k, *divmod(x, n), n)
        p, q = coded_p * uncoded_q, coded_q * uncoded_p
        if p * best_q > best_p * q:
            best_p, best_q = p, q
    return Fraction(best_p, best_q)


def coded_uncoded_threshold(n: int, k: int) -> Fraction:
    if n >= k + 2:
        return Fraction(2)
    if n == k + 1:
        return Fraction(5, 2)
    return Fraction(3)  # N == K >= 3


def smooth_bound_ratio_max(n: int, k: int, *, per_unit: int | None = None) -> Fraction:
    """Supremum of R(M)/f(M) over [2, N), certified on each segment.

    The value at the open end M = N is the limit.  An irrational supremum
    is returned as its certified rational upper bracket.  ``per_unit`` is
    ignored.
    """
    return _smooth_bound_sup(n, k).value


#: Composed multiplicative-gap constants.  They inherit the external
#: uncoded-placement-versus-optimal factor 2.00884, which is used as a
#: literal and not re-derived here; the computable factors are the
#: ratio checks above.
EXTERNAL_OPTIMALITY_FACTOR = 2.00884
COMPOSED_GAP_CONSTANTS = {
    "K=1": 1.0,
    "N=K=2": 2.0,
    "N=K>=3": 6.02652,
    "N=K+1": 5.0221,
    "N>=K+2": 4.01768,
    "N<K, M in [2,N)": 8.0,
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
        add("smooth_bound", s8, Fraction(8), s8.value < 8)

    if n == k == 2:
        # the ratio to the cut-set bound over [1, 3/2] peaks at exactly 2
        s2 = _cutset_ratio_sup(2, 2, Fraction(1), Fraction(3, 2))
        add("ratio2", s2, Fraction(2), s2.exact and s2.value == 2)

    report["ok"] = all(c["ok"] for c in checks.values())
    report["composed_gap_constants"] = COMPOSED_GAP_CONSTANTS
    return report


# -- subpacketization comparison ------------------------------------------


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


# -- CSV / SVG export -----------------------------------------------------


def _dec(x: Fraction) -> str:
    return f"{x.numerator / x.denominator:.12f}"


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

    grid = [1 + Fraction(i * (n - 1), BOUND_SAMPLES) for i in range(BOUND_SAMPLES + 1)]
    for name, fn in (
        ("pda-bound", lambda m: pda_lower_bound(n, k, m)),
        ("cutset-bound", lambda m: cutset_bound(n, k, m)),
    ):
        series.append((name, [CurvePoint(m, fn(m)) for m in grid]))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"curves_n{n}_k{k}.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "M", "R", "M_exact", "R_exact"])
        for name, pts in series:
            for p in pts:
                writer.writerow([name, _dec(p.m), _dec(p.r), str(p.m), str(p.r)])

    svg_path = os.path.join(out_dir, f"curves_n{n}_k{k}.svg")
    with open(svg_path, "w") as fh:
        fh.write(_render_svg(n, k, series))
    return {"csv": csv_path, "svg": svg_path, "series": [s for s, _ in series]}


_SVG_COLORS = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
)


def _render_svg(n: int, k: int, series) -> str:
    width, height, pad = 720, 480, 60
    max_m = max(float(p.m) for _, pts in series for p in pts)
    max_r = max(float(p.r) for _, pts in series for p in pts) or 1.0

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
        coords = " ".join(f"{sx(float(p.m)):.2f},{sy(float(p.r)):.2f}" for p in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{width-pad+5}" y="{pad+15*idx}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
