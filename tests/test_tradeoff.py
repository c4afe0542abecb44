"""Tests for the exact memory-load tradeoff analytics."""

import csv
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import splfr.tradeoff
from oracle import (
    STIRLING_C_LOW,
    bounds_grid_ok,
    cutset_ratio_pieces,
    end_ratios,
    evaluated_coded_uncoded_ratio_max,
    f_bound,
    fraction_cutset_bound,
    fraction_lower_convex_envelope,
    fraction_pda_lower_bound,
    grid,
    hull_man_curve,
    hull_man_segments,
    per_piece_sup,
    segments,
    simple_converse_pieces,
    simple_converse_samples,
    smooth_bound_pieces,
    smooth_bound_samples,
    subpacketization_compare,
    uncoded_points,
)
from splfr.cli import bounds_report
from splfr.pda import man_pda, memory_load
from splfr.tradeoff import (
    BOUND_SAMPLES,
    COMPOSED_GAP_CONSTANTS,
    SCHEMES,
    CurvePoint,
    Supremum,
    TradeoffCurve,
    TradeoffError,
    _cutset_pieces,
    _cutset_ratio_sup,
    _man_forms,
    _man_pieces,
    _pieces_sup,
    _reduced,
    achievable_above_converse,
    comb0,
    cutset_bound,
    emit_curves,
    f_below_cutset,
    smooth_bound_ratio_max,
    simple_converse_ratio_max,
    coded_uncoded_ratio_max,
    coded_uncoded_threshold,
    lower_convex_envelope,
    man_curve,
    man_points,
    pda_lower_bound,
    quadratic_nonneg,
    ratio_checks,
    ratio_sup,
    scheme_curve,
    scheme_points,
)

F = Fraction


class TestComb0:
    def test_regular(self):
        assert comb0(5, 2) == 10

    def test_out_of_range(self):
        assert comb0(2, 5) == 0
        assert comb0(-1, 0) == 0


class TestCornerPoints:
    def test_man_2_2(self):
        assert man_points(2, 2) == [
            CurvePoint(F(1), F(2)),
            CurvePoint(F(3, 2), F(1, 2)),
            CurvePoint(F(2), F(0)),
        ]

    def test_man_matches_array_measure(self):
        # every corner must coincide with the exact (M, R) of the t-subset array
        for n, k in [(4, 3), (3, 5), (6, 4)]:
            pts = man_points(n, k)
            for t in range(k + 1):
                assert (pts[t].m, pts[t].r) == memory_load(man_pda(k, t), n)

    def test_uncoded_2_2(self):
        assert uncoded_points(2, 2) == [
            CurvePoint(F(0), F(2)),
            CurvePoint(F(1), F(1, 2)),
            CurvePoint(F(2), F(0)),
        ]

    def test_domain(self):
        with pytest.raises(TradeoffError):
            man_points(1, 2)


class TestEnvelope:
    def test_collinear_middle_point_dropped(self):
        curve = lower_convex_envelope(
            [CurvePoint(F(0), F(2)), CurvePoint(F(1), F(1)), CurvePoint(F(2), F(0))]
        )
        assert curve.corners == (CurvePoint(F(0), F(2)), CurvePoint(F(2), F(0)))

    def test_dominated_point_dropped(self):
        curve = lower_convex_envelope(
            [CurvePoint(F(0), F(2)), CurvePoint(F(1), F(3)), CurvePoint(F(2), F(0))]
        )
        assert curve.corners == (CurvePoint(F(0), F(2)), CurvePoint(F(2), F(0)))

    def test_duplicate_memory_keeps_lower(self):
        curve = lower_convex_envelope(
            [CurvePoint(F(0), F(2)), CurvePoint(F(0), F(1)), CurvePoint(F(1), F(0))]
        )
        assert curve.corners[0] == CurvePoint(F(0), F(1))

    def test_man_points_all_corners(self):
        # the t-subset points are already in convex position
        for n, k in [(4, 3), (2, 2), (10, 6), (3, 8)]:
            curve = man_curve(n, k)
            assert curve.corners == tuple(man_points(n, k))

    def test_memories(self):
        curve = man_curve(4, 3)
        assert curve.memories == tuple(p.m for p in curve.corners)
        assert curve.memories is curve.memories

    def test_evaluate_interpolates(self):
        curve = man_curve(2, 2)
        assert curve.evaluate(F(5, 4)) == F(5, 4)  # midpoint of (1,2)-(3/2,1/2)
        assert curve.evaluate(1) == 2
        assert curve.evaluate(2) == 0
        with pytest.raises(TradeoffError):
            curve.evaluate(F(1, 2))

    @pytest.mark.parametrize("memories", [(1, 1), (2, 1), (1, 3, 2), (F(2, 3), F(3, 5))])
    def test_corner_memories_must_increase(self, memories):
        corners = tuple(CurvePoint(F(m), F(1)) for m in memories)
        with pytest.raises(TradeoffError, match="strictly increasing"):
            TradeoffCurve(corners)

    @pytest.mark.parametrize("hull", [lower_convex_envelope, fraction_lower_convex_envelope])
    def test_empty(self, hull):
        with pytest.raises(TradeoffError, match="no points"):
            hull([])

    def test_single_point_and_collinear_run(self):
        assert lower_convex_envelope([(F(3, 2), 4)]).corners == (CurvePoint(F(3, 2), F(4)),)
        run = [(F(1, 3) * i, 5 - F(2, 7) * i) for i in range(6)]
        curve = lower_convex_envelope(reversed(run))
        assert curve.corners == (CurvePoint(*run[0]), CurvePoint(*run[-1]))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_hull_matches_the_fraction_hull(self, data):
        # small numerators and denominators, so that memories repeat, and a
        # collinear run, shuffled in
        small = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
        points = data.draw(st.lists(st.tuples(small, small), max_size=10))
        m0, r0, dm, dr = (data.draw(small) for _ in range(4))
        points += [(m0 + i * abs(dm), r0 + i * dr) for i in range(data.draw(st.integers(0, 5)))]
        points = data.draw(st.permutations(points))
        if not points:
            return
        want = fraction_lower_convex_envelope(points)
        assert lower_convex_envelope(points) == want
        assert all(type(x) is F for p in want.corners for x in p)


class TestConverseBounds:
    def test_pda_bound_2_2(self):
        for m in (F(1), F(5, 4), F(3, 2), F(2)):
            assert pda_lower_bound(2, 2, m) == 2 * (2 - m) / (1 + 2 * (m - 1))

    def test_pda_bound_endpoints(self):
        assert pda_lower_bound(4, 3, 1) == 3
        assert pda_lower_bound(4, 3, 4) == 0

    def test_cutset_10_1(self):
        # at M=1 the maximizing cut uses u=5 users: (5*10 - 25)/9
        assert cutset_bound(10, 10, 1) == F(25, 9)

    def test_cutset_2_2(self):
        for m in (F(1), F(3, 2), F(2)):
            assert cutset_bound(2, 2, m) == 2 - m

    def test_f_bound_touches_cutset_lines(self):
        # f(N/(2u+1)) = (N/(N-1)) u(u+1)/(2u+1) for each cut size u
        n = 10
        for u in range(1, n // 2):
            m = F(n, 2 * u + 1)
            want = F(n, n - 1) * F(u * (u + 1), 2 * u + 1)
            assert f_bound(n, m) == want

    def test_f_bound_domain(self):
        with pytest.raises(TradeoffError):
            f_bound(10, F(1, 2))

    def test_f_below_cutset_on_its_domain(self):
        n, k = 8, 8
        for i in range(1, 50):
            m = 1 + F(i * (n - 1), 50)
            if m < n:
                assert f_bound(n, m) <= cutset_bound(n, k, m)

    def test_bound_domain_errors(self):
        with pytest.raises(TradeoffError):
            pda_lower_bound(4, 3, F(1, 2))
        with pytest.raises(TradeoffError):
            cutset_bound(4, 3, 5)


class TestSchemePoints:
    def test_seckey_equals_splfr(self):
        assert scheme_points("seckey", 5, 4) == scheme_points("splfr", 5, 4)

    def test_yma_2_2_t1(self):
        pts = scheme_points("yma", 2, 2)
        assert pts[1] == CurvePoint(F(1), F(1, 2))

    def test_wsjtc_matches_yma(self):
        assert scheme_points("wsjtc", 4, 6) == scheme_points("yma", 4, 6)

    def test_privkey_rows_include_zero_memory_point(self):
        for scheme in ("privkey-plfr", "privkey-pfr"):
            pts = scheme_points(scheme, 3, 4)
            assert pts[0] == CurvePoint(F(0), F(3))

    def test_privkey_loads(self):
        # (C(K,t+1) - C(K-r,t+1)) / C(K,t) with r = min(N, K) for PLFR and
        # r = min(N-1, K) for PFR; N = 3, K = 4, t = 1
        assert scheme_points("privkey-plfr", 3, 4)[2] == CurvePoint(F(3, 2), F(3, 2))
        assert scheme_points("privkey-pfr", 3, 4)[2] == CurvePoint(F(3, 2), F(5, 4))

    def test_virtual_endpoint(self):
        pts = scheme_points("virtual", 3, 2)
        assert pts[-1] == CurvePoint(F(3), F(0))

    def test_unknown_scheme(self):
        with pytest.raises(TradeoffError):
            scheme_points("nope", 2, 2)

    @pytest.mark.parametrize("scheme", ["splfr", "yma", "privkey-plfr", "privkey-pfr", "virtual"])
    @pytest.mark.parametrize("n, k", [(1, 2), (3, 0), (0, 3)])
    def test_curve_domain(self, scheme, n, k):
        with pytest.raises(TradeoffError, match=r"need N >= 2 and K >= 1"):
            scheme_points(scheme, n, k)

    def test_all_schemes_build_curves(self):
        for scheme in SCHEMES:
            curve = scheme_curve(scheme, 4, 3)
            assert curve.corners[-1].r == 0

    def test_curves_are_the_envelopes_of_their_points(self):
        for scheme in SCHEMES:
            for n, k in ((4, 3), (3, 5), (30, 10)):
                points = scheme_points(scheme, n, k)
                assert scheme_curve(scheme, n, k) == lower_convex_envelope(points)


class TestRatios:
    def test_simple_converse_examples(self):
        assert simple_converse_ratio_max(30, 10, per_unit=50) <= 1
        assert simple_converse_ratio_max(10, 30, per_unit=50) <= 1

    def test_coded_uncoded_small(self):
        assert coded_uncoded_ratio_max(6, 3) <= 2
        assert coded_uncoded_ratio_max(4, 3) <= F(5, 2)
        assert coded_uncoded_ratio_max(3, 3) <= 3

    def test_coded_uncoded_threshold(self):
        assert coded_uncoded_threshold(6, 3) == 2
        assert coded_uncoded_threshold(4, 3) == F(5, 2)
        assert coded_uncoded_threshold(3, 3) == 3

    def test_coded_uncoded_domain(self):
        with pytest.raises(TradeoffError):
            coded_uncoded_ratio_max(2, 3)

    @pytest.mark.parametrize("n, k", [(2, 5), (5, 1), (2, 2), (1, 1)])
    def test_coded_uncoded_threshold_domain(self, n, k):
        # N = K = 2 is the dedicated ratio2 check, not this threshold's
        with pytest.raises(TradeoffError, match=f"got N={n}, K={k}"):
            coded_uncoded_threshold(n, k)

    def test_curve_domain(self):
        for check, n, k in (
            (simple_converse_ratio_max, 1, 5),
            (simple_converse_ratio_max, 4, 0),
            (simple_converse_ratio_max, 0, 3),
            (achievable_above_converse, 1, 3),
            (ratio_checks, 3, 0),
        ):
            with pytest.raises(TradeoffError, match=r"need N >= 2 and K >= 1"):
                check(n, k)

    def test_smooth_bound_small(self):
        assert smooth_bound_ratio_max(3, 5, per_unit=100) < 8

    def test_smooth_bound_domain(self):
        with pytest.raises(TradeoffError):
            smooth_bound_ratio_max(5, 3)

    def test_ratio2_n2_k2(self):
        report = ratio_checks(2, 2, per_unit=100)
        assert report["checks"]["ratio2"]["max"] == 2
        assert report["ok"]

    def test_ratio_checks_6_3(self):
        report = ratio_checks(6, 3, per_unit=50)
        assert report["checks"]["coded_uncoded"]["ok"]
        assert "smooth_bound" not in report["checks"]
        assert report["ok"]

    def test_composed_constants_present(self):
        report = ratio_checks(2, 2, per_unit=10)
        assert report["composed_gap_constants"] == COMPOSED_GAP_CONSTANTS
        assert COMPOSED_GAP_CONSTANTS["N=K>=3"] == pytest.approx(6.02652)

    def test_composed_constants_are_their_bounds(self):
        # each constant is the bound its ratio check certifies, times the
        # external factor 2.00884 where the composition uses it
        factor = F("2.00884")
        regimes = {
            "N=K=2": (2, 2, "ratio2", 1),
            "N=K>=3": (5, 5, "coded_uncoded", factor),
            "N=K+1": (6, 5, "coded_uncoded", factor),
            "N>=K+2": (9, 5, "coded_uncoded", factor),
            "N<K, M in [2,N)": (5, 9, "smooth_bound", 1),
        }
        for name, (n, k, check, times) in regimes.items():
            bound = ratio_checks(n, k)["checks"][check]["bound"]
            assert COMPOSED_GAP_CONSTANTS[name] == float(times * bound)
        # one rounding of the exact product; 2.00884 * 3 in floats is 6.0265200000000005
        printed = [repr(COMPOSED_GAP_CONSTANTS[name]) for name in ("N=K>=3", "N=K+1", "N>=K+2")]
        assert printed == ["6.02652", "5.0221", "4.01768"]


class TestQuadraticNonneg:
    def test_dip_between_grid_points(self):
        # negative only on (1.0004, 1.0006): no point of a 1/1000 grid sees it
        a, b = F(10004, 10000), F(10006, 10000)
        c2, c1, c0 = 1, -(a + b), a * b
        assert all(c2 * m * m + c1 * m + c0 >= 0 for m in grid(F(1), F(2), 1000))
        assert not quadratic_nonneg(c2, c1, c0, 1, 2)
        assert quadratic_nonneg(c2, c1, c0, 1, a)
        assert quadratic_nonneg(c2, c1, c0, b, 2)

    def test_strict_and_tangent(self):
        # (2x - 3)^2 touches zero at 3/2
        assert quadratic_nonneg(4, -12, 9, 1, 2)
        assert not quadratic_nonneg(4, -12, 9, 1, 2, strict=True)
        assert quadratic_nonneg(4, -12, 9, 0, 1, strict=True)

    def test_endpoints_and_concave(self):
        assert not quadratic_nonneg(0, 1, -1, 0, 2)  # x - 1 at x = 0
        assert quadratic_nonneg(-1, 0, 1, -1, 1)  # 1 - x^2, zero at both ends
        assert not quadratic_nonneg(-1, 0, 1, -1, 1, strict=True)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-9, 9), st.integers(-40, 40), st.integers(-60, 60),
        st.integers(-5, 5), st.integers(0, 6), st.booleans(),
    )
    def test_sign_of_the_exact_minimum(self, c2, c1, c0, lo, width, strict):
        # the minimum over [lo, hi] in Fractions: at an end or at the vertex
        hi = lo + width
        at = [F(lo), F(hi)]
        if c2 and lo < F(-c1, 2 * c2) < hi:
            at.append(F(-c1, 2 * c2))
        least = min(c2 * x * x + c1 * x + c0 for x in at)
        assert quadratic_nonneg(c2, c1, c0, lo, hi, strict=strict) == (
            least > 0 if strict else least >= 0
        )


class TestRatioSup:
    def test_rational_interior_maximum(self):
        # theta (1 - theta) peaks at 1/4, inside
        assert ratio_sup((-1, 1, 0), (0, 0, 1)) == Supremum(F(1, 4), True)

    def test_endpoint_maximum(self):
        assert ratio_sup((0, 1, 1), (0, 0, 2)) == Supremum(F(1), True)

    def test_irrational_bracket(self):
        # 2 theta / (2 theta^2 + 1) peaks at 1/sqrt(2), theta = 1/sqrt(2)
        sup = ratio_sup((0, 2, 0), (2, 0, 1))
        assert not sup.exact
        assert sup.value**2 > F(1, 2)
        assert (sup.value - F(1, 2**60)) ** 2 < F(1, 2)

    def test_open_end_limit(self):
        # theta (1 - theta) / (1 - theta) tends to 1 at the open end
        assert ratio_sup((-1, 1, 0), (0, -1, 1)) == Supremum(F(1), True)

    def test_unbounded_at_open_end(self):
        with pytest.raises(TradeoffError):
            ratio_sup((0, 0, 1), (0, -1, 1))

    @pytest.mark.parametrize(
        "p, q",
        [((0, 0, 1), (0, -2, 1)), ((0, 0, 1), (0, 1, 0)), ((0, 0, 1), (4, -4, 1)),
         ((0, -1, 1), (1, -2, 1))],
        ids=["negative", "zero-at-0", "zero-at-vertex", "zero-after-the-open-end"],
    )
    def test_denominator_must_be_positive(self, p, q):
        # Q must be positive, not just nonnegative, once an open end is divided out
        with pytest.raises(TradeoffError, match="denominator must be positive"):
            ratio_sup(p, q)


class TestExactChecks:
    def test_smooth_bound_worst_case(self):
        # the worst criterion-7(c) pair, attained at M = 2
        assert smooth_bound_ratio_max(12, 40) == F(874, 175)
        curve = man_curve(12, 40)
        assert curve.evaluate(2) / f_bound(12, 2) == F(874, 175)

    def test_simple_converse_is_one(self):
        # a limit as M -> N, where R = (N - M)/(N - 1)
        for n, k in ((30, 10), (20, 20), (10, 30)):
            assert simple_converse_ratio_max(n, k) == 1
            assert ratio_checks(n, k)["checks"]["simple_converse"]["exact"]

    def test_interior_supremum_exceeds_grid(self):
        report = ratio_checks(20, 24)
        entry = report["checks"]["smooth_bound"]
        assert entry["exact"] is False and entry["ok"]
        assert F(399333, 100000) <= entry["max"] < F(399334, 100000)
        assert entry["max"] > max(smooth_bound_samples(20, 24, 25).values())

    def test_per_unit_is_ignored(self):
        assert smooth_bound_ratio_max(5, 9, per_unit=3) == smooth_bound_ratio_max(5, 9)
        assert ratio_checks(2, 2, per_unit=3) == ratio_checks(2, 2)

    def test_ratio2_exact(self):
        entry = ratio_checks(2, 2)["checks"]["ratio2"]
        assert entry["max"] == 2 and entry["exact"] and entry["ok"]

    def test_f_below_cutset_needs_enough_users(self):
        # with K < N/2 the cut sizes are truncated and f exceeds the bound at M = 1
        assert f_bound(10, 1) > cutset_bound(10, 2, 1)
        assert not f_below_cutset(10, 2)
        assert f_below_cutset(10, 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 25), st.integers(1, 30))
    def test_simple_converse_against_grid(self, n, k):
        samples = simple_converse_samples(n, k, 6)
        sup = ratio_checks(n, k)["checks"]["simple_converse"]
        assert all(v <= sup["max"] for v in samples.values())
        corners = {samples[p.m] for p in man_curve(n, k).corners if p.m < n}
        if sup["max"] in corners:
            assert max(samples.values()) == sup["max"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 40))))
    def test_smooth_bound_against_grid(self, nk):
        n, k = nk
        samples = smooth_bound_samples(n, k, 6)
        sup = ratio_checks(n, k)["checks"]["smooth_bound"]
        assert all(v <= sup["max"] for v in samples.values())
        corners = {samples[m] for m in {F(2)} | set(man_curve(n, k).memories) if 2 <= m < n}
        if sup["max"] in corners:
            assert max(samples.values()) == sup["max"]
        if not sup["exact"]:
            assert sup["max"] > max(samples.values())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 20), st.integers(1, 24))
    def test_bounds_against_grid(self, n, k):
        # every certified check holds, so every sampled one must too
        assert bounds_report(n, k)["ok"]
        assert bounds_grid_ok(n, k, 4)


#: every (N, K) with N, K <= 40 that the t-subset curve is defined for
SMALL_PAIRS = [(n, k) for n in range(2, 41) for k in range(1, 41)]


class TestClosedForm:
    """The closed-form t-subset curve against the generic hull path."""

    def test_man_curve_is_the_envelope_of_its_points(self):
        for n, k in SMALL_PAIRS:
            assert man_curve(n, k).corners == lower_convex_envelope(man_points(n, k)).corners

    def test_segments_match_the_generic_pieces(self):
        for n, k in SMALL_PAIRS:
            hull = hull_man_curve(n, k)
            intervals = [(1, n), (1, F(3, 2))] + [(2, n)] * (n > 2)
            intervals += [(a, b) for _, a, b in _cutset_pieces(n, k, F(1), F(n))]
            for lo, hi in intervals:
                generic = [(*m, *r) for m, r in segments(hull, lo, hi)]
                assert [_reduced(p) for p in _man_pieces(n, k, lo, hi)] == generic

    def test_forms_are_the_weighted_pieces(self):
        # the fused loop of criterion 7(c) against the one general expansion:
        # r (u m + v) / (dr (N dm - m)(w m + z)) on each piece, dm = K
        def times(a, b):  # (a0 + a1 theta)(b0 + b1 theta), as (c2, c1, c0)
            return a[1] * b[1], a[0] * b[1] + a[1] * b[0], a[0] * b[0]

        for n, k in SMALL_PAIRS:
            for u, v, w, z in ((1, -k, 0, 1), (4 * (n - 1) * k, 0, 1, n * k)):
                for lo in (1, 2):
                    pieces = _man_pieces(n, k, lo, n)
                    assert all(dm == k for _, _, dm, *_ in pieces)
                    assert list(_man_forms(n, k, lo, u, v, w, z)) == [
                        times((r0, r1), (u * m0 + v, u * m1))
                        + tuple(dr * c for c in times((n * dm - m0, -m1), (w * m0 + z, w * m1)))
                        for m0, m1, dm, r0, r1, dr in pieces
                    ]

    def test_coded_uncoded_matches_evaluation(self):
        for n, k in SMALL_PAIRS:
            if n >= k >= 2:
                assert coded_uncoded_ratio_max(n, k) == evaluated_coded_uncoded_ratio_max(n, k)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_reports_match_the_generic_path(self, n, monkeypatch):
        def reports():
            return [(ratio_checks(n, k), bounds_report(n, k)) for k in range(1, 41)]

        closed = reports()
        monkeypatch.setattr(splfr.tradeoff, "man_curve", hull_man_curve)
        monkeypatch.setattr(
            splfr.tradeoff,
            "_man_pieces",
            lambda n, k, lo, hi: [(*m, *r) for m, r in hull_man_segments(n, k, lo, hi)],
        )
        monkeypatch.setattr(
            splfr.tradeoff, "coded_uncoded_ratio_max", evaluated_coded_uncoded_ratio_max
        )
        assert closed == reports()

    def test_pinned_suprema(self):
        # an irrational supremum's bracket depends on the coefficient scale
        entry = ratio_checks(20, 24)["checks"]["smooth_bound"]
        assert entry["exact"] is False
        assert entry["max"] == F(
            225165903408421585777185871921, 56385409982949779074921267200
        )
        entry = ratio_checks(12, 40)["checks"]["smooth_bound"]
        assert entry["exact"] and entry["max"] == F(874, 175)

    def test_ratio_checks_build_no_hull_and_evaluate_nothing(self, monkeypatch):
        calls = []
        envelope, evaluate = lower_convex_envelope, TradeoffCurve.evaluate

        def counting_envelope(points):
            calls.append("lower_convex_envelope")
            return envelope(points)

        def counting_evaluate(self, m):
            calls.append("evaluate")
            return evaluate(self, m)

        monkeypatch.setattr(splfr.tradeoff, "lower_convex_envelope", counting_envelope)
        monkeypatch.setattr(TradeoffCurve, "evaluate", counting_evaluate)
        assert smooth_bound_ratio_max(12, 40) == F(874, 175)
        assert coded_uncoded_ratio_max(20, 7) <= coded_uncoded_threshold(20, 7)
        assert calls == []
        man_curve(3, 2).evaluate(2)
        scheme_curve("yma", 3, 2)
        assert calls == ["evaluate", "lower_convex_envelope"]


#: criterion 7(c)'s pairs: 3 <= N <= 20 and N < K <= 40
PAIRS_7C = [(n, k) for n in range(3, 21) for k in range(n + 1, 41)]


class TestOneCandidate:
    """One candidate per (N, K) against ``ratio_sup`` on every piece."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_suprema_match_the_per_piece_path(self, n):
        # value and exactness, irrational brackets such as (20, 24)'s included
        def reported(check: dict) -> Supremum:
            return Supremum(check["max"], check["exact"])

        for k in range(1, 41):
            checks = ratio_checks(n, k)["checks"]
            want = per_piece_sup(simple_converse_pieces(n, k))
            assert reported(checks["simple_converse"]) == want
            if 3 <= n < k:
                want = per_piece_sup(smooth_bound_pieces(n, k))
                assert reported(checks["smooth_bound"]) == want
            for lo, hi in [(F(1), F(n))] + [(F(1), F(3, 2))] * (n == k == 2):
                assert _cutset_ratio_sup(n, k, lo, hi) == per_piece_sup(
                    cutset_ratio_pieces(n, k, lo, hi)
                )

    @pytest.mark.parametrize("n", range(2, 41))
    def test_bounds_match_the_fraction_path(self, n):
        # at every grid point that emit_curves draws, with and without truncated cut sizes
        for k in sorted({max(1, n // 2 - 1), 40}):
            for i in range(BOUND_SAMPLES + 1):
                m = 1 + F(i * (n - 1), BOUND_SAMPLES)
                assert pda_lower_bound(n, k, m) == fraction_pda_lower_bound(n, k, m)
                assert cutset_bound(n, k, m) == fraction_cutset_bound(n, k, m)

    def test_ratio_sup_runs_only_on_failing_pieces(self, monkeypatch):
        # a piece fails the candidate, the largest end ratio of its pair,
        # exactly when its own supremum exceeds it
        failing = 0
        for n, k in PAIRS_7C:
            pieces = list(smooth_bound_pieces(n, k))
            top = max(end for p, q in pieces for end in end_ratios(p, q))
            failing += sum(ratio_sup(p, q).value > top for p, q in pieces)
        calls = []

        def counting_ratio_sup(p, q):
            calls.append((p, q))
            return ratio_sup(p, q)

        monkeypatch.setattr(splfr.tradeoff, "ratio_sup", counting_ratio_sup)
        for n, k in PAIRS_7C:
            smooth_bound_ratio_max(n, k)
        assert len(calls) == failing == 24

    @pytest.mark.parametrize(
        "last, want, searched", [(F(1), F(1), 0), (F(1, 8), F(1, 4), 1)], ids=["covered", "searched"]
    )
    def test_a_deferred_piece_is_retested_against_the_final_candidate(
        self, monkeypatch, last, want, searched
    ):
        # theta (1 - theta) peaks at 1/4 inside and is 0 at both ends, so it
        # fails the running candidate 0 and is kept; the constant piece after
        # it raises the candidate to `last`, which covers it at 1 and not at 1/8
        pieces = [((-1, 1, 0), (0, 0, 1)), ((0, 0, last.numerator), (0, 0, last.denominator))]
        calls = []

        def counting_ratio_sup(p, q):
            calls.append((p, q))
            return ratio_sup(p, q)

        monkeypatch.setattr(splfr.tradeoff, "ratio_sup", counting_ratio_sup)
        assert _pieces_sup((p + q for p, q in pieces), pieces.__getitem__) == Supremum(want, True)
        assert calls == pieces[:searched]

    #: a piece unbounded at its open end, and one whose denominator turns negative
    UNBOUNDED, NEGATIVE = ((0, 0, 1), (0, -1, 1)), ((0, 0, 1), (0, -2, 1))

    @pytest.mark.parametrize(
        "first, second, error",
        [(UNBOUNDED, NEGATIVE, "ratio unbounded at the open end"),
         (NEGATIVE, UNBOUNDED, "ratio denominator must be positive")],
        ids=["unbounded-first", "negative-first"],
    )
    def test_the_pass_refuses_the_first_bad_piece(self, first, second, error):
        good = ((0, 0, 1), (0, 0, 2))
        pieces = [good, first, second, good]
        with pytest.raises(TradeoffError, match=error):
            _pieces_sup((p + q for p, q in pieces), pieces.__getitem__)

    def test_curves_emit_is_pinned(self, tmp_path):
        # the exact bytes of the CSV and SVG of every scheme at N = 30, K = 10
        out = emit_curves(30, 10, list(SCHEMES), str(tmp_path))
        digests = {
            "csv": "d71aaa169ae2bdf923716cad13af47e74c6baa891fcee34aa757c46a8948df5e",
            "svg": "9e8fcf9c545d86f0b8caed3178df79117fbaf7da008c514153960245bbb47661",
        }
        for ext, digest in digests.items():
            with open(out[ext], "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest


class TestSubpacketization:
    def test_k4_t2(self):
        out = subpacketization_compare(4, 2)
        assert (out["b_man"], out["b_lsub"]) == (6, 2)
        assert (out["r_man"], out["r_lsub"]) == (F(2, 3), F(1))
        assert out["identity_ok"] and out["stirling_ok"]

    def test_k6_t3(self):
        out = subpacketization_compare(6, 3)
        assert (out["b_man"], out["b_lsub"]) == (20, 4)
        assert out["identity_ok"] and out["stirling_ok"]

    def test_k6_t2(self):
        out = subpacketization_compare(6, 2)
        assert out["r_man"] == F(2, 3) * out["r_lsub"]
        assert out["identity_ok"]

    def test_domain(self):
        with pytest.raises(TradeoffError):
            subpacketization_compare(7, 3)
        with pytest.raises(TradeoffError):
            subpacketization_compare(4, 1)

    def test_stirling_constant_is_lower_bound(self):
        # the rational must sit below e^(1/3) * 2 pi
        assert float(STIRLING_C_LOW) <= math.e ** (1 / 3) * 2 * math.pi
        assert STIRLING_C_LOW < 2 * Fraction(314159266, 10**8) * F(1395612426, 10**9)

    def test_stirling_constant_against_float_floor(self):
        # e^(1/3) * 2 pi in floats, floored at 1e-6: not a proven bound
        old = Fraction(math.floor(math.e ** (1 / 3) * 2 * math.pi * 10**6), 10**6)
        assert old <= STIRLING_C_LOW < old + F(1, 10**6)
        for k in range(3, 31):
            for t in range(2, k):
                if k % t == 0:
                    # the verdict with the old constant, recomputed here
                    out = subpacketization_compare(k, t)
                    a = max(t, k - t)
                    lhs = F(out["b_man"]) ** 2 * old * (k - t)
                    rhs = F(out["b_lsub"]) ** 2 * F(k, t) ** 3 * F(k, a) ** (2 * a)
                    assert out["stirling_ok"] == (lhs >= rhs)


class TestEmit:
    def test_csv_and_svg(self, tmp_path):
        out = emit_curves(4, 3, ["splfr", "yma"], str(tmp_path))
        with open(out["csv"]) as fh:
            rows = list(csv.DictReader(fh))
        by_scheme = {}
        for row in rows:
            by_scheme.setdefault(row["scheme"], []).append(row)
        assert len(by_scheme["splfr"]) == len(scheme_curve("splfr", 4, 3).corners)
        assert len(by_scheme["yma"]) == len(scheme_curve("yma", 4, 3).corners)
        assert len(by_scheme["pda-bound"]) == 201
        # exact columns round-trip as fractions
        for row in by_scheme["splfr"]:
            assert abs(float(Fraction(row["M_exact"])) - float(row["M"])) < 1e-9
        svg = open(out["svg"]).read()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_unknown_scheme_makes_no_directory(self, tmp_path):
        # every series is built before the output directory is made
        out = tmp_path / "curves"
        with pytest.raises(TradeoffError, match="unknown scheme 'bogus'"):
            emit_curves(3, 2, ["splfr", "bogus"], str(out))
        assert not out.exists()

    @pytest.mark.parametrize("n, k", [(1, 2), (3, 0)])
    def test_curve_domain_is_checked_first(self, tmp_path, n, k):
        # refused before the output directory is made or any series is drawn
        out = tmp_path / "curves"
        with pytest.raises(TradeoffError, match=r"need N >= 2 and K >= 1"):
            emit_curves(n, k, ["yma"], str(out))
        assert not out.exists()
