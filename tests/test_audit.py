"""Tests for the exact enumeration audits."""

import pytest

from splfr.audit import (
    AuditConfig,
    AuditError,
    BudgetExceeded,
    ExactDistribution,
    audit_correctness,
    audit_privacy,
    audit_security,
    factorization_violations,
)
from splfr.engine import DeliveryPayload, Mode, deliver, place
from splfr.field import FieldContext
from splfr.pda import STAR, man_pda, validate

GF2 = FieldContext.prime(2)

SMALL = AuditConfig(pda=man_pda(2, 1), n=2, b=2, ctx=GF2)


def small(**overrides) -> AuditConfig:
    params = dict(pda=man_pda(2, 1), n=2, b=2, ctx=GF2)
    params.update(overrides)
    return AuditConfig(**params)


class TestFactorization:
    def test_independent_pair(self):
        # uniform product distribution on {0,1} x {0,1}
        dist = ExactDistribution()
        for a in (0, 1):
            for b in (0, 1):
                dist.record((a, b))
        violations, first = factorization_violations(dist, lambda o: o)
        assert violations == 0 and first is None

    def test_correlated_pair(self):
        # perfectly correlated bits: every identity fails
        dist = ExactDistribution()
        dist.record((0, 0))
        dist.record((1, 1))
        violations, first = factorization_violations(dist, lambda o: o)
        assert violations == 4
        assert first is not None

    def test_zero_joint_count_checked(self):
        # a and b independent on the support actually seen, but the missing
        # (1, 1) cell breaks the product form
        dist = ExactDistribution()
        dist.record((0, 0))
        dist.record((0, 1))
        dist.record((1, 0))
        violations, _ = factorization_violations(dist, lambda o: o)
        assert violations > 0

    def test_weighted_independent(self):
        dist = ExactDistribution()
        for _ in range(2):
            dist.record((0, 0))
        for _ in range(4):
            dist.record((0, 1))
        dist.record((1, 0))
        for _ in range(2):
            dist.record((1, 1))
        violations, _ = factorization_violations(dist, lambda o: o)
        assert violations == 0


class TestConfig:
    def test_atom_count(self):
        assert SMALL.atom_count == 16 * 2 * 16 * 16

    def test_unit_demand_space(self):
        cfg = small(demand_space="units")
        assert cfg.demand_vectors() == [(1, 0), (0, 1)]
        assert cfg.atom_count == 16 * 2 * 16 * 4

    def test_budget_exceeded(self):
        cfg = small(budget=100)
        with pytest.raises(BudgetExceeded):
            audit_security(cfg)

    def test_bad_demand_space(self):
        with pytest.raises(AuditError):
            small(demand_space="random")

    def test_non_divisible_b(self):
        with pytest.raises(AuditError):
            small(b=3)


class TestCorrectness:
    def test_small_instance_passes(self):
        report = audit_correctness(SMALL)
        assert report.verdict
        assert report.atoms == 8192
        assert report.violations == 0

    def test_units_only(self):
        report = audit_correctness(small(demand_space="units"))
        assert report.verdict and report.atoms == 2048

    def test_corrupted_payload_fails(self):
        # flip one symbol of the first multicast block before decoding
        pda = man_pda(2, 1)
        counterexamples = 0
        import random

        from splfr.engine import Library, Randomness, decode

        rng = random.Random(5)
        lib = Library.random(GF2, 2, 2, rng)
        rnd = Randomness.generate(pda, 2, 2, GF2, rng)
        state = place(pda, lib, rnd, Mode.SPLFR)
        demands = ((1, 0), (0, 1))
        payload = deliver(state, demands)
        bad_block = tuple(GF2.add(v, 1) for v in payload.blocks[0])
        bad = DeliveryPayload(payload.coeff_vectors, (bad_block,))
        for k in range(2):
            got = decode(state.user_view(k), bad, demands[k])
            if got != lib.combine(demands[k]):
                counterexamples += 1
        # every non-starred row reads that block, so both users break
        assert counterexamples == 2


class TestSecurity:
    def test_splfr_passes(self):
        report = audit_security(SMALL)
        assert report.verdict
        assert report.atoms == 8192
        assert report.violations == 0
        assert report.counterexample is None

    def test_plfr_fails(self):
        # without security keys the blocks reveal file combinations
        report = audit_security(small(mode=Mode.PLFR))
        assert not report.verdict
        assert report.violations > 0
        assert report.counterexample is not None

    def test_lfr_fails(self):
        report = audit_security(small(mode=Mode.LFR))
        assert not report.verdict
        assert report.counterexample is not None

    def test_slfr_passes(self):
        # security keys alone hide the payload content; demands leak only
        # through the coefficient vectors, which unit demands expose in the
        # privacy audit, not here: q = p + d is uniform only with p active,
        # so full demand space with p frozen must fail
        report = audit_security(small(mode=Mode.SLFR))
        assert not report.verdict  # coeff vectors equal the demands

    def test_all_star_array_trivially_secure(self):
        # no multicast symbols at all: nothing to observe except coeffs
        arr = validate([[STAR, STAR]])
        report = audit_security(AuditConfig(pda=arr, n=2, b=1, ctx=GF2))
        assert report.verdict


class TestPrivacy:
    def test_splfr_every_subset_passes(self):
        for subset in ([1], [2], [1, 2]):
            report = audit_privacy(SMALL, subset)
            assert report.verdict, subset
            assert report.violations == 0

    def test_slfr_full_demand_space_fails(self):
        report = audit_privacy(small(mode=Mode.SLFR), [1])
        assert not report.verdict
        assert report.violations > 0
        assert report.counterexample is not None

    def test_full_subset_is_vacuous(self):
        # no hidden users left, so independence holds trivially
        report = audit_privacy(small(mode=Mode.LFR), [1, 2])
        assert report.verdict

    def test_bad_subset(self):
        with pytest.raises(AuditError):
            audit_privacy(SMALL, [])
        with pytest.raises(AuditError):
            audit_privacy(SMALL, [0])
        with pytest.raises(AuditError):
            audit_privacy(SMALL, [3])

    def test_unit_demand_space(self):
        report = audit_privacy(small(demand_space="units"), [2])
        assert report.verdict
        assert report.atoms == 2048
