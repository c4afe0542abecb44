"""Tests for the exact audits: rank certificates and the enumeration oracle."""

import json
import operator
import random
import re
import time
from collections import Counter
from functools import partial
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

import splfr.audit
from splfr import cli
from splfr.audit import (
    AuditConfig,
    AuditError,
    BudgetExceeded,
    audit_correctness,
    audit_privacy,
    audit_security,
    correctness_certificate,
    enumerate_privacy,
    enumerate_security,
    factorization_violations,
    privacy_certificate,
    security_certificate,
)
from splfr.cli import TOY_GRID
from splfr.engine import DeliveryPayload, Library, Mode, Randomness, decode, deliver, place
from splfr.field import FieldContext, FieldError
from splfr.pda import STAR, man_pda, parse_pda, validate

from oracle import (
    active_symbols,
    composed_gathered,
    enumerate_correctness,
    evaluate,
    file_model,
    file_models,
    outputs,
    pairwise_violations,
    per_file_correctness,
    per_file_privacy,
    per_file_security,
    probe_libraries,
    raw_atoms,
    vec_sub,
    walk_privacy,
    walk_security,
    weighted_atoms,
)

GF2 = FieldContext.prime(2)

SMALL = AuditConfig(pda=man_pda(2, 1), n=2, b=2, ctx=GF2)


def small(**overrides) -> AuditConfig:
    params = dict(pda=man_pda(2, 1), n=2, b=2, ctx=GF2)
    params.update(overrides)
    return AuditConfig(**params)


class TestFactorization:
    def test_independent_pair(self):
        # uniform product distribution on {0,1} x {0,1}
        dist = Counter((a, b) for a in (0, 1) for b in (0, 1))
        violations, first = factorization_violations(dist)
        assert violations == 0 and first is None

    def test_correlated_pair(self):
        # perfectly correlated bits: every identity fails
        dist = Counter([(0, 0), (1, 1)])
        violations, first = factorization_violations(dist)
        assert violations == 4
        assert first is not None

    def test_zero_joint_count_checked(self):
        # a and b independent on the support actually seen, but the missing
        # (1, 1) cell breaks the product form
        dist = Counter([(0, 0), (0, 1), (1, 0)])
        violations, _ = factorization_violations(dist)
        assert violations > 0

    def test_weighted_independent(self):
        dist = Counter({(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2})
        violations, _ = factorization_violations(dist)
        assert violations == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4),  # rows
        st.integers(1, 4),  # columns
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)), max_size=16),
    )
    def test_one_pass_equals_every_pair(self, rows, columns, cells):
        # single-row and single-column tables, and zero-count entries, included
        dist = Counter({(a % rows, b % columns): c for a, b, c in cells})
        assert factorization_violations(dist) == pairwise_violations(dist)


class TestConfig:
    def test_atom_count(self):
        assert SMALL.atom_count == 16 * 2 * 16 * 16

    def test_unit_demand_space(self):
        cfg = small(demand_space="units")
        assert cfg.demand_vectors() == [(1, 0), (0, 1)]
        assert cfg.atom_count == 16 * 2 * 16 * 4

    def test_atom_count_builds_no_demand_vectors(self, monkeypatch):
        # over GF(65521) with N = 2 the list would hold 65521^2 vectors
        def refuse(cfg):
            raise AssertionError("atom_count must not build the demand vectors")

        monkeypatch.setattr(AuditConfig, "demand_vectors", refuse)
        wide = small(ctx=FieldContext.prime(65521))
        assert wide.atom_count == 65521**13
        with pytest.raises(BudgetExceeded):
            wide.check_budget()
        assert small(demand_space="units").atom_count == 16 * 2 * 16 * 4

    def test_budget_exceeded(self):
        cfg = small(budget=40)  # below the 50 probe points
        with pytest.raises(BudgetExceeded):
            audit_security(cfg)

    def test_probe_count(self):
        # per probe file, 1 + N*B = 5 of them: the offset, S*L + K*N = 5 key
        # moves and K*N = 4 demand moves, or K*(N-1) = 2 over unit demands
        assert SMALL.probe_count == 5 * 10
        assert small(demand_space="units").probe_count == 5 * 8

    def test_each_audit_runs_the_engine_once(self, monkeypatch):
        # one formal run per audit: one placement, one delivery and K decodes,
        # not one per probe point (the budget counts 50) or per atom
        calls = count_calls(monkeypatch, "place", "deliver", "decode")
        for audit in (audit_correctness, audit_security, audit_privacy):
            calls.clear()
            assert audit(SMALL).method == "certificate"
            assert calls == {"place": 1, "deliver": 1, "decode": 2}, audit.__name__

    def test_too_many_probe_points_are_refused_before_the_formal_run(self, monkeypatch):
        # 90,001 W-monomials x 30,019 (r, d)-monomials: refused before the
        # engine places a library of 90,000 formal symbols
        cfg = AuditConfig(pda=man_pda(3, 1), n=3, b=30000, ctx=GF2)
        calls = count_calls(monkeypatch, "place")
        for audit in (audit_correctness, audit_security, lambda c: audit_privacy(c, [1])):
            with pytest.raises(BudgetExceeded, match="^2701740019 probe points exceed budget"):
                audit(cfg)
        assert calls == {}

    def test_certificates_are_budgeted_by_their_probe_points(self):
        # 8192 atoms, but 50 probe points, and 3 x 50 for every subset
        cfg = small(budget=100)
        assert audit_security(cfg).method == "certificate"
        assert audit_privacy(cfg, [1]).method == "certificate"
        with pytest.raises(BudgetExceeded, match="150 subset-probe points exceed budget 100"):
            audit_privacy(cfg)

    def test_enumeration_is_refused_before_it_lists_the_demands(self, monkeypatch):
        # 10 probe points, within the budget; the certificate fails (SLFR shows
        # user 2's demand), and its 32 atoms are refused before the demand
        # tuples, which grow as q^(N*K), are listed
        def refuse(cfg):
            raise AssertionError("the demand tuples are listed before the budget check")

        cfg = AuditConfig(pda=ALL_STAR, n=1, b=1, ctx=GF2, mode=Mode.SLFR, budget=20)
        monkeypatch.setattr(AuditConfig, "demand_tuples", refuse)
        with pytest.raises(BudgetExceeded, match="32 atoms exceed budget 20"):
            audit_privacy(cfg, [1])

    def test_failing_certificate_is_refused_before_enumeration(self, monkeypatch):
        # LFR fails on the one formal run, its one placement and delivery all
        # that run: the 2^30 atoms are refused unvisited
        cfg = AuditConfig(pda=man_pda(3, 1), n=3, b=3, ctx=GF2, mode=Mode.LFR)
        calls = count_calls(monkeypatch, "place", "deliver")
        with pytest.raises(BudgetExceeded, match="1073741824 atoms exceed budget"):
            audit_security(cfg)
        assert calls == {"place": 1, "deliver": 1}

    def test_bad_demand_space(self):
        with pytest.raises(AuditError):
            small(demand_space="random")

    def test_non_divisible_b(self):
        with pytest.raises(AuditError):
            small(b=3)

    def test_non_positive_sizes(self):
        # B = 0 would pass vacuously over 256 atoms; B = -2 divides F = 2
        for sizes in (dict(b=0), dict(b=-2), dict(n=0), dict(n=-1)):
            with pytest.raises(AuditError):
                small(**sizes)


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

    def test_every_subset_at_once(self):
        report = audit_privacy(SMALL)
        assert report.verdict and report.method == "certificate"
        assert report.atoms == 3 * 8192 and report.violations == 0

    def test_every_subset_counterexample_names_subset(self):
        report = audit_privacy(small(mode=Mode.SLFR))
        assert not report.verdict and report.method == "enumeration"
        assert report.atoms == 3 * 8192
        assert report.counterexample["subset"] == [1]
        # the failing subsets are counted exactly, as when audited one by one
        one_by_one = [audit_privacy(small(mode=Mode.SLFR), [u]) for u in (1, 2)]
        assert report.violations == sum(r.violations for r in one_by_one)


class TestReports:
    def test_passing_audits_are_certified(self):
        for report in (
            audit_correctness(SMALL),
            audit_security(SMALL),
            audit_privacy(SMALL, [1]),
        ):
            assert report.to_dict() == {
                "verdict": "pass",
                "atoms": 8192,
                "violations": 0,
                "counterexample": None,
                "method": "certificate",
            }

    def test_failures_are_counted_by_enumeration(self):
        # the exact counts and witnesses of the enumeration, unchanged
        lfr = audit_security(small(mode=Mode.LFR))
        assert (lfr.verdict, lfr.atoms, lfr.violations, lfr.method) == (
            False, 8192, 7936, "enumeration"
        )
        cfg = small(mode=Mode.LFR)
        assert lfr == enumerate_security(cfg, splfr.audit._formal_run(cfg))
        slfr = audit_privacy(small(mode=Mode.SLFR), [1])
        assert (slfr.verdict, slfr.atoms, slfr.violations) == (False, 8192, 2048)
        cfg = small(mode=Mode.SLFR)
        assert [slfr] == enumerate_privacy(cfg, [[1]], splfr.audit._formal_run(cfg))
        assert slfr.counterexample is not None

    def test_failing_subsets_share_one_traversal(self, monkeypatch):
        # SLFR fails for the subsets {1} and {2}; the subset {1, 2} has no
        # other user and holds.  Both failing subsets are counted in one pass
        # over the 512 atoms of the certificates' model: the one formal run
        # is all the engine does
        calls = count_calls(monkeypatch, "place", "deliver")
        report = audit_privacy(small(mode=Mode.SLFR))
        assert not report.verdict and report.method == "enumeration"
        assert calls == {"place": 1, "deliver": 1}

    def test_a_patched_engine_is_seen_by_the_next_audit(self, monkeypatch):
        # the model is run again for each audit, never kept from an earlier one
        assert audit_security(SMALL).method == "certificate"
        drop_first_key(monkeypatch)
        assert audit_security(SMALL).method == "enumeration"

    def test_masked_keys_are_placed_once(self, monkeypatch):
        # LFR masks all 5 key symbols: its certificate fails, and the
        # enumeration counts from the same model, whatever the atom count
        calls = count_calls(monkeypatch, "place", "deliver")
        report = audit_security(small(mode=Mode.LFR))
        assert not report.verdict and report.method == "enumeration"
        assert calls == {"place": 1, "deliver": 1}

    def test_passing_subsets_are_not_enumerated(self, monkeypatch):
        calls = count_calls(monkeypatch, "place", "deliver")
        assert audit_privacy(SMALL).method == "certificate"
        assert calls == {"place": 1, "deliver": 1}

    def test_each_file_realization_combines_only_the_columns_it_reaches(self, monkeypatch):
        # LFR's signal at each demand tuple is its 4 coefficient symbols, in
        # no W, and its one multicast block, in W at every tuple but the
        # all-zero one: 15 of the 80 columns vary with W, and only they are
        # combined at each file realization.  LFR has no key symbol, so its
        # classes are its signals, which the per-W combination that the
        # per-atom walk shares gives at r = 0.  The 2^4 file realizations
        # are one kernel call of 16 rows, (1, W), over those 15 columns
        combined = []
        kernel = FieldContext.lincombs

        def counted(self, rows, vectors):
            combined.append((len(rows), len(vectors[0])))
            return kernel(self, rows, vectors)

        cfg = small(mode=Mode.LFR)
        rows, rank = splfr.audit._factored(cfg, splfr.audit._formal_run(cfg).signal)
        assert rank == 0 and len(rows) == 5
        monkeypatch.setattr(FieldContext, "lincombs", counted)
        placements = splfr.audit._placements(cfg, rows)
        next(placements)  # the set-up and the file realizations' one call
        assert combined[-1] == (16, 15)
        for _ in range(3):
            combined.clear()
            files, *_ = next(placements)
            assert combined == [], files


def test_the_set_up_expands_every_w_monomial_in_one_call(monkeypatch):
    # before the first file realization, the signal rows of all 1 + N*B = 5
    # W-monomials are expanded over the 16 demand tuples in one call: 5 x 5
    # rows over the 5 demand slots (the constant, then each user's 2 demand
    # moves).  With no active key symbol (LFR) the other call is the file
    # realizations' one; PLFR's 4 privacy-key symbols add the fixed columns
    # at each of the 16 key values, and the first realization's at each
    shapes = []
    kernel = FieldContext.lincombs

    def counted(self, rows, vectors):
        shapes.append((len(rows), len(vectors), len(vectors[0])))
        return kernel(self, rows, vectors)

    monkeypatch.setattr(FieldContext, "lincombs", counted)
    for mode, walk, after in (
        (Mode.LFR, False, [(16, 5, 15)]),
        (Mode.PLFR, True, [(16, 5, 64), (16, 5, 80), (16, 5, 16)]),
    ):
        cfg = small(mode=mode)
        signal = splfr.audit._formal_run(cfg).signal
        rows = signal if walk else splfr.audit._factored(cfg, signal)[0]
        shapes.clear()
        next(splfr.audit._placements(cfg, rows, every_key=walk))
        assert len(rows) == 5 and shapes == [(25, 5, 16), *after], mode


def count_passes(monkeypatch) -> Counter:
    """Count the audit's identity passes and the points its enumerations draw.

    A point is one file realization at one value of r: drawn at every key
    value by the per-atom walk, the key loop, and at r = 0 alone by the
    count by class.
    """
    calls = Counter()
    identities, placements = splfr.audit.factorization_violations, splfr.audit._placements

    def counted_identities(counts):
        calls["identity passes"] += 1
        return identities(counts)

    def counted_placements(cfg, signal, seen=(), every_key=False):
        for point in placements(cfg, signal, seen, every_key):
            calls["key loop" if every_key else "r = 0"] += 1
            yield point

    monkeypatch.setattr(splfr.audit, "factorization_violations", counted_identities)
    monkeypatch.setattr(splfr.audit, "_placements", counted_placements)
    return calls


K3 = dict(pda=man_pda(3, 1), n=1, b=3)  # 8 file realizations


@pytest.mark.parametrize(
    "cfg,audit,realizations",
    [
        (small(mode=Mode.LFR), audit_security, 16),
        (small(mode=Mode.SLFR), audit_security, 16),
        (small(mode=Mode.LFR), lambda cfg: audit_privacy(cfg, [1]), 16),
        (small(mode=Mode.SLFR), lambda cfg: audit_privacy(cfg, [2]), 16),
        (small(mode=Mode.SLFR), audit_privacy, 16),
        (small(mode=Mode.SLFR, demand_space="units"), audit_privacy, 16),
        (small(mode=Mode.SLFR, ctx=FieldContext.binary(1)), audit_privacy, 16),
        (AuditConfig(**K3, ctx=GF2, mode=Mode.LFR), audit_privacy, 8),
        (AuditConfig(**K3, ctx=GF2, mode=Mode.SLFR), audit_privacy, 8),
        (AuditConfig(**K3, ctx=GF2, mode=Mode.SLFR), audit_security, 8),
    ],
)
def test_a_fixed_key_image_is_counted_by_class(monkeypatch, cfg, audit, realizations):
    # under LFR and SLFR no row has a slot W_i * r_x, so the key image is
    # one subspace at every W: each failing audit counts one point per file
    # realization, at r = 0, with no identity pass
    calls = count_passes(monkeypatch)
    report = audit(cfg)
    assert not report.verdict and report.method == "enumeration"
    assert calls == {"r = 0": realizations}


def test_a_moving_key_image_is_walked_atom_by_atom(monkeypatch):
    # PLFR puts p_(k,n) * W_(n,i) in every multicast block, so the image
    # moves with W: 16 file realizations x 2^4 privacy-key values, and one
    # identity pass.  So does a delivery that drops the first block's key,
    # V_1, which then reaches no signal symbol and is held at 0
    calls = count_passes(monkeypatch)
    assert audit_security(small(mode=Mode.PLFR)).method == "enumeration"
    assert calls == {"key loop": 16 * 2**4, "identity passes": 1}
    calls.clear()
    drop_first_key(monkeypatch)
    assert audit_security(SMALL).method == "enumeration"
    assert calls == {"key loop": 16 * 2**4, "identity passes": 1}


def count_calls(monkeypatch, *names: str) -> Counter:
    """Count the calls the audit makes to each named engine function."""
    calls = Counter()
    for name in names:
        fn = getattr(splfr.audit, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(splfr.audit, name, counted)
    return calls


# -- certificate against enumeration -----------------------------------------

ALL_STAR = validate([[STAR, STAR]])
GF3 = FieldContext.prime(3)
GF2_BYTES = FieldContext.binary(1)

#: name -> (field, array, N, B).  GF(3) runs on smaller libraries: the
#: enumeration of man:2,1 with N = B = 2 over GF(3) has 1.6M atoms.  The
#: binary fields run the bytes kernel of GF(2^m), the others that of GF(p)
DIFFERENTIAL_INSTANCES = {
    "p:2-man:2,1-N2B2": (GF2, man_pda(2, 1), 2, 2),
    "p:2-allstar-N2B1": (GF2, ALL_STAR, 2, 1),
    "p:3-man:2,1-N1B2": (GF3, man_pda(2, 1), 1, 2),
    "p:3-allstar-N1B1": (GF3, ALL_STAR, 1, 1),
    "b:1-man:2,1-N1B2": (GF2_BYTES, man_pda(2, 1), 1, 2),
    "b:2-allstar-N1B1": (FieldContext.binary(2), ALL_STAR, 1, 1),
    "p:2-man:3,1-N1B3": (GF2, man_pda(3, 1), 1, 3),
}
#: name -> (field, array, N, B), on unit demands alone, which keep N = 2 in
#: reach over GF(3) and, on man:2,1, over GF(2) through the bytes kernel
UNIT_INSTANCES = {
    "p:3-allstar-N2B1": (GF3, ALL_STAR, 2, 1),
    "b:1-man:2,1-N2B2": (GF2_BYTES, man_pda(2, 1), 2, 2),
}


def differential_cases():
    for name, instance in DIFFERENTIAL_INSTANCES.items():
        for demand_space in ("all", "units"):
            for mode in Mode:
                yield pytest.param(
                    *instance, demand_space, mode, id=f"{name}-{demand_space}-{mode.value}"
                )
    for name, instance in UNIT_INSTANCES.items():
        for mode in Mode:
            yield pytest.param(*instance, "units", mode, id=f"{name}-units-{mode.value}")


def symbolic_verdicts(cfg: AuditConfig, subsets) -> list[bool]:
    """Correctness, security, then privacy per subset, decided on the formal model."""
    model = splfr.audit._formal_run(cfg)
    return [
        correctness_certificate(cfg, model) is None,
        security_certificate(cfg, model),
        *privacy_certificate(cfg, model, subsets),
    ]


def enumerated_verdicts(cfg: AuditConfig, subsets) -> list[bool]:
    model = splfr.audit._formal_run(cfg)
    return [
        enumerate_correctness(cfg).verdict,
        enumerate_security(cfg, model).verdict,
        *(report.verdict for report in enumerate_privacy(cfg, subsets, model)),
    ]


@pytest.mark.parametrize("ctx,arr,n,b,demand_space,mode", differential_cases())
def test_certificate_verdict_equals_enumeration(ctx, arr, n, b, demand_space, mode):
    cfg = AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode, demand_space=demand_space)
    users = range(1, arr.k + 1)
    subsets = [s for r in users for s in combinations(users, r)]
    assert symbolic_verdicts(cfg, subsets) == enumerated_verdicts(cfg, subsets)


@pytest.mark.parametrize("ctx,arr,n,b,demand_space,mode", differential_cases())
def test_symbolic_pass_implies_per_file_pass_implies_enumeration_pass(
    ctx, arr, n, b, demand_space, mode
):
    # the polynomials decide for every W: a pass on them is a pass at each W,
    # which the per-W certificates check on the concrete engine's models of
    # every W
    cfg = AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode, demand_space=demand_space)
    users = range(1, arr.k + 1)
    subsets = [s for r in users for s in combinations(users, r)]
    models = list(file_models(cfg))
    per_file = [
        per_file_correctness(cfg),
        per_file_security(cfg, models),
        *(per_file_privacy(cfg, models, subset) for subset in subsets),
    ]
    claims = zip(symbolic_verdicts(cfg, subsets), per_file, enumerated_verdicts(cfg, subsets))
    for i, (symbolic, per_w, enumerated) in enumerate(claims):
        assert per_w or not symbolic, i
        assert enumerated or not per_w, i


@pytest.mark.parametrize("ctx,arr,n,b,demand_space,mode", differential_cases())
def test_model_counts_equal_the_per_atom_walks(ctx, arr, n, b, demand_space, mode):
    # counted from the model at the probe files, the reports (verdict, atoms,
    # violations, counterexample) are those of an engine call per raw atom,
    # and per effective atom weighted by the raw atoms it stands for
    cfg = AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode, demand_space=demand_space)
    users = range(1, arr.k + 1)
    subsets = [s for r in users for s in combinations(users, r)]
    model = splfr.audit._formal_run(cfg)
    counted = enumerate_security(cfg, model), enumerate_privacy(cfg, subsets, model)
    for atoms in (raw_atoms, weighted_atoms):
        walked = walk_security(cfg, atoms(cfg)), walk_privacy(cfg, subsets, atoms(cfg))
        assert counted == walked, atoms.__name__


@pytest.mark.parametrize("mode,position", [(Mode.PLFR, 33 * 16 + 2), (Mode.SLFR, 48 * 16 + 2)])
def test_failure_behind_a_nonzero_key_is_placed_in_the_raw_walk(monkeypatch, mode, position):
    # a delivery that breaks the first block only at a nonzero effective key,
    # files past the first and a second user's nonzero demand.  The first
    # failure is at file realization 1, demand tuple 1 and the first r with
    # an active symbol set, r = e_5 in PLFR (rank 1) and e_1 in SLFR (rank
    # 16 of 32): raw position (32 * 1 + rank) * 16 + 1 + 1
    deliver_ = splfr.audit.deliver

    def faulty(state, demands):
        payload = deliver_(state, demands)
        keys = chain(*state.randomness.security_keys, *state.randomness.privacy_vectors)
        if any(keys) and any(state.library.files[-1]) and any(demands[-1]):
            flipped = tuple(GF2.add(x, 1) for x in payload.blocks[0])
            payload = payload._replace(blocks=(flipped,) + payload.blocks[1:])
        return payload

    monkeypatch.setattr(splfr.audit, "deliver", faulty)
    report = enumerate_correctness(small(mode=mode))
    assert (report.verdict, report.atoms) == (False, position)


def drop_first_key(monkeypatch):
    """Patch the audit's delivery to forget to pad the first multicast block."""
    deliver_ = splfr.audit.deliver

    def leaky(state, demands):
        payload = deliver_(state, demands)
        first = vec_sub(state.library.ctx, payload.blocks[0], state.randomness.security_keys[0])
        return payload._replace(blocks=(first,) + payload.blocks[1:])

    monkeypatch.setattr(splfr.audit, "deliver", leaky)
    return leaky


def test_dropped_security_key_is_caught(monkeypatch):
    drop_first_key(monkeypatch)
    assert not security_certificate(SMALL, splfr.audit._formal_run(SMALL))
    assert not per_file_security(SMALL, file_models(SMALL))
    report = audit_security(SMALL)
    assert not report.verdict and report.method == "enumeration"
    assert report.violations > 0 and report.counterexample is not None
    # the decoders cancel a key that is no longer there: user 1 fails at the
    # first key-basis point of the first probe file, the first failing raw atom
    report = audit_correctness(SMALL)
    assert report.to_dict() == {
        "verdict": "fail",
        "atoms": 8192,
        "violations": 1,
        "counterexample": {
            "files": [[0, 0], [0, 0]],
            "security_keys": [[1]],
            "privacy_vectors": [[0, 0], [0, 0]],
            "demands": [[0, 0], [0, 0]],
            "user": 1,
        },
        "method": "certificate",
    }
    assert report.counterexample == enumerate_correctness(SMALL).counterexample


def add_w_times_d(monkeypatch):
    """Patch the audit's delivery to add W_1 * d_(K,N) to the first multicast block."""
    deliver_ = splfr.audit.deliver

    def faulty(state, demands):
        payload = deliver_(state, demands)
        ctx, (first, *rest) = state.library.ctx, payload.blocks[0]
        first = ctx.add(first, ctx.mul(state.library.files[0][0], demands[-1][-1]))
        return payload._replace(blocks=((first, *rest),) + payload.blocks[1:])

    monkeypatch.setattr(splfr.audit, "deliver", faulty)
    return faulty


@pytest.mark.parametrize("fault", [drop_first_key, add_w_times_d])
@pytest.mark.parametrize(
    "cfg",
    [
        SMALL,
        small(demand_space="units"),
        AuditConfig(pda=man_pda(3, 1), n=3, b=3, ctx=GF2),
        AuditConfig(pda=man_pda(3, 1), n=3, b=3, ctx=FieldContext.parse("b:8")),
    ],
    ids=["man:2,1-p:2", "man:2,1-p:2-units", "man:3,1-p:2", "man:3,1-b:8"],
)
def test_the_reported_atom_fails_when_replayed(monkeypatch, cfg, fault):
    # the certificate names its atom at any size: man:3,1 with N = B = 3 has
    # 2^30 atoms over GF(2) and 2^240 over GF(2^8), past any atom budget;
    # under unit demands the atom's demands come through d_(k,1) = 1 - the
    # rest, which the W_1 * d_(K,N) fault sets at a slot with a symbol of W
    # and one of d
    leaky = fault(monkeypatch)
    start = time.perf_counter()
    report = audit_correctness(cfg)
    assert time.perf_counter() - start < 1
    assert (report.verdict, report.atoms, report.violations, report.method) == (
        False, cfg.atom_count, 1, "certificate"
    )
    # rebuild the atom outside the audit and decode it for the named user
    atom = report.counterexample
    library = Library(cfg.ctx, tuple(map(tuple, atom["files"])))
    r = chain(*atom["security_keys"], *atom["privacy_vectors"])
    state = place(cfg.pda, library, Randomness.of(cfg.pda, cfg.n, cfg.b, r), cfg.mode)
    demands = tuple(map(tuple, atom["demands"]))
    if cfg.demand_space == "units":  # decode checks that a demand is a field vector of length N
        assert all(d in cfg.demand_vectors() for d in demands)
    k = atom["user"] - 1
    assert decode(state.user_view(k), leaky(state, demands), demands[k]) != library.combine(
        demands[k]
    )


def branch_on_the_keys(state, demands) -> bool:
    """A branch on data: a nonzero effective key, files past the first, a second user's demand."""
    keys = chain(*state.randomness.security_keys, *state.randomness.privacy_vectors)
    return any(keys) and any(state.library.files[-1]) and any(demands[-1])


def branch_on_a_demand(state, demands) -> bool:
    """A branch on data by equality: the second user's first demand symbol is 1."""
    return demands[-1][0] == 1


@pytest.mark.parametrize("branch", [branch_on_the_keys, branch_on_a_demand])
def test_a_branch_on_data_is_refused(monkeypatch, capsys, branch):
    # the delivery flips the first block behind a branch on data, which the
    # raw walk fails.  No one polynomial models it, so the formal run refuses
    # it: the first branch, a test of truth, is exact at every probe point
    # (a zero key, zero files or a zero demand there) and so passed the
    # probe-point certificates; the second, a test of equality, would take
    # its untaken arm for every formal value if it were not refused too
    deliver_ = splfr.audit.deliver

    def faulty(state, demands):
        payload = deliver_(state, demands)
        if branch(state, demands):
            flipped = tuple(GF2.add(x, 1) for x in payload.blocks[0])
            payload = payload._replace(blocks=(flipped,) + payload.blocks[1:])
        return payload

    monkeypatch.setattr(splfr.audit, "deliver", faulty)
    cfg = small(mode=Mode.PLFR)
    assert not enumerate_correctness(cfg).verdict
    for audit in (audit_correctness, audit_security, audit_privacy):
        with pytest.raises(AuditError, match="branches on a formal value"):
            audit(cfg)
    args = ["audit", "correctness", "--pda", "man:2,1", "--n", "2", "--b", "2", "--mode", "plfr"]
    assert cli.main(args) == 1
    assert "branches on a formal value" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("field, op", [("p:2", "+"), ("b:1", "^")])
def test_arithmetic_outside_the_context_is_refused(monkeypatch, capsys, field, op):
    # a delivery that flips the first symbol with a field context of its own,
    # not the state's: the formal value refuses the operator that field's add
    # applies, so the audit ends in a JSON error, not a traceback
    deliver_, outside = splfr.audit.deliver, FieldContext.parse(field)

    def faulty(state, demands):
        payload = deliver_(state, demands)
        (first, *rest), *others = payload.blocks
        return payload._replace(blocks=((outside.add(first, 1), *rest), *others))

    monkeypatch.setattr(splfr.audit, "deliver", faulty)
    args = ["audit", "correctness", "--pda", "man:2,1", "--n", "2", "--b", "2", "--field", field]
    assert cli.main(args) == 1
    refusal = f"the engine applies {op} to a formal value outside its context"
    assert json.loads(capsys.readouterr().out)["error"].startswith(refusal)


@pytest.mark.parametrize(
    "misuse, named",
    [
        (lambda x: x + 1, "applies \\+"),
        (lambda x: 1 - x, "applies -"),
        (lambda x: 2 * x, "applies \\*"),
        (lambda x: x ^ 1, "applies \\^"),
        (lambda x: x % 2, "applies %"),
        (lambda x: -x, "applies unary -"),
        (lambda x: x // 2, "applies //"),
        (lambda x: 3 // x, "applies //"),
        (lambda x: x / 2, "applies /"),
        (lambda x: 1 / x, "applies /"),
        (lambda x: divmod(x, 2), "applies divmod\\(\\)"),
        (lambda x: divmod(2, x), "applies divmod\\(\\)"),
        (lambda x: x ** 2, "applies \\*\\*"),
        (lambda x: 2 ** x, "applies \\*\\*"),
        (lambda x: pow(x, 2, 3), "applies \\*\\*"),
        (lambda x: x & 1, "applies &"),
        (lambda x: 1 & x, "applies &"),
        (lambda x: x | {}, "applies \\|"),
        (lambda x: {} | x, "applies \\|"),
        (lambda x: operator.ior(x, {}), "applies \\|"),
        (lambda x: x << 1, "applies <<"),
        (lambda x: 1 << x, "applies <<"),
        (lambda x: x >> 1, "applies >>"),
        (lambda x: 1 >> x, "applies >>"),
        (lambda x: ~x, "applies ~"),
        (lambda x: +x, "applies unary \\+"),
        (abs, "applies abs\\(\\)"),
        (lambda x: (0, 1)[x], "uses a formal value as an integer"),
        (hash, "hashes"),
        (bool, "branches on"),
        (lambda x: 1 != x, "branches on"),
        (lambda x: x < 1, "branches on"),
        (lambda x: 0 >= x, "branches on"),
    ],
    ids=["add", "rsub", "rmul", "xor", "mod", "neg", "floordiv", "rfloordiv", "truediv",
         "rtruediv", "divmod", "rdivmod", "pow", "rpow", "pow3", "and", "rand", "or-dict",
         "ror-dict", "ior-dict", "lshift", "rlshift", "rshift", "rrshift", "invert", "pos", "abs",
         "index", "hash", "bool", "ne", "lt", "rge"],
)
def test_a_formal_value_refuses_its_misuse(misuse, named):
    x = splfr.audit._formal_run(SMALL).signal[0]
    with pytest.raises(AuditError, match=f"^the engine {named}"):
        misuse(x)


def test_the_formal_gathered_is_its_composition():
    # the twin of FieldContext.gathered is, term by term and slot by slot,
    # the layers gathered from lincombs and added by lincomb
    formal, width = splfr.audit._Formal(SMALL), splfr.audit._layout(SMALL)[3]
    poly = splfr.audit._Poly
    w = [poly({width * (i + 1): 1}) for i in range(4)]  # W-monomials
    r = [poly({1: 1}), poly({2: 1, 3: 1})]  # symbols of (r, d)
    rows = [(r[0], 1), (r[1], r[0]), (0, 0)]
    vectors = [(w[0], w[1], 0, 1), (w[2], 1, w[3], w[0])]
    for layers in ([[(0, 1), None]], [[(0, 1), None], [(1, 0), (0, 0)], [(2, 1), (1, 1)]]):
        got = formal.gathered(rows, vectors, layers, 2)
        want = composed_gathered(formal, rows, vectors, layers, 2)
        assert [[*p.items()] for p in got] == [[*p.items()] for p in want]
        assert any(p for p in map(dict, want))


@pytest.mark.parametrize("ctx,arr,n,b,demand_space,mode", differential_cases())
def test_the_formal_gathered_is_its_composition_in_every_run(
    monkeypatch, ctx, arr, n, b, demand_space, mode
):
    # each gathered call of a formal run sums, slot for slot and in slot
    # order, what lincombs, a gather per layer and lincomb would give
    cfg = AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode, demand_space=demand_space)
    gathered, calls = splfr.audit._Formal.gathered, []

    def checked(self, rows, vectors, layers, size):
        got = gathered(self, rows, vectors, layers, size)
        want = composed_gathered(self, rows, vectors, layers, size)
        assert [[*p.items()] for p in got] == [[*p.items()] for p in want]
        calls.append(len(layers))
        return got

    monkeypatch.setattr(splfr.audit._Formal, "gathered", checked)
    splfr.audit._formal_run(cfg)
    assert bool(calls) == (arr.s > 0)  # deliver makes one where there is a symbol


def test_the_formal_gathered_refuses_the_picks_its_composition_does():
    # a pick or size that the gather of a layer refuses is refused, and any
    # other summed alike; no layers, or layers of unequal count, are refused
    formal, poly = splfr.audit._Formal(SMALL), splfr.audit._Poly
    width = splfr.audit._layout(SMALL)[3]
    rows, vectors = [(poly({1: 1}), 1), (1, 1)], [(poly({width: 1}), 0, 1, 1), (0, 1, 1, 0)]
    picks = [(a, x) for a in (-1, 0, 1, 2, 0.0) for x in (-2, -1, 0, 1, 2, 0.0)]
    refused = 0
    for size in (1, 2, 3, 0, -1, 2.0):
        for pick in [*picks, (), (0,), None]:
            outcomes = []
            for gathered in (formal.gathered, partial(composed_gathered, formal)):
                try:
                    out = gathered(rows, vectors, [[pick, None], [None, (0, 0)]], size)
                    outcomes.append([[*p.items()] for p in out])
                except FieldError:
                    outcomes.append(FieldError)
            assert outcomes[0] == outcomes[1], (pick, size)
            refused += outcomes[0] is FieldError
    assert 0 < refused < 6 * (len(picks) + 3)
    for layers in ([], [[(0, 0)], [(0, 0), (0, 1)]]):
        for gathered in (formal.gathered, partial(composed_gathered, formal)):
            with pytest.raises((FieldError, AuditError)):
                gathered(rows, vectors, layers, 1)


def test_the_formal_lincombs_checks_each_coefficient_it_lifts_once():
    # an int coefficient is lifted once a call, and a float equal to it is
    # still refused, as the field refuses it
    formal, x = splfr.audit._Formal(SMALL), splfr.audit._Poly({1: 1})
    same = formal.lincombs([(1, 1), (1, 0)], [(x,), (x,)])
    assert [[[*p.items()] for p in row] for row in same] == [[[]], [[(1, 1)]]]
    for bad in (1.0, 2, -1):
        with pytest.raises(FieldError):
            formal.lincombs([(1,), (bad,)], [(x,)])


def test_the_formal_split_refuses_the_counts_the_field_does():
    # the formal run cuts a vector into the packets the engine's context
    # does, and refuses every count that context refuses
    formal, ctx, v = splfr.audit._Formal(SMALL), SMALL.ctx, (1, 0, 1, 1)
    refused = 0
    for count in (1, 2, 4, 3, 8, 0, -1, -4, 2.0, None, "2"):
        outcomes = []
        for context in (ctx, formal):
            try:
                outcomes.append(tuple(map(tuple, context.split(v, count))))
            except FieldError:
                outcomes.append(FieldError)
        assert outcomes[0] == outcomes[1], count
        refused += outcomes[0] is FieldError
    assert refused == 8


def test_the_formal_gather_refuses_the_picks_the_field_does():
    # the formal run models an engine as it runs: a pick or size that the
    # field's gather refuses is refused, and any other laid out alike
    formal, ctx = splfr.audit._Formal(SMALL), SMALL.ctx
    vectors = [(1, 0, 1, 1), (0, 1)]
    picks = [(a, x) for a in (-1, 0, 1, 2, 0.0) for x in (-2, -1, 0, 1, 2, 0.0)]
    refused = 0
    for size in (1, 2, 3, 0, -1, 2.0):
        for pick in [*picks, (), (0,), None]:
            outcomes = []
            for context in (ctx, formal):
                try:
                    outcomes.append(tuple(context.gather(vectors, [pick, None], size)))
                except FieldError:
                    outcomes.append(FieldError)
            assert outcomes[0] == outcomes[1], (pick, size)
            refused += outcomes[0] is FieldError
    assert 0 < refused < 6 * (len(picks) + 3)


@pytest.mark.parametrize("ctx,arr,n,b,demand_space,mode", differential_cases())
def test_the_run_masks_the_keys_effective_masks(ctx, arr, n, b, demand_space, mode):
    # the walk holds at 0 each symbol of r with no slot in the rows it
    # reads: some signal or cache row has a slot in a symbol iff it is active
    cfg = AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode, demand_space=demand_space)
    model, width = splfr.audit._formal_run(cfg), splfr.audit._layout(cfg)[3]
    seen = {s % width for row in chain(model.signal, *model.caches) for s in row}
    active = active_symbols(cfg)
    assert [x in seen for x in range(1, 1 + len(active))] == list(active)


def _v1_p11(state, demands):
    keys = state.randomness
    return state.library.ctx.mul(keys.security_keys[0][0], keys.privacy_vectors[0][0])


def _d11_p11(state, demands):
    return state.library.ctx.mul(demands[0][0], state.randomness.privacy_vectors[0][0])


def _w1_w2(state, demands):
    (w1, w2), _ = state.library.files
    return state.library.ctx.mul(w1, w2)


@pytest.mark.parametrize(
    "term, monomial",
    [(_v1_p11, "V_1*p_(1,1)"), (_d11_p11, "p_(1,1)*d_(1,1)"), (_w1_w2, "W_1*W_2")],
    ids=["r*r", "r*d", "W*W"],
)
def test_a_monomial_past_the_premise_is_refused(monkeypatch, term, monomial):
    # a delivery that adds a product of two key symbols, of a key and a
    # demand symbol, or of two file symbols to the first block: the engine
    # is no longer bi-affine, and no audit certifies it
    deliver_ = splfr.audit.deliver

    def faulty(state, demands):
        payload = deliver_(state, demands)
        ctx, (first, *rest) = state.library.ctx, payload.blocks[0]
        block = (ctx.add(first, term(state, demands)), *rest)
        return payload._replace(blocks=(block,) + payload.blocks[1:])

    monkeypatch.setattr(splfr.audit, "deliver", faulty)
    for audit in (audit_correctness, audit_security, audit_privacy):
        refusal = re.escape(f"not bi-affine: it yields the monomial {monomial}")
        with pytest.raises(AuditError, match=refusal):
            audit(SMALL)


def test_a_key_that_some_files_cancel_is_caught(monkeypatch):
    # user 2's coefficient vector carries f(W) * p_2 + d_2, f(W) = 1 + W_1 + W_2
    # over GF(3).  f is nonzero at every probe file, so the per-W tests pass
    # there, but at W = (1, 1) it is 0 and user 2's demand shows
    cfg = AuditConfig(pda=ALL_STAR, n=2, b=1, ctx=GF3, demand_space="units")
    deliver_ = splfr.audit.deliver

    def scaled(state, demands):
        payload = deliver_(state, demands)
        ctx, ((w1,), (w2,)) = state.library.ctx, state.library.files
        first, second = payload.coeff_vectors
        f_less_1, p_2 = ctx.add(w1, w2), state.randomness.privacy_vectors[1]
        second = tuple(ctx.add(x, ctx.mul(f_less_1, p)) for x, p in zip(second, p_2))
        return payload._replace(coeff_vectors=(first, second))

    monkeypatch.setattr(splfr.audit, "deliver", scaled)
    models = [file_model(cfg, w) for w in probe_libraries(cfg)]
    assert all(per_file_security(cfg, [m]) and per_file_privacy(cfg, [m], [1]) for m in models)
    model = splfr.audit._formal_run(cfg)
    assert not security_certificate(cfg, model)
    assert privacy_certificate(cfg, model, [[1]]) == [False]
    for report in (audit_security(cfg), audit_privacy(cfg, [1])):
        assert not report.verdict and report.method == "enumeration"


# -- the bi-affine premise against the concrete engine -------------------------

PARSED = parse_pda("PDA K=3 F=2\n* 1 2\n1 * *\n")
PREMISE_ARRAYS = {
    "man:2,1": man_pda(2, 1),
    "toy-grid": validate(TOY_GRID),
    "all-star": ALL_STAR,
    "parsed": PARSED,
}
PREMISE_FIELDS = [FieldContext.parse(spec) for spec in ("p:2", "p:3", "p:65521", "b:1", "b:8")]


PREMISE = (
    st.sampled_from(sorted(PREMISE_ARRAYS)),
    st.sampled_from(PREMISE_FIELDS),
    st.sampled_from(list(Mode)),
    st.sampled_from(["all", "units"]),
    st.integers(1, 3),  # N
    st.integers(1, 2),  # block length B/F
    st.integers(0, 2**32 - 1),  # seed of the files, keys and demands
)


def premise_instance(name, ctx, mode, demand_space, n, block, seed):
    """A config and a random (files, keys, demands) point of it."""
    arr, rng = PREMISE_ARRAYS[name], random.Random(seed)
    cfg = AuditConfig(
        pda=arr, n=n, b=arr.f * block, ctx=ctx, mode=mode, demand_space=demand_space
    )
    library = Library.random(ctx, n, cfg.b, rng)
    keys = Randomness.generate(arr, n, cfg.b, ctx, rng)
    if demand_space == "units":
        demands = tuple(cfg.demand_vectors()[rng.randrange(n)] for _ in range(arr.k))
    else:  # drawn, not listed: GF(65521)^3 has 2.8e14 vectors
        demands = tuple(ctx.random_vector(n, rng) for _ in range(arr.k))
    return cfg, library, keys, demands


@settings(max_examples=160, deadline=None)
@given(*PREMISE)
def test_engine_is_the_affine_model(name, ctx, mode, demand_space, n, block, seed):
    # what the certificates read, against the engine they certify: the formal
    # run's polynomials, evaluated at random files, keys and demands, are the
    # signal, caches and decoding errors of the concrete engine there
    cfg, library, keys, demands = premise_instance(name, ctx, mode, demand_space, n, block, seed)
    model = splfr.audit._formal_run(cfg)
    engine = outputs(place(cfg.pda, library, keys, mode), demands)
    assert evaluate(cfg, model, library, keys, demands) == engine


@settings(max_examples=160, deadline=None)
@given(*PREMISE)
def test_engine_is_affine_in_the_files(name, ctx, mode, demand_space, n, block, seed):
    # for fixed (r, d), the model is the engine at the random files and at
    # each probe file W = 0, e_1, ..., e_(N*B), which span the files affinely
    cfg, library, keys, demands = premise_instance(name, ctx, mode, demand_space, n, block, seed)
    model = splfr.audit._formal_run(cfg)
    probes = list(probe_libraries(cfg))
    assert len(probes) == 1 + n * cfg.b
    for files in (library, *probes):
        engine = outputs(place(cfg.pda, files, keys, mode), demands)
        assert evaluate(cfg, model, files, keys, demands) == engine
