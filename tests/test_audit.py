"""Tests for the exact audits: rank certificates and the enumeration oracle."""

import random
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

import splfr.audit
from splfr.audit import (
    AuditConfig,
    AuditError,
    BudgetExceeded,
    audit_correctness,
    audit_privacy,
    audit_security,
    correctness_certificate,
    enumerate_correctness,
    enumerate_privacy,
    enumerate_security,
    factorization_violations,
    file_model,
    file_models,
    privacy_certificate,
    security_certificate,
)
from splfr.cli import TOY_GRID
from splfr.engine import DeliveryPayload, Library, Mode, Randomness, deliver, place
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
        cfg = small(budget=100)
        with pytest.raises(BudgetExceeded):
            audit_security(cfg)

    def test_probe_count(self):
        # per file realization: the offset, S*L + K*N = 5 key moves and K*N = 4
        # demand moves, or K*(N-1) = 2 over unit demands
        assert SMALL.probe_count == 16 * 10
        assert small(demand_space="units").probe_count == 16 * 8

    def test_probe_bases_are_built_once_per_config(self):
        # the 16 file realizations share one key basis and one set of demand moves
        splfr.audit._key_basis.cache_clear()
        splfr.audit._demand_moves.cache_clear()
        assert len(list(file_models(SMALL))) == 16
        assert splfr.audit._key_basis.cache_info().misses == 1
        assert splfr.audit._demand_moves.cache_info().misses == 1

    def test_too_many_file_realizations_are_refused_before_the_bases(self):
        # 2^9000 file realizations: refused without a basis of 9,009 points
        # each holding a 3,000-symbol unit vector
        cfg = AuditConfig(pda=man_pda(3, 1), n=3, b=3000, ctx=GF2)
        splfr.audit._key_basis.cache_clear()
        with pytest.raises(BudgetExceeded, match="file realizations exceed budget"):
            audit_security(cfg)
        assert splfr.audit._key_basis.cache_info().misses == 0

    def test_certificates_are_budgeted_by_their_probe_points(self):
        # 8192 atoms, but 160 probe points, and 3 x 160 for every subset
        cfg = small(budget=200)
        assert audit_security(cfg).method == "certificate"
        assert audit_privacy(cfg, [1]).method == "certificate"
        with pytest.raises(BudgetExceeded, match="480 subset-probe points exceed budget 200"):
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
        # LFR fails at the first file realization, whose 13 placements and 22
        # deliveries are all that run: the 2^30 atoms are refused unvisited
        cfg = AuditConfig(pda=man_pda(3, 1), n=3, b=3, ctx=GF2, mode=Mode.LFR)
        calls = count_calls(monkeypatch, "place", "deliver")
        with pytest.raises(BudgetExceeded, match="1073741824 atoms exceed budget"):
            audit_security(cfg)
        assert calls == {"place": 13, "deliver": 22}

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
        assert lfr == enumerate_security(small(mode=Mode.LFR))
        slfr = audit_privacy(small(mode=Mode.SLFR), [1])
        assert (slfr.verdict, slfr.atoms, slfr.violations) == (False, 8192, 2048)
        assert [slfr] == enumerate_privacy(small(mode=Mode.SLFR), [[1]])
        assert slfr.counterexample is not None

    def test_certificate_probes_an_affine_basis(self, monkeypatch):
        # 1 + S*L + K*N = 6 placements per file realization, not one per
        # (files, randomness) pair
        calls = []
        place_ = splfr.audit.place

        def counted(*args):
            calls.append(1)
            return place_(*args)

        monkeypatch.setattr(splfr.audit, "place", counted)
        assert audit_security(SMALL).method == "certificate"
        assert len(calls) == 16 * 6

    def test_failing_subsets_share_one_traversal(self, monkeypatch):
        # SLFR fails for the subsets {1} and {2}: after the certificate
        # probes (6 placements and 10 deliveries per file realization), both
        # are counted from one pass over the 512 placements and 8192 atoms
        calls = count_calls(monkeypatch, "place", "deliver")
        report = audit_privacy(small(mode=Mode.SLFR))
        assert not report.verdict and report.method == "enumeration"
        assert calls == {"place": 16 * 6 + 512, "deliver": 16 * 10 + 8192}

    def test_passing_subsets_are_not_enumerated(self, monkeypatch):
        calls = count_calls(monkeypatch, "place", "deliver")
        assert audit_privacy(SMALL).method == "certificate"
        assert calls == {"place": 16 * 6, "deliver": 16 * 10}


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

#: name -> (field, array, N, B).  GF(3) runs on smaller libraries: the
#: enumeration of man:2,1 with N = B = 2 over GF(3) has 1.6M atoms
DIFFERENTIAL_INSTANCES = {
    "p:2-man:2,1-N2B2": (GF2, man_pda(2, 1), 2, 2),
    "p:2-allstar-N2B1": (GF2, ALL_STAR, 2, 1),
    "p:3-man:2,1-N1B2": (GF3, man_pda(2, 1), 1, 2),
    "p:3-allstar-N1B1": (GF3, ALL_STAR, 1, 1),
}


def differential_cases():
    for name, instance in DIFFERENTIAL_INSTANCES.items():
        for demand_space in ("all", "units"):
            for mode in Mode:
                yield pytest.param(
                    *instance, demand_space, mode, id=f"{name}-{demand_space}-{mode.value}"
                )
    # unit demands keep N = 2 in reach over GF(3)
    for mode in Mode:
        yield pytest.param(
            GF3, ALL_STAR, 2, 1, "units", mode, id=f"p:3-allstar-N2B1-units-{mode.value}"
        )


@pytest.mark.parametrize("ctx,arr,n,b,demand_space,mode", differential_cases())
def test_certificate_verdict_equals_enumeration(ctx, arr, n, b, demand_space, mode):
    cfg = AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode, demand_space=demand_space)
    models = list(file_models(cfg, decoded=True))
    assert correctness_certificate(models) == enumerate_correctness(cfg).verdict
    assert security_certificate(cfg, models) == enumerate_security(cfg).verdict
    users = range(1, arr.k + 1)
    subsets = [s for r in users for s in combinations(users, r)]
    for subset, report in zip(subsets, enumerate_privacy(cfg, subsets)):
        enumerated = report.verdict
        assert privacy_certificate(cfg, models, subset) == enumerated, subset


def test_dropped_security_key_is_caught(monkeypatch):
    # a delivery that forgets to pad the first multicast block
    deliver_ = splfr.audit.deliver

    def leaky(state, demands):
        payload = deliver_(state, demands)
        ctx, key = state.library.ctx, state.randomness.security_keys[0]
        first = tuple(map(ctx.sub, payload.blocks[0], key))
        return payload._replace(blocks=(first,) + payload.blocks[1:])

    monkeypatch.setattr(splfr.audit, "deliver", leaky)
    assert not security_certificate(SMALL, file_models(SMALL))
    report = audit_security(SMALL)
    assert not report.verdict and report.method == "enumeration"
    assert report.violations > 0 and report.counterexample is not None
    # the decoders cancel a key that is no longer there
    assert not correctness_certificate(file_models(SMALL, decoded=True))
    report = audit_correctness(SMALL)
    assert not report.verdict and report.counterexample is not None


# -- the bi-affine premise ---------------------------------------------------

PREMISE_ARRAYS = {"man:2,1": man_pda(2, 1), "toy-grid": validate(TOY_GRID)}
PREMISE_FIELDS = [FieldContext.parse(spec) for spec in ("p:2", "p:3", "b:2")]


@settings(max_examples=160, deadline=None)
@given(
    st.sampled_from(sorted(PREMISE_ARRAYS)),
    st.sampled_from(PREMISE_FIELDS),
    st.sampled_from(list(Mode)),
    st.sampled_from(["all", "units"]),
    st.integers(1, 3),  # N
    st.integers(1, 2),  # block length B/F
    st.integers(0, 2**32 - 1),  # seed of the files, keys and demands
)
def test_engine_is_the_affine_model(name, ctx, mode, demand_space, n, block, seed):
    # what the certificates rest on: for fixed files, the engine at (r, d) is
    # the offset, plus r_i times key part i, plus d_j[t] times the part of
    # user j's move to file t
    arr, rng = PREMISE_ARRAYS[name], random.Random(seed)
    cfg = AuditConfig(
        pda=arr, n=n, b=arr.f * block, ctx=ctx, mode=mode, demand_space=demand_space
    )
    library = Library.random(ctx, n, cfg.b, rng)
    keys = Randomness.generate(arr, n, cfg.b, ctx, rng)
    demands = tuple(rng.choice(cfg.demand_vectors()) for _ in range(arr.k))
    model = file_model(cfg, library, decoded=True)
    engine = splfr.audit._point(place(arr, library, keys, mode), demands, decoded=True)

    moved = range(1, n) if demand_space == "units" else range(n)
    coeffs = [
        *chain.from_iterable(keys.security_keys),
        *chain.from_iterable(keys.privacy_vectors),
        *(d[t] for d in demands for t in moved),
    ]
    parts = [*model.keys, *(part for _, part in model.demands)]

    def affine(read):
        return ctx.lincomb([1, *coeffs], [read(model.offset), *map(read, parts)])

    assert engine.signal == affine(lambda p: p.signal)
    for k in range(arr.k):
        assert engine.caches[k] == affine(lambda p: p.caches[k])
        assert engine.errors[k] == affine(lambda p: p.errors[k])
