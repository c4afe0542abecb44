"""Tests for placement, delivery, decoding, and key update."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import splfr.engine
from splfr.engine import (
    DeliveryPayload,
    EngineError,
    Library,
    Mode,
    NonDivisibleB,
    Randomness,
    decode,
    deliver,
    measure,
    place,
    update_round,
)
from splfr.field import FieldContext, FieldError, Packed
from splfr.pda import STAR, man_pda, memory_load, parse_pda, validate

from oracle import combine as oracle_combine, privacy_key, split

GF2 = FieldContext.prime(2)
GF3 = FieldContext.prime(3)
GF256 = FieldContext.binary(8)

TOY = validate(
    (
        (STAR, 1, 2),
        (1, STAR, 3),
        (2, 3, STAR),
    )
)


def unit_demands(k, n):
    return tuple(tuple(1 if i == (j % n) else 0 for i in range(n)) for j in range(k))


def make_state(arr, n, b, ctx, seed, mode=Mode.SPLFR):
    rng = random.Random(seed)
    library = Library.random(ctx, n, b, rng)
    randomness = Randomness.generate(arr, n, b, ctx, rng)
    return place(arr, library, randomness, mode)


class TestSplit:
    def test_three_packets(self):
        assert split((1, 2, 3), 3) == ((1,), (2,), (3,))

    def test_identity(self):
        assert split((4, 5, 6), 1) == ((4, 5, 6),)

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleB):
            split((1, 2, 3, 4), 3)

    def test_concatenation_inverts(self):
        file = tuple(range(12))
        packets = split(file, 4)
        assert tuple(x for pkt in packets for x in pkt) == file


class TestSplitOnce:
    def test_place_splits_each_file_once_and_deliver_never(self, monkeypatch):
        calls = []
        field_split = FieldContext.split

        def counting_split(self, v, f):
            calls.append(v)
            return field_split(self, v, f)

        monkeypatch.setattr(FieldContext, "split", counting_split)
        arr = man_pda(3, 1)
        state = make_state(arr, 4, 6, GF2, seed=61)
        assert calls == list(state.library.files)
        for i, row in enumerate(state.rows):
            for n, packet in enumerate(row):
                assert packet == split(state.library.files[n], arr.f)[i]
        demands = unit_demands(3, 4)
        deliver(state, demands)
        assert len(calls) == 4
        zeros = tuple((0, 0) for _ in range(arr.s))
        assert update_round(state, demands, zeros, (0, 0, 0)).rows is state.rows
        assert len(calls) == 4

    def test_place_packs_each_packet_once_and_deliver_decode_never(self, monkeypatch):
        # over GF(2^8) the kernel reads each vector's bytes packing; every
        # packing goes through FieldContext._packing, whether asked for with
        # pack or made on the fly by lincomb for a plain tuple
        packs, packings = [], []
        pack, packing = FieldContext.pack, FieldContext._packing

        def counting_pack(self, v):
            packs.append(v)
            return pack(self, v)

        def counting_packing(self, v):
            packings.append(v)
            return packing(self, v)

        monkeypatch.setattr(FieldContext, "pack", counting_pack)
        monkeypatch.setattr(FieldContext, "_packing", counting_packing)
        arr, n = man_pda(3, 1), 4
        state = make_state(arr, n, 6, GF256, seed=62)
        files = list(state.library.files)
        packets = [packet for row in state.rows for packet in row]
        keys = list(state.randomness.security_keys)
        # once per file (N, as the library is built) and once per security
        # key (S); the packets are slices of the files' packings, never
        # packed or checked again
        assert len(packets) == n * arr.f
        assert sorted(packs) == sorted(files + keys) == sorted(packings)
        assert all(isinstance(v, Packed) for v in files + packets + keys)
        for cache in state.caches:
            assert all(isinstance(v, Packed) for v in cache.coded.values())
        demands = tuple(GF256.random_vector(n, random.Random(k)) for k in range(arr.k))
        expected = [state.library.combine(d) for d in demands]
        del packs[:], packings[:]

        payload = deliver(state, demands)
        assert all(isinstance(block, Packed) for block in payload.blocks)
        for k in range(arr.k):
            assert decode(state.user_view(k), payload, demands[k]) == expected[k]
        assert packs == packings == []

        fresh = tuple(GF256.random_vector(2, random.Random(s)) for s in range(arr.s))
        new = update_round(state, demands, fresh, (1, 2, 3))
        assert len(packs) == len(packings) == arr.s  # the refreshed keys only
        assert all(isinstance(v, Packed) for v in new.randomness.security_keys)


    def test_library_packs_each_file_once_and_combine_never(self, monkeypatch):
        packings = []
        packing = FieldContext._packing

        def counting_packing(self, v):
            packings.append(v)
            return packing(self, v)

        monkeypatch.setattr(FieldContext, "_packing", counting_packing)
        lib = Library.random(GF256, 5, 8, random.Random(63))
        assert sorted(packings) == sorted(lib.files)
        assert all(isinstance(f, Packed) for f in lib.files)
        del packings[:]
        for seed in range(4):
            demand = GF256.random_vector(5, random.Random(seed))
            assert lib.combine(demand) == oracle_combine(lib, demand)
        assert packings == []


class TestPrivacyKey:
    def test_unit_vector_selects_packet(self):
        lib = Library(GF3, ((1, 2, 0), (2, 0, 1)))
        arr = man_pda(3, 1)
        key = privacy_key(lib, arr, (0, 1), 2)
        assert key == split(lib.files[1], 3)[2]

    def test_zero_vector(self):
        lib = Library(GF3, ((1, 2, 0), (2, 0, 1)))
        assert privacy_key(lib, man_pda(3, 1), (0, 0), 0) == (0,)

    def test_gf2_is_xor_of_selected_packets(self):
        rng = random.Random(3)
        lib = Library.random(GF2, 4, 3, rng)
        p = (1, 0, 1, 1)
        for i in range(3):
            want = 0
            for n, coeff in enumerate(p):
                if coeff:
                    want ^= split(lib.files[n], 3)[i][0]
            assert privacy_key(lib, TOY, p, i) == (want,)


class TestPlace:
    def test_toy_cache_layout(self):
        state = make_state(TOY, 4, 3, GF2, seed=1)
        for k in range(3):
            cache = state.caches[k]
            # one starred row holding all four packets, two superposition keys
            assert set(cache.uncoded) == {k}
            assert len(cache.uncoded[k]) == 4
            assert set(cache.coded) == set(range(3)) - {k}

    def test_toy_superposition_values(self):
        state = make_state(TOY, 4, 3, GF2, seed=1)
        lib, rnd = state.library, state.randomness
        # user 1, row 2 carries symbol 1: record must equal V_1 + T_{2,1}
        t_block = privacy_key(lib, TOY, rnd.privacy_vectors[0], 1)
        want = GF2.vec_add(rnd.security_keys[0], t_block)
        assert state.caches[0].coded[1] == want

    def test_all_star_caches_everything(self):
        arr = validate([[STAR, STAR]])
        state = make_state(arr, 3, 4, GF3, seed=2)
        m, _ = memory_load(arr, 3)
        assert m == 3
        for cache in state.caches:
            assert cache.symbols == 3 * 4  # N * B symbols = M * B

    def test_lfr_mode_records_are_zero(self):
        state = make_state(TOY, 4, 3, GF2, seed=5, mode=Mode.LFR)
        for cache in state.caches:
            for block in cache.coded.values():
                assert all(v == 0 for v in block)

    def test_cache_budget_exact(self):
        for k, t, n, b in [(3, 1, 4, 3), (4, 2, 3, 12), (4, 0, 2, 1)]:
            arr = man_pda(k, t)
            state = make_state(arr, n, b, GF3, seed=9)
            want = (arr.z * n + arr.f - arr.z) * (b // arr.f)
            m, _ = memory_load(arr, n)
            for cache in state.caches:
                assert cache.symbols == want
                assert cache.symbols <= int(m * b)

    def test_shape_mismatch(self):
        rng = random.Random(0)
        lib = Library.random(GF2, 4, 3, rng)
        bad = Randomness.zeros(man_pda(4, 2), 4, 6)
        with pytest.raises(EngineError):
            place(TOY, lib, bad, Mode.SPLFR)

    def test_non_divisible_b(self):
        rng = random.Random(0)
        lib = Library.random(GF2, 4, 4, rng)
        rnd = Randomness.zeros(TOY, 4, 3)
        with pytest.raises(NonDivisibleB):
            place(TOY, lib, rnd, Mode.SPLFR)

    def test_keys_outside_field(self):
        lib = Library.random(GF2, 4, 3, random.Random(0))
        zero = Randomness.zeros(TOY, 4, 3)
        bad_keys = (
            Randomness(((2,),) + zero.security_keys[1:], zero.privacy_vectors),
            Randomness(zero.security_keys, ((0, 0, -1, 0),) + zero.privacy_vectors[1:]),
        )
        for rnd in bad_keys:
            with pytest.raises(FieldError):
                place(TOY, lib, rnd, Mode.SPLFR)


class TestLibrary:
    def test_symbols_outside_field(self):
        for files in (((5, 9), (0, 1)), ((0, 1), (1, -1))):
            with pytest.raises(FieldError):
                Library(GF2, files)
        assert Library(GF3, ((2, 0), (1, 1))).b == 2

    def test_zero_length_files(self):
        with pytest.raises(EngineError):
            Library(GF2, ((), ()))
        with pytest.raises(EngineError):
            Library.random(GF2, 2, 0, random.Random(1))


def toy_keys(privacy_vectors):
    """Zero security keys for TOY with N = 4, B = 3, and the given privacy vectors."""
    keys = Randomness(Randomness.zeros(TOY, 4, 3).security_keys, privacy_vectors)
    return keys.effective(TOY, 4, 3, GF2, Mode.SPLFR)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Library(GF2, ()), "at least one file"),
        (lambda: Library(GF2, ((0, 1), (1,))), "same length"),
        (lambda: toy_keys(((0,) * 4,) * 2), "expected 3 privacy vectors of length 4"),
        (lambda: toy_keys(((0,) * 3,) * 3), "expected 3 privacy vectors of length 4"),
    ],
    ids=["no-files", "unequal-files", "privacy-count", "privacy-length"],
)
def test_malformed_input_is_rejected(make, message):
    with pytest.raises(EngineError, match=message):
        make()


class TestDeliver:
    def test_coeffs_mask_demands(self):
        state = make_state(TOY, 4, 3, GF2, seed=4)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        for k in range(3):
            want = GF2.vec_add(state.randomness.privacy_vectors[k], demands[k])
            assert payload.coeff_vectors[k] == want

    def test_slfr_coeffs_equal_demands(self):
        state = make_state(TOY, 4, 3, GF2, seed=4, mode=Mode.SLFR)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        assert payload.coeff_vectors == demands

    def test_slfr_equals_zero_privacy_substitution(self):
        # zeroing the privacy vectors by hand must give a byte-identical payload
        rng = random.Random(11)
        lib = Library.random(GF2, 4, 3, rng)
        rnd = Randomness.generate(TOY, 4, 3, GF2, rng)
        zero_p = Randomness(
            security_keys=rnd.security_keys,
            privacy_vectors=tuple((0,) * 4 for _ in range(3)),
        )
        demands = unit_demands(3, 4)
        a = deliver(place(TOY, lib, rnd, Mode.SLFR), demands)
        b = deliver(place(TOY, lib, zero_p, Mode.SPLFR), demands)
        assert a == b

    def test_lfr_zero_demands_zero_blocks(self):
        state = make_state(TOY, 4, 3, GF2, seed=4, mode=Mode.LFR)
        demands = tuple((0, 0, 0, 0) for _ in range(3))
        payload = deliver(state, demands)
        assert all(all(v == 0 for v in y) for y in payload.blocks)

    def test_lfr_blocks_are_plain_multicast(self):
        # with both key families off, each block is the bare coded multicast
        state = make_state(TOY, 4, 3, GF2, seed=8, mode=Mode.LFR)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        packets = [split(f, 3) for f in state.library.files]
        for s in range(1, 4):
            want = (0,)
            for i, j in TOY.symbol_positions(s):
                for n in range(4):
                    if demands[j][n]:
                        want = GF2.vec_add(want, packets[n][i])
            assert payload.blocks[s - 1] == want

    def test_wrong_demand_shape(self):
        state = make_state(TOY, 4, 3, GF2, seed=4)
        with pytest.raises(EngineError):
            deliver(state, unit_demands(2, 4))
        with pytest.raises(EngineError):
            deliver(state, unit_demands(3, 3))


class TestDecode:
    def test_toy_all_users_unit_demands(self):
        state = make_state(TOY, 4, 3, GF2, seed=7)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        for k in range(3):
            got = decode(state.user_view(k), payload, demands[k])
            assert got == state.library.combine(demands[k])

    def test_zero_demand_gives_zero_file(self):
        state = make_state(TOY, 4, 3, GF2, seed=7)
        demands = tuple((0, 0, 0, 0) for _ in range(3))
        payload = deliver(state, demands)
        assert decode(state.user_view(0), payload, demands[0]) == (0, 0, 0)

    def test_random_instances_against_direct_combination(self):
        for n in (2, 3, 4, 5):
            for k in (2, 3, 4):
                for q in (2, 3):
                    ctx = FieldContext.prime(q)
                    for t in range(k + 1):
                        arr = man_pda(k, t)
                        rng = random.Random(1000 * n + 100 * k + 10 * q + t)
                        lib = Library.random(ctx, n, arr.f, rng)
                        rnd = Randomness.generate(arr, n, arr.f, ctx, rng)
                        state = place(arr, lib, rnd, Mode.SPLFR)
                        demands = tuple(
                            ctx.random_vector(n, rng) for _ in range(k)
                        )
                        payload = deliver(state, demands)
                        for user in range(k):
                            got = decode(state.user_view(user), payload, demands[user])
                            assert got == lib.combine(demands[user])

    def test_all_modes_decode(self):
        for mode in Mode:
            state = make_state(TOY, 4, 3, GF2, seed=13, mode=mode)
            demands = unit_demands(3, 4)
            payload = deliver(state, demands)
            for k in range(3):
                got = decode(state.user_view(k), payload, demands[k])
                assert got == state.library.combine(demands[k])

    def test_negates_only_the_coefficients_of_sharing_users(self, monkeypatch):
        # users 0 and 1 share symbol 1, users 2 and 3 share symbol 2
        arr = validate(((STAR, 1, STAR, 2), (1, STAR, 2, STAR)))
        negs, vec_negs = [], []
        neg, vec_neg = FieldContext.neg, FieldContext.vec_neg

        def counting_neg(self, a):
            negs.append(a)
            return neg(self, a)

        def counting_vec_neg(self, u):
            out = vec_neg(self, u)
            vec_negs.append((u, out))
            return out

        monkeypatch.setattr(FieldContext, "neg", counting_neg)
        monkeypatch.setattr(FieldContext, "vec_neg", counting_vec_neg)
        n = 3
        for ctx in (GF256, FieldContext.prime(5)):
            state = make_state(arr, n, 4, ctx, seed=17)
            demands = tuple(ctx.random_vector(n, random.Random(j)) for j in range(arr.k))
            payload = deliver(state, demands)
            for k in range(arr.k):
                symbols = {row[k] for row in arr.entries} - {STAR}
                sharers = {
                    j
                    for row in arr.entries
                    for j, e in enumerate(row)
                    if e in symbols and j != k
                }
                assert len(sharers) == 1
                del negs[:], vec_negs[:]
                got = decode(state.user_view(k), payload, demands[k])
                assert got == state.library.combine(demands[k])
                # the coefficient vector of each sharer j, once
                assert [u for u, _ in vec_negs] == [payload.coeff_vectors[j] for j in sharers]
                if ctx.kind == "binary":
                    # negation is the identity: each vector comes back as it
                    # is, and the only scalar negated is the cached record's
                    # coefficient 1, so no symbol of a vector is negated
                    assert all(out is u for u, out in vec_negs)
                    assert negs == [1]
                else:
                    # -1 and -q_j for each sharer j
                    assert len(negs) == 1 + n * len(sharers)

    def test_view_withholds_global_state(self):
        # decoder isolation: the view exposes only the array, field, and
        # the user's own cache
        state = make_state(TOY, 4, 3, GF2, seed=7)
        view = state.user_view(0)
        assert not hasattr(view, "library")
        assert not hasattr(view, "randomness")
        assert not hasattr(view, "caches")

    def test_payload_mismatch(self):
        state = make_state(TOY, 4, 3, GF2, seed=7)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        bad = DeliveryPayload(payload.coeff_vectors, payload.blocks[:2])
        with pytest.raises(EngineError):
            decode(state.user_view(0), bad, demands[0])

    def test_wrong_demand_length(self):
        state = make_state(TOY, 4, 3, GF2, seed=7)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        for demand in (demands[0][:3], demands[0] + (0,)):
            with pytest.raises(EngineError):
                decode(state.user_view(0), payload, demand)

    def test_demand_outside_field(self):
        state = make_state(TOY, 4, 3, GF3, seed=7)
        demands = unit_demands(3, 4)
        payload = deliver(state, demands)
        for demand in ((3, 0, 0, 0), (0, -1, 0, 0)):
            with pytest.raises(FieldError):
                decode(state.user_view(0), payload, demand)
            with pytest.raises(FieldError):
                state.library.combine(demand)


class TestMeasure:
    def test_toy(self):
        state = make_state(TOY, 4, 3, GF2, seed=1)
        meas = measure(state)
        assert meas.m_exact == 2
        assert meas.r_asymptotic == 1
        assert meas.tx_symbols == 3 * 1 + 3 * 4
        assert meas.randomness_log2q_units == 15

    def test_all_star(self):
        arr = validate([[STAR, STAR, STAR]])
        state = make_state(arr, 2, 5, GF3, seed=1)
        meas = measure(state)
        assert meas.r_asymptotic == 0
        assert meas.tx_symbols == 3 * 2

    def test_man_randomness_budget(self):
        arr = man_pda(4, 2)
        state = make_state(arr, 3, 12, GF3, seed=1)
        meas = measure(state)
        assert meas.randomness_log2q_units == arr.s * (12 // arr.f) + 3 * 4
        assert meas.m_exact == Fraction(arr.z * 3 + arr.f - arr.z, arr.f) * 12 / 12


class TestUpdateRound:
    def test_zero_update_is_identity(self):
        state = make_state(TOY, 4, 3, GF2, seed=21)
        demands = unit_demands(3, 4)
        zeros = tuple((0,) for _ in range(3))
        new = update_round(state, demands, zeros, (0, 0, 0))
        assert new.caches == state.caches
        assert new.randomness == state.randomness

    def test_matches_place_with_accumulated_keys(self):
        ctx = GF3
        arr = man_pda(3, 1)
        rng = random.Random(31)
        lib = Library.random(ctx, 3, 3, rng)
        rnd = Randomness.generate(arr, 3, 3, ctx, rng)
        state = place(arr, lib, rnd, Mode.SPLFR)
        demands = tuple(ctx.random_vector(3, rng) for _ in range(3))
        fresh = tuple(ctx.random_vector(1, rng) for _ in range(arr.s))
        coeffs = tuple(ctx.random_element(rng) for _ in range(3))

        updated = update_round(state, demands, fresh, coeffs)

        accumulated = Randomness(
            security_keys=tuple(
                ctx.vec_add(v, u) for v, u in zip(rnd.security_keys, fresh)
            ),
            privacy_vectors=tuple(
                ctx.vec_add(p, ctx.vec_scale(c, d))
                for p, c, d in zip(rnd.privacy_vectors, coeffs, demands)
            ),
        )
        scratch = place(arr, lib, accumulated, Mode.SPLFR)
        assert updated.caches == scratch.caches
        assert updated.randomness == scratch.randomness

    def test_three_round_trip(self):
        ctx = GF2
        arr = man_pda(3, 1)
        rng = random.Random(41)
        lib = Library.random(ctx, 4, 6, rng)
        rnd = Randomness.generate(arr, 4, 6, ctx, rng)
        state = place(arr, lib, rnd, Mode.SPLFR)
        for _ in range(3):
            demands = tuple(ctx.random_vector(4, rng) for _ in range(3))
            payload = deliver(state, demands)
            for k in range(3):
                got = decode(state.user_view(k), payload, demands[k])
                assert got == lib.combine(demands[k])
            fresh = tuple(ctx.random_vector(2, rng) for _ in range(arr.s))
            coeffs = tuple(ctx.random_element(rng) for _ in range(3))
            state = update_round(state, demands, fresh, coeffs)

    @pytest.mark.parametrize("spec", ["b:4", "p:5"])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_out_of_field_input(self, spec, mode):
        # checked before masking, as placement checks its keys
        ctx = FieldContext.parse(spec)
        arr = man_pda(3, 1)
        state = make_state(arr, 3, 3, ctx, seed=51, mode=mode)
        demands = unit_demands(3, 3)
        fresh = tuple((0,) for _ in range(arr.s))
        for bad in (ctx.q, ctx.q + 3, -1):
            with pytest.raises(FieldError):
                update_round(state, demands, ((bad,), *fresh[1:]), (1, 1, 1))
        for bad in (ctx.q + 1, -1):
            with pytest.raises(FieldError):
                update_round(state, demands, fresh, (1, bad, 1))

    def test_shape_errors(self):
        state = make_state(TOY, 4, 3, GF2, seed=21)
        demands = unit_demands(3, 4)
        with pytest.raises(EngineError):
            update_round(state, demands, ((0,),), (0, 0, 0))
        with pytest.raises(EngineError):
            update_round(state, demands, tuple((0,) for _ in range(3)), (0, 0))

    def test_bad_demands_rejected_even_with_zero_coefficients(self):
        state = make_state(TOY, 4, 3, GF3, seed=21)
        zeros = tuple((0,) for _ in range(3))
        with pytest.raises(EngineError):
            update_round(state, unit_demands(2, 4), zeros, (0, 0, 0))
        with pytest.raises(EngineError):
            update_round(state, unit_demands(3, 3), zeros, (0, 0, 0))
        with pytest.raises(FieldError):
            update_round(state, ((3, 0, 0, 0), *unit_demands(2, 4)), zeros, (0, 0, 0))

    def test_refills_caches_without_delivering_or_decoding(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("update_round must not deliver, decode or split")

        state = make_state(man_pda(3, 1), 3, 6, GF3, seed=71)
        rng = random.Random(72)
        demands = tuple(GF3.random_vector(3, rng) for _ in range(3))
        fresh = tuple(GF3.random_vector(2, rng) for _ in range(state.pda.s))
        for name in ("deliver", "decode"):
            monkeypatch.setattr(splfr.engine, name, forbidden)
        monkeypatch.setattr(FieldContext, "split", forbidden)
        updated = update_round(state, demands, fresh, (1, 2, 0))
        monkeypatch.undo()
        scratch = place(state.pda, state.library, updated.randomness, state.mode)
        assert updated.caches == scratch.caches


# -- properties over arrays x modes x fields ------------------------------

#: arrays given as files: a two-row array for K=4 that is not a t-subset
#: array, and an irregular one with symbols that occur only once
PARSED = tuple(
    parse_pda(text)
    for text in (
        "PDA K=4 F=2\n* 1 * 2\n1 * 2 *\n",
        "PDA K=3 F=3\n* 1 2\n1 * 3\n4 5 *\n",
    )
)
FIELDS = tuple(
    FieldContext.parse(spec) for spec in ("p:2", "p:3", "p:65521", "b:1", "b:2", "b:8")
)


@st.composite
def permuted_man(draw):
    """man_pda(k, t) with its rows, columns and symbol labels permuted."""
    k = draw(st.integers(2, 4))
    arr = man_pda(k, draw(st.integers(0, k)))
    rows = draw(st.permutations(range(arr.f)))
    cols = draw(st.permutations(range(k)))
    labels = draw(st.permutations(range(1, arr.s + 1)))
    return validate(
        [
            [STAR if arr.entries[i][j] is STAR else labels[arr.entries[i][j] - 1] for j in cols]
            for i in rows
        ]
    )


instances = st.tuples(
    st.one_of(st.just(TOY), st.sampled_from(PARSED), permuted_man()),
    st.sampled_from(FIELDS),
    st.sampled_from(list(Mode)),
    st.integers(2, 4),  # N
    st.integers(1, 3),  # block length B/F
    st.integers(0, 2**32 - 1),  # seed of the library, keys and demands
)


def build(instance):
    arr, ctx, mode, n, block, seed = instance
    rng = random.Random(seed)
    b = arr.f * block
    lib = Library.random(ctx, n, b, rng)
    rnd = Randomness.generate(arr, n, b, ctx, rng)
    demands = tuple(ctx.random_vector(n, rng) for _ in range(arr.k))
    return place(arr, lib, rnd, mode), rnd, demands, rng


@settings(max_examples=150, deadline=None)
@given(instances)
def test_property_decode_after_deliver_is_combine(instance):
    state, _, demands, _ = build(instance)
    payload = deliver(state, demands)
    for k in range(state.pda.k):
        got = decode(state.user_view(k), payload, demands[k])
        assert got == state.library.combine(demands[k])
        assert got == oracle_combine(state.library, demands[k])


@settings(max_examples=100, deadline=None)
@given(instances)
def test_property_cache_records_are_superposed_keys(instance):
    state, _, _, _ = build(instance)
    arr, keys = state.pda, state.randomness
    packets = [split(f, arr.f) for f in state.library.files]
    for k, cache in enumerate(state.caches):
        for i, entry in enumerate(arr.column(k)):
            if entry is STAR:
                assert cache.uncoded[i] == tuple(p[i] for p in packets)
            else:
                t_block = privacy_key(state.library, arr, keys.privacy_vectors[k], i)
                want = state.library.ctx.vec_add(keys.security_keys[entry - 1], t_block)
                assert cache.coded[i] == want


@settings(max_examples=150, deadline=None)
@given(instances)
def test_property_update_round_is_placement_with_accumulated_keys(instance):
    state, rnd, demands, rng = build(instance)
    arr, ctx = state.pda, state.library.ctx
    fresh = tuple(ctx.random_vector(state.library.b // arr.f, rng) for _ in range(arr.s))
    coeffs = tuple(ctx.random_element(rng) for _ in range(arr.k))

    updated = update_round(state, demands, fresh, coeffs)

    accumulated = Randomness(
        security_keys=tuple(ctx.vec_add(v, u) for v, u in zip(rnd.security_keys, fresh)),
        privacy_vectors=tuple(
            ctx.vec_add(p, ctx.vec_scale(c, d))
            for p, c, d in zip(rnd.privacy_vectors, coeffs, demands)
        ),
    )
    scratch = place(arr, state.library, accumulated, state.mode)
    assert updated.caches == scratch.caches
    assert updated.randomness == scratch.randomness


@settings(max_examples=150, deadline=None)
@given(instances)
def test_property_update_round_is_local_to_each_user(instance):
    # each user refreshes its coded records from its own view: the public
    # fresh keys, the broadcast, its own demand and its own c_k
    state, _, demands, rng = build(instance)
    arr, ctx, mode = state.pda, state.library.ctx, state.mode
    block = state.library.b // arr.f
    fresh = tuple(ctx.random_vector(block, rng) for _ in range(arr.s))
    coeffs = tuple(ctx.random_element(rng) for _ in range(arr.k))
    updated = update_round(state, demands, fresh, coeffs)

    payload = deliver(state, demands)
    if not mode.security_keys_active:
        fresh = tuple((0,) * block for _ in fresh)
    for k in range(arr.k):
        view = state.user_view(k)
        c = coeffs[k] if mode.privacy_keys_active else 0
        packets = split(decode(view, payload, demands[k]), view.pda.f)
        new = updated.caches[k]
        assert new.uncoded == view.cache.uncoded
        assert new.coded.keys() == view.cache.coded.keys()
        for i, old in view.cache.coded.items():
            pad = ctx.vec_add(old, fresh[view.pda.entries[i][k] - 1])
            assert new.coded[i] == ctx.vec_add(pad, ctx.vec_scale(c, packets[i]))
