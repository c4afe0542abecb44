"""Tests for placement, delivery, decoding, and key update."""

import random
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import splfr.engine
from splfr.audit import AuditConfig, factorization_violations
from splfr.cli import TOY_GRID
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

from oracle import active_symbols, combine as oracle_combine, privacy_key, split, walk_two_rounds
from oracle import walk_two_rounds_privacy, zero_randomness

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
    def test_place_splits_each_file_once_and_deliver_splits_none(self, monkeypatch):
        calls = []
        field_split = FieldContext.split

        def counting_split(self, v, f):
            calls.append(v)
            return field_split(self, v, f)

        monkeypatch.setattr(FieldContext, "split", counting_split)
        arr = man_pda(3, 1)
        state = make_state(arr, 4, 6, GF2, seed=61)
        files = state.library.files

        def file_splits():  # the calls that split a library file, told apart by identity
            return [v for v in calls if any(v is f for f in files)]

        assert file_splits() == list(files)
        for i, row in enumerate(state.rows):
            for n, packet in enumerate(row):
                assert packet == split(files[n], arr.f)[i]
        demands = unit_demands(3, 4)
        del calls[:]
        deliver(state, demands)
        assert calls and file_splits() == []  # deliver splits its own blocks, not a file
        zeros = tuple((0, 0) for _ in range(arr.s))
        assert update_round(state, demands, zeros, (0, 0, 0)).rows is state.rows
        assert file_splits() == []

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
        # once per file (N, as the library is built), once for the S
        # security keys joined and once for the zero packet laid under the
        # stars; the packets are slices of the files' packings, never packed
        # or checked again
        assert len(packets) == n * arr.f
        zero = (0,) * 2
        joined = tuple(x for key in keys for x in key)
        assert sorted(packs) == sorted(files + [joined, zero]) == sorted(packings)
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
        # the fresh keys joined, and the zero packet that lays them under the stars
        assert len(packs) == len(packings) == 2
        assert packs[-1] == (0,) * 2
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


class TestKernelCalls:
    """Every cache fill takes one kernel call per user, over whole files, a
    delivery two calls and each decoding three, whatever the array's F and S."""

    @pytest.mark.parametrize("spec", ["p:65521", "b:8"])
    @pytest.mark.parametrize("t, block", [(2, 2), (3, 1), (3, 4)])
    def test_a_round_takes_three_kernel_calls_per_user_and_two_to_deliver(
        self, monkeypatch, spec, t, block
    ):
        # man:10,2 has F = 45 and S = 120, man:10,3 F = 120 and S = 210
        ctx, arr, n = FieldContext.parse(spec), man_pda(10, t), 3
        state = make_state(arr, n, arr.f * block, ctx, seed=83)
        demands = tuple(ctx.random_vector(n, random.Random(j)) for j in range(arr.k))
        expected = [state.library.combine(d) for d in demands]
        calls = []
        lincombs, gathered = FieldContext.lincombs, FieldContext.gathered

        def counting_lincombs(self, rows, vectors):
            calls.append((len(rows), len(vectors), len(vectors[0])))
            return lincombs(self, rows, vectors)

        def counting_gathered(self, rows, vectors, layers, size):
            calls.append((len(rows), len(vectors), len(vectors[0]), len(layers), size))
            return gathered(self, rows, vectors, layers, size)

        monkeypatch.setattr(FieldContext, "lincombs", counting_lincombs)
        monkeypatch.setattr(FieldContext, "gathered", counting_gathered)
        payload = deliver(state, demands)
        # the g layers of every user's combination of the files, then the keys
        assert calls == [(arr.k, n, arr.f * block, t + 1, block), (1, 2, arr.s * block)]
        del calls[:]
        for k in range(arr.k):
            assert decode(state.user_view(k), payload, demands[k]) == expected[k]
        # the demand over the Z star rows; the t layers of the 9 other users'
        # q_j over them; then the block, the record and those layers' sum over
        # the F - Z others
        per_user = [
            (1, n, arr.z * block),
            (9, n, arr.z * block, t, block),
            (1, 3, (arr.f - arr.z) * block),
        ]
        assert calls == per_user * arr.k

    @pytest.mark.parametrize("spec", ["p:65521", "b:8"])
    def test_fills_take_one_kernel_call_per_user(self, monkeypatch, spec):
        # over whole files, of B symbols: (1, *p_k) at placement, and
        # (1, 1, *c_k d_k) over the shift's keys, the old records and the
        # files at a refresh, plus one call that adds the joined keys
        ctx, arr, n = FieldContext.parse(spec), man_pda(10, 3), 2
        rng = random.Random(81)
        lib = Library.random(ctx, n, arr.f, rng)
        rnd = Randomness.generate(arr, n, arr.f, ctx, rng)
        calls = []
        kernel = FieldContext.lincomb

        def counting_lincomb(self, coeffs, vectors):
            calls.append((len(vectors), len(vectors[0])))
            return kernel(self, coeffs, vectors)

        monkeypatch.setattr(FieldContext, "lincomb", counting_lincomb)
        state = place(arr, lib, rnd, Mode.SPLFR)
        assert calls == [(1 + n, arr.f)] * arr.k  # one call per record would be 840
        del calls[:]
        fresh = tuple(ctx.random_vector(1, rng) for _ in range(arr.s))
        update_round(state, unit_demands(arr.k, n), fresh, tuple(range(1, arr.k + 1)))
        # 11 calls on man:10,3; one per record and per key sum would be 1,050
        assert calls == [(2, arr.s)] + [(2 + n, arr.f)] * arr.k

    def test_a_user_with_no_record_takes_no_kernel_call(self, monkeypatch):
        arr = man_pda(3, 3)  # every entry a star: no record and no security key
        state = make_state(arr, 2, 2, GF3, seed=82)
        calls = []
        kernel = FieldContext.lincomb

        def counting_lincomb(self, coeffs, vectors):
            calls.append(vectors)
            return kernel(self, coeffs, vectors)

        monkeypatch.setattr(FieldContext, "lincomb", counting_lincomb)
        assert place(arr, state.library, state.randomness, Mode.SPLFR).caches == state.caches
        assert calls == []
        new = update_round(state, unit_demands(3, 2), (), (1, 2, 0))
        assert new.caches == state.caches and len(calls) == 1  # the empty keys' sum


def vectors_under(*roots):
    """Every ``Packed`` vector that ``roots`` hold, through dataclass fields,
    named tuples, tuples, lists and dict values."""
    seen, found, todo = set(), [], list(roots)
    while todo:
        x = todo.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, Packed):
            found.append(x)
        elif is_dataclass(x):
            todo.extend(getattr(x, f.name) for f in fields(x))
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, (tuple, list)):
            todo.extend(x)
    return found


def has_table(v):
    """Whether the GF(2^m) kernel keeps a window table on ``v``."""
    return vars(v).get("_table") is not None


def test_only_the_files_and_the_star_packets_keep_window_tables():
    # the operands multiplied round after round: the files by q_j in
    # deliver (and p_k at the cache fill), each user's J_n by its demand
    # and the sharing users' q_j in decode; everything else is multiplied
    # by 0 and 1 only, or is a result
    arr, n, ctx = man_pda(4, 2), 5, GF256
    state = make_state(arr, n, 2 * arr.f, ctx, seed=64)
    files = state.library.files
    starred = [v for cache in state.caches for v in cache.starred]
    assert all(map(has_table, files)) and not any(map(has_table, starred))  # none at placement
    rng = random.Random(65)
    demands = tuple(ctx.random_vector(n, rng) for _ in range(arr.k))
    payload = deliver(state, demands)
    decoded = [decode(state.user_view(k), payload, demands[k]) for k in range(arr.k)]
    fresh = tuple(ctx.random_vector(2, rng) for _ in range(arr.s))
    new = update_round(state, demands, fresh, (1, 2, 3, 4))
    assert all(new.caches[k].starred is cache.starred for k, cache in enumerate(state.caches))
    assert all(map(has_table, files)) and all(map(has_table, starred))
    found = vectors_under(state, payload, decoded, new)
    assert {id(v) for v in found if has_table(v)} == {id(v) for v in (*files, *starred)}
    # so none of the blocks, packets, decoded vectors, keys or records, which the walk finds
    results = [*payload.blocks, *decoded, *(p for row in state.rows for p in row)]
    for s in (state, new):
        results += [*s.randomness.security_keys, *(cache.records for cache in s.caches)]
    assert {id(v) for v in results} <= {id(v) for v in found}


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
        bad = zero_randomness(man_pda(4, 2), 4, 6)
        with pytest.raises(EngineError):
            place(TOY, lib, bad, Mode.SPLFR)

    def test_non_divisible_b(self):
        rng = random.Random(0)
        lib = Library.random(GF2, 4, 4, rng)
        rnd = zero_randomness(TOY, 4, 3)
        with pytest.raises(NonDivisibleB):
            place(TOY, lib, rnd, Mode.SPLFR)

    def test_keys_outside_field(self):
        lib = Library.random(GF2, 4, 3, random.Random(0))
        zero = zero_randomness(TOY, 4, 3)
        bad_keys = (
            Randomness(((2,),) + zero.security_keys[1:], zero.privacy_vectors),
            Randomness(zero.security_keys, ((0, 0, -1, 0),) + zero.privacy_vectors[1:]),
        )
        for rnd in bad_keys:
            with pytest.raises(FieldError):
                place(TOY, lib, rnd, Mode.SPLFR)


class TestRandomnessLayout:
    """r as one flat vector: S key blocks of B/F symbols, then K vectors of N."""

    def test_of_cuts_the_flat_vector(self):
        arr = man_pda(3, 1)  # K = 3, F = 3, S = 3
        r = tuple(range(3 * 2 + 3 * 4))
        assert Randomness.symbols(arr, 4, 6) == len(r)
        rnd = Randomness.of(arr, 4, 6, list(r))
        assert rnd.security_keys == ((0, 1), (2, 3), (4, 5))
        assert rnd.privacy_vectors == ((6, 7, 8, 9), (10, 11, 12, 13), (14, 15, 16, 17))
        assert Randomness.of(arr, 0, 6, r[:6]).privacy_vectors == ((), (), ())

    def test_generate_reads_the_layout(self):
        arr = man_pda(4, 2)
        rnd = Randomness.generate(arr, 3, 12, GF3, random.Random(5))
        flat = GF3.random_vector(Randomness.symbols(arr, 3, 12), random.Random(5))
        assert rnd == Randomness.of(arr, 3, 12, flat)
        assert Randomness.generate(arr, 0, 6, GF3, random.Random(5)).privacy_vectors == ((),) * 4


class TestLibrary:
    def test_non_integer_symbols(self):
        with pytest.raises(FieldError):
            Library(FieldContext.prime(5), ((1.5, 2.0),))

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
    keys = Randomness(zero_randomness(TOY, 4, 3).security_keys, privacy_vectors)
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

    def test_the_gathered_call_takes_the_sharing_users_q_and_the_star_rows_the_demand(
        self, monkeypatch
    ):
        # users 0 and 1 share symbol 1, users 2 and 3 share symbol 2
        arr = validate(((STAR, 1, STAR, 2), (1, STAR, 2, STAR)))
        negs, calls = [], []
        neg, lincombs, gathered = FieldContext.neg, FieldContext.lincombs, FieldContext.gathered

        def counting_neg(self, a):
            negs.append(a)
            return neg(self, a)

        def counting_lincombs(self, rows, vectors):
            calls.append(("lincombs", rows))
            return lincombs(self, rows, vectors)

        def counting_gathered(self, rows, vectors, layers, size):
            calls.append(("gathered", rows))
            return gathered(self, rows, vectors, layers, size)

        monkeypatch.setattr(FieldContext, "neg", counting_neg)
        monkeypatch.setattr(FieldContext, "lincombs", counting_lincombs)
        monkeypatch.setattr(FieldContext, "gathered", counting_gathered)
        n = 3
        for ctx in (GF256, FieldContext.prime(5)):
            state = make_state(arr, n, 4, ctx, seed=17)
            demands = tuple(ctx.random_vector(n, random.Random(j)) for j in range(arr.k))
            expected = [state.library.combine(d) for d in demands]
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
                del negs[:], calls[:]
                assert decode(state.user_view(k), payload, demands[k]) == expected[k]
                # the demand alone makes the star rows; one gathered call takes
                # each sharer's coefficient vector, as it is; then one row for
                # the ordinary rows
                assert [kind for kind, _ in calls] == ["lincombs", "gathered", "lincombs"]
                (_, star), (_, rows), (_, ordinary) = calls
                assert len(star) == 1 and star[0] is demands[k] and len(ordinary) == 1
                assert len(rows) == len(sharers)
                assert all(r is payload.coeff_vectors[j] for r, j in zip(rows, sorted(sharers)))
                # no vector is negated: the one scalar negated is the 1 that
                # subtracts the record and the cross terms
                assert negs == [1]

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


@pytest.mark.parametrize(
    "spec, k, t, n, b", [("p:65521", 10, 3, 10, 480), ("b:8", 6, 2, 20, 960)]
)
def test_the_benchmark_shapes_deliver_and_decode_like_the_scalar_oracle(spec, k, t, n, b):
    # the shapes of rekey-narrow and serve-wide, whose long blocks take the
    # packed GF(p) path that the property strategy's 1-3 symbols never reach
    ctx, arr, rng = FieldContext.parse(spec), man_pda(k, t), random.Random(91)
    lib = Library.random(ctx, n, b, rng)
    state = place(arr, lib, Randomness.generate(arr, n, b, ctx, rng), Mode.SPLFR)
    demands = tuple(ctx.random_vector(n, rng) for _ in range(k))
    payload = deliver(state, demands)
    packets = [split(file, arr.f) for file in lib.files]
    for s in range(1, arr.s + 1):  # y_s = V_s + sum over (i, j) of sum_n q_(j,n) W_(n,i)
        want = state.randomness.security_keys[s - 1]
        for i, j in arr.symbol_positions(s):
            for q_jn, file in zip(payload.coeff_vectors[j], packets):
                want = ctx.vec_add(want, ctx.vec_scale(q_jn, file[i]))
        assert payload.blocks[s - 1] == want
    for user in range(k):
        got = decode(state.user_view(user), payload, demands[user])
        assert got == lib.combine(demands[user]) == oracle_combine(lib, demands[user])


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
            raise AssertionError("update_round must not deliver, decode or split a file")

        state = make_state(man_pda(3, 1), 3, 6, GF3, seed=71)
        rng = random.Random(72)
        demands = tuple(GF3.random_vector(3, rng) for _ in range(3))
        fresh = tuple(GF3.random_vector(2, rng) for _ in range(state.pda.s))
        field_split = FieldContext.split

        def split_no_file(self, v, f):
            if any(v is file for file in state.library.files):
                forbidden()
            return field_split(self, v, f)

        for name in ("deliver", "decode"):
            monkeypatch.setattr(splfr.engine, name, forbidden)
        monkeypatch.setattr(FieldContext, "split", split_no_file)
        updated = update_round(state, demands, fresh, (1, 2, 0))
        monkeypatch.undo()
        scratch = place(state.pda, state.library, updated.randomness, state.mode)
        assert updated.caches == scratch.caches

    def test_a_refresh_keeps_the_files_secret_only_with_the_fresh_keys_hidden(self):
        # place, deliver, update_round, deliver on man:2,1, N = B = 2, SPLFR
        # over GF(2), c = (1, 1): every W, r and fresh key, 1,024 atoms; in
        # public the fresh keys let the two signals be differenced into the
        # files.  Over GF(3) with c = (2, 2) the same walk, 59,049 atoms,
        # gives 0 and 177,147 violations (4.8 s, left out of tier-1)
        cfg = AuditConfig(pda=man_pda(2, 1), n=2, b=2, ctx=GF2)
        hidden, public = walk_two_rounds(cfg, unit_demands(2, 2), (1, 1))
        assert hidden.total() == public.total() == 1024
        assert factorization_violations(hidden) == (0, None)
        assert factorization_violations(public)[0] == 2048

    def test_a_refresh_shows_the_other_users_demands_with_or_without_the_fresh_keys(self):
        # the same rounds at one W, against colluder {1}, with unit demands in
        # both rounds: every r, demand tuple, fresh key and second demand
        # tuple, 1,024 atoms.  User 2's coefficient vector moves by
        # (c - 1) * d + d' = d' between the rounds, so its second demand
        # shows, with the fresh keys hidden or public alike; the first round
        # alone keeps the demands private.  Over GF(3) with c = (2, 2), at
        # W = ((1, 0), (2, 1)), the walk gives 34,992 violations both ways
        # over 11,664 atoms (0.8 s, left out of tier-1)
        cfg = AuditConfig(pda=man_pda(2, 1), n=2, b=2, ctx=GF2, demand_space="units")
        hidden, public = walk_two_rounds_privacy(cfg, Library(GF2, ((1, 0), (1, 1))), (1, 1))
        assert hidden.total() == public.total() == 1024
        assert factorization_violations(hidden)[0] == factorization_violations(public)[0] == 2048
        first_round = Counter()
        for (others, (first, _, seen)), count in hidden.items():
            own = tuple((d, cache) for d, _, cache, _ in seen)
            first_round[tuple(d for d, _ in others), (first, own)] += count
        assert first_round.total() == 1024
        assert factorization_violations(first_round) == (0, None)


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


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([man_pda(2, 1), validate(TOY_GRID)]),
    st.sampled_from([FieldContext.parse(spec) for spec in ("p:2", "p:3", "b:2")]),
    st.sampled_from(list(Mode)),
    st.integers(1, 3),  # N
    st.integers(1, 2),  # block length B/F
    st.integers(0, 2**32 - 1),  # seed of the files, keys and demands
)
def test_property_inactive_key_symbols_change_nothing(arr, ctx, mode, n, block, seed):
    # what the audit's weights rest on: zeroing the symbols of r that the
    # audit finds inactive leaves the placement and the signal as they are
    rng, b = random.Random(seed), arr.f * block
    active = active_symbols(AuditConfig(pda=arr, n=n, b=b, ctx=ctx, mode=mode))
    lib = Library.random(ctx, n, b, rng)
    r = ctx.random_vector(Randomness.symbols(arr, n, b), rng)
    zeroed = [x if a else 0 for x, a in zip(r, active)]
    demands = tuple(ctx.random_vector(n, rng) for _ in range(arr.k))
    raw, rep = (place(arr, lib, Randomness.of(arr, n, b, v), mode) for v in (r, zeroed))
    assert raw.caches == rep.caches and raw.randomness == rep.randomness
    assert deliver(raw, demands) == deliver(rep, demands)
