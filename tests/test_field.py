"""Tests for exact GF(q) arithmetic."""

import random
from operator import add, eq, ge, gt, le, lt, ne

import pytest
from hypothesis import given, settings, strategies as st

from splfr.field import DEFAULT_POLYS, FieldContext, FieldError, Packed
from splfr.field import MAX_BINARY_DEGREE, PACK_FROM

from splfr.audit import _eliminate

from oracle import ContextMismatchError, FieldElement, dot, echelon, field_dot, reduce, split
from oracle import is_irreducible, poly_mulmod


def slow_gf2m_mul(a: int, b: int, poly: int, m: int) -> int:
    """Independent oracle: schoolbook carry-less multiply, then long division."""
    prod = 0
    for bit in range(m):
        if (b >> bit) & 1:
            prod ^= a << bit
    for shift in range(prod.bit_length() - 1 - m, -1, -1):
        if (prod >> (shift + m)) & 1:
            prod ^= poly << shift
    return prod


def lincomb_oracle(ctx, coeffs, vectors):
    """Independent oracle: the linear combination from scalar add and mul only."""
    out = [0] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        for i, x in enumerate(v):
            out[i] = ctx.add(out[i], ctx.mul(c, x))
    return tuple(out)


GF2 = FieldContext.prime(2)
GF5 = FieldContext.prime(5)
GF8 = FieldContext.binary(3)  # x^3 + x + 1

#: the fields the kernel is checked over: small and large primes, every
#: binary degree, and an irreducible but not primitive polynomial (x^8 + x^4
#: + x^3 + x + 1), in which x does not generate the nonzero elements
KERNEL_FIELDS = [FieldContext.prime(p) for p in (2, 3, 5, 65521)] + [
    FieldContext.binary(m) for m in range(1, 9)
] + [FieldContext.binary(8, poly=0x11B)]

#: the largest library of the benchmark workloads has 20 files
MAX_VECTORS = 20
#: vector lengths on both sides of the packed GF(p) path's threshold
MAX_LENGTH = 40
PRIME_KERNEL_FIELDS = [c for c in KERNEL_FIELDS if c.kind == "prime"]


class TestScalars:
    def test_gf2_characteristic(self):
        assert GF2.add(1, 1) == 0

    def test_gf5_add(self):
        assert GF5.add(3, 4) == 2

    def test_gf8_add_is_xor(self):
        assert GF8.add(0b101, 0b011) == 0b110

    def test_gf5_mul(self):
        assert GF5.mul(3, 4) == 2

    def test_inv_of_one(self):
        for ctx in (GF2, GF5, GF8):
            assert ctx.inv(1) == 1

    def test_gf8_mul_example(self):
        assert GF8.mul(0b010, 0b100) == 0b011

    def test_inv_zero_raises(self):
        with pytest.raises(FieldError):
            GF5.inv(0)

    def test_inv_rejects_values_outside_the_field(self):
        gf256 = FieldContext.binary(8)
        for ctx, a in ((GF5, 5), (GF5, 10), (GF5, -1), (GF8, 8), (gf256, 256), (gf256, 300)):
            with pytest.raises(FieldError, match="outside"):
                ctx.inv(a)

    def test_binary_mul_rejects_operands_outside_the_field(self):
        # the product rows are keyed by int, and 2.0 hashes as 2
        gf256 = FieldContext.binary(8)
        for a, b in ((2.0, 3), (-1, 3), (256, 3), ("2", 3), (3, 2.0), (3, -1), (3, 256)):
            with pytest.raises(FieldError, match="outside"):
                gf256.mul(a, b)

    def test_vec_scale_checks_its_coefficient_and_its_symbols(self):
        gf256 = FieldContext.binary(8)
        for ctx in (GF5, GF8, gf256):
            q = ctx.q
            for c, u in (
                (2.0, (3, 4)),  # a float coefficient
                (q + 2, (3, 1)),  # coefficients outside the field
                (-1, (3, 1)),
                (2, (3, q + 4)),  # symbols outside the field
                (2, (-1, 1)),
                (2, (1.0, 1)),
            ):
                with pytest.raises(FieldError, match="outside"):
                    ctx.vec_scale(c, u)
            scaled = ctx.vec_scale(q - 1, (3, 1, 0))
            assert type(scaled) is tuple and scaled == lincomb_oracle(ctx, (q - 1,), ((3, 1, 0),))
        assert GF5.vec_scale(2, (3, 4)) == (1, 3)

    def test_gf8_mul_all_pairs_against_polynomial_oracle(self):
        for a in range(8):
            for b in range(8):
                assert GF8.mul(a, b) == slow_gf2m_mul(a, b, GF8.poly, 3)


@pytest.mark.parametrize(
    "ctx",
    [
        FieldContext.prime(2),
        FieldContext.prime(3),
        FieldContext.prime(5),
        FieldContext.prime(7),
        FieldContext.prime(13),
        FieldContext.binary(1),
        FieldContext.binary(2),
        FieldContext.binary(3),
        FieldContext.binary(4),
    ],
    ids=lambda c: c.spec,
)
class TestAxiomsExhaustive:
    """Field axioms, exhaustive for q <= 16."""

    def test_commutativity(self, ctx):
        for a in range(ctx.q):
            for b in range(ctx.q):
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)

    def test_associativity_and_distributivity(self, ctx):
        for a in range(ctx.q):
            for b in range(ctx.q):
                for c in range(ctx.q):
                    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                        ctx.mul(a, b), ctx.mul(a, c)
                    )

    def test_inverses(self, ctx):
        for a in range(1, ctx.q):
            assert ctx.mul(a, ctx.inv(a)) == 1
        for a in range(ctx.q):
            assert ctx.add(a, ctx.neg(a)) == 0


class TestDot:
    def test_unit_vector_selects(self):
        w = (3, 1, 4, 2)
        for n in range(4):
            e = tuple(1 if i == n else 0 for i in range(4))
            assert field_dot(GF5, e, w) == w[n]

    def test_zero_vector(self):
        assert field_dot(GF5, (0, 0, 0), (1, 2, 3)) == 0

    def test_gf2_hand_example(self):
        assert field_dot(GF2, (1, 0, 1, 1), (1, 1, 1, 0)) == 0

    def test_length_mismatch(self):
        with pytest.raises(FieldError):
            field_dot(GF5, (1, 2), (1, 2, 3))

    @given(st.data())
    def test_bilinear(self, data):
        q = GF5.q
        n = data.draw(st.integers(1, 6))
        vec = st.tuples(*[st.integers(0, q - 1)] * n)
        u, v, w = data.draw(vec), data.draw(vec), data.draw(vec)
        lhs = field_dot(GF5, GF5.vec_add(u, v), w)
        rhs = GF5.add(field_dot(GF5, u, w), field_dot(GF5, v, w))
        assert lhs == rhs


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
class TestLincomb:
    """The bulk kernel against the scalar oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_oracle(self, ctx, data):
        count = data.draw(st.integers(1, MAX_VECTORS), label="count")
        length = data.draw(st.integers(1, MAX_LENGTH), label="length")
        element = st.integers(0, ctx.q - 1)
        # zero coefficients are skipped by one path and summed by the other
        coeff = st.one_of(st.just(0), st.just(1), st.just(ctx.q - 1), element)
        coeffs = data.draw(st.lists(coeff, min_size=count, max_size=count), label="coeffs")
        vec = st.tuples(*[element] * length)
        vectors = data.draw(st.lists(vec, min_size=count, max_size=count), label="vectors")
        # each operand is passed either packed or as a plain tuple
        packed = data.draw(
            st.lists(st.booleans(), min_size=count, max_size=count), label="packed"
        )
        operands = [ctx.pack(v) if p else v for v, p in zip(vectors, packed)]
        assert ctx.lincomb(coeffs, operands) == lincomb_oracle(ctx, coeffs, vectors)

    def test_zero_coefficients_give_zero_vector(self, ctx):
        vectors = [(1, ctx.q - 1, 1), (ctx.q - 1, 0, 1)]
        assert ctx.lincomb((0, 0), vectors) == (0, 0, 0)
        assert ctx.lincomb((0, 1), vectors) == vectors[1]

    def test_length_one_vectors(self, ctx):
        top = ctx.q - 1
        assert ctx.lincomb((top,), ((top,),)) == (ctx.mul(top, top),)

    def test_one_vector_per_library_file(self, ctx):
        vectors = [tuple((n * 7 + i) % ctx.q for i in range(5)) for n in range(MAX_VECTORS)]
        coeffs = [(3 * n + 1) % ctx.q for n in range(MAX_VECTORS)]
        assert ctx.lincomb(coeffs, vectors) == lincomb_oracle(ctx, coeffs, vectors)

    def test_count_mismatch_raises(self, ctx):
        with pytest.raises(FieldError):
            ctx.lincomb((1, 1), ((0, 1),))
        with pytest.raises(FieldError):
            ctx.lincomb((1,), ((0, 1), (1, 0)))

    def test_no_vectors_raises(self, ctx):
        with pytest.raises(FieldError):
            ctx.lincomb((), ())

    def test_ragged_vectors_raise(self, ctx):
        with pytest.raises(FieldError):
            ctx.lincomb((1, 1), ((0, 1), (1,)))
        with pytest.raises(FieldError):
            ctx.lincomb((1, 1), ((1,), (0, 1)))

    def test_ragged_vector_with_a_zero_coefficient_raises(self, ctx):
        # the lengths are checked before the zero terms are dropped
        for short, long in ((1, 2), (PACK_FROM, PACK_FROM + 1), (3, MAX_LENGTH)):
            a, b = (1,) * short, (1,) * long
            for coeffs, vectors in (((1, 0), (a, b)), ((0, 1), (a, b)), ((0, 0), (b, a))):
                with pytest.raises(FieldError):
                    ctx.lincomb(coeffs, vectors)

    @pytest.mark.parametrize("length", [1, PACK_FROM - 1, PACK_FROM, MAX_LENGTH])
    def test_all_zero_coefficients_give_zero_vector_of_the_length(self, ctx, length):
        vectors = [tuple(i % ctx.q for i in range(length))] * 3
        assert ctx.lincomb((0, 0, 0), vectors) == (0,) * length

    def test_join_is_the_concatenation_ready_for_the_kernel(self, ctx):
        parts = [tuple((3 * i + j) % ctx.q for j in range(4)) for i in range(3)]
        joined = ctx.join([parts[0], ctx.pack(parts[1]), parts[2]])
        assert joined == parts[0] + parts[1] + parts[2]
        assert type(joined) is type(ctx.pack(joined))
        assert ctx.split(joined, 3) == tuple(parts)
        assert ctx.lincomb((1,), (joined,)) == joined


@st.composite
def kernel_calls(draw, ctx):
    """Rows of coefficients over one set of operands, each plain or packed.

    Zero rows, rows of zeros, columns zero in every row and a single row
    all come up; lengths lie on both sides of ``PACK_FROM``.
    """
    count = draw(st.integers(1, 8), label="count")
    length = draw(st.integers(1, MAX_LENGTH), label="length")
    element = st.integers(0, ctx.q - 1)
    coeff = st.one_of(st.just(0), st.just(1), st.just(ctx.q - 1), element)
    rows = draw(st.lists(st.tuples(*[coeff] * count), max_size=6), label="rows")
    zero = draw(st.lists(st.booleans(), min_size=count, max_size=count), label="zero columns")
    rows = [tuple(0 if z else c for c, z in zip(row, zero)) for row in rows]
    vectors = draw(st.lists(st.tuples(*[element] * length), min_size=count, max_size=count))
    packed = draw(st.lists(st.booleans(), min_size=count, max_size=count), label="packed")
    return rows, vectors, [ctx.pack(v) if p else v for v, p in zip(vectors, packed)]


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
class TestLincombs:
    """Many rows over one set of operands against one row at a time."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_row_is_its_lincomb_and_the_scalar_oracle(self, ctx, data):
        rows, vectors, operands = data.draw(kernel_calls(ctx))
        out = ctx.lincombs(rows, operands)
        assert out == [ctx.lincomb(row, operands) for row in rows]
        assert out == [lincomb_oracle(ctx, row, vectors) for row in rows]
        ready = type(ctx.pack(vectors[0]))  # the context's own Packed over GF(2^m)
        assert all(type(v) is ready for v in out)

    def test_no_rows_give_no_vectors(self, ctx):
        assert ctx.lincombs((), ((1, 0), (0, 1))) == []

    def test_rows_of_another_count_raise(self, ctx):
        vectors = ((1, 0), (0, 1))
        for rows in (((1, 1), (1,)), ((1,), (1, 1)), ((1, 1, 1),)):
            with pytest.raises(FieldError):
                ctx.lincombs(rows, vectors)

    @pytest.mark.parametrize("length", [1, PACK_FROM - 1, PACK_FROM, MAX_LENGTH])
    def test_rejects_input_outside_field(self, ctx, length):
        # a term zero in every row is dropped, over GF(p), after the
        # coefficient checks and before the symbol checks; below PACK_FROM
        # symbols GF(p) checks the coefficients alone; over every field a
        # coefficient is an int, a float of an element's value refused
        q, ok = ctx.q, (1,) * length
        cases = [
            (((1,), (q,)), (ok,)),  # a coefficient outside the field, in any row
            (((-1,), (1,)), (ok,)),
            (((1.5,),), (ok,)),
            (((0.0, 1),), (ok, ok)),  # a float of the field's value, at every length
            (((1.0,),), (ok,)),
            (((2.0,),), (ok,)),
        ]
        if ctx.kind == "binary" or length >= PACK_FROM:
            cases += [
                (((0, 1), (1, 1)), (ok, (q,) + ok[1:])),  # a symbol outside the field
                (((1,),), ((-1,) + ok[1:],)),
                (((1,),), ((1.5,) + ok[1:],)),
            ]
        for rows, vectors in cases:
            with pytest.raises(FieldError):
                ctx.lincombs(rows, vectors)


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
class TestGather:
    """Picked packets laid end to end, ready for the kernel."""

    def test_lays_the_picked_packets_with_zeros_for_none(self, ctx):
        vectors = [tuple((3 * i + j) % ctx.q for j in range(6)) for i in range(3)]
        for operands in (vectors, [ctx.pack(v) for v in vectors]):
            got = ctx.gather(operands, [(2, 1), None, (0, 0), (2, 2)], 2)
            assert got == vectors[2][2:4] + (0, 0) + vectors[0][0:2] + vectors[2][4:6]
            assert type(got) is type(ctx.pack(got))
            assert ctx.lincomb((1,), (got,)) == got
        assert ctx.gather(vectors, [], 2) == ()

    def test_packs_none_of_the_contexts_own_operands(self, ctx, monkeypatch):
        packings = []
        packing = FieldContext._packing

        def counting_packing(self, v):
            packings.append(v)
            return packing(self, v)

        own = [ctx.pack((1, 0, 0, 1)), ctx.lincomb((1,), ((0, 1, 1, 0),))]
        monkeypatch.setattr(FieldContext, "_packing", counting_packing)
        assert ctx.gather(own, [(1, 0), (0, 1)], 2) == (0, 1, 0, 1)
        assert packings == []

    def test_rejects_picks_and_sizes_it_cannot_lay(self, ctx):
        # as gathered refuses its picks: none is wrapped round, cut short or
        # read as another, over plain and packed operands alike
        vectors = [(1, 0, 1, 1), (0, 1)]
        for operands in (vectors, [ctx.pack(v) for v in vectors]):
            for picks, size in (
                ([(0, 2)], 2),  # a packet past the end
                ([(1, 1)], 2),  # past the end of the shorter vector
                ([(0, 1)], 3),  # a packet cut short by the end
                ([(2, 0)], 2),  # a vector past the last
                ([(0, -1)], 2),  # negative packets and vectors
                ([(0, -2)], 2),
                ([None, (0, -4)], 1),
                ([(-1, 0)], 2),
                ([(0.0, 0)], 2),  # not an index
                ([(0, 0.0)], 2),
                ([(0, 0.5)], 2),
                ([(0, None)], 2),
                ([()], 2),
                ([(0,)], 2),
                ([(0, 0)], 0),  # no packet size
                ([(0, 0)], -1),
                ([(0, 0)], 2.0),
                ([], 0),
            ):
                with pytest.raises(FieldError):
                    ctx.gather(operands, picks, size)
            assert ctx.gather(operands, [(1, 0), None, (0, 1)], 2) == (0, 1, 0, 0, 1, 1)


def gathered_oracle(ctx, rows, vectors, layers, size):
    """Independent oracle: each row's combination from scalar add and mul, its
    picked packets laid end to end, zeros for None, the layers added."""
    combos = [lincomb_oracle(ctx, row, vectors) for row in rows]
    out = [0] * (len(layers[0]) * size)
    for layer in layers:
        for i, p in enumerate(layer):
            if p is not None:
                for o in range(size):
                    out[i * size + o] = ctx.add(out[i * size + o], combos[p[0]][p[1] * size + o])
    return tuple(out)


@st.composite
def gathered_calls(draw, ctx):
    """A ``kernel_calls`` draw, some operands another context's ``Packed``,
    with a packet size and one or more layers of picks, None among them;
    with no rows every pick is None."""
    rows, vectors, operands = draw(kernel_calls(ctx))
    # some operands, where their symbols fit, are another context's Packed
    foreign = draw(st.lists(st.booleans(), min_size=len(vectors), max_size=len(vectors)))
    other = FieldContext.binary(8, poly=0x11B) if ctx.q != 256 else FieldContext.binary(7)
    operands = [
        other.pack(v) if f and max(v) < other.q else u for u, v, f in zip(operands, vectors, foreign)
    ]
    length = len(vectors[0])
    size = draw(st.integers(1, length), label="size")
    pick = st.none()
    if rows:
        pick |= st.tuples(st.integers(0, len(rows) - 1), st.integers(0, length // size - 1))
    count = draw(st.integers(0, 5), label="picks")
    layers = draw(
        st.lists(st.lists(pick, min_size=count, max_size=count), min_size=1, max_size=4),
        label="layers",
    )
    return rows, vectors, operands, layers, size


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
class TestGathered:
    """The layers' sum, made from unreduced row sums, against the composition
    of ``lincombs``, ``gather`` and ``lincomb`` and against the scalar oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_is_the_sum_of_the_gathered_layers_and_the_scalar_oracle(self, ctx, data):
        rows, vectors, operands, layers, size = data.draw(gathered_calls(ctx))
        out = ctx.gathered(rows, operands, layers, size)
        laid = [ctx.gather(ctx.lincombs(rows, operands), layer, size) for layer in layers]
        assert out == ctx.lincomb((1,) * len(laid), laid)
        assert out == gathered_oracle(ctx, rows, vectors, layers, size)
        assert type(out) is type(ctx.pack(out))  # the context's own Packed over GF(2^m)

    @pytest.mark.parametrize("length", [1, PACK_FROM - 1, PACK_FROM, MAX_LENGTH])
    def test_lays_zeros_for_none_and_for_rows_of_zeros(self, ctx, length):
        vectors = [tuple((3 * i + j) % ctx.q for j in range(length)) for i in range(3)]
        rows = [(0, 0, 0), (1, ctx.q - 1, 1)]
        for layers in ([[None, (0, 0)]], [[None, None], [(0, 0), None]]):
            assert ctx.gathered(rows, vectors, layers, 1) == (0, 0)
        one = ctx.gathered([(0, 0, 1)], vectors, [[None, (0, length - 1)], [(0, 0), None]], 1)
        assert one == (vectors[2][0], vectors[2][-1])
        assert ctx.gathered([(1, 0, 0), (0, 0, 1)], vectors, [[(0, 0)], [(1, 0)]], 1) == (
            ctx.add(vectors[0][0], vectors[2][0]),
        )

    def test_mixes_packed_and_plain_operands_and_another_contexts(self, ctx):
        other = FieldContext.binary(8) if ctx != FieldContext.binary(8) else FieldContext.binary(4)
        length = MAX_LENGTH
        vectors = [tuple((5 * i + j) % min(ctx.q, other.q) for j in range(length)) for i in range(3)]
        rows = [(1, 2 % ctx.q, ctx.q - 1), (0, 1, 1)]
        layers, want = [[(0, 1), (1, 0)], [None, (0, 3)]], None
        for operands in (
            vectors,
            [ctx.pack(v) for v in vectors],
            [vectors[0], ctx.pack(vectors[1]), other.pack(vectors[2])],
            [other.pack(v) for v in vectors],
        ):
            got = ctx.gathered(rows, operands, layers, 8)
            want = want or gathered_oracle(ctx, rows, vectors, layers, 8)
            assert got == want
        if ctx.kind == "binary" and ctx.q < other.q:  # checked again, and refused
            with pytest.raises(FieldError):
                ctx.gathered(rows, [*vectors[:2], other.pack((ctx.q,) * length)], layers, 8)

    @pytest.mark.parametrize("length", [1, PACK_FROM - 1, PACK_FROM, MAX_LENGTH])
    def test_rejects_input_outside_field(self, ctx, length):
        # as ``lincombs`` checks them: a term zero in every row is dropped,
        # over GF(p), after the coefficient checks and before the symbol
        # checks; below PACK_FROM symbols GF(p) checks the coefficients alone
        q, ok = ctx.q, (1,) * length
        layers = [[(0, 0)], [None]]
        cases = [
            (((1,), (q,)), (ok,)),  # a coefficient outside the field, in any row
            (((-1,), (1,)), (ok,)),
            (((1.5,),), (ok,)),
            (((0.0, 1),), (ok, ok)),  # a float of the field's value, at every length
            (((1.0,),), (ok,)),
            (((2.0,),), (ok,)),
        ]
        if ctx.kind == "binary" or length >= PACK_FROM:
            cases += [
                (((0, 1), (1, 1)), (ok, (q,) + ok[1:])),  # a symbol outside the field
                (((1,),), ((-1,) + ok[1:],)),
                (((1,),), ((1.5,) + ok[1:],)),
            ]
        for rows, vectors in cases:
            with pytest.raises(FieldError):
                ctx.gathered(rows, vectors, layers, 1)

    @pytest.mark.parametrize("length", [1, PACK_FROM - 1, PACK_FROM, MAX_LENGTH])
    def test_rejects_picks_and_layers_it_cannot_lay(self, ctx, length):
        # on every path, rows of zeros included, whose sums are all zero
        vectors = [(1,) * length] * 2
        for rows in ([(1, 1)], [(0, 0)], [(1, 1), (0, 0)]):
            for layers in (
                [],  # no layer
                [[(0, 0)], [(0, 0), None]],  # layers of two counts of picks
                [[(0, length)]],  # a packet past the end of the combination
                [[(len(rows), 0)]],  # a row past the last
                [[(0, -1)]],  # negative packets and rows
                [[(0, -2)], [None]],
                [[(-1, 0)]],
                [[(5, 99)]],
                [[(0, 0.5)]],  # not an index
                [[()]],
            ):
                with pytest.raises(FieldError):
                    ctx.gathered(rows, vectors, layers, 1)
            if length > 2:  # a packet not whole: the second of length - 1 symbols
                with pytest.raises(FieldError):
                    ctx.gathered(rows, vectors, [[(0, 1)]], length - 1)
            for size in (0, -1):  # no packet size
                with pytest.raises(FieldError):
                    ctx.gathered(rows, vectors, [[None]], size)
        with pytest.raises(FieldError):  # rows of another count, as in lincombs
            ctx.gathered([(1,)], vectors, [[(0, 0)]], 1)


@pytest.mark.parametrize("ctx", PRIME_KERNEL_FIELDS, ids=lambda c: c.spec)
def test_gathered_takes_the_short_and_packed_paths_alike(ctx):
    # the same layers over operands on either side of PACK_FROM
    rows = [(1, ctx.q - 1), (2 % ctx.q, 1)]
    for length in (PACK_FROM - 1, PACK_FROM):
        vectors = [tuple((7 * i + j) % ctx.q for j in range(length)) for i in range(2)]
        layers = [[(1, 2), None, (0, 0)], [(0, 1), (1, 0), None], [None, None, (1, 4)]]
        want = gathered_oracle(ctx, rows, vectors, layers, 3)
        assert ctx.gathered(rows, vectors, layers, 3) == want


class TestGatheredSlotBound:
    """Over GF(65521) the sum of L layers of T terms stays in its 64-bit slot
    while L * T < 2^32: at the top of that range every slot holds
    (2^32 - 1) * (q - 1)^2, just under 2^64."""

    GF = FieldContext.prime(65521)

    def test_a_full_slot_of_layers_reduces_exactly(self):
        top, q = self.GF.q - 1, self.GF.q
        terms, layers = 2**16 + 1, 2**16 - 1  # L * T = 2^32 - 1
        assert 0 < 2**64 - layers * terms * top * top < 2**64 // 1000  # within 0.1% of 2^64
        vector = (top,) * PACK_FROM
        out = self.GF.gathered(
            [(top,) * terms], [vector] * terms, [[(0, 0), None]] * layers, PACK_FROM // 2
        )
        # the scalar oracle: each slot is L * T products (q - 1) * (q - 1)
        one = self.GF.mul(self.GF.mul(layers % q, terms % q), self.GF.mul(top, top))
        assert out == (one,) * (PACK_FROM // 2) + (0,) * (PACK_FROM // 2)

    def test_layers_of_terms_that_could_overflow_a_slot_are_refused(self):
        vector = (1,) * PACK_FROM
        with pytest.raises(FieldError, match="overflow"):
            self.GF.gathered([(1,) * 2**16], [vector] * 2**16, [[(0, 0)]] * 2**16, 1)
        # terms zero in every row do not count
        rows = [(1,) * (2**16 - 1) + (0,)]
        out = self.GF.gathered(rows, [vector] * 2**16, [[(0, 0)]] * (2**16 + 1), 1)
        assert out == (((2**16 + 1) * (2**16 - 1)) % self.GF.q,)


BINARY_KERNEL_FIELDS = [c for c in KERNEL_FIELDS if c.kind == "binary"]


@pytest.mark.parametrize("ctx", BINARY_KERNEL_FIELDS, ids=lambda c: c.spec)
class TestPacked:
    def test_pack_is_its_tuple(self, ctx):
        v = tuple(range(ctx.q))
        packed = ctx.pack(v)
        assert isinstance(packed, Packed) and packed.packed == bytes(v)
        assert packed == v and v == packed and not packed != v
        assert hash(packed) == hash(v) and {packed: 1}[v] == 1
        assert repr(packed) == repr(v) and str(packed) == str(v)
        assert packed < v + (0,) and sorted([packed, v]) == [v, v]
        assert type(packed[1:]) is tuple and packed[1:] == v[1:]
        assert type(packed[:]) is tuple and type(packed + (0,)) is tuple
        assert ctx.pack(packed) is packed

    def test_lincomb_returns_packed(self, ctx):
        out = ctx.lincomb((1, ctx.q - 1), ((1, 0), (1, 1)))
        assert isinstance(out, Packed) and out.packed == bytes(out)

    def test_pack_rejects_symbols_outside_field(self, ctx):
        for v in ((ctx.q,), (0, -1), (256, 0), (1.5, 0), ("1", 0)):
            with pytest.raises(FieldError):
                ctx.pack(v)

    def test_split_slices_a_packed_without_packing(self, ctx, monkeypatch):
        packings = []
        packing = FieldContext._packing

        def counting_packing(self, v):
            packings.append(v)
            return packing(self, v)

        v = tuple(i % ctx.q for i in range(12))
        packed = ctx.pack(v)
        monkeypatch.setattr(FieldContext, "_packing", counting_packing)
        assert ctx.split(packed, 4) == split(v, 4)
        assert packings == []
        # a plain vector is checked and packed once, not once per packet
        assert ctx.split(v, 4) == split(v, 4)
        assert packings == [v]

    def test_join_checks_only_what_it_did_not_make(self, ctx, monkeypatch):
        packings = []
        packing = FieldContext._packing

        def counting_packing(self, v):
            packings.append(v)
            return packing(self, v)

        own, plain = ctx.pack((1, 0)), (0, ctx.q - 1)
        monkeypatch.setattr(FieldContext, "_packing", counting_packing)
        joined = ctx.join([own, plain, own])
        assert isinstance(joined, Packed) and joined.packed == bytes(joined)
        assert joined == own + plain + own and packings == [plain]
        for bad in ((ctx.q, 0), (-1,), (1.5,)):
            with pytest.raises(FieldError):
                ctx.join([own, bad])

    def test_lincomb_rejects_input_outside_field(self, ctx):
        q, packed = ctx.q, ctx.pack((1, 0))
        for coeffs, vectors in (
            ((1,), ((q, 3),)),  # a symbol just outside the field
            ((1,), ((256,),)),
            ((1,), ((-1, 0),)),
            ((0, 1), ((q,), (1,))),  # checked even with a zero coefficient
            ((q,), ((1,),)),  # a coefficient just outside the field
            ((-1,), ((1,),)),
            ((256,), ((1,),)),
            ((1, -1), (packed, packed)),  # with packed operands too
        ):
            with pytest.raises(FieldError):
                ctx.lincomb(coeffs, vectors)


def test_packed_from_another_field_is_checked_again():
    gf16, gf256 = FieldContext.binary(4), FieldContext.binary(8)
    foreign = gf256.pack((200, 3))
    with pytest.raises(FieldError):
        gf16.lincomb((1,), (foreign,))
    with pytest.raises(FieldError):
        gf16.pack(foreign)
    fits = gf256.pack((9, 3))
    assert gf16.lincomb((1,), (fits,)).field is gf16
    assert gf16.pack(fits).field is gf16 and gf16.pack(fits) == fits


def outcome(f, *args):
    """What ``f(*args)`` returns, or the type of the exception it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc)


def same(got, want):
    """``got`` equals ``want`` and has its type: a plain tuple stays a plain tuple."""
    return type(got) is type(want) and got == want


def symbol_tuples(ctx, max_size=70):
    return st.lists(st.integers(0, ctx.q - 1), max_size=max_size).map(tuple)


@pytest.mark.parametrize("ctx", BINARY_KERNEL_FIELDS, ids=lambda c: c.spec)
class TestPackedTupleContract:
    """A ``Packed`` behaves exactly as its plain tuple of ints: each operation
    of the tuple's contract gives the same result of the same type, or
    raises the same error, on the ``Packed`` and on the tuple."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_compares_and_adds_as_its_tuple(self, ctx, data):
        v = data.draw(symbol_tuples(ctx), label="v")
        # another vector, equal to v, a prefix of it or an extension of it too
        w = data.draw(
            st.one_of(
                symbol_tuples(ctx),
                st.just(v),
                st.integers(0, len(v)).map(lambda n: v[:n]),
                symbol_tuples(ctx, 4).map(lambda e: v + e),
            ),
            label="w",
        )
        other, p = another_field(ctx), ctx.pack(v)
        # each side as a tuple, as this context's Packed and as another context's
        peers = [w, ctx.pack(w), other.pack(w), v, ctx.pack(v), other.pack(v)]
        for u in peers:
            t = tuple(u)
            for op in (eq, ne, lt, le, gt, ge, add):
                assert same(op(p, u), op(v, t)), (op, p, u)
                assert same(op(u, p), op(t, v)), (op, u, p)
        assert hash(p) == hash(v) and {p: 1}[v] == 1 and {v: 1}[p] == 1
        mixed, plain = [p, *peers], [v, *map(tuple, peers)]
        order = range(len(mixed))
        assert sorted(order, key=mixed.__getitem__) == sorted(order, key=plain.__getitem__)
        # a list or bytes of the same symbols is unequal and has no order against it
        for alien in (list(v), bytes(v)):
            for op in (eq, ne, lt, le, gt, ge, add):
                assert same(outcome(op, p, alien), outcome(op, v, alien)), (op, alien)
                assert same(outcome(op, alien, p), outcome(op, alien, v)), (op, alien)
        assert outcome(lt, p, list(v)) is TypeError and outcome(ge, bytes(v), p) is TypeError

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reads_and_searches_as_its_tuple(self, ctx, data):
        v = data.draw(symbol_tuples(ctx), label="v")
        p = ctx.pack(v)
        assert isinstance(p, Packed) and not isinstance(p, tuple)
        assert same(repr(p), repr(v)) and same(str(p), str(v)) and same(len(p), len(v))
        assert same(bool(p), bool(v)) and same(list(iter(p)), list(iter(v)))
        assert same(tuple(p), v) and same(list(p), list(v)) and same(bytes(p), bytes(v))
        for i in range(-len(v) - 2, len(v) + 2):  # out of range on both sides too
            assert same(outcome(p.__getitem__, i), outcome(v.__getitem__, i)), i
        bound = st.none() | st.integers(-80, 80)
        for _ in range(5):
            cut = slice(data.draw(bound), data.draw(bound), data.draw(bound))
            assert same(outcome(p.__getitem__, cut), outcome(v.__getitem__, cut)), cut
        assert outcome(p.__getitem__, "0") is TypeError is outcome(v.__getitem__, "0")
        present = data.draw(st.sampled_from(v)) if v else 0
        for x in (present, ctx.q - 1, 0, ctx.q, 256, -1, 1.0, True, "1", (1,)):
            assert same(x in p, x in v) and same(x not in p, x not in v), x
            assert same(p.count(x), v.count(x)), x
            assert same(outcome(p.index, x), outcome(v.index, x)), x
            start, stop = data.draw(st.integers(-75, 75)), data.draw(st.integers(-75, 75))
            assert same(outcome(p.index, x, start), outcome(v.index, x, start)), (x, start)
            assert same(outcome(p.index, x, start, stop), outcome(v.index, x, start, stop))


#: lengths of the window kernel's operands: one lane, a few, a packet of
#: ``serve-wide`` and one of its files
WINDOW_LENGTHS = [1, 7, 64, 960]


def combined(kernel, ctx, rows, operands):
    """Each row's combination: from one ``lincombs`` call, or from one
    ``gathered`` call per row that lays its whole combination as one layer."""
    if kernel == "lincombs":
        return ctx.lincombs(rows, operands)
    whole = len(operands[0])
    return [ctx.gathered(rows, operands, [[(a, 0)]], whole) for a in range(len(rows))]


def table_of(v):
    """The window table that the kernel keeps on ``v``, or None."""
    return vars(v).get("_table") if isinstance(v, Packed) else None


def another_field(ctx):
    """A GF(2^m) context other than ``ctx`` that holds every symbol of it."""
    return FieldContext.binary(8, poly=0x11B) if ctx.poly != 0x11B else FieldContext.binary(8)


@pytest.mark.parametrize("kernel", ["lincombs", "gathered"])
@pytest.mark.parametrize("ctx", BINARY_KERNEL_FIELDS, ids=lambda c: c.spec)
class TestWindowKernel:
    """The GF(2^m) kernel reads each operand through a table of its products
    by the coefficients below 16.  It builds one for an operand that some
    row multiplies by more than 1, keeps it on the context's own ``Packed``,
    and builds it for one call on any other operand."""

    def test_every_product_on_the_call_that_builds_the_table_and_after(self, ctx, kernel):
        xs = tuple(range(ctx.q))
        for c in range(ctx.q):
            want = [tuple(slow_gf2m_mul(c, x, ctx.poly, ctx.m) for x in xs)]
            v = ctx.pack(xs)
            assert combined(kernel, ctx, [(c,)], [v]) == want  # builds the table, if c > 1
            table = table_of(v)
            assert (table is not None) == (c > 1)
            assert combined(kernel, ctx, [(c,)], [v]) == want  # reads it
            assert table_of(v) is table
            assert combined(kernel, ctx, [(c,)], [xs]) == want  # a plain tuple, for the call

    @pytest.mark.parametrize("length", WINDOW_LENGTHS)
    def test_one_call_mixes_every_kind_of_operand(self, ctx, kernel, length):
        rng, other = random.Random(length), another_field(ctx)
        vectors = [ctx.random_vector(length, rng) for _ in range(4)]
        tabled, untabled, foreign = ctx.pack(vectors[0]), ctx.pack(vectors[1]), other.pack(vectors[3])
        ctx.lincomb((ctx.q - 1,), (tabled,))  # a table, but over GF(2)
        other.lincomb((other.q - 1,), (foreign,))  # a table of the other field's products
        kept, theirs = table_of(tabled), table_of(foreign)
        assert (kept is not None) == (ctx.q > 2) and theirs is not None
        rows = [ctx.random_vector(4, rng) for _ in range(3)] + [(1,) * 4, (ctx.q - 1,) * 4]
        operands = [tabled, untabled, vectors[2], foreign]
        want = [lincomb_oracle(ctx, row, vectors) for row in rows]
        assert combined(kernel, ctx, rows, operands) == want
        assert table_of(tabled) is kept and table_of(foreign) is theirs
        # the untabled operand is multiplied by q - 1, more than 1 but over GF(2)
        assert (table_of(untabled) is not None) == (ctx.q > 2)
        assert combined(kernel, ctx, rows, operands) == want

    @pytest.mark.parametrize("length", WINDOW_LENGTHS)
    def test_rows_of_zeros_and_ones_build_no_table(self, ctx, kernel, length):
        rng = random.Random(length)
        vectors = [ctx.random_vector(length, rng) for _ in range(3)]
        rows = [(1, 0, 1), (0, 1, 1), (0, 0, 0), (1, 1, 1)]
        operands = [ctx.pack(vectors[0]), vectors[1], ctx.pack(vectors[2])]
        want = [lincomb_oracle(ctx, row, vectors) for row in rows]
        assert combined(kernel, ctx, rows, operands) == want
        assert table_of(operands[0]) is None and table_of(operands[2]) is None


@pytest.mark.parametrize("kernel", ["lincombs", "gathered"])
def test_a_table_made_under_one_polynomial_is_not_read_under_another(kernel):
    gf_d, gf_b = FieldContext.binary(8), FieldContext.binary(8, poly=0x11B)
    xs = tuple(range(256))
    v = gf_d.pack(xs)
    assert gf_d.lincomb((2,), (v,)) == tuple(slow_gf2m_mul(2, x, 0x11D, 8) for x in xs)
    table = table_of(v)
    assert table is not None
    for c in range(256):
        want = [tuple(slow_gf2m_mul(c, x, 0x11B, 8) for x in xs)]
        assert combined(kernel, gf_b, [(c,)], [v]) == want
    assert table_of(v) is table


@pytest.mark.parametrize("ctx", PRIME_KERNEL_FIELDS, ids=lambda c: c.spec)
class TestPackedPrimeKernel:
    """The GF(p) kernel from ``PACK_FROM`` symbols on: one int of 64-bit slots per operand."""

    @pytest.mark.parametrize("length", [PACK_FROM, MAX_LENGTH])
    def test_rejects_input_outside_field(self, ctx, length):
        q, ok = ctx.q, (1,) * length

        def bad(x):  # a vector of the field's symbols but one
            return (x,) + ok[1:]

        for coeffs, vectors in (
            ((-1,), (ok,)),  # coefficients just outside the field
            ((q,), (ok,)),
            ((1, 1), (ok, bad(q))),  # a symbol just outside the field
            ((1,), (bad(2**40),)),  # one that would carry into the next slot
            ((1,), (bad(2**32 - 1),)),  # either side of the checks' 2^32
            ((1,), (bad(2**32),)),
            ((1,), (bad(2**64 - 1),)),  # the largest slot, and one past it
            ((1,), (bad(2**64),)),
            ((1,), (bad(-1),)),
            ((1,), (bad(1.5),)),  # no int at all
            ((1.5,), (ok,)),
        ):
            with pytest.raises(FieldError):
                ctx.lincomb(coeffs, vectors)

    def test_a_full_slot_reduces_exactly(self, ctx):
        # T terms of (q - 1) * (q - 1) each fill a slot up to T * (q - 1)^2
        top, terms = ctx.q - 1, 1000
        vectors = [(top,) * PACK_FROM] * terms
        want = (terms * top * top) % ctx.q
        assert ctx.lincomb((top,) * terms, vectors) == (want,) * PACK_FROM


def test_the_short_gf_p_path_checks_every_coefficient():
    # below PACK_FROM symbols each output symbol is one sum; the coefficients
    # of its nonzero terms are checked all the same
    gf5 = FieldContext.prime(5)
    for coeffs in ((7,), (-1,), (1.5,), (1, 5)):
        with pytest.raises(FieldError):
            gf5.lincomb(coeffs, ((1, 2),) * len(coeffs))
    assert gf5.lincomb((0, 1), ((1, 2), (1, 2))) == (1, 2)


@pytest.mark.parametrize("ctx", PRIME_KERNEL_FIELDS, ids=lambda c: c.spec)
def test_pack_is_identity_over_prime_fields(ctx):
    v = (0, ctx.q - 1)
    assert ctx.pack(v) is v


@pytest.mark.parametrize("ctx", PRIME_KERNEL_FIELDS, ids=lambda c: c.spec)
def test_pack_checks_symbols_over_prime_fields(ctx):
    for v in ((ctx.q,), (0, -1), (1, ctx.q, 0)):
        with pytest.raises(FieldError):
            ctx.pack(v)


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
class TestSplit:
    """``split`` against the plain slicer, with plain and packed input."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_slicer(self, ctx, data):
        f = data.draw(st.integers(1, 6), label="f")
        size = data.draw(st.integers(1, 5), label="size")
        v = data.draw(st.tuples(*[st.integers(0, ctx.q - 1)] * (f * size)), label="v")
        want = split(v, f)
        ready = type(ctx.pack(v))  # the context's own Packed over GF(2^m)
        for operand in (v, ctx.pack(v)):
            packets = ctx.split(operand, f)
            assert packets == want
            assert all(type(packet) is ready for packet in packets)
            # the kernel reads each packet's packing, not its tuple
            assert ctx.lincomb((1,) * f, packets) == lincomb_oracle(ctx, (1,) * f, want)

    def test_rejects_a_count_that_does_not_divide(self, ctx):
        v = (0, 1, 0, 1)
        for f in (3, 5, 0, -1, -4, 2.0):
            with pytest.raises(FieldError):
                ctx.split(v, f)
            with pytest.raises(FieldError):
                ctx.split(ctx.pack(v), f)

    def test_rejects_symbols_outside_field(self, ctx):
        for v in ((ctx.q, 0), (0, -1), (1, 0, 0, ctx.q), (1.5, 0), ("1", 0)):
            with pytest.raises(FieldError):
                ctx.split(v, 2)


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
def test_non_integers_are_field_errors(ctx):
    for value in (1.5, 2.0, "1", None):
        with pytest.raises(FieldError):
            ctx.check(value)
        with pytest.raises(FieldError):
            ctx.pack((value, 0))
    if ctx.kind == "binary":  # the kernel packs and checks plain operands
        with pytest.raises(FieldError):
            ctx.lincomb((1,), ((1.5, 2),))


def test_a_context_equals_no_other_kind_of_object():
    ctx = FieldContext.prime(5)
    assert ctx.__eq__(5) is NotImplemented and ctx.__eq__("p:5") is NotImplemented
    assert ctx != 5 and ctx != "p:5" and ctx != None  # noqa: E711
    assert ctx == FieldContext.parse("p:5")


@pytest.mark.parametrize(
    "ctx", [c for c in KERNEL_FIELDS if c.q <= 256], ids=lambda c: c.spec
)
def test_lincomb_scaling_equals_mul_for_every_pair(ctx):
    elements = tuple(range(ctx.q))
    for c in elements:
        assert ctx.lincomb((c,), (elements,)) == tuple(ctx.mul(c, x) for x in elements)


class TestFieldElement:
    def test_operators(self):
        a, b = FieldElement.of(GF5, 3), FieldElement.of(GF5, 4)
        assert (a + b).value == 2
        assert (a * b).value == 2
        assert (-a).value == 2
        assert a.inverse().value == 2  # 3 * 2 = 6 = 1 mod 5

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            FieldElement.of(GF5, 1) + FieldElement.of(GF2, 1)

    def test_out_of_range(self):
        with pytest.raises(FieldError):
            FieldElement.of(GF5, 5)

    def test_dot_wrapper(self):
        u = [FieldElement.of(GF2, x) for x in (1, 0, 1, 1)]
        w = [FieldElement.of(GF2, x) for x in (1, 1, 1, 0)]
        assert dot(u, w).value == 0


class TestConstruction:
    def test_default_polys_are_irreducible(self):
        for m in DEFAULT_POLYS:
            FieldContext.binary(m)  # raises if the stored poly is reducible

    def test_reducible_poly_rejected(self):
        with pytest.raises(FieldError):
            FieldContext.binary(3, poly=0b1111)  # x^3+x^2+x+1 = (x+1)(x^2+1)

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            FieldContext.prime(9)

    def test_parse_specs(self):
        assert FieldContext.parse("p:7").q == 7
        ctx = FieldContext.parse("b:3")
        assert ctx.q == 8 and ctx.poly == 0b1011
        ctx = FieldContext.parse("b:3:poly=0xb")
        assert ctx.poly == 0xB

    def test_parse_bad_spec(self):
        for spec in ("q:3", "p:", "b:0", "p:four", "b:3:gen=2"):
            with pytest.raises(FieldError):
                FieldContext.parse(spec)

    def test_degree_bounds(self):
        with pytest.raises(FieldError):
            FieldContext.binary(9)

    def test_direct_construction_is_validated(self):
        # the constructor is a public boundary too, not only prime()/binary()
        for q, kwargs in (
            (4, dict(kind="prime")),  # not prime
            (5, dict(kind="prime", poly=7)),  # would compare unequal to GF(5)
            (7, dict(kind="trinary")),  # unknown kind
            (8, dict(kind="binary", m=2, poly=0b111)),  # order is not 2^m
            (8, dict(kind="binary", m=3, poly=0b1111)),  # reducible polynomial
            (1 << 10, dict(kind="binary", m=10, poly=0b10000001001)),  # degree too high
        ):
            with pytest.raises(FieldError):
                FieldContext(q, **kwargs)
        assert FieldContext(5, kind="prime") == GF5
        assert FieldContext(8, kind="binary", m=3, poly=0b1011) == GF8


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FieldContext.prime(1), "1 is not prime"),
        (lambda: FieldContext.prime(65537), "order 65537 exceeds 65536"),
        (lambda: FieldContext.binary(3, poly=0b111), "not irreducible of degree 3"),
        (lambda: GF5.vec_add((1, 2), (3,)), "length mismatch: 2 vs 1"),
    ],
    ids=["prime-1", "prime-too-large", "poly-of-wrong-degree", "vec-add-lengths"],
)
def test_bad_input_is_rejected(make, message):
    with pytest.raises(FieldError, match=message):
        make()


@pytest.mark.parametrize("ctx", BINARY_KERNEL_FIELDS, ids=lambda c: c.spec)
def test_products_and_inverses_match_carryless_multiplication(ctx):
    elements = range(ctx.q)
    for a in elements:
        assert [ctx.mul(a, b) for b in elements] == [
            poly_mulmod(a, b, ctx.poly) for b in elements
        ]
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_every_polynomial_is_accepted_iff_irreducible():
    accepted = 0
    for m in range(1, MAX_BINARY_DEGREE + 1):
        for poly in range(1 << m, 1 << (m + 1)):
            if is_irreducible(poly, m):
                assert FieldContext.binary(m, poly).poly == poly
                accepted += 1
            else:
                message = f"polynomial {poly:#x} is not irreducible of degree {m}"
                with pytest.raises(FieldError, match=f"^{message}$"):
                    FieldContext.binary(m, poly)
    assert accepted == 71  # the irreducible polynomials of degree 1..8 over GF(2)


@pytest.mark.parametrize(
    "m, poly", [(8, 0x1FFFF), (2, -0b101), (8, 0)], ids=["too-high", "negative", "zero"]
)
def test_polynomial_of_another_degree_is_a_field_error(m, poly):
    # the degree is checked before any product row is built: -0b101 has the
    # bit length of a degree-2 polynomial, but is none
    spec = f"b:{m}:poly={poly:x}"
    message = f"polynomial {poly:#x} is not irreducible of degree {m}"
    with pytest.raises(FieldError, match=f"^{message}$"):
        FieldContext.binary(m, poly)
    with pytest.raises(FieldError, match=f"^bad field spec '{spec}': {message}$"):
        FieldContext.parse(spec)


# -- Gaussian elimination: the dense reference, and the audit's sparse eliminator ---

ELIMINATION_FIELDS = [FieldContext.prime(2), FieldContext.prime(3), GF5, FieldContext.binary(2)]


def brute_span(ctx, rows, length):
    """Every linear combination of ``rows``, by enumerating the coefficients."""
    span = {(0,) * length}
    for row in rows:
        span = {
            tuple(ctx.add(x, ctx.mul(c, y)) for x, y in zip(v, row))
            for v in span
            for c in range(ctx.q)
        }
    return span


@pytest.mark.parametrize("ctx", ELIMINATION_FIELDS, ids=lambda c: c.spec)
class TestElimination:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_against_brute_force_span(self, ctx, data):
        length = data.draw(st.integers(0, 4), label="length")
        element = st.integers(0, ctx.q - 1)
        rows = data.draw(st.lists(st.tuples(*[element] * length), max_size=5), label="rows")
        span = brute_span(ctx, rows, length)
        basis = echelon(ctx, rows)
        # the rank is the dimension: the span has q^rank vectors
        assert ctx.q ** len(basis) == len(span)
        # the basis spans the same space and is in reduced echelon form
        assert brute_span(ctx, basis, length) == span
        pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(set(pivots))
        for b, c in zip(basis, pivots):
            assert b[c] == 1
            assert all(other[c] == 0 for other in basis if other is not b)
        # a vector reduces to zero iff it lies in the span
        v = data.draw(st.tuples(*[element] * length), label="v")
        assert (not any(reduce(ctx, basis, v))) == (v in span)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_basis_is_canonical(self, ctx, data):
        element = st.integers(0, ctx.q - 1)
        rows = data.draw(st.lists(st.tuples(*[element] * 3), max_size=4), label="rows")
        # any reordering and any combination of the rows spans the same space
        shuffled = data.draw(st.permutations(rows), label="order")
        coeffs = data.draw(st.lists(element, min_size=len(rows), max_size=len(rows)))
        extra = ctx.lincomb(coeffs, rows) if rows else (0, 0, 0)
        assert echelon(ctx, shuffled + [extra]) == echelon(ctx, rows)

    def test_full_rank_identity(self, ctx):
        identity = [tuple(int(i == j) for i in range(3)) for j in range(3)]
        assert echelon(ctx, reversed(identity)) == tuple(identity)
        assert echelon(ctx, []) == () and echelon(ctx, [(0, 0)]) == ()


def dense(rows, columns):
    """Sparse rows {slot: coefficient} as tuples over ``columns``."""
    return [tuple(row.get(c, 0) for c in columns) for row in rows]


@pytest.mark.parametrize("ctx", ELIMINATION_FIELDS, ids=lambda c: c.spec)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_audit_eliminator_against_the_dense_reference(ctx, data):
    slots, element = range(6), st.integers(1, ctx.q - 1)
    rows = data.draw(st.lists(st.dictionaries(st.sampled_from(slots), element), max_size=6))
    columns = data.draw(st.lists(st.sampled_from(slots), unique=True), label="columns")
    copies = [dict(row) for row in rows]
    left, pivots = _eliminate(ctx, rows, columns)
    assert rows == copies, "the input rows were changed"
    # one pivot per dimension of the rows restricted to the columns
    assert len(pivots) == len(echelon(ctx, dense(rows, columns)))
    assert not any(c in row for row in left for c in columns)
    assert all(all(row.values()) for row in left)  # no zero coefficient is kept
    # the rows left and the pivot rows span what the rows span
    assert echelon(ctx, dense(left + pivots, slots)) == echelon(ctx, dense(rows, slots))
