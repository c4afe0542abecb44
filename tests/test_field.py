"""Tests for exact GF(q) arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from splfr.field import DEFAULT_POLYS, FieldContext, FieldError, Packed

from oracle import ContextMismatchError, FieldElement, dot, field_dot, split


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
#: + x^3 + x + 1), whose tables need a generator other than x
KERNEL_FIELDS = [FieldContext.prime(p) for p in (2, 3, 5, 65521)] + [
    FieldContext.binary(m) for m in range(1, 9)
] + [FieldContext.binary(8, poly=0x11B)]

#: the largest library of the benchmark workloads has 20 files
MAX_VECTORS = 20


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
        length = data.draw(st.integers(1, 8), label="length")
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
        for v in ((ctx.q,), (0, -1), (256, 0)):
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


@pytest.mark.parametrize("ctx", [c for c in KERNEL_FIELDS if c.kind == "prime"],
                         ids=lambda c: c.spec)
def test_pack_is_identity_over_prime_fields(ctx):
    v = (0, ctx.q - 1)
    assert ctx.pack(v) is v


@pytest.mark.parametrize("ctx", [c for c in KERNEL_FIELDS if c.kind == "prime"],
                         ids=lambda c: c.spec)
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
        for f in (3, 5, 0, -1, -4):
            with pytest.raises(FieldError):
                ctx.split(v, f)
            with pytest.raises(FieldError):
                ctx.split(ctx.pack(v), f)

    def test_rejects_symbols_outside_field(self, ctx):
        for v in ((ctx.q, 0), (0, -1), (1, 0, 0, ctx.q)):
            with pytest.raises(FieldError):
                ctx.split(v, 2)


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.spec)
def test_vec_neg_is_the_additive_inverse(ctx):
    v = tuple(range(min(ctx.q, 9))) + (ctx.q - 1,)
    minus = ctx.vec_neg(v)
    assert minus == tuple(map(ctx.neg, v))
    assert ctx.vec_add(v, minus) == (0,) * len(v)
    if ctx.kind == "binary":
        assert minus is v  # the identity, with no copy


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


# -- Gaussian elimination ------------------------------------------------------

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
        basis = ctx.echelon(rows)
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
        assert (not any(ctx.reduce(basis, v))) == (v in span)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_basis_is_canonical(self, ctx, data):
        element = st.integers(0, ctx.q - 1)
        rows = data.draw(st.lists(st.tuples(*[element] * 3), max_size=4), label="rows")
        # any reordering and any combination of the rows spans the same space
        shuffled = data.draw(st.permutations(rows), label="order")
        coeffs = data.draw(st.lists(element, min_size=len(rows), max_size=len(rows)))
        extra = ctx.lincomb(coeffs, rows) if rows else (0, 0, 0)
        assert ctx.echelon(shuffled + [extra]) == ctx.echelon(rows)

    def test_full_rank_identity(self, ctx):
        identity = [tuple(int(i == j) for i in range(3)) for j in range(3)]
        assert ctx.echelon(reversed(identity)) == tuple(identity)
        assert ctx.echelon([]) == () and ctx.echelon([(0, 0)]) == ()
