"""Exact finite-field arithmetic in GF(q).

Supports prime fields GF(p) for p up to 2^16 and binary extension fields
GF(2^m) for 1 <= m <= 8.  Extension-field arithmetic is built from the
polynomial alone, so no generator is needed: scalar ``mul``, ``inv`` and
the irreducibility check read a product table, one row per coefficient,
and the kernel reads window tables, each operand's products by the
coefficients below 16, made by doubling every symbol of it at once.  All
arithmetic is exact, over plain unsigned integers; no floating point is
used anywhere.

Elements are bare ints; a FieldContext supplies the arithmetic, the
linear-combination kernel ``lincombs`` (many coefficient rows over one set
of operands, each operand prepared once; ``lincomb`` is its one row) and
its twin ``gathered`` (the sum of layers of picked packets of the rows'
combinations, with no combination made).  The field does no linear
algebra beyond these: the exact audits eliminate with its scalar ``add``,
``mul``, ``neg`` and ``inv``.

Vectors are tuples of ints, and the context owns their representation, so
callers never branch on the field kind: ``pack`` checks a vector and makes
it ready for the kernel, ``split`` cuts one into ready packets, ``join``
joins them into one, and ``gather`` lays picked packets of several end to
end, zeros where none is picked.  Over GF(p) a ready vector is the vector
itself.  Over GF(2^m) the kernel works on bytes, one per symbol, and a
ready vector is a ``Packed``, which holds that packing alone and no tuple
of its symbols: it reads, compares, hashes, slices and prints like its
plain tuple, builds that tuple only where such a call needs it, and is
neither converted nor checked again by ``lincombs``, ``split``, ``join``
or ``gather``.  Each context makes its ``Packed`` vectors as its own
subclass, and checks another context's again.  ``lincombs`` and
``gathered`` pack (and check) plain tuples on the fly and return ``Packed``
vectors.  They also keep the window table of each of their context's own
``Packed`` operands that they multiply by a coefficient above 1, so that an
operand multiplied round after round, such as a library file, builds it
once.  That cache is the one state that a context's methods write, and it
is idempotent: a table is a function of the vector and the context alone.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, compress
from operator import eq, ge, gt, le, lt, mul, ne
from sys import byteorder
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Invalid field construction or an operation outside the field."""


def _order(compare):
    """A ``Packed`` comparison that agrees with the plain tuple's: by the
    bytes against another ``Packed``, as a tuple against a tuple, and
    ``NotImplemented`` against anything else, as the tuple's."""

    def method(self: "Packed", other: object):
        if isinstance(other, Packed):
            return compare(self.packed, other.packed)
        if isinstance(other, tuple):
            return compare(tuple(self.packed), other)
        return NotImplemented

    return method


class Packed:
    """A GF(2^m) vector held as its bytes alone, one per symbol.

    Built only by ``FieldContext.pack``, ``split``, ``join``, ``gather``,
    ``lincombs`` and ``gathered``, from symbols that are checked to lie in
    the field of the context that made it.
    Each GF(2^m) context makes its vectors as its own subclass, so that the
    kernel can tell them from another context's, which it checks again, by
    their type alone.  It keeps the contract of its plain tuple of ints:
    ``len``, iteration and integer indexing read the bytes; ``==``, ``!=``,
    ``hash``, ordering, ``repr`` and ``str`` are the tuple's (two ``Packed``
    compare by their bytes, which order as their symbols do); a slice, and
    ``+`` with a tuple on either side, are a plain tuple; ``in``, ``count``
    and ``index`` are the tuple's.  A tuple is built only where one of these
    needs it, so a vector that nothing reads symbol by symbol never has one.
    ``_table`` is the vector's window table, set by the first kernel call
    of that context that multiplies it by a coefficient above 1 and read by
    every later one; no other context reads it.
    """

    _table: tuple[int, ...] | None = None

    def __init__(self, packed: bytes):
        self.packed = packed if type(packed) is bytes else bytes(packed)

    __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = map(_order, (eq, ne, lt, le, gt, ge))

    def __hash__(self) -> int:
        return hash(tuple(self.packed))

    def __repr__(self) -> str:
        return repr(tuple(self.packed))

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self):
        return iter(self.packed)

    def __bytes__(self) -> bytes:
        return self.packed

    def __getitem__(self, i):
        item = self.packed[i]
        return tuple(item) if type(item) is bytes else item

    def __add__(self, other):
        if isinstance(other, (tuple, Packed)):
            return tuple(self.packed) + tuple(other)
        return NotImplemented

    def __radd__(self, other):
        if isinstance(other, tuple):
            return other + tuple(self.packed)
        return NotImplemented

    def count(self, x) -> int:
        return tuple(self.packed).count(x)

    def index(self, x, *bounds) -> int:
        return tuple(self.packed).index(x, *bounds)


#: Default irreducible polynomials for GF(2^m), as bitmasks including the
#: x^m term (e.g. 0b1011 = x^3 + x + 1).  All are primitive.
DEFAULT_POLYS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
}

MAX_PRIME = 1 << 16
MAX_BINARY_DEGREE = 8
PACK_FROM = 16  # GF(p) vectors of this many symbols or more are combined packed


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _gather(vectors: Sequence, picks: Sequence, size: int, unit: Sequence) -> Sequence:
    """``gather`` over sequences: packet x of ``vectors[a]``, ``size`` symbols,
    for each pick (a, x), and ``size`` copies of the zero ``unit`` for None,
    end to end, as bytes if ``unit`` is bytes and else as a tuple.

    A pick that names no whole packet raises: an index that is no int or a
    vector past the last where it is read, and a negative packet (taken as
    empty, not wrapped round) or one past the end or cut short by it where
    the result's length is checked, once.
    """
    if not isinstance(size, int) or size < 1:
        raise FieldError(f"packet size {size!r} is not a positive int")
    zero, empty = unit * size, unit[:0]
    try:
        packets = [
            zero if p is None
            else vectors[p[0]][p[1] * size : (p[1] + 1) * size] if p[0] >= 0 <= p[1] else empty
            for p in picks
        ]
    except (IndexError, TypeError):
        raise FieldError("a pick lies outside the vectors' packets") from None
    out = b"".join(packets) if type(unit) is bytes else tuple(chain.from_iterable(packets))
    if len(out) != len(picks) * size:
        raise FieldError("a pick lies outside the vectors' packets")
    return out


def _packet_size(length: int, f) -> int:
    """The size of f equal packets of ``length`` symbols: f must be a positive
    int that divides ``length``, or ``split`` refuses it."""
    if not isinstance(f, int) or f <= 0 or length % f:
        raise FieldError(f"packet count {f} does not divide vector length {length}")
    return length // f


@lru_cache(maxsize=64)
def _times(m: int, poly: int, length: int, k: int):
    """y -> x^k * y mod ``poly`` in each of ``length`` byte lanes of a big-endian int.

    For k <= m.  A lane's bits below its top k shift up by k; each of those
    top bits, bit m - k + i, brought down to the lane's bit 0 and times
    x^(m + i) mod ``poly``, adds its reduction.  Built once per shape, as
    the masks cost more than a use.
    """

    def lanes(byte: int) -> int:
        return int.from_bytes(bytes([byte]) * length, "big")

    low, ones, reductions, r = lanes((1 << (m - k)) - 1), lanes(1), [], poly ^ (1 << m)
    for bit in range(m - k, m):
        reductions.append((bit, r))
        r = (r << 1) ^ (poly if r >> (m - 1) else 0)

    def times(y: int) -> int:
        out = (y & low) << k
        for bit, r in reductions:
            out ^= ((y >> bit) & ones) * r
        return out

    return times


def _windows(x: int, m: int, poly: int, length: int) -> tuple[int, ...]:
    """The window table of ``x``, ``length`` lanes over GF(2^m): entry c is
    c * x, for c < min(2^m, 16).

    By linearity in c, entry c + 2^k is entry c plus 2^k * x, so the table
    takes min(m, 4) - 1 lane-wise doublings and XORs alone.
    """
    double, table = _times(m, poly, length, 1), [0, x]
    for _ in range(min(m, 4) - 1):
        x = double(x)
        table += [x ^ y for y in table]
    return tuple(table)


def _build_rows(m: int, poly: int) -> dict[int, bytes]:
    """The GF(2^m) product table of scalar ``mul`` and ``inv``: row c maps
    each x < 2^m to c * x mod poly.

    The rows are keyed by the coefficients 0..2^m - 1, so that a lookup
    also rejects a coefficient outside the field.  The product is linear
    in c: row 2c is row c doubled through the table of x -> 2x mod poly,
    padded to the 256 bytes that ``bytes.translate`` needs, and row 2c + 1
    adds row 1 to that.  ``poly`` must have degree m.
    """
    q = 1 << m
    double = bytes((x << 1) ^ (poly if x >> (m - 1) else 0) for x in range(q)).ljust(256, b"\0")
    rows = {0: bytes(q), 1: bytes(range(q))}
    one = int.from_bytes(rows[1], "big")
    for c in range(2, q):
        row = rows[c >> 1].translate(double)
        if c & 1:
            row = (int.from_bytes(row, "big") ^ one).to_bytes(q, "big")
        rows[c] = row
    return rows


class FieldContext:
    """Descriptor of GF(q): either a prime field or a binary extension.

    Immutable after construction, and every method is a pure function of
    its arguments, but for one cache: the kernel keeps the window table of
    each of the context's own ``Packed`` operands that it multiplies by more
    than 1 on that vector.  A table is a function of the vector and the
    context alone, so building it twice, in two threads say, writes the
    same value, and a context may be shared freely across threads.
    """

    def __init__(self, q: int, *, kind: str, m: int = 0, poly: int = 0):
        if kind == "prime":
            if q > MAX_PRIME:
                raise FieldError(f"prime field order {q} exceeds {MAX_PRIME}")
            if not _is_prime(q):
                raise FieldError(f"{q} is not prime")
            if m or poly:
                raise FieldError("a prime field takes no degree or polynomial")
        elif kind == "binary":
            if not 1 <= m <= MAX_BINARY_DEGREE:
                raise FieldError(f"extension degree {m} out of range [1, {MAX_BINARY_DEGREE}]")
            if q != 1 << m:
                raise FieldError(f"GF(2^{m}) has order {1 << m}, not {q}")
            # the degree first, as the rows are built only for degree m; then
            # GF(2)[x]/(poly) is a field iff every nonzero element has an
            # inverse, that is iff each of the rows 1..q-1 holds a 1
            rows = poly >> m == 1 and _build_rows(m, poly)
            if not rows or not all(1 in rows[c] for c in range(1, q)):
                raise FieldError(f"polynomial {poly:#x} is not irreducible of degree {m}")
            self._rows = rows
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self.q = q
        self.kind = kind  # "prime" or "binary"
        self.m = m
        self.poly = poly
        if kind == "binary":
            self._packed = type("Packed", (Packed,), {})

    # -- constructors -----------------------------------------------------

    @classmethod
    def prime(cls, p: int) -> "FieldContext":
        return cls(p, kind="prime")

    @classmethod
    def binary(cls, m: int, poly: int | None = None) -> "FieldContext":
        if not 1 <= m <= MAX_BINARY_DEGREE:
            raise FieldError(f"extension degree {m} out of range [1, {MAX_BINARY_DEGREE}]")
        if poly is None:
            poly = DEFAULT_POLYS[m]
        return cls(1 << m, kind="binary", m=m, poly=poly)

    @classmethod
    def parse(cls, spec: str) -> "FieldContext":
        """Parse a field spec string: ``p:<prime>`` or ``b:<m>[:poly=<hex>]``."""
        parts = spec.split(":")
        try:
            if parts[0] == "p" and len(parts) == 2:
                return cls.prime(int(parts[1]))
            if parts[0] == "b" and len(parts) in (2, 3):
                m = int(parts[1])
                poly = None
                if len(parts) == 3:
                    key, _, value = parts[2].partition("=")
                    if key != "poly":
                        raise FieldError(f"unknown field option {key!r}")
                    poly = int(value, 16)
                return cls.binary(m, poly)
        except ValueError as exc:
            raise FieldError(f"bad field spec {spec!r}: {exc}") from exc
        raise FieldError(f"bad field spec {spec!r}")

    @property
    def spec(self) -> str:
        if self.kind == "prime":
            return f"p:{self.q}"
        return f"b:{self.m}:poly={self.poly:#x}"

    # -- scalar arithmetic on bare ints ----------------------------------

    def check(self, a: int) -> int:
        if not (isinstance(a, int) and 0 <= a < self.q):
            raise FieldError(f"value {a!r} outside [0, {self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        """a + b, unchecked: the exact audits' elimination loop runs on it."""
        if self.kind == "prime":
            return (a + b) % self.q
        return a ^ b

    def neg(self, a: int) -> int:
        """-a, unchecked: the exact audits' elimination loop runs on it."""
        if self.kind == "prime":
            return (-a) % self.q
        return a

    def mul(self, a: int, b: int) -> int:
        """a * b.  Over GF(2^m) both are checked, as they index the product
        table; over GF(p) neither, as the exact audits' elimination loop
        runs on it."""
        if self.kind == "prime":
            return (a * b) % self.q
        return self._rows[self.check(a)][self.check(b)]

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise FieldError("zero has no multiplicative inverse")
        if self.kind == "prime":
            return pow(a, self.q - 2, self.q)
        return self._rows[a].index(1)

    # -- vector helpers --------------------------------------------------

    def vec_add(self, u: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
        if len(u) != len(w):
            raise FieldError(f"length mismatch: {len(u)} vs {len(w)}")
        if self.kind == "binary":
            return tuple([a ^ b for a, b in zip(u, w)])
        q = self.q
        return tuple([(a + b) % q for a, b in zip(u, w)])

    def vec_scale(self, c: int, u: Sequence[int]) -> tuple[int, ...]:
        """c * u, with c and every symbol of u checked to lie in the field."""
        self.check(c)
        return tuple([self.mul(c, a) for a in map(self.check, u)])

    def pack(self, v: Sequence[int]) -> Sequence[int]:
        """``v`` checked and ready for the kernel.

        That is a ``Packed`` over GF(2^m), and ``v`` itself over GF(p).
        """
        if self.kind == "binary":
            return v if type(v) is self._packed else self._packed(self._packing(v))
        try:  # no non-int or negative symbol, and none of q or more
            if max(array("Q", v), default=0) < self.q:
                return v
        except (TypeError, OverflowError):
            pass
        raise FieldError(f"symbols outside [0, {self.q})")

    def split(self, v: Sequence[int], f: int) -> tuple[Sequence[int], ...]:
        """``v`` checked and cut into f equal packets, each ready as from ``pack``.

        Over GF(2^m) they slice the packing of ``v``, so that the packets of
        a ``Packed`` are neither checked nor packed again.
        """
        size = _packet_size(len(v), f)
        if self.kind == "binary":
            packed = self._bytes(v)
            return tuple(self._packed(packed[i * size : (i + 1) * size]) for i in range(f))
        v = self.pack(v)
        return tuple([tuple(v[i * size : (i + 1) * size]) for i in range(f)])

    def _packing(self, v: Sequence[int]) -> bytes:
        """The bytes of a vector over GF(2^m), one per symbol, checked."""
        try:
            packed = bytes(v)  # raises for a non-int or a symbol outside [0, 256)
            if self.q < 256 and packed and max(packed) >= self.q:
                raise ValueError
        except (TypeError, ValueError):
            raise FieldError(f"symbols outside [0, {self.q})") from None
        return packed

    def _bytes(self, v: Sequence[int]) -> bytes:
        """The bytes of a vector over GF(2^m): this context's own ``Packed``'s
        as they are, any other vector's checked (``_packing``)."""
        return v.packed if type(v) is self._packed else self._packing(v)

    def join(self, vectors: Iterable[Sequence[int]]) -> Sequence[int]:
        """The concatenation of ``vectors``, ready for the kernel (as unchecked
        over GF(p) as ``pack``'s; over GF(2^m) this context's own not again)."""
        if self.kind == "binary":
            return self._packed(b"".join(map(self._bytes, vectors)))
        return tuple(chain.from_iterable(vectors))

    def gather(
        self, vectors: Sequence[Sequence[int]], picks: Sequence[tuple[int, int] | None], size: int
    ) -> Sequence[int]:
        """Packet x of ``vectors[a]``, of ``size`` symbols, for each (a, x) in
        ``picks``, end to end, with zeros for None: ready for the kernel.

        It is one ``join`` of the picked packets, with no ``split`` before
        it: over GF(p) as unchecked as ``join``'s, over GF(2^m) slices of
        the packings, this context's own operands not packed again.  Each
        pick must name a whole packet, and ``size`` be a positive int
        (``_gather``).
        """
        if self.kind == "binary":
            return self._packed(_gather([*map(self._bytes, vectors)], picks, size, b"\0"))
        return _gather(vectors, picks, size, (0,))

    def lincomb(
        self, coeffs: Sequence[int], vectors: Sequence[Sequence[int]]
    ) -> Sequence[int]:
        """The linear combination sum_i coeffs[i] * vectors[i]: ``lincombs``'s one row."""
        return self.lincombs((coeffs,), vectors)[0]

    def lincombs(
        self, rows: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]
    ) -> list[Sequence[int]]:
        """[sum_i c[i] * vectors[i] for c in rows]: the bulk kernel.

        The vectors, zero terms included, must be nonempty in number and of
        one length, and each row must hold one coefficient per vector.  Each
        operand is prepared once, for all the rows.  Over GF(p) the
        coefficients must lie in the field; the terms that are zero in every
        row are dropped, their symbols unchecked, and the symbols of each
        other term must lie in the field too.  Below ``PACK_FROM`` symbols
        each output symbol is one sum reduced once; else each operand is
        packed into one int, a 64-bit slot per symbol, and each row is one
        sum of products: a slot holds T * (q - 1)^2 < 2^64 for any T < 2^32
        terms.  Over GF(2^m) every
        coefficient and symbol must lie in the field.  Each operand is one
        big int, a byte lane per symbol, and one that some row multiplies by
        more than 1 has a window table: its products by the coefficients
        below 16, from at most three lane-wise doublings.  A nonzero term c
        adds entry c & 15 into one XOR accumulator and entry c >> 4 into
        another, and each row is the second times 16 plus the first, so a
        term costs two XORs and a row one multiply by 16; the results are
        ``Packed``.
        A ``Packed`` operand made by this context was checked when it was
        made, and keeps its table for later calls; one made by another
        context is checked again, and a table built for it or for a plain
        tuple serves this call alone.  ``gathered`` takes its operands
        through the same checks and tables.
        """
        rows, operands, length = self._operands(rows, vectors, 1)
        if self.kind == "binary":
            own = self._packed
            sums = self._xor_sums(rows, operands, length)
            return [own(acc.to_bytes(length, "big")) for acc in sums]
        q = self.q
        if not operands:
            return [(0,) * length for _ in rows]
        if length < PACK_FROM:
            columns = [*zip(*operands)]
            return [tuple([sum(map(mul, c, col)) % q for col in columns]) for c in rows]
        out = []
        for c in rows:
            acc = sum(map(mul, c, operands)).to_bytes(8 * length, byteorder)
            out.append(tuple([x % q for x in memoryview(acc).cast("Q")]))
        return out

    def gathered(
        self,
        rows: Sequence[Sequence[int]],
        vectors: Sequence[Sequence[int]],
        layers: Sequence[Sequence[tuple[int, int] | None]],
        size: int,
    ) -> Sequence[int]:
        """sum_l gather(lincombs(rows, vectors), layers[l], size), ready for the kernel.

        The row combinations are never made.  Each row's sum stays
        unreduced: over GF(2^m) its XOR accumulator's bytes, over GF(p) its
        int of 64-bit slots, and below ``PACK_FROM`` symbols a tuple of one
        sum per symbol.  Each layer is laid from those sums by ``_gather``,
        as ``gather`` lays it, and the layers are added and the result
        reduced once.  The rows and vectors are checked as by ``lincombs``,
        the layers must be one or more, of one count of picks, and ``size``
        and each pick are refused as ``gather`` refuses them, on every path.
        Over GF(p) a slot holds L * T * (q - 1)^2 < 2^64 for L layers of T
        terms while L * T < 2^32, which is checked.
        """
        if not layers or len({*map(len, layers)}) != 1:
            raise FieldError("need one or more layers of one count of picks")
        rows, operands, length = self._operands(rows, vectors, len(layers))
        if self.kind == "binary":
            sums = [acc.to_bytes(length, "big") for acc in self._xor_sums(rows, operands, length)]
            acc = 0
            for layer in layers:
                acc ^= int.from_bytes(_gather(sums, layer, size, b"\0"), "big")
            return self._packed(acc.to_bytes(len(layers[0]) * size, "big"))
        q = self.q
        if length < PACK_FROM:
            columns = [*zip(*operands)] or [()] * length
            sums = [tuple([sum(map(mul, c, col)) for col in columns]) for c in rows]
            laid = [_gather(sums, layer, size, (0,)) for layer in layers]
            return tuple([sum(x) % q for x in zip(*laid)])
        sums = [sum(map(mul, c, operands)).to_bytes(8 * length, byteorder) for c in rows]
        acc = sum([
            int.from_bytes(_gather(sums, layer, 8 * size, b"\0"), byteorder) for layer in layers
        ])
        out = acc.to_bytes(8 * len(layers[0]) * size, byteorder)
        return tuple([x % q for x in memoryview(out).cast("Q")])

    def _operands(
        self, rows: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]], layers: int
    ) -> tuple[Sequence[Sequence[int]], list, int]:
        """The kernel's one check path: (rows, operands, length) of checked terms.

        Every coefficient must be an int of the field, at any length and
        over both kinds, zero ones included.  Over GF(2^m) the operands are
        the vectors' tables (``_tables``), of checked symbols.  Over GF(p)
        the terms zero in every row are dropped, on both paths, and the
        symbols of the others are checked, and no others: below
        ``PACK_FROM`` symbols in the coefficients' one pass, the operands
        being the vectors; else packed into ints of 64-bit slots, whose sums
        of ``layers`` layers of the rows' combinations must stay in their
        slots.
        """
        if len({len(vectors), *map(len, rows)}) != 1:
            raise FieldError(f"a row of coefficients for {len(vectors)} vectors has another count")
        lengths = set(map(len, vectors))
        if len(lengths) != 1:
            raise FieldError(
                f"need one or more vectors of one length, got lengths {sorted(lengths)}"
            )
        length, q, what = lengths.pop(), self.q, "coefficient"
        # every coefficient, and on the short GF(p) path, in the same pass, each
        # symbol of a term not zero in every row: no non-int or negative one,
        # and none of q or more
        checked = rows[0] if len(rows) == 1 else [*chain(*rows)]
        if self.kind == "prime":
            terms = rows[0] if len(rows) == 1 else [*map(any, zip(*rows))]
            if not all(terms):  # terms zero in every row are dropped
                vectors, rows = [*compress(vectors, terms)], [[*compress(c, terms)] for c in rows]
            if length < PACK_FROM:
                checked, what = [*checked, *chain(*vectors)], "coefficient or symbol"
        try:
            if max(array("Q", checked), default=0) >= q:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise FieldError(f"{what} outside [0, {q})") from None
        if self.kind == "binary":
            return rows, self._tables(rows, vectors, length), length
        if length < PACK_FROM:
            return rows, vectors, length
        if layers * len(vectors) >= 2**32:
            raise FieldError(f"{layers} layers of {len(vectors)} terms overflow a 64-bit slot")
        # x_i >= q iff x_i >= 2^32 or x_i + 2^32 - q >= 2^32: a bit of 32-63 in its slot
        ones = int.from_bytes(array("Q", [1]) * length, byteorder)
        high, lift, ints = ones * (2**64 - 2**32), ones * (2**32 - q), []
        try:
            for v in vectors:
                x = int.from_bytes(array("Q", v), byteorder)  # no non-int or negative symbol
                if (x | x + lift) & high:
                    raise ValueError
                ints.append(x)
        except (TypeError, ValueError, OverflowError):
            raise FieldError(f"symbol outside [0, {q})") from None
        return rows, ints, length

    def _tables(
        self, rows: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]], length: int
    ) -> list[tuple[int, ...]]:
        """Over GF(2^m), each operand's table for ``_xor_sums``: entry c is c times it.

        An operand that some row multiplies by more than 1 gets its window
        table (``_windows``); this context's own ``Packed`` keeps it, and
        any other operand has it for this call only.  An operand multiplied
        by 0 and 1 alone is its int x, the table (0, x), unless it keeps a
        table already.
        """
        own = self._packed
        tables = [v._table if type(v) is own else None for v in vectors]
        if None not in tables:
            return tables
        # each operand's largest coefficient, 0 with no rows
        for i, top in enumerate(map(max, zip((0,) * len(vectors), *rows))):
            if tables[i] is None:
                v = vectors[i]
                x = int.from_bytes(self._bytes(v), "big")
                tables[i] = (0, x)
                if top > 1:
                    tables[i] = _windows(x, self.m, self.poly, length)
                    if type(v) is own:
                        v._table = tables[i]
        return tables

    def _xor_sums(self, rows: Sequence[Sequence[int]], tables: list, length: int) -> list[int]:
        """Over GF(2^m), each row's sum of the operands of ``tables`` as one big-endian int.

        Each nonzero term c adds the entries c & 15 and c >> 4 of its
        operand's table into two accumulators, and each row is the second
        times 16 plus the first: one multiply by 16 a row, none a term.
        """
        out, times16 = [], self.m > 4 and _times(self.m, self.poly, length, 4)
        for coeffs in rows:
            hi = lo = 0
            for c, table in zip(coeffs, tables):
                if c:
                    lo ^= table[c & 15]
                    if c > 15:
                        hi ^= table[c >> 4]
            if hi:  # only for m > 4, where a coefficient reaches 16
                lo ^= times16(hi)
            out.append(lo)
        return out

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)

    def random_vector(self, length: int, rng) -> tuple[int, ...]:
        return tuple(rng.randrange(self.q) for _ in range(length))

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return (self.q, self.kind, self.poly) == (other.q, other.kind, other.poly)

    def __hash__(self) -> int:
        return hash((self.q, self.kind, self.poly))

    def __repr__(self) -> str:
        return f"FieldContext({self.spec})"
