"""Exact finite-field arithmetic in GF(q).

Supports prime fields GF(p) for p up to 2^16 and binary extension fields
GF(2^m) for 1 <= m <= 8.  Extension-field multiplication uses log/antilog
tables built from a multiplicative generator.  All arithmetic is exact,
over plain unsigned integers; no floating point is used anywhere.

Elements are bare ints; a FieldContext supplies the arithmetic, the
linear-combination kernel ``lincomb`` and Gaussian elimination
(``echelon``, ``reduce``), on which the exact audits rest.

Vectors are tuples of ints, and the context owns their representation, so
callers never branch on the field kind: ``pack`` checks a vector and makes
it ready for the kernel, ``split`` cuts one into ready packets, and
``vec_neg`` negates one.  Over GF(p) a ready vector is the vector itself.
Over GF(2^m) the kernel works on bytes, one per symbol, and a ready vector
is a ``Packed``: a tuple that carries that packing, compares, hashes,
slices and prints like its plain tuple, and is neither converted nor
checked again by ``lincomb`` or ``split``.  A ``Packed`` records the
context that checked it; another context checks it again.  ``lincomb``
packs (and checks) plain tuples on the fly and returns a ``Packed``.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Invalid field construction or an operation outside the field."""


class Packed(tuple):
    """A GF(2^m) vector: a tuple of ints that carries its bytes packing.

    Built only by ``FieldContext.pack``, ``split`` and ``lincomb``, from
    symbols that are checked to lie in ``field``, the context that made it.
    Each GF(2^m) context makes its vectors as its own subclass, so that the
    kernel can tell them from another context's, which it checks again, by
    their type alone.  Equality, hashing, slicing and ``repr`` are the
    plain tuple's; a slice or a concatenation is a plain tuple again.
    """

    field: "FieldContext"

    def __new__(cls, packed: bytes) -> "Packed":
        self = super().__new__(cls, packed)
        self.packed = bytes(packed)
        return self


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


def _pivot(row: Sequence[int]) -> int | None:
    """Index of the first nonzero entry, or None for a zero row."""
    return next((i for i, x in enumerate(row) if x), None)


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    """Remainder of polynomial a modulo m over GF(2)."""
    dm = _poly_degree(m)
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _poly_mulmod(a: int, b: int, m: int) -> int:
    """Carry-less product of a and b, reduced modulo m."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
    return _poly_mod(r, m)


def _is_irreducible(poly: int, m: int) -> bool:
    """Brute-force irreducibility test for a degree-m polynomial over GF(2)."""
    if _poly_degree(poly) != m:
        return False
    # any nontrivial factorization has a factor of degree <= m // 2
    for d in range(1, m // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, cand) == 0:
                return False
    return True


class FieldContext:
    """Descriptor of GF(q): either a prime field or a binary extension.

    Immutable after construction; every method is a pure function, so a
    context may be shared freely across threads.
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
            if not _is_irreducible(poly, m):
                raise FieldError(f"polynomial {poly:#x} is not irreducible of degree {m}")
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self.q = q
        self.kind = kind  # "prime" or "binary"
        self.m = m
        self.poly = poly
        if kind == "binary":
            self._build_tables()
            self._build_rows()
            self._packed = type("Packed", (Packed,), {"field": self})

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

    # -- table construction ----------------------------------------------

    def _build_tables(self) -> None:
        q, poly = self.q, self.poly
        if q == 2:
            self._exp, self._log = [1], [0, 0]
            return
        for g in range(2, q):
            exp = [0] * (q - 1)
            log = [0] * q
            x = 1
            ok = True
            for i in range(q - 1):
                if i > 0 and x == 1:
                    ok = False  # order of g is less than q - 1
                    break
                exp[i] = x
                log[x] = i
                x = _poly_mulmod(x, g, poly)
            if ok and x == 1:
                self._exp, self._log = exp, log
                return
        raise FieldError(f"no generator found for poly {poly:#x}")  # pragma: no cover

    def _build_rows(self) -> None:
        # product rows for bytes.translate: _rows[c][x] == c * x for x < q,
        # keyed by the coefficients 2..q-1 only, so that a lookup also
        # rejects a coefficient outside the field (0 and 1 need no row).
        # Row c looks up the logs of 1..q-1 in the exp table rotated by log(c).
        logs, exp = bytes(self._log[1:]), bytes(self._exp)
        self._rows = {}
        for c in range(2, self.q):
            r = self._log[c]
            rotated = (exp[r:] + exp[:r]).ljust(256, b"\0")
            self._rows[c] = (b"\0" + logs.translate(rotated)).ljust(256, b"\0")

    # -- scalar arithmetic on bare ints ----------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise FieldError(f"value {a} outside [0, {self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a + b) % self.q
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a - b) % self.q
        return a ^ b

    def neg(self, a: int) -> int:
        if self.kind == "prime":
            return (-a) % self.q
        return a

    def mul(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a * b) % self.q
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        if self.kind == "prime":
            return pow(a, self.q - 2, self.q)
        return self._exp[(-self._log[a]) % (self.q - 1)]

    # -- vector helpers --------------------------------------------------

    def vec_add(self, u: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
        if len(u) != len(w):
            raise FieldError(f"length mismatch: {len(u)} vs {len(w)}")
        return tuple(self.add(a, b) for a, b in zip(u, w))

    def vec_scale(self, c: int, u: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.mul(c, a) for a in u)

    def vec_neg(self, u: Sequence[int]) -> Sequence[int]:
        """-u; over GF(2^m), where negation is the identity, ``u`` itself."""
        if self.kind == "binary":
            return u
        return tuple(map(self.neg, u))

    def pack(self, v: Sequence[int]) -> Sequence[int]:
        """``v`` checked and ready for the kernel.

        That is a ``Packed`` over GF(2^m), and ``v`` itself over GF(p).
        """
        if self.kind == "binary":
            return v if type(v) is self._packed else self._packed(self._packing(v))
        if v and (min(v) < 0 or max(v) >= self.q):
            raise FieldError(f"symbols outside [0, {self.q})")
        return v

    def split(self, v: Sequence[int], f: int) -> tuple[Sequence[int], ...]:
        """``v`` checked and cut into f equal packets, each ready as from ``pack``.

        Over GF(2^m) they slice the packing of ``v``, so that the packets of
        a ``Packed`` are neither checked nor packed again.
        """
        b = len(v)
        if f <= 0 or b % f:
            raise FieldError(f"packet count {f} does not divide vector length {b}")
        size = b // f
        if self.kind == "binary":
            packed = v.packed if type(v) is self._packed else self._packing(v)
            return tuple(self._packed(packed[i * size : (i + 1) * size]) for i in range(f))
        v = self.pack(v)
        return tuple(tuple(v[i * size : (i + 1) * size]) for i in range(f))

    def _packing(self, v: Sequence[int]) -> bytes:
        """The bytes of a vector over GF(2^m), one per symbol, checked."""
        try:
            packed = bytes(v)  # raises ValueError for a symbol outside [0, 256)
            if self.q < 256 and packed and max(packed) >= self.q:
                raise ValueError
        except ValueError:
            raise FieldError(f"symbols outside [0, {self.q})") from None
        return packed

    def lincomb(
        self, coeffs: Sequence[int], vectors: Sequence[Sequence[int]]
    ) -> tuple[int, ...]:
        """The linear combination sum_i coeffs[i] * vectors[i]: the bulk kernel.

        Coefficients and vector entries are field elements; the vectors must
        be nonempty in number and of one common length.  Over GF(p) it
        reduces once per output symbol.  Over GF(2^m) it rejects
        coefficients and symbols outside the field, and each term is one
        ``bytes.translate`` of the vector's packing through the coefficient's
        product row (none for a coefficient of 1), added by XOR into a single
        Python int; the result is a ``Packed``.  A ``Packed`` operand made by
        this context was checked when it was made; one made by another
        context is checked again.
        """
        if len(coeffs) != len(vectors):
            raise FieldError(f"{len(coeffs)} coefficients for {len(vectors)} vectors")
        lengths = set(map(len, vectors))
        if len(lengths) != 1:
            raise FieldError(
                f"need one or more vectors of one length, got lengths {sorted(lengths)}"
            )
        if self.kind == "prime":
            q = self.q
            return tuple(sum(map(mul, coeffs, col)) % q for col in zip(*vectors))
        rows, own = self._rows, self._packed
        acc = 0
        try:
            for c, v in zip(coeffs, vectors):
                packed = v.packed if type(v) is own else self._packing(v)
                if c:
                    if c != 1:
                        packed = packed.translate(rows[c])
                    acc ^= int.from_bytes(packed, "big")
        except KeyError:
            raise FieldError(f"coefficient outside [0, {self.q})") from None
        return own(acc.to_bytes(lengths.pop(), "big"))

    # -- Gaussian elimination --------------------------------------------

    def echelon(self, rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon basis of the span of ``rows``.

        Rows are ordered by pivot column; each pivot is 1 and the only
        nonzero entry of its column.  The basis is canonical: two row sets
        span the same subspace iff their bases are equal, and the rank is
        the length of the basis.
        """
        basis: list[tuple[int, ...]] = []
        for row in rows:
            row = self.reduce(basis, row)
            pivot = _pivot(row)
            if pivot is None:
                continue
            row = self.vec_scale(self.inv(row[pivot]), row)
            # clear the new pivot column from the rows already kept
            basis = [
                self.lincomb((1, self.neg(b[pivot])), (b, row)) if b[pivot] else b
                for b in basis
            ]
            basis.append(row)
        return tuple(sorted(basis, key=lambda b: b.index(1)))

    def reduce(
        self, basis: Sequence[Sequence[int]], v: Sequence[int]
    ) -> tuple[int, ...]:
        """The residue of ``v`` against a reduced echelon ``basis``.

        It is zero iff ``v`` lies in the span of the basis.  Each basis row's
        pivot, its first nonzero entry, is 1, so ``index(1)`` finds it.
        """
        v = tuple(v)
        for b in basis:
            c = v[b.index(1)]
            if c:
                v = self.lincomb((1, self.neg(c)), (v, b))
        return v

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
