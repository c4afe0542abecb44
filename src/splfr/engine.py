"""Key-superposition caching scheme: placement, delivery, decoding, update.

Given a (K,F,Z,S) array, each file is split into F packets.  The server
draws S uniform security keys (one block per multicast signal) and K
uniform coefficient vectors generating the per-user privacy keys.  Each
user caches the uncoded packets of its starred rows plus, for every
ordinary entry in its column, the field-sum of the matching security key
and its privacy key.  Delivery masks each user's demand with its privacy
vector and pads each multicast block with its security key, so the signal
is simultaneously one-time-pad secure and demand-hiding.

States are immutable once placed; deliver/decode are pure, and update
rounds produce a new state.  Each block of each stage is one
``FieldContext.lincomb`` call.  Over GF(2^m), placement packs each packet
and security key once (``FieldContext.pack``), and the coded records and
multicast blocks come out of the kernel packed, so no stage converts a
stored vector again.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .field import FieldContext, FieldError
from .pda import PDA, STAR


class EngineError(ValueError):
    """Shape mismatch or precondition violation in the scheme pipeline."""


class NonDivisibleB(EngineError):
    """File length not divisible by the packet count F."""


class Mode(Enum):
    """Which key families are active.

    SPLFR uses both; PLFR zeroes the security keys, SLFR zeroes the
    privacy vectors, LFR zeroes both.
    """

    SPLFR = "splfr"
    PLFR = "plfr"
    SLFR = "slfr"
    LFR = "lfr"

    @property
    def security_keys_active(self) -> bool:
        return self in (Mode.SPLFR, Mode.SLFR)

    @property
    def privacy_keys_active(self) -> bool:
        return self in (Mode.SPLFR, Mode.PLFR)


Vector = tuple[int, ...]


@dataclass(frozen=True)
class Library:
    """N files of B symbols each over a common field.

    Over GF(2^m) the files are held packed (``FieldContext.pack``), so that
    ``combine`` converts none of them again.
    """

    ctx: FieldContext
    files: tuple[Vector, ...]

    def __post_init__(self):
        if not self.files:
            raise EngineError("library must contain at least one file")
        b = len(self.files[0])
        if b == 0:
            raise EngineError("files must hold at least one symbol")
        if any(len(f) != b for f in self.files):
            raise EngineError("all files must have the same length")
        if self.ctx.kind == "binary":
            # packing checks every symbol
            object.__setattr__(self, "files", tuple(map(self.ctx.pack, self.files)))
        else:
            _check_symbols(self.ctx, self.files)

    @property
    def n_files(self) -> int:
        return len(self.files)

    @property
    def b(self) -> int:
        return len(self.files[0])

    @classmethod
    def random(cls, ctx: FieldContext, n: int, b: int, rng: random.Random) -> "Library":
        return cls(ctx, tuple(ctx.random_vector(b, rng) for _ in range(n)))

    def combine(self, demand: Vector) -> Vector:
        """The demanded linear combination sum_n demand[n] * W_n, full length."""
        check_demand(self.ctx, demand, self.n_files)
        return self.ctx.lincomb(demand, self.files)


def _check_symbols(ctx: FieldContext, vectors: Sequence[Vector]) -> None:
    """Reject vectors holding a value outside the field."""
    if any(v and (min(v) < 0 or max(v) >= ctx.q) for v in vectors):
        raise FieldError(f"symbols outside [0, {ctx.q})")


def check_demand(ctx: FieldContext, demand: Vector, n: int) -> None:
    """Reject a demand that is not a length-n vector over ``ctx``."""
    if len(demand) != n:
        raise EngineError(f"demand length {len(demand)} != N={n}")
    for value in demand:
        ctx.check(value)


def split(file: Sequence[int], f: int) -> tuple[Vector, ...]:
    """Split a file into f contiguous equal-size packets."""
    b = len(file)
    if f <= 0 or b % f != 0:
        raise NonDivisibleB(f"packet count {f} does not divide file length {b}")
    size = b // f
    return tuple(tuple(file[i * size : (i + 1) * size]) for i in range(f))


@dataclass(frozen=True)
class Randomness:
    """Server randomness: S security key blocks and K privacy vectors."""

    security_keys: tuple[Vector, ...]  # S vectors of length B/F
    privacy_vectors: tuple[Vector, ...]  # K vectors of length N

    @classmethod
    def generate(
        cls, pda: PDA, n: int, b: int, ctx: FieldContext, rng: random.Random
    ) -> "Randomness":
        if b % pda.f != 0:
            raise NonDivisibleB(f"F={pda.f} does not divide B={b}")
        block = b // pda.f
        return cls(
            security_keys=tuple(ctx.random_vector(block, rng) for _ in range(pda.s)),
            privacy_vectors=tuple(ctx.random_vector(n, rng) for _ in range(pda.k)),
        )

    @classmethod
    def zeros(cls, pda: PDA, n: int, b: int) -> "Randomness":
        block = b // pda.f
        return cls(
            security_keys=tuple((0,) * block for _ in range(pda.s)),
            privacy_vectors=tuple((0,) * n for _ in range(pda.k)),
        )

    def masked(self, mode: Mode) -> "Randomness":
        """Zero out the key families that the mode disables."""
        v = self.security_keys
        p = self.privacy_vectors
        if not mode.security_keys_active:
            v = tuple(tuple(0 for _ in key) for key in v)
        if not mode.privacy_keys_active:
            p = tuple(tuple(0 for _ in vec) for vec in p)
        return Randomness(v, p)

    def check_shapes(self, pda: PDA, n: int, b: int, ctx: FieldContext) -> None:
        """Reject keys of the wrong count or length, or outside the field."""
        block = b // pda.f
        if len(self.security_keys) != pda.s or any(
            len(v) != block for v in self.security_keys
        ):
            raise EngineError(f"expected {pda.s} security keys of length {block}")
        if len(self.privacy_vectors) != pda.k or any(
            len(p) != n for p in self.privacy_vectors
        ):
            raise EngineError(f"expected {pda.k} privacy vectors of length {n}")
        _check_symbols(ctx, (*self.security_keys, *self.privacy_vectors))


@dataclass(frozen=True)
class UserCache:
    """Cache of one user: uncoded packet rows plus coded superposition keys.

    ``uncoded[i]`` holds the i-th packet of every file (rows where the
    user's column has a star); ``coded[i]`` holds one block per ordinary
    entry in the user's column.
    """

    uncoded: dict[int, tuple[Vector, ...]]
    coded: dict[int, Vector]

    @property
    def symbols(self) -> int:
        n_unc = sum(len(pkts[0]) * len(pkts) for pkts in self.uncoded.values())
        n_cod = sum(len(v) for v in self.coded.values())
        return n_unc + n_cod

    def key(self) -> tuple:
        """Hashable canonical form, used by the exact audits."""
        return (
            tuple(sorted(self.uncoded.items())),
            tuple(sorted(self.coded.items())),
        )


@dataclass(frozen=True)
class UserView:
    """Everything user k may consult while decoding: its cache and the array.

    Deliberately excludes the library, the raw randomness, and every other
    user's cache; the file count N is public.
    """

    pda: PDA
    ctx: FieldContext
    user: int  # 0-based column index
    cache: UserCache
    n_files: int


@dataclass(frozen=True)
class SchemeState:
    """A placed system: array, library, effective randomness, and all caches.

    ``rows[i][n]`` is packet i of file n, split (and over GF(2^m) packed)
    once at placement.
    ``randomness`` is already masked for ``mode``, so the stored key values
    are exactly the ones the caches were built from.
    """

    pda: PDA
    library: Library
    rows: tuple[tuple[Vector, ...], ...]
    randomness: Randomness
    mode: Mode
    caches: tuple[UserCache, ...]

    def user_view(self, k: int) -> UserView:
        return UserView(self.pda, self.library.ctx, k, self.caches[k], self.library.n_files)


class DeliveryPayload(NamedTuple):
    """The broadcast signal: K coefficient vectors and S multicast blocks."""

    coeff_vectors: tuple[Vector, ...]
    blocks: tuple[Vector, ...]


class Measure(NamedTuple):
    m_exact: Fraction
    r_asymptotic: Fraction
    tx_symbols: int
    randomness_log2q_units: int  # randomness budget = this many times log2(q) bits


def place(pda: PDA, library: Library, randomness: Randomness, mode: Mode) -> SchemeState:
    """Fill every cache: uncoded packets under stars, superposition keys elsewhere."""
    ctx = library.ctx
    b, n = library.b, library.n_files
    if b % pda.f != 0:
        raise NonDivisibleB(f"F={pda.f} does not divide B={b}")
    randomness.check_shapes(pda, n, b, ctx)
    effective = _pack_keys(ctx, randomness.masked(mode))

    rows = tuple(zip(*(split(file, pda.f) for file in library.files)))
    if ctx.kind == "binary":
        rows = tuple(tuple(map(ctx.pack, row)) for row in rows)
    return SchemeState(
        pda=pda,
        library=library,
        rows=rows,
        randomness=effective,
        mode=mode,
        caches=_fill_caches(pda, ctx, rows, effective),
    )


def _pack_keys(ctx: FieldContext, keys: Randomness) -> Randomness:
    """``keys`` with each security key packed for the kernel over GF(2^m).

    The privacy vectors are coefficients and stay plain; over GF(p) nothing
    is packed and ``keys`` is returned as it is.
    """
    if ctx.kind != "binary":
        return keys
    return replace(keys, security_keys=tuple(map(ctx.pack, keys.security_keys)))


def _fill_caches(
    pda: PDA, ctx: FieldContext, rows: tuple[tuple[Vector, ...], ...], keys: Randomness
) -> tuple[UserCache, ...]:
    """Every user's cache from the packet rows and the (masked) keys."""
    caches = []
    for k in range(pda.k):
        uncoded: dict[int, tuple[Vector, ...]] = {}
        coded: dict[int, Vector] = {}
        # coded record of row i: V_s + sum_n p_{k,n} W_{n,i}
        coeffs = (1, *keys.privacy_vectors[k])
        for i, entry in enumerate(pda.column(k)):
            if entry is STAR:
                uncoded[i] = rows[i]
            else:
                coded[i] = ctx.lincomb(coeffs, (keys.security_keys[entry - 1], *rows[i]))
        caches.append(UserCache(uncoded=uncoded, coded=coded))
    return tuple(caches)


def _check_demands(state: SchemeState, demands: Sequence[Vector]) -> None:
    """Reject a round's demands unless they are K field vectors of length N."""
    if len(demands) != state.pda.k:
        raise EngineError(f"expected {state.pda.k} demand vectors, got {len(demands)}")
    for d in demands:
        check_demand(state.library.ctx, d, state.library.n_files)


def deliver(state: SchemeState, demands: Sequence[Vector]) -> DeliveryPayload:
    """Build the broadcast signal for one demand tuple."""
    pda, ctx = state.pda, state.library.ctx
    _check_demands(state, demands)
    coeffs = tuple(map(ctx.vec_add, state.randomness.privacy_vectors, demands))

    blocks = []
    for s in range(1, pda.s + 1):
        # y_s = V_s + sum over the positions (i, j) of s of sum_n q_{j,n} W_{n,i}
        c, v = [1], [state.randomness.security_keys[s - 1]]
        for i, j in pda.symbol_positions(s):
            c += coeffs[j]
            v += state.rows[i]
        blocks.append(ctx.lincomb(c, v))
    return DeliveryPayload(coeff_vectors=coeffs, blocks=tuple(blocks))


def decode(view: UserView, payload: DeliveryPayload, demand: Vector) -> Vector:
    """Recover the demanded combination from the user's cache and the signal.

    Consumes only the user's own cache, the broadcast, and the demand;
    returns the full-length B-symbol combination.
    """
    pda, ctx, k, cache = view.pda, view.ctx, view.user, view.cache
    if len(payload.blocks) != pda.s or len(payload.coeff_vectors) != pda.k:
        raise EngineError("payload shape does not match the array")
    check_demand(ctx, demand, view.n_files)
    if ctx.kind == "binary":
        # negation is the identity
        minus_one, minus_q = 1, payload.coeff_vectors.__getitem__
    else:
        # -q_j is needed only for the users j sharing a symbol with user k;
        # each is negated once, when first met
        minus_one = ctx.neg(1)
        minus_q = functools.cache(lambda j: tuple(map(ctx.neg, payload.coeff_vectors[j])))
    out: list[int] = []
    for h, s in enumerate(pda.column(k)):
        if s is STAR:
            # direct computation from the cached uncoded packets
            out += ctx.lincomb(demand, cache.uncoded[h])
            continue
        # cancel the cached superposition key for this row and the cross
        # terms of the other users sharing symbol s; the defining conditions
        # guarantee their rows are starred here
        c, v = [1, minus_one], [payload.blocks[s - 1], cache.coded[h]]
        for i, j in pda.symbol_positions(s):
            if j != k:
                c += minus_q(j)
                v += cache.uncoded[i]
        # what is left is sum_n q_{k,n} W_{n,h} - sum_n p_{k,n} W_{n,h}
        out += ctx.lincomb(c, v)
    return tuple(out)


def measure(state: SchemeState) -> Measure:
    """Exact memory, asymptotic load, transmitted symbols, randomness budget."""
    pda, lib = state.pda, state.library
    b = lib.b
    cached = state.caches[0].symbols if state.caches else 0
    block = b // pda.f
    tx = pda.s * block + pda.k * lib.n_files
    return Measure(
        m_exact=Fraction(cached, b),
        r_asymptotic=Fraction(pda.s, pda.f),
        tx_symbols=tx,
        randomness_log2q_units=pda.s * block + lib.n_files * pda.k,
    )


def update_round(
    state: SchemeState,
    demands: Sequence[Vector],
    fresh_security_keys: Sequence[Vector],
    local_coeffs: Sequence[int],
) -> SchemeState:
    """Refresh the superposition keys after a delivery round.

    The round's key shift is the fresh security keys V^u and the privacy
    shifts c_k * d_k, checked and masked for the state's mode like
    placement keys; the new keys are the old keys plus the shift.  The
    caches are refilled from the stored packet rows at the new keys, so the
    result is the placement at the accumulated keys.  Each user k can apply
    the same refresh from its own view, adding the public fresh keys and
    c_k times its own decoded packets to its coded records; that locality
    is a tested property, not a step of this function.
    """
    pda, lib = state.pda, state.library
    ctx = lib.ctx
    if len(local_coeffs) != pda.k:
        raise EngineError(f"expected {pda.k} local coefficients")
    _check_demands(state, demands)
    shift = Randomness(
        security_keys=tuple(fresh_security_keys),
        privacy_vectors=tuple(
            ctx.vec_scale(ctx.check(c), d) for c, d in zip(local_coeffs, demands)
        ),
    )
    shift.check_shapes(pda, lib.n_files, lib.b, ctx)
    shift = shift.masked(state.mode)
    old = state.randomness
    keys = Randomness(
        security_keys=tuple(map(ctx.vec_add, old.security_keys, shift.security_keys)),
        privacy_vectors=tuple(map(ctx.vec_add, old.privacy_vectors, shift.privacy_vectors)),
    )
    keys = _pack_keys(ctx, keys)
    return replace(state, randomness=keys, caches=_fill_caches(pda, ctx, state.rows, keys))
