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
rounds produce a new state.  The kernel takes whole rows, laid out by user,
not one call per packet: ``deliver`` sums the picked packets of every
user's combination of the files in one ``FieldContext.gathered`` call and
adds the keys in one ``lincomb``; ``decode`` makes a user's star rows in
one ``lincomb``, sums every cross term of the users sharing its symbols in
one ``gathered`` call, and makes its ordinary rows in one ``lincomb``; and
each user's coded records are one ``lincomb`` call, to which a refresh adds
only the round's key shift.  No row combination is made only to be picked
from.  The field owns the vector representation, so every stage has one path
over every field: the library checks its files once and placement checks
the security keys once, both with ``FieldContext.pack``; placement cuts the
files into packets with ``FieldContext.split``, which checks and converts
nothing again; the kernel's outputs come out ready for it, and
``FieldContext.gather`` lays their packets out for the next call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import chain, zip_longest
from typing import NamedTuple, Sequence

from .field import FieldContext, FieldError
from .pda import PDA


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

    The files are checked and held ready for the kernel
    (``FieldContext.pack``), so that ``combine`` converts none of them again.
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
        object.__setattr__(self, "files", tuple(map(self.ctx.pack, self.files)))

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


def check_demand(ctx: FieldContext, demand: Vector, n: int) -> None:
    """Reject a demand that is not a length-n vector over ``ctx``."""
    if len(demand) != n:
        raise EngineError(f"demand length {len(demand)} != N={n}")
    if {*map(type, demand)} == {int}:  # one pass: plain ints, the least and greatest in the field
        try:
            ctx.check(min(demand))
            ctx.check(max(demand))
            return
        except FieldError:
            pass
    for value in demand:  # each symbol, so that the first outside the field is named
        ctx.check(value)


@dataclass(frozen=True)
class Randomness:
    """Server randomness r = (V, p): S security key blocks and K privacy vectors.

    As one flat vector, r is the S blocks of B/F symbols, then the K vectors
    of N symbols; ``symbols`` and ``of`` own that layout.
    """

    security_keys: tuple[Vector, ...]  # S vectors of length B/F
    privacy_vectors: tuple[Vector, ...]  # K vectors of length N

    @staticmethod
    def symbols(pda: PDA, n: int, b: int) -> int:
        """The length of r: S * (B/F) + K * N."""
        return pda.s * (b // pda.f) + pda.k * n

    @classmethod
    def of(cls, pda: PDA, n: int, b: int, r: Sequence[int]) -> "Randomness":
        """The randomness whose flat vector is ``r``, of length ``symbols``."""
        block, r = b // pda.f, tuple(r)
        v = pda.s * block
        return cls(
            security_keys=tuple([r[j * block : (j + 1) * block] for j in range(pda.s)]),
            privacy_vectors=tuple([r[v + j * n : v + (j + 1) * n] for j in range(pda.k)]),
        )

    @classmethod
    def generate(
        cls, pda: PDA, n: int, b: int, ctx: FieldContext, rng: random.Random
    ) -> "Randomness":
        if b % pda.f != 0:
            raise NonDivisibleB(f"F={pda.f} does not divide B={b}")
        return cls.of(pda, n, b, ctx.random_vector(cls.symbols(pda, n, b), rng))

    def effective(
        self, pda: PDA, n: int, b: int, ctx: FieldContext, mode: Mode
    ) -> "Randomness":
        """The keys the caches are built from: checked, masked for ``mode``.

        A key of the wrong count or length, or outside the field, is rejected
        before masking, so it fails in every mode.  The security keys come
        back ready for the kernel (``FieldContext.pack``).
        """
        block = b // pda.f
        if len(self.security_keys) != pda.s or any(
            len(v) != block for v in self.security_keys
        ):
            raise EngineError(f"expected {pda.s} security keys of length {block}")
        if len(self.privacy_vectors) != pda.k or any(
            len(p) != n for p in self.privacy_vectors
        ):
            raise EngineError(f"expected {pda.k} privacy vectors of length {n}")
        keys = ctx.pack(tuple(chain.from_iterable(self.security_keys)))
        v = ctx.split(keys, pda.s) if pda.s else ()
        p = tuple(tuple(map(ctx.check, vec)) for vec in self.privacy_vectors)
        if not mode.security_keys_active:
            v = (ctx.pack((0,) * block),) * pda.s
        if not mode.privacy_keys_active:
            p = ((0,) * n,) * pda.k
        return Randomness(v, p)


@dataclass(frozen=True)
class UserCache:
    """Cache of one user: uncoded packet rows plus coded superposition keys.

    ``uncoded[i]`` holds the i-th packet of every file (rows where the
    user's column has a star); ``coded[i]`` holds one block per ordinary
    entry in the user's column.  As ``decode`` reads them, ``starred[n]``
    joins the uncoded packets of file n and ``records`` the coded blocks,
    each in row order.
    """

    uncoded: dict[int, tuple[Vector, ...]]
    coded: dict[int, Vector]
    starred: tuple[Vector, ...]
    records: Vector

    @property
    def symbols(self) -> int:
        n_unc = sum(len(pkts[0]) * len(pkts) for pkts in self.uncoded.values())
        n_cod = sum(len(v) for v in self.coded.values())
        return n_unc + n_cod


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

    ``rows[i][n]`` is packet i of file n, split once at placement and ready
    for the kernel.
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
    keys = randomness.effective(pda, n, b, ctx, mode)
    rows = tuple(zip(*(ctx.split(file, pda.f) for file in library.files)))
    return SchemeState(
        pda=pda,
        library=library,
        rows=rows,
        randomness=keys,
        mode=mode,
        caches=_fill_caches(pda, ctx, rows, library.files, keys),
    )


def _fill_caches(
    pda: PDA, ctx: FieldContext, rows: tuple, files: tuple, keys: Randomness, base: tuple = ()
) -> tuple[UserCache, ...]:
    """Every user's cache from the packet rows, the files and the (masked) keys.

    User k's records are one kernel call over whole files, cut into packets:
    the keys laid at its packets, zero under stars, plus sum_n p_(k,n) W_n,
    plus its old records from ``base``, the caches before a refresh, which
    leaves the uncoded packets as they are.  Its column's star and ordinary
    rows, and the symbol of each, are read from ``PDA.plans``.
    """
    zero = ctx.pack((0,) * (len(files[0]) // pda.f))
    caches = []
    for k, plan in enumerate(pda.plans):
        uncoded = {i: rows[i] for i, (ordinary, _) in enumerate(plan.rows) if not ordinary}
        starred = base[k].starred if base else tuple(
            ctx.join([packets[n] for packets in uncoded.values()]) for n in range(len(files))
        )
        coded = {}
        if plan.symbols:  # record of row i: V_s + sum_n p_(k,n) W_(n,i) [+ old]
            v, symbols = keys.security_keys, plan.symbols
            laid = [ctx.join([v[symbols[z]] if ordinary else zero for ordinary, z in plan.rows])]
            if base:
                laid.append(ctx.join([base[k].coded.get(i, zero) for i in range(pda.f)]))
            coeffs = (1,) * len(laid) + keys.privacy_vectors[k]
            packets = ctx.split(ctx.lincomb(coeffs, (*laid, *files)), pda.f)
            coded = {i: packets[i] for i, (ordinary, _) in enumerate(plan.rows) if ordinary}
        records = ctx.join(coded.values())
        caches.append(UserCache(uncoded=uncoded, coded=coded, starred=starred, records=records))
    return tuple(caches)


def _check_demands(state: SchemeState, demands: Sequence[Vector]) -> None:
    """Reject a round's demands unless they are K field vectors of length N."""
    if len(demands) != state.pda.k:
        raise EngineError(f"expected {state.pda.k} demand vectors, got {len(demands)}")
    for d in demands:
        check_demand(state.library.ctx, d, state.library.n_files)


def deliver(state: SchemeState, demands: Sequence[Vector]) -> DeliveryPayload:
    """Build the broadcast signal for one demand tuple.

    Block s is y_s = V_s + the sum, over the positions (i, j) of s, of
    packet i of user j's combination sum_n q_(j,n) W_n.  Layer l picks, for
    each symbol, the packet at its l-th position; one ``gathered`` call over
    whole files sums the layers without making the combinations, and one
    ``lincomb`` adds the joined keys, cut into the S blocks.
    """
    pda, ctx, lib = state.pda, state.library.ctx, state.library
    _check_demands(state, demands)
    coeffs = tuple(map(ctx.vec_add, state.randomness.privacy_vectors, demands))
    if not pda.s:
        return DeliveryPayload(coeff_vectors=coeffs, blocks=())
    positions = [pda.symbol_positions(s) for s in range(1, pda.s + 1)]
    layers = [
        [None if p is None else (p[1], p[0]) for p in layer] for layer in zip_longest(*positions)
    ]
    laid = ctx.gathered(coeffs, lib.files, layers, lib.b // pda.f)
    blocks = ctx.split(ctx.lincomb((1, 1), (ctx.join(state.randomness.security_keys), laid)), pda.s)
    return DeliveryPayload(coeff_vectors=coeffs, blocks=blocks)


def decode(view: UserView, payload: DeliveryPayload, demand: Vector) -> Vector:
    """Recover the demanded combination from the user's cache and the signal.

    Consumes only the user's own cache, the broadcast, and the demand;
    returns the full-length B-symbol combination.  Over J_n, the user's
    star-row packets of file n joined (``UserCache.starred``), one
    ``lincomb`` gives sum_n demand_n J_n, its star rows.  Ordinary row h of
    symbol s is y_s minus its coded record minus the cross term of each
    other position (i, j) of s, packet i of sum_n q_(j,n) J_n: one
    ``gathered`` call over the J_n, whose rows are the q_j of the users that
    share a symbol with it, sums those cross terms in the layers that
    ``PDA.plans`` lays out, and one ``lincomb`` subtracts the joined records
    (``UserCache.records``) and that sum from the joined blocks.  One
    ``gather`` puts the rows in order.
    """
    pda, ctx, cache = view.pda, view.ctx, view.cache
    blocks = payload.blocks
    if len(blocks) != pda.s or len(payload.coeff_vectors) != pda.k or len({*map(len, blocks)}) > 1:
        raise EngineError("payload shape does not match the array")
    check_demand(ctx, demand, view.n_files)
    plan = pda.plans[view.user]
    star_rows = ctx.lincomb(demand, cache.starred)
    if not plan.symbols:  # every row a star
        return star_rows
    # what is left of y_s is sum_n q_(k,n) W_(n,h) - sum_n p_(k,n) W_(n,h)
    size, minus_one = len(blocks[0]), ctx.neg(1)
    terms = [ctx.join([*map(blocks.__getitem__, plan.symbols)]), cache.records]
    if plan.cross:  # none where each symbol has one position
        sharers = [*map(payload.coeff_vectors.__getitem__, plan.sharers)]
        terms.append(ctx.gathered(sharers, cache.starred, plan.cross, size))
    ordinary = ctx.lincomb((1, *[minus_one] * (len(terms) - 1)), terms)
    return ctx.gather((star_rows, ordinary), plan.rows, size)


def measure(state: SchemeState) -> Measure:
    """Exact memory, asymptotic load, transmitted symbols, randomness budget."""
    pda, lib = state.pda, state.library
    b = lib.b
    cached = state.caches[0].symbols if state.caches else 0
    return Measure(
        m_exact=Fraction(cached, b),
        r_asymptotic=Fraction(pda.s, pda.f),
        tx_symbols=pda.s * (b // pda.f) + pda.k * lib.n_files,
        randomness_log2q_units=Randomness.symbols(pda, lib.n_files, b),
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
    placement keys; the new keys are the old keys plus the shift.  Each
    user's records get the records that the shift alone would place added,
    in one kernel call, so by linearity the result is the placement at the
    accumulated keys.  Each user k can apply the same refresh from its own
    view, adding the fresh security keys and c_k times its own decoded
    packets to its coded records; that locality is a tested property, not a
    step of this function.

    What a refresh keeps over rounds: decoding stays correct, since the
    result is a placement.  The files stay secret against both rounds'
    signals only if the fresh security keys reach the users privately; in
    public they let the signals be differenced into file combinations.
    The demands do not stay private: user k's coefficient vector moves by
    (c_k - 1) * d_k + d_k' from one round to the next, and no local refresh
    makes a privacy vector fresh.
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
    ).effective(pda, lib.n_files, lib.b, ctx, state.mode)
    old = state.randomness
    joined = ctx.lincomb((1, 1), (ctx.join(old.security_keys), ctx.join(shift.security_keys)))
    keys = Randomness(
        security_keys=ctx.split(joined, pda.s) if pda.s else (),
        privacy_vectors=tuple(map(ctx.vec_add, old.privacy_vectors, shift.privacy_vectors)),
    )
    caches = _fill_caches(pda, ctx, state.rows, lib.files, shift, state.caches)
    return replace(state, randomness=keys, caches=caches)
