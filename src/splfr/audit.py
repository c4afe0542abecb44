"""Exact information-theoretic verification on small instances.

Three claims are decided over the joint distribution of (library,
randomness, demands) with uniform independent components:

- correctness: every user's decoder output equals the demanded linear
  combination for every atom;
- security: the broadcast signal is independent of (files, demands);
- privacy: the demands of users outside a colluding subset are independent
  of everything the subset observes, conditioned on the files.

The audit runs the unchanged ``place``, ``deliver`` and every ``decode``
once over formal values in the file symbols W, the key symbols r = (V, p)
and the demand symbols d (d_(k,1) = 1 - sum_(n>1) d_(k,n) under unit
demands).  A value is its row of the model: a coefficient over GF(q) per
slot, or probe point, a W-monomial (1, W_1, ..., W_(N*B)) times an
(r, d)-monomial (1, each symbol of r, each single-user demand move).  The
premise is checked at each product the engine forms: one of two symbols
of W or of (r, d) refuses the instance by name, as a branch on a formal
value or arithmetic outside the formal context does.  So the engine is
bi-affine at the instance, and the certificates read its rows by slot:

- correctness: every error is the zero polynomial.  Else the first
  nonzero slot, W outermost, is the first failing probe point, as the
  order is closed under taking sub-monomials: its symbols at 1 and every
  other at 0 are an atom at which the named user fails;
- security: pivoting the signal rows only on key symbols with no W_i
  coefficient leaves rows with no part but a constant;
- privacy: one key change Delta r, the same at every W, moves the
  colluders' view, stacked over the W-monomials, as each other user's
  demand move does.

Both rank tests, and the coset names below, are one sparse Gauss-Jordan
elimination, ``_eliminate``, on rows by slot.  A pass is a proof for the
instance, resting on the premise, checked in the run, on
``FieldContext.lincombs`` giving each row's sum c*v and on
``FieldContext.gather`` laying out the packets it picks, which
``tests/test_field.py`` checks (the formal run reckons with the scalar
``add`` and ``mul``), and on the eliminator's scalar ``add``, ``mul``,
``neg`` and ``inv``.  A failing security or privacy certificate is
decided from the model, with no engine call per atom and no logarithm, by
the identities count(a, b) * total == count(a) * count(b) of conditions a
and observations b, which hold for every pair iff the mutual information
is exactly zero.  At (W, d) the observation is o(W, d) + A_W r.  Where no
row has a slot W_i * r_x, A_W is one matrix, and each condition has a
class: the coset of Im A_W that its observation is uniform on, named by the
view's rows with every key slot pivoted out (with the seen demands, per
files slice, in privacy).  A class of
m of the |A| conditions breaks its q^rank * |A| identities iff m != |A|,
so one point per (W, d), at r = 0, counts them.  Else, as for security
under PLFR, each effective atom is counted once, a symbol of r that the
mode masks having no slot in any row, and the identities tested in one pass.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, groupby, islice, product, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .engine import Library, Mode, Randomness, SchemeState, Vector, decode, deliver, place
from .field import FieldContext, FieldError, _gather, _packet_size
from .pda import PDA, STAR

DEFAULT_BUDGET = 2**26
#: file realizations that the enumeration combines in one kernel call
REALIZATIONS_PER_CALL = 64


class AuditError(ValueError):
    pass


class BudgetExceeded(AuditError):
    """The audit would run more probe points or atoms than the budget."""


@dataclass(frozen=True)
class AuditConfig:
    """One exactly-enumerable instance: array, library shape, field, mode."""

    pda: PDA
    n: int
    b: int
    ctx: FieldContext
    mode: Mode = Mode.SPLFR
    demand_space: str = "all"  # "all" = every length-N vector, "units" = unit vectors
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.n < 1 or self.b < 1:
            raise AuditError(f"need N >= 1 and B >= 1, got N={self.n}, B={self.b}")
        if self.b % self.pda.f != 0:
            raise AuditError(f"F={self.pda.f} must divide B={self.b}")
        if self.demand_space not in ("all", "units"):
            raise AuditError(f"unknown demand space {self.demand_space!r}")

    def demand_vectors(self) -> list[tuple[int, ...]]:
        q, n = self.ctx.q, self.n
        if self.demand_space == "units":
            return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        return [tuple(v) for v in product(range(q), repeat=n)]

    def demand_tuples(self) -> list[tuple[tuple[int, ...], ...]]:
        """Every joint demand: one demand vector per user."""
        return list(product(self.demand_vectors(), repeat=self.pda.k))

    @property
    def atom_count(self) -> int:
        q = self.ctx.q
        per_user_demands = self.n if self.demand_space == "units" else q**self.n
        r = Randomness.symbols(self.pda, self.n, self.b)
        return q ** (self.n * self.b + r) * per_user_demands ** self.pda.k

    @property
    def probe_count(self) -> int:
        """The slots of the model: (1 + N*B) * (1 + S*L + K*N + demand moves)."""
        nb, _, _, width = _layout(self)
        return (1 + nb) * width

    def check_budget(self, count: Optional[int] = None, unit: str = "atoms") -> None:
        """Refuse an audit that would run more than the budget, by default atoms."""
        count = self.atom_count if count is None else count
        if count > self.budget:
            raise BudgetExceeded(f"{count} {unit} exceed budget {self.budget}")


@dataclass
class AuditReport:
    verdict: bool
    atoms: int
    violations: int
    counterexample: Optional[dict] = None
    method: str = "enumeration"  # or "certificate": decided by rank tests

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "atoms": self.atoms,
            "violations": self.violations,
            "counterexample": self.counterexample,
            "method": self.method,
        }


def factorization_violations(counts: Counter) -> tuple[int, Optional[tuple]]:
    """Count violated identities count(a,b)*total == count(a)*count(b).

    ``counts`` maps each outcome pair (a, b) to its count.  All support
    pairs are checked, including those with zero joint count.  No
    violation means A and B are independent: their mutual information is
    exactly zero, decided without logarithms.  One pass over the joint
    table: a breaks the identity with each b missing from its row when
    count(a) * count(b) != 0, and with each b in its row whose identity
    fails.  The first violation is the first a, in margin order, with one,
    and the first b, in margin order, that breaks it.
    """
    total = counts.total()
    rows: dict = {}
    margin_b: dict = {}
    for (a, b), c in counts.items():
        rows.setdefault(a, {})[b] = c
        margin_b[b] = margin_b.get(b, 0) + c
    nonzero = sum(map(bool, margin_b.values()))
    violations = 0
    first = None
    for a, row in rows.items():
        ca = sum(row.values())
        broken = nonzero if ca else 0  # as if every b were missing from the row
        for b, c in row.items():
            cb = margin_b[b]
            broken += (c * total != ca * cb) - bool(ca and cb)
        if broken and first is None:
            first = a, next(b for b, cb in margin_b.items() if row.get(b, 0) * total != ca * cb)
        violations += broken
    return violations, first


# -- the formal run ---------------------------------------------------------


def _misuse(what: str):
    """A method of ``_Poly`` that refuses the audit, saying what the engine does."""

    def refuse(self, *_):
        raise AuditError(f"the engine {what}, so no one model covers it")

    return refuse


class _Poly(dict):
    """A formal value, the model's row itself: each slot to its nonzero coefficient.

    It is no truth value, equals and orders nothing and takes no arithmetic
    but its context's, so a branch on one, or arithmetic outside the
    context, refuses the audit.
    """

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _misuse("branches on a formal value")
    __bool__ = __eq__
    __add__ = __radd__ = _misuse("applies + to a formal value outside its context")
    __sub__ = __rsub__ = _misuse("applies - to a formal value outside its context")
    __mul__ = __rmul__ = _misuse("applies * to a formal value outside its context")
    __xor__ = __rxor__ = _misuse("applies ^ to a formal value outside its context")
    __mod__ = __rmod__ = _misuse("applies % to a formal value outside its context")
    __floordiv__ = __rfloordiv__ = _misuse("applies // to a formal value outside its context")
    __truediv__ = __rtruediv__ = _misuse("applies / to a formal value outside its context")
    __divmod__ = __rdivmod__ = _misuse("applies divmod() to a formal value outside its context")
    __pow__ = __rpow__ = _misuse("applies ** to a formal value outside its context")
    __and__ = __rand__ = _misuse("applies & to a formal value outside its context")
    __or__ = __ror__ = __ior__ = _misuse("applies | to a formal value outside its context")
    __lshift__ = __rlshift__ = _misuse("applies << to a formal value outside its context")
    __rshift__ = __rrshift__ = _misuse("applies >> to a formal value outside its context")
    __neg__ = _misuse("applies unary - to a formal value outside its context")
    __pos__ = _misuse("applies unary + to a formal value outside its context")
    __invert__ = _misuse("applies ~ to a formal value outside its context")
    __abs__ = _misuse("applies abs() to a formal value outside its context")
    __index__ = _misuse("uses a formal value as an integer")
    __hash__ = _misuse("hashes a formal value")


class _Formal:
    """GF(q) made formal: the engine's context for the audit's run.

    A value is a ``_Poly``, or an int for a constant; the coefficients are
    reckoned with the scalar ``add`` and ``mul`` of the audit's field.  A
    product of two slots, each a W-monomial times an (r, d)-monomial, is the
    slot of their sum, allowed only when one of them has no W symbol and one
    no symbol of (r, d): any other is refused where it is formed.
    """

    def __init__(self, cfg: AuditConfig):
        self.cfg, self.base, self.width = cfg, cfg.ctx, _layout(cfg)[3]

    def lift(self, a) -> _Poly:
        if isinstance(a, _Poly):
            return a
        return _Poly({0: a} if self.base.check(a) else {})

    check = lift

    def pack(self, v) -> tuple[_Poly, ...]:
        return tuple(map(self.lift, v))

    def join(self, vectors) -> tuple:
        return tuple(chain.from_iterable(vectors))

    def split(self, v, f: int) -> tuple:
        """``v`` cut into f equal packets, refusing the counts that ``FieldContext.split`` does."""
        size = _packet_size(len(v), f)
        return tuple(v[i * size : (i + 1) * size] for i in range(f))

    def gather(self, vectors, picks, size: int) -> tuple:
        """The picked packets end to end, refusing the picks that ``FieldContext.gather`` does."""
        return _gather(vectors, picks, size, (0,))

    def lincomb(self, coeffs, vectors) -> tuple[_Poly, ...]:
        return self.lincombs((coeffs,), vectors)[0]

    def gathered(self, rows, vectors, layers, size: int) -> tuple[_Poly, ...]:
        """The layers gathered from the rows' combinations, added in order as
        ``lincomb`` of the gathered layers would add them, slot order too."""
        if not layers or len({*map(len, layers)}) != 1:
            raise FieldError("need one or more layers of one count of picks of packets")
        products, add = self.lincombs(rows, vectors), self.base.add
        laid = [_gather(products, layer, size, (0,)) for layer in layers]
        out = [_Poly() for _ in laid[0]]
        for layer in laid:
            for acc, x in zip(out, layer):
                if type(x) is _Poly:  # an int is the zero of a None pick
                    for s, b in x.items():
                        if s in acc:  # a sum moves its slot last, as a new slot comes
                            b = add(acc.pop(s), b)
                        if b:
                            acc[s] = b
        return tuple(out)

    def lincombs(self, rows, vectors) -> list[tuple[_Poly, ...]]:
        """Each row's combination, each operand symbol lifted once for all the rows."""
        if len({len(vectors), *map(len, rows)}) != 1 or len(set(map(len, vectors))) != 1:
            raise AuditError("the engine combines vectors of unequal count or length")
        add, mul, width, lift = self.base.add, self.base.mul, self.width, self.lift
        lifted = [[x if type(x) is _Poly else lift(x) for x in v] for v in vectors]
        ints = {}  # each int coefficient lifted once: a float equal to one is lifted apart
        out = []
        for coeffs in rows:
            row = [_Poly() for _ in vectors[0]]
            for c, v in zip(coeffs, lifted):
                if type(c) is int:
                    c = ints[c] if c in ints else ints.setdefault(c, lift(c))
                elif type(c) is not _Poly:
                    c = lift(c)
                for s1, a in c.items():
                    for acc, x in zip(row, v):
                        for s2, b in x.items():
                            # a constant, slot 0, makes no product outside the premise
                            if s1 and ((s1 >= width and s2 >= width)
                                       or (s1 % width and s2 % width)):
                                raise AuditError("the engine is not bi-affine: it yields the "
                                                 "monomial " + _name(self.cfg, (s1, s2)))
                            s = s1 + s2
                            if a != 1:
                                b = mul(a, b)
                            if s in acc:  # a sum moves its slot last, as a new slot comes
                                b = add(acc.pop(s), b)
                            if b:
                                acc[s] = b
            out.append(tuple(row))
        return out

    def vec_add(self, u, w) -> tuple[_Poly, ...]:
        return self.lincomb((1, 1), (u, w))

    def add(self, a, b) -> _Poly:
        return self.vec_add((a,), (b,))[0]

    def neg(self, a) -> _Poly:
        if isinstance(a, _Poly):
            return self.lincomb((self.base.neg(1),), ((a,),))[0]
        return self.base.neg(self.base.check(a))  # a constant stays an int

    def sub(self, a, b) -> _Poly:  # b first: of two bad constants, b is the one named
        return self.lincomb((1, self.base.neg(1)), ((a,), (self.lift(b),)))[0]

    def mul(self, a, b) -> _Poly:
        return self.lincomb((a,), ((b,),))[0]


class _Model(NamedTuple):
    """The formal run's outputs, each a row by slot, and its formal inputs."""

    signal: tuple[_Poly, ...]
    caches: tuple[tuple[_Poly, ...], ...]  # per user
    errors: tuple[tuple[_Poly, ...], ...]  # per user
    state: SchemeState
    demands: list


def _layout(cfg: AuditConfig) -> tuple[int, int, int, int]:
    """N*B, the S*L + K*N symbols of r, the demand moves per user, the slots per W-monomial."""
    keys = Randomness.symbols(cfg.pda, cfg.n, cfg.b)
    per_user = cfg.n - (cfg.demand_space == "units")
    return cfg.n * cfg.b, keys, per_user, 1 + keys + cfg.pda.k * per_user


def _name(cfg: AuditConfig, slots: Sequence[int]) -> str:
    """The product of ``slots`` by its symbols, 1-based: W_i, V_i, p_(k,n) and d_(k,n)."""
    (_, keys, per_user, width), n, users = _layout(cfg), cfg.n, range(1, cfg.pda.k + 1)
    names = [f"V_{i}" for i in range(1, keys - len(users) * n + 1)]
    names += [f"p_({k},{i})" for k in users for i in range(1, n + 1)]
    names += [f"d_({k},{i})" for k in users for i in range(n - per_user + 1, n + 1)]
    w = [f"W_{s // width}" for s in sorted(slots) if s >= width]
    return "*".join(w + [names[x - 1] for x in sorted(s % width for s in slots) if x])


def _formal_run(cfg: AuditConfig) -> _Model:
    """Run ``place``, ``deliver`` and every ``decode`` once, over formal symbols.

    W_i is slot i * width and the j-th symbol of (r, d) slot j (r, then the
    demand moves), so that a bi-affine monomial is the slot (W index) *
    width + (r, d) index, each index 1-based and 0 for none.
    """
    cfg.check_budget(cfg.probe_count, "probe points")  # before the formal run
    (nb, keys, per_user, width), ctx = _layout(cfg), _Formal(cfg)
    w = [_Poly({s: 1}) for s in range(width, (1 + nb) * width, width)]
    rd = [_Poly({s: 1}) for s in range(1, width)]
    files = [w[i : i + cfg.b] for i in range(0, nb, cfg.b)]
    randomness = Randomness.of(cfg.pda, cfg.n, cfg.b, rd[:keys])
    moved = [rd[keys + k * per_user : keys + (k + 1) * per_user] for k in range(cfg.pda.k)]
    demands = [d if per_user == cfg.n else (reduce(ctx.sub, d, 1), *d) for d in moved]
    state = place(cfg.pda, Library(ctx, files), randomness, cfg.mode)
    payload = deliver(state, demands)
    signal, caches = ctx.pack(chain(*payload.coeff_vectors, *payload.blocks)), []
    for c in state.caches:  # under stars each row's N packets, then the records, by row
        uncoded = (pkt for _, pkts in sorted(c.uncoded.items()) for pkt in pkts)
        caches.append(ctx.pack(chain(*uncoded, *(v for _, v in sorted(c.coded.items())))))
    minus_one, combine = cfg.ctx.neg(1), state.library.combine
    errors = tuple(  # each user's decoded vector minus the combination, in one call
        ctx.lincomb((1, minus_one), (decode(state.user_view(k), payload, d), combine(d)))
        for k, d in enumerate(demands)
    )
    return _Model(signal, tuple(caches), errors, state, demands)


def _column(rows: Sequence[dict], slot: int) -> Vector:
    """Each row's coefficient at ``slot``."""
    return tuple(row.get(slot, 0) for row in rows)


def _flat(vectors: Iterable[Sequence[int]]) -> Vector:
    return tuple(chain.from_iterable(vectors))


# -- enumeration --------------------------------------------------------------


def _placements(
    cfg: AuditConfig, signal: Sequence[dict], seen: Sequence[dict] = (), every_key: bool = False
) -> Iterator[tuple[tuple, Vector, list[Vector]]]:
    """Each file realization W, at r = 0 or at every key value: files, seen rows, signals.

    ``signal`` is read at every demand tuple, in ``demand_tuples`` order,
    ``seen`` once.  With ``every_key``, each symbol of r with a slot in the
    rows takes every value, r innermost, as the per-atom walk has it.  Per
    W-monomial, one row at r = 0 (the signal at each demand tuple, one
    signal symbol at a time, then the seen rows) and one per active symbol
    of r; the signal of every W-monomial is expanded over the demand tuples
    in one call.  The columns that no W_i reaches are combined with (1, r)
    once per key value r; at files W only the others combine with (1, W),
    then (1, r).
    """
    ctx, q, (nb, keys, per_user, width) = cfg.ctx, cfg.ctx.q, _layout(cfg)
    slots = {s % width for row in chain(signal, seen) for s in row} if every_key else ()
    active = [x for x in range(1, 1 + keys) if x in slots]  # a masked symbol has no slot
    demand_tuples = cfg.demand_tuples()
    moved = range(cfg.n - per_user, cfg.n)  # the files a demand move reaches
    coeffs = [(1, *(d[j][t] for j in range(cfg.pda.k) for t in moved)) for d in demand_tuples]
    monomials, terms = range(0, (1 + nb) * width, width), (0, *range(1 + keys, width))
    symbols = ctx.lincombs(  # rows: each W-monomial's signal rows; operands: the demand slots
        [[row.get(w + x, 0) for x in terms] for w in monomials for row in signal],
        [ctx.pack(c) for c in zip(*coeffs)],
    )
    size, stacked = len(signal), []
    for i, w in enumerate(monomials):
        rows = [chain(_flat(zip(*symbols[i * size : (i + 1) * size])), _column(seen, w))]
        rows += (chain(_column(signal, w + x) * len(coeffs), _column(seen, w + x))
                 for x in active)
        stacked.append(_flat(rows))
    span = len(stacked[0]) // (1 + len(active))
    reached = {j % span for v in stacked[1:] for j in compress(range(len(v)), v)}  # by some W_i
    varies, fixed = sorted(reached), [j for j in range(span) if j not in reached]
    blocks = range(0, len(stacked[0]), span)
    varying = [ctx.pack([v[b + j] for b in blocks for j in varies]) for v in stacked]
    constant = [tuple([stacked[0][b + j] for j in fixed]) for b in blocks]
    keyed = [(1, *r) for r in product(range(q), repeat=len(active))]
    fixed_rows = ctx.lincombs(keyed, constant) if active else constant
    order = sorted(range(span), key=(fixed + varies).__getitem__)
    pick = itemgetter(*order) if span > 1 else tuple  # a row from its fixed, then varying, values
    realizations = product(range(q), repeat=nb)
    while chunk := list(islice(realizations, REALIZATIONS_PER_CALL)):
        for w, combined in zip(chunk, ctx.lincombs([(1, *w) for w in chunk], varying)):
            files = tuple(w[f * cfg.b : (f + 1) * cfg.b] for f in range(cfg.n))
            at_keys = (combined,)  # with no active symbol, r = 0 alone
            if active:
                at_keys = ctx.lincombs(keyed, ctx.split(combined, 1 + len(active)))
            for at_fixed, at_key in zip(fixed_rows, at_keys):
                row = pick(at_fixed + at_key)
                signals = [row[i : i + size] for i in range(0, len(coeffs) * size, size)]
                yield files, row[len(coeffs) * size :], signals


def _factored(cfg: AuditConfig, view: Sequence[dict]) -> Optional[tuple[list[dict], int]]:
    """Rows in (W, d) whose values name the coset of the key image U, and U's rank.

    The view's rows with every key slot pivoted out: what is left is each
    combination of view symbols that no key moves, so two observations lie
    in one coset iff these rows agree on them.  None if a row has a slot
    W_i * r_x, so that U moves.
    """
    _, keys, _, width = _layout(cfg)
    if any(s >= width and 0 < s % width <= keys for row in view for s in row):
        return None
    rows, pivots = _eliminate(cfg.ctx, view, range(1, 1 + keys))
    return rows or [{}], len(pivots)  # a zero row where U covers the view


def _signal(cfg: AuditConfig, flat: Vector) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """The signal's coefficient vectors and multicast blocks, cut from its flat vector."""
    n, block, cut = cfg.n, cfg.b // cfg.pda.f, cfg.pda.k * cfg.n
    return (
        tuple(flat[i : i + n] for i in range(0, cut, n)),
        tuple(flat[i : i + block] for i in range(cut, len(flat), block)),
    )


def _cache(cfg: AuditConfig, k: int, flat: Vector) -> tuple:
    """User k's cache, cut from its flat vector: (row, packets) under stars, then (row, record)."""
    block, column = cfg.b // cfg.pda.f, cfg.pda.column(k)
    cut = iter([flat[i : i + block] for i in range(0, len(flat), block)])
    uncoded = tuple((i, tuple(islice(cut, cfg.n))) for i, e in enumerate(column) if e is STAR)
    return uncoded, tuple((i, next(cut)) for i, e in enumerate(column) if e is not STAR)


def enumerate_security(cfg: AuditConfig, model: _Model) -> AuditReport:
    """Count the signal against files and demands, from the model, by class or by atom."""
    cfg.check_budget()
    demand_tuples, factored = cfg.demand_tuples(), _factored(cfg, model.signal)
    if factored is None:  # the image moves with W
        counts = Counter()
        for files, _, signals in _placements(cfg, model.signal, every_key=True):
            counts.update(zip(zip(repeat(files), demand_tuples), signals))
        violations, first = factorization_violations(counts)
    else:  # two classes or more: each condition breaks an identity with every signal
        rows, rank = factored
        placements = _placements(cfg, rows, model.signal)  # seen: the signal at tuple 0, r = 0
        files, signal, signals = next(placements)
        classes = set(signals)
        for *_, signals in placements:
            classes.update(signals)
        conditions = cfg.ctx.q ** (cfg.n * cfg.b) * len(demand_tuples)
        violations = (len(classes) > 1) * len(classes) * cfg.ctx.q**rank * conditions
        first = ((files, demand_tuples[0]), signal) if violations else None
    counterexample = None
    if first is not None:
        (files, demands), signal = first
        counterexample = {
            "files": [list(f) for f in files],
            "demands": [list(d) for d in demands],
            "signal": repr(_signal(cfg, signal)),
        }
    # the common weight q^(masked) would scale every count alike and keep each identity
    return AuditReport(violations == 0, cfg.atom_count, violations, counterexample)


def enumerate_privacy(
    cfg: AuditConfig, subsets: Sequence[Sequence[int]], model: _Model
) -> list[AuditReport]:
    """Check colluding-subset privacy, conditioned on the file realization.

    Each subset lists colluding users (1-based, nonempty).  For every file
    realization, the demands of the remaining users must be independent
    of (signal, colluders' demands, colluders' caches).  One traversal
    counts every subset, by class, or by atom if an image moves with W.
    """
    cfg.check_budget()  # before the demand tuples are listed
    cuts, demand_tuples = [], cfg.demand_tuples()  # per subset: colluders, hidden and seen demands
    for subset in subsets:
        colluders = [u - 1 for u in _subset(cfg, subset)]
        others = [k for k in range(cfg.pda.k) if k not in colluders]
        hidden = [tuple(d[k] for k in others) for d in demand_tuples]
        seen = [tuple(d[k] for k in colluders) for d in demand_tuples]
        view = model.signal + _flat(model.caches[k] for k in colluders)
        cuts.append((colluders, hidden, seen, len(set(hidden)), _factored(cfg, view)))
    reports = [AuditReport(True, cfg.atom_count, 0) for _ in cuts]
    caches, walk = _flat(model.caches), any(f is None for *_, f in cuts)
    size = len(caches) // cfg.pda.k  # each column has Z stars: one cache length
    if walk:
        placements = _placements(cfg, model.signal, caches, every_key=True)
    else:  # seen: the caches, and the signal at demand tuple 0, at r = 0
        residues = [row for *_, (rows, _) in cuts for row in rows]
        placements = _placements(cfg, residues, caches + model.signal)
    # conditioning on the files keeps each slice's count small
    for files, group in groupby(placements, itemgetter(0)):
        group, end = list(group), 0
        for report, (colluders, hidden, seen, reach, factored) in zip(reports, cuts):
            if walk:
                table = Counter()
                for _, at, signals in group:
                    cut = tuple(at[k * size : (k + 1) * size] for k in colluders)
                    table.update(zip(hidden, zip(signals, seen, repeat(cut))))
                violations, first = factorization_violations(table)
            else:  # affine in d at one W: all classes break, or none, so tuple 0's does
                (rows, rank), (_, at, signals), start = factored, group[0], end
                end += len(rows)
                classes = set(zip(seen, (s[start:end] for s in signals)))
                broken = len(classes) * reach > len(demand_tuples)  # fewer than |A| in a class
                violations = broken * len(classes) * cfg.ctx.q**rank * reach
                first = None
                if broken:  # the colluders' caches are cut for the witness alone
                    cut = tuple(at[k * size : (k + 1) * size] for k in colluders)
                    first = hidden[0], (at[len(caches) :], seen[0], cut)
            report.violations += violations
            report.verdict = report.violations == 0
            if first is not None and report.counterexample is None:
                hidden, (signal, seen, cut) = first
                views = tuple(_cache(cfg, k, c) for k, c in zip(colluders, cut))
                report.counterexample = {
                    "files": [list(f) for f in files],
                    "hidden_demands": [list(d) for d in hidden],
                    "observed": repr((*_signal(cfg, signal), seen, views)),
                }
    return reports


# -- certificates ---------------------------------------------------------


def correctness_certificate(cfg: AuditConfig, model: _Model) -> Optional[dict]:
    """None if every decoding error is the zero polynomial.

    Otherwise the atom at the first nonzero slot, in probe order: its
    symbols at 1 and every other at 0, keys as placed, with the first user
    whose error has that slot, a raw atom at which that user fails.
    """
    failing = [(min(chain(*e)), k) for k, e in enumerate(model.errors) if any(map(len, e))]
    if not failing:
        return None
    (slot, k), width = min(failing), _layout(cfg)[3]
    ones = {0, slot - slot % width, slot % width}  # the constant and the slot's symbols
    add, lift, keys = cfg.ctx.add, model.state.library.ctx.lift, model.state.randomness

    def at(vectors) -> list[list[int]]:  # with the slot's symbols at 1, every other at 0
        return [[reduce(add, (c for s, c in lift(x).items() if s in ones), 0) for x in v]
                for v in vectors]

    return {
        "files": at(model.state.library.files),
        "security_keys": at(keys.security_keys),
        "privacy_vectors": at(keys.privacy_vectors),
        "demands": at(model.demands),
        "user": k + 1,
    }


def _eliminate(
    ctx: FieldContext, rows: Iterable[dict], columns: Sequence[int], free: Optional[Callable] = None
) -> tuple[list[dict], list[dict]]:
    """Gauss-Jordan on sparse rows {slot: coefficient}: (rows left, pivot rows).

    Each of ``columns`` that a row still holds, and that ``free(column,
    rows left)`` allows, pivots that row out and is cleared from every row
    left, until no column pivots.  The rows are not changed in place.
    """
    rows, pivots, again = list(rows), [], True
    while again:  # only a column that ``free`` deferred can pivot on another pass
        again = False
        for c in columns:
            holding = [i for i, row in enumerate(rows) if c in row]
            if not holding or (free is not None and not free(c, rows)):
                continue
            pivot = rows[holding[0]]
            scale, again = ctx.neg(ctx.inv(pivot[c])), free is not None
            for i in holding[1:]:  # row + scale * row[c] * pivot, its zero coefficients dropped
                a, row = ctx.mul(scale, rows[i][c]), dict(rows[i])
                for s, x in pivot.items():
                    row[s] = ctx.add(row.get(s, 0), ctx.mul(a, x))
                rows[i] = {s: x for s, x in row.items() if x}
            pivots.append(rows.pop(holding[0]))
    return rows, pivots


def security_certificate(cfg: AuditConfig, model: _Model) -> bool:
    """The signal's coset, offset + C_W * delta + Im(A_W), is one for every (W, d).

    Each signal symbol is a row of coefficients by slot.  A key symbol with
    no W_i coefficient in any row left pivots a row: its symbol pads that
    row, and constant multipliers keep the rows affine in W.  The rows left
    at the end must have no slot but the constant one.
    """
    _, keys, _, width = _layout(cfg)

    def free(c: int, rows: list) -> bool:  # no row left has a slot W_i * r_c
        return not any(s % width == c and s > c for row in rows for s in row)

    rows, _ = _eliminate(cfg.ctx, model.signal, range(1, 1 + keys), free)
    return all(row.keys() <= {0} for row in rows)


def privacy_certificate(
    cfg: AuditConfig, model: _Model, subsets: Sequence[Sequence[int]]
) -> list[bool]:
    """Per colluding subset: one key change Delta r moves the view as each other user's move does.

    The view is the signal and the colluders' caches; each part of (r, d)
    moves it by its coefficients, stacked over the W-monomials, so that one
    Delta r serves every W.  With one row per cell (W-monomial, view
    symbol) over the symbols of (r, d), and every key symbol pivoted out,
    the rows left span the combinations of cells that no key moves: the
    moves lie in the span of the key parts iff none of them moves one.
    The colluders' own demands are left out: no key or other user's demand
    moves them, so they split the view into disjoint cosets without
    changing the test.
    """
    (_, keys, per_user, width), ok = _layout(cfg), []
    for colluders in ([u - 1 for u in subset] for subset in subsets):
        cells: dict[tuple[int, int], dict[int, int]] = {}
        for i, row in enumerate(model.signal + _flat(model.caches[k] for k in colluders)):
            for s, c in row.items():
                if s % width:
                    cells.setdefault((s - s % width, i), {})[s % width] = c
        others = [k for k in range(cfg.pda.k) if k not in colluders]
        moves = {1 + keys + k * per_user + t for k in others for t in range(per_user)}
        rows, _ = _eliminate(cfg.ctx, cells.values(), range(1, 1 + keys))
        ok.append(all(moves.isdisjoint(row) for row in rows))
    return ok


def _subset(cfg: AuditConfig, subset: Sequence[int]) -> list[int]:
    subset = sorted(set(subset))
    if not subset or any(not 1 <= u <= cfg.pda.k for u in subset):
        raise AuditError(f"subset must be a nonempty subset of [1, {cfg.pda.k}]")
    return subset


def audit_correctness(cfg: AuditConfig) -> AuditReport:
    """Decoder exactness, decided by the certificate, which names a failing atom."""
    witness = correctness_certificate(cfg, _formal_run(cfg))
    failed = witness is not None
    return AuditReport(not failed, cfg.atom_count, int(failed), witness, method="certificate")


def audit_security(cfg: AuditConfig) -> AuditReport:
    """Signal independence: certificate first, enumeration when it fails."""
    model = _formal_run(cfg)
    if security_certificate(cfg, model):
        return AuditReport(True, cfg.atom_count, 0, method="certificate")
    return enumerate_security(cfg, model)


def audit_privacy(
    cfg: AuditConfig, subset: Optional[Sequence[int]] = None
) -> AuditReport:
    """Colluding-subset privacy: certificate first, enumeration when it fails.

    ``subset`` lists the colluding users (1-based, nonempty).  Without
    one, every nonempty subset is audited on the one model, and the
    subsets whose certificates fail are enumerated together in one
    traversal; the report sums the atoms and violations, and its
    counterexample (the first subset's that has one) names the subset.
    """
    users = range(1, cfg.pda.k + 1)
    if subset is None:
        # every subset's certificate reads the view at every probe point
        cfg.check_budget((2**cfg.pda.k - 1) * cfg.probe_count, "subset-probe points")
        subsets = list(chain.from_iterable(combinations(users, r) for r in users))
    else:
        subsets = [_subset(cfg, subset)]
    model = _formal_run(cfg)
    ok = privacy_certificate(cfg, model, subsets)
    failing = [sub for sub, o in zip(subsets, ok) if not o]
    if not failing:
        return AuditReport(True, len(subsets) * cfg.atom_count, 0, method="certificate")
    reports = enumerate_privacy(cfg, failing, model)
    if subset is not None:
        return reports[0]
    return AuditReport(
        verdict=all(r.verdict for r in reports),
        atoms=(len(subsets) - len(failing)) * cfg.atom_count + sum(r.atoms for r in reports),
        violations=sum(r.violations for r in reports),
        counterexample=next(
            (dict(r.counterexample, subset=list(sub)) for sub, r in zip(failing, reports)
             if r.counterexample),
            None,
        ),
    )
