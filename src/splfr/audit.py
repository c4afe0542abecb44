"""Exact information-theoretic verification on small instances.

Three claims are decided over the joint distribution of (library,
randomness, demands) with uniform independent components:

- correctness: every user's decoder output equals the demanded linear
  combination for every atom;
- security: the broadcast signal is independent of (files, demands);
- privacy: the demands of users outside a colluding subset are independent
  of everything the subset observes, conditioned on the files.

Certificates come first.  Their premise is that the engine is bi-affine:
the signal, every cache and every decoded-minus-demanded error are affine
in the randomness r = (V, p) and the demands d for fixed files W, and in W
for fixed (r, d), as the records V_s + sum p*W, the blocks V_s + sum q*W
and the linear decoders are.  So the engine runs only at the 1 + N*B probe
files W = 0, e_1, ..., e_(N*B), each at an affine basis of (r, d): the
offset r = 0, d = d0, each unit vector of r, each single-user demand
move.  The key part A_W, demand part C_W * delta and offset of
``file_model`` are affine in W, so the probe files decide for every W:

- correctness: every error is zero at every probe file and probe point;
- security: pivoting the signal rows only on key columns constant in W
  leaves rows with no key or demand part and an offset constant in W;
- privacy: one key change Delta r, the same for every W, moves the
  colluders' view as each other user's demand move does.

A pass reports the full atom count.  Correctness is decided by its
certificate alone: every probe point is itself an atom, so a failing
decoder names its atom (files, keys as placed, demands, user) at any size.
A security or privacy test stops at the first probe file that breaks it,
and the enumeration decides.  The budget bounds the certificates'
deliveries, (1 + N*B) * (1 + S*L + K*N + demand moves), and the
enumeration's nominal atoms.  The enumeration counts from the model, on
the certificates' bi-affine premise, with no engine call per atom: the
engine runs at the probe files only, at r = 0, at each symbol of r that
the mode lets through and at each demand move, and an atom's observation
is the probe models' affine combination at its W plus its key and demand
parts.  Each effective atom is counted once, weighted by the q^(masked)
raw atoms that share its outcome (a symbol of r that the mode masks is
held at 0), in the order of the walk over every atom; the privacy
enumeration counts every failing subset in one pass.  Independence is
decided through the factorization identities count(a, b) * total ==
count(a) * count(b), which hold for every pair iff the mutual information
is exactly zero, checked in one pass over the joint table; the
enumeration is the only source of the violation count and the first
witness.  No logarithms or floating point are involved: a pass is a proof
for the instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, groupby, islice, product
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .engine import (
    Library,
    Mode,
    Randomness,
    SchemeState,
    UserCache,
    Vector,
    decode,
    deliver,
    place,
)
from .field import FieldContext
from .pda import PDA, STAR

DEFAULT_BUDGET = 2**26


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
        """Deliveries of the certificates: (1 + N*B) * (1 + S*L + K*N + demand moves)."""
        moves = self.pda.k * (self.n - (self.demand_space == "units"))
        return (1 + self.n * self.b) * (1 + Randomness.symbols(self.pda, self.n, self.b) + moves)

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


@lru_cache(maxsize=16)
def _active_symbols(cfg: AuditConfig) -> tuple[bool, ...]:
    """Per symbol of r, whether the engine's masking for the mode lets it through."""
    args = cfg.pda, cfg.n, cfg.b, cfg.ctx, cfg.mode
    zero = Randomness.zeros(cfg.pda, cfg.n, cfg.b).effective(*args)
    return tuple(r.effective(*args) != zero for r in _key_basis(cfg))


def _placements(
    cfg: AuditConfig, caches: bool = False
) -> Iterator[tuple[tuple, Vector, Iterator[tuple[tuple, Vector]], int]]:
    """Each effective placement once, from the model: files, caches, (demands, signal)s, weight.

    The engine runs only at the probe files, at r = 0, each active symbol
    of r and each demand move (a symbol that the mode masks has a zero
    part).  The model at files W combines the probe models with the
    coefficients (1 - sum W, W_1, ..., W_(N*B)), as the engine is affine in
    W; a demand tuple's signal is the offset plus its demand part, and r
    adds its key parts.  The placements come as the per-atom walk has them:
    files outermost, then the active symbols of r, each weighed by the
    q^(masked) raw atoms it stands for, with the demand tuples innermost.
    """
    cfg.check_budget()
    ctx, q, n, b = cfg.ctx, cfg.ctx.q, cfg.n, cfg.b
    basis = [r for r, a in zip(_key_basis(cfg), _active_symbols(cfg)) if a]
    weight = q ** (len(_key_basis(cfg)) - len(basis))
    demand_tuples = cfg.demand_tuples()
    moves = [(j, demands[j].index(1)) for j, demands in _demand_moves(cfg)[1]]  # (user, file)
    coeffs = [(1, *(d[j][t] for j, t in moves)) for d in demand_tuples]
    # per probe file, one row at r = 0 and one per active symbol: the signal
    # at each demand tuple, then the caches (a key part is the same at every d)
    stacked = []
    for library in _probe_libraries(cfg):
        model = file_model(cfg, library, caches, basis)
        signals = (model.offset[0], *(p[0] for _, p in model.demands))
        rows = [chain((ctx.lincomb(c, signals) for c in coeffs), model.offset[1:])]
        rows += (chain((p[0],) * len(coeffs), p[1:]) for p in model.keys)
        stacked.append(_flat(map(_flat, rows)))
    width, span = len(model.offset[0]), len(stacked[0]) // (1 + len(basis))
    for w in product(range(q), repeat=n * b):
        at = ctx.lincomb((reduce(ctx.sub, w, 1), *w), stacked)
        base, *keys = (at[i : i + span] for i in range(0, len(at), span))
        files = tuple(w[f * b : (f + 1) * b] for f in range(n))
        for r in product(range(q), repeat=len(keys)):
            row = ctx.lincomb((1, *r), (base, *keys)) if any(r) else base
            signals = (row[i : i + width] for i in range(0, len(coeffs) * width, width))
            yield files, row[len(coeffs) * width :], zip(demand_tuples, signals), weight


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


def _atom_dict(library: Library, randomness: Randomness, demands) -> dict:
    return {
        "files": [list(f) for f in library.files],
        "security_keys": [list(v) for v in randomness.security_keys],
        "privacy_vectors": [list(p) for p in randomness.privacy_vectors],
        "demands": [list(d) for d in demands],
    }


def enumerate_security(cfg: AuditConfig) -> AuditReport:
    """Certify that the signal is independent of files and demands."""
    counts = Counter()
    for files, _, atoms, weight in _placements(cfg):
        for demands, signal in atoms:
            counts[(files, demands), signal] += weight
    violations, first = factorization_violations(counts)
    counterexample = None
    if first is not None:
        (files, demands), signal = first
        counterexample = {
            "files": [list(f) for f in files],
            "demands": [list(d) for d in demands],
            "signal": repr(_signal(cfg, signal)),
        }
    return AuditReport(violations == 0, counts.total(), violations, counterexample)


def enumerate_privacy(
    cfg: AuditConfig, subsets: Sequence[Sequence[int]]
) -> list[AuditReport]:
    """Check colluding-subset privacy, conditioned on the file realization.

    Each subset lists colluding users (1-based, nonempty).  For every file
    realization, the demands of the remaining users must be independent
    of (signal, colluders' demands, colluders' caches).  One traversal
    fills a count table per subset and returns one report per subset.
    """
    cfg.check_budget()  # before the demand tuples are listed
    cuts = []  # per subset: the colluders, and each demand tuple split
    for subset in subsets:
        colluders = [u - 1 for u in _subset(cfg, subset)]
        others = [k for k in range(cfg.pda.k) if k not in colluders]
        split = {
            d: (tuple(d[k] for k in others), tuple(d[k] for k in colluders))
            for d in cfg.demand_tuples()
        }
        cuts.append((colluders, split))
    reports = [AuditReport(True, 0, 0) for _ in cuts]
    # conditioning on the files keeps each slice's count tables small
    for files, placements in groupby(_placements(cfg, caches=True), itemgetter(0)):
        tables = [Counter() for _ in cuts]
        for _, caches, atoms, weight in placements:
            size = len(caches) // cfg.pda.k  # each column has Z stars: one cache length
            slots = [
                (split, tuple(caches[k * size : (k + 1) * size] for k in colluders), table)
                for (colluders, split), table in zip(cuts, tables)
            ]
            for demands, signal in atoms:
                for split, seen_caches, table in slots:
                    hidden, seen = split[demands]
                    outcome = (hidden, (signal, seen, seen_caches))
                    table[outcome] = table.get(outcome, 0) + weight
        for report, table, (colluders, _) in zip(reports, tables, cuts):
            violations, first = factorization_violations(table)
            report.atoms += table.total()
            report.violations += violations
            report.verdict = report.violations == 0
            if first is not None and report.counterexample is None:
                hidden, (signal, seen, seen_caches) = first
                views = tuple(_cache(cfg, k, c) for k, c in zip(colluders, seen_caches))
                report.counterexample = {
                    "files": [list(f) for f in files],
                    "hidden_demands": [list(d) for d in hidden],
                    "observed": repr((*_signal(cfg, signal), seen, views)),
                }
    return reports


# -- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class FileModel:
    """The engine at one file realization W, as an affine map of (r, d).

    A point is the signal, then each user's cache if the caches are read.
    ``offset`` is the point r = 0, d = d0; ``keys[i]`` is what A_W adds per
    unit of symbol i of r (of the i-th probed one, if ``file_model`` was
    given a basis); ``demands`` holds (user, C_W * delta) per
    single-user demand move away from d0 (see ``_demand_moves``).
    """

    offset: tuple[Vector, ...]
    keys: tuple[tuple[Vector, ...], ...]
    demands: tuple[tuple[int, tuple[Vector, ...]], ...]


def _flat(vectors: Iterable[Sequence[int]]) -> Vector:
    return tuple(chain.from_iterable(vectors))


def _cache_vector(cache: UserCache) -> Vector:
    uncoded = (pkt for _, pkts in sorted(cache.uncoded.items()) for pkt in pkts)
    coded = (v for _, v in sorted(cache.coded.items()))
    return _flat(chain(uncoded, coded))


@lru_cache(maxsize=16)
def _key_basis(cfg: AuditConfig) -> tuple[Randomness, ...]:
    """Randomness at each unit vector of r (every symbol of V, then of p), once per config."""
    size = Randomness.symbols(cfg.pda, cfg.n, cfg.b)
    return tuple(
        Randomness.of(cfg.pda, cfg.n, cfg.b, [int(i == j) for i in range(size)])
        for j in range(size)
    )


@lru_cache(maxsize=16)
def _demand_moves(cfg: AuditConfig) -> tuple[tuple, tuple[tuple[int, tuple], ...]]:
    """A base demand tuple d0 and the single-user moves away from it.

    Every point is a demand tuple of the demand space, and their affine
    hull contains all of it: for ``all``, d0 = 0 and each user moves to
    each unit vector; for ``units``, d0 puts every user on file 1 and each
    user moves to each other file, so the differences are e_a - e_1.
    """
    k, n = cfg.pda.k, cfg.n
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    if cfg.demand_space == "units":
        start, targets = units[0], units[1:]
    else:
        start, targets = (0,) * n, units
    base = (start,) * k
    return base, tuple((j, base[:j] + (t,) + base[j + 1 :]) for j in range(k) for t in targets)


def _probe_libraries(cfg: AuditConfig) -> Iterator[Library]:
    """W = 0, then each unit vector e_i of the N*B file symbols, within the probe budget."""
    cfg.check_budget(cfg.probe_count, "probe points")  # before the bases are built
    n, b = cfg.n, cfg.b
    for i in range(-1, n * b):
        yield Library(cfg.ctx, tuple(tuple(int(i == f * b + j) for j in range(b)) for f in range(n)))


def _probes(
    cfg: AuditConfig, library: Library, basis: Sequence[Randomness]
) -> Iterator[tuple[SchemeState, tuple]]:
    """(placement, demands) at r = 0 and d0, at each point of ``basis``, at each demand move."""
    base, moves = _demand_moves(cfg)
    state = place(cfg.pda, library, Randomness.zeros(cfg.pda, cfg.n, cfg.b), cfg.mode)
    yield state, base
    for r in basis:
        yield place(cfg.pda, library, r, cfg.mode), base
    for _, demands in moves:
        yield state, demands


def file_model(
    cfg: AuditConfig,
    library: Library,
    caches: bool = False,
    basis: Optional[Sequence[Randomness]] = None,
) -> FileModel:
    """Probe the engine at one W: 1 + S*L + K*N placements, a delivery per point.

    The key parts are those of the points of ``basis``, by default every
    unit vector of r (a placement each).  The demand moves reuse the
    zero-key placement, so their cache parts are zero: the caches are read
    once per placement.
    """
    basis = _key_basis(cfg) if basis is None else basis
    points, zero = [], None
    for state, demands in _probes(cfg, library, basis):
        payload = deliver(state, demands)
        point = (_flat(chain(payload.coeff_vectors, payload.blocks)),)
        if caches:
            point += points[0][1:] if state is zero else tuple(map(_cache_vector, state.caches))
        if zero is None:
            zero = state
        points.append(point)
    offset, *points = points
    parts = [tuple(tuple(map(cfg.ctx.sub, u, w)) for u, w in zip(p, offset)) for p in points]
    keys, users = len(basis), (j for j, _ in _demand_moves(cfg)[1])
    return FileModel(offset, tuple(parts[:keys]), tuple(zip(users, parts[keys:])))


def _in_span(ctx: FieldContext, basis: Sequence[Vector], vectors: Iterable[Vector]) -> bool:
    """Whether every vector lies in the span of the reduced echelon ``basis``."""
    return not any(any(ctx.reduce(basis, v)) for v in vectors)


def correctness_certificate(cfg: AuditConfig, libraries: Iterable[Library]) -> Optional[dict]:
    """None if every decoder is exact at every probe point, for each of ``libraries``.

    Otherwise the first failing probe point, with the keys as placed and the
    user that decodes wrongly: a raw atom at which that user fails.
    """
    for library in libraries:
        for state, demands in _probes(cfg, library, _key_basis(cfg)):
            payload = deliver(state, demands)
            for k, demand in enumerate(demands):
                if decode(state.user_view(k), payload, demand) != library.combine(demand):
                    return dict(_atom_dict(library, state.randomness, demands), user=k + 1)
    return None


def security_certificate(cfg: AuditConfig, libraries: Iterable[Library]) -> bool:
    """The signal's coset, offset + C_W * delta + Im(A_W), is one for every (W, d).

    Each signal symbol is a row [key parts | offset | demand parts] at each
    probe file.  A key column that is one constant at every probe file, in
    every row left, pivots a row: its symbol pads that row, and constant
    multipliers keep the rows affine in W.  The rows left at the end must
    have no key or demand part and one offset at every probe file.
    """
    ctx, keys, columns = cfg.ctx, Randomness.symbols(cfg.pda, cfg.n, cfg.b), []
    for model in (file_model(cfg, library) for library in libraries):
        moves = [p[0] for _, p in model.demands]
        if not _in_span(ctx, ctx.echelon(p[0] for p in model.keys), moves):
            return False  # the demands show at this W: build no more models
        columns.append(zip(*(p[0] for p in model.keys), model.offset[0], *moves))
    width = keys + 1 + len(_demand_moves(cfg)[1])
    rows, pivoted = [_flat(row) for row in zip(*columns)], True
    while pivoted:
        pivoted = False
        for c in range(keys):
            pivot = next((row for row in rows if row[c]), None)
            if pivot is None or any(len(set(row[c::width])) > 1 for row in rows):
                continue
            rows.remove(pivot)
            scale, pivoted = ctx.neg(ctx.inv(pivot[c])), True
            rows = [
                ctx.lincomb((1, ctx.mul(scale, row[c])), (row, pivot)) if row[c] else row
                for row in rows
            ]
    # each row left must be one constant: no key or demand part, one offset, at every W
    blank = (0,) * (width - keys - 1)
    return all(row == ((0,) * keys + (row[keys],) + blank) * len(columns) for row in rows)


def privacy_certificate(
    cfg: AuditConfig, libraries: Iterable[Library], subsets: Sequence[Sequence[int]]
) -> list[bool]:
    """Per colluding subset: one key change Delta r moves the view as each other user's move does.

    The view is the signal and the colluders' caches, stacked over the probe
    files so that one Delta r serves every W.  The colluders' own demands
    are left out: no key or other user's demand moves them, so they split
    the view into disjoint cosets without changing the test.
    """
    ctx, cuts = cfg.ctx, [[u - 1 for u in subset] for subset in subsets]
    stacks = [([], []) for _ in cuts]  # per subset and probe file: key views, move views
    ok = [True] * len(cuts)
    for model in (file_model(cfg, library, caches=True) for library in libraries):
        for i, colluders in enumerate(cuts):
            if ok[i]:
                view = itemgetter(0, *(k + 1 for k in colluders))  # signal, colluders' caches
                keys = [_flat(view(p)) for p in model.keys]
                moves = [_flat(view(p)) for j, p in model.demands if j not in colluders]
                ok[i] = _in_span(ctx, ctx.echelon(keys), moves)  # or fail at this W
                stacks[i][0].append(keys)
                stacks[i][1].append(moves)
        if not any(o and len(c) < cfg.pda.k for o, c in zip(ok, cuts)):
            break  # the subsets still holding have no other user: they hold at every W
    return [
        o and _in_span(ctx, ctx.echelon(map(_flat, zip(*keys))), map(_flat, zip(*moves)))
        for o, (keys, moves) in zip(ok, stacks)
    ]


def _subset(cfg: AuditConfig, subset: Sequence[int]) -> list[int]:
    subset = sorted(set(subset))
    if not subset or any(not 1 <= u <= cfg.pda.k for u in subset):
        raise AuditError(f"subset must be a nonempty subset of [1, {cfg.pda.k}]")
    return subset


def _certified(cfg: AuditConfig) -> AuditReport:
    return AuditReport(True, cfg.atom_count, 0, method="certificate")


def audit_correctness(cfg: AuditConfig) -> AuditReport:
    """Decoder exactness, decided by the certificate, which names a failing atom."""
    witness = correctness_certificate(cfg, _probe_libraries(cfg))
    if witness is None:
        return _certified(cfg)
    return AuditReport(False, cfg.atom_count, 1, witness, method="certificate")


def audit_security(cfg: AuditConfig) -> AuditReport:
    """Signal independence: certificate first, enumeration when it fails."""
    if security_certificate(cfg, _probe_libraries(cfg)):
        return _certified(cfg)
    return enumerate_security(cfg)


def audit_privacy(
    cfg: AuditConfig, subset: Optional[Sequence[int]] = None
) -> AuditReport:
    """Colluding-subset privacy: certificate first, enumeration when it fails.

    ``subset`` lists the colluding users (1-based, nonempty).  Without
    one, every nonempty subset is audited on one set of file models, and
    the subsets whose certificates fail are enumerated together in one
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
    ok = privacy_certificate(cfg, _probe_libraries(cfg), subsets)
    failing = [sub for sub, o in zip(subsets, ok) if not o]
    if not failing:
        return AuditReport(True, len(subsets) * cfg.atom_count, 0, method="certificate")
    reports = enumerate_privacy(cfg, failing)
    if subset is not None:
        return reports[0]
    return AuditReport(
        verdict=all(r.verdict for r in reports),
        atoms=(len(subsets) - len(failing)) * cfg.atom_count + sum(r.atoms for r in reports),
        violations=sum(r.violations for r in reports),
        counterexample=next(
            (
                dict(r.counterexample, subset=list(sub))
                for sub, r in zip(failing, reports)
                if r.counterexample
            ),
            None,
        ),
    )


__all__ = [
    "AuditConfig",
    "AuditError",
    "AuditReport",
    "BudgetExceeded",
    "FileModel",
    "audit_correctness",
    "audit_privacy",
    "audit_security",
    "correctness_certificate",
    "enumerate_privacy",
    "enumerate_security",
    "factorization_violations",
    "file_model",
    "privacy_certificate",
    "security_certificate",
]
