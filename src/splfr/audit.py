"""Exact information-theoretic verification on small instances.

Three claims are decided over the joint distribution of (library,
randomness, demands) with uniform independent components:

- correctness: every user's decoder output equals the demanded linear
  combination for every atom;
- security: the broadcast signal is independent of (files, demands);
- privacy: the demands of users outside a colluding subset are independent
  of everything the subset observes, conditioned on the files.

Certificates come first.  Fix the files W.  The signal, every cache and
every decoded-minus-demanded error are then affine in the randomness
r = (V, p) and the demands d: this is the premise, and the linear
placement, delivery and decoding of the scheme satisfy it.  For each W,
``file_models`` runs the real ``place``/``deliver``/``decode`` at an
affine basis of (r, d), built once per config, and keeps three parts:
the offset at r = 0, d = d0; the key part A_W per symbol of r; and the
demand part C_W * delta per single-user demand move.  Given (W, d), an
observation is uniform on the coset offset + Im(A_W), so each claim is a
span test over GF(q):

- security: every W has the same image and coset, and no demand part
  leaves the image;
- privacy: the demand parts of the users outside the subset lie in the
  image of the keys in the subset's view;
- correctness: the errors of the offset and of every part are zero.

Under the premise each test holds iff the claim does, so a passing
certificate reports the full atom count with no enumeration.  The budget
bounds the certificates' deliveries (``AuditConfig.probe_count``), and the
nominal atoms of the enumeration, which runs when a certificate fails.  Each
enumeration visits each effective placement once, for its own oracle: a
symbol of r that the mode masks is held at 0, and each atom walked is
weighted by the q^(masked) raw atoms that share its outcome.  The privacy
oracle fills one count table per colluding subset, so an audit of every
subset counts all those whose certificates fail in one walk.
Independence is decided through the factorization identities
count(a, b) * total == count(a) * count(b), which hold for every pair iff
the mutual information is exactly zero.  The enumeration is the reference
oracle, the only source of the violation count and the first witness.  No
logarithms or floating point are involved: a pass is a proof for the
instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations, groupby, product
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .engine import (
    DeliveryPayload,
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
from .pda import PDA

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
        """Deliveries of the certificates: q^(N*B) * (1 + key-basis points + demand moves).

        Too many file realizations are refused before the bases are built.
        """
        realizations = self.ctx.q ** (self.n * self.b)
        self.check_budget(realizations, "file realizations")
        return realizations * (1 + len(_key_basis(self)) + len(_demand_moves(self)[1]))

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
    exactly zero, decided without logarithms.
    """
    total = counts.total()
    margin_a: dict = {}
    margin_b: dict = {}
    for (a, b), c in counts.items():
        margin_a[a] = margin_a.get(a, 0) + c
        margin_b[b] = margin_b.get(b, 0) + c
    joint = counts.get
    violations = 0
    first = None
    for a, ca in margin_a.items():
        for b, cb in margin_b.items():
            if joint((a, b), 0) * total != ca * cb:
                violations += 1
                if first is None:
                    first = (a, b)
    return violations, first


def _libraries(cfg: AuditConfig) -> Iterator[Library]:
    files = list(product(range(cfg.ctx.q), repeat=cfg.b))
    for combo in product(files, repeat=cfg.n):
        yield Library(cfg.ctx, tuple(combo))


@lru_cache(maxsize=16)
def _active_symbols(cfg: AuditConfig) -> tuple[bool, ...]:
    """Per symbol of r, whether the engine's masking for the mode lets it through."""
    args = cfg.pda, cfg.n, cfg.b, cfg.ctx, cfg.mode
    zero = Randomness.zeros(cfg.pda, cfg.n, cfg.b).effective(*args)
    return tuple(r.effective(*args) != zero for r in _key_basis(cfg))


def _atoms(
    cfg: AuditConfig,
) -> Iterator[tuple[Library, Randomness, SchemeState, tuple, DeliveryPayload, int]]:
    """Each effective atom once: files, keys, demands, placement, signal, weight.

    A symbol of r that the mode masks reaches no cache and no signal, so the
    walk holds it at 0 and weighs the atom by the q^(masked) raw atoms it
    stands for, of which it is the first.  The files are outermost and the
    demands innermost, so the atoms of one file realization, and of one
    placement, are consecutive.
    """
    cfg.check_budget()
    pda, n, b, q = cfg.pda, cfg.n, cfg.b, cfg.ctx.q
    active = _active_symbols(cfg)
    weight = q ** active.count(False)
    demand_tuples = cfg.demand_tuples()
    for library in _libraries(cfg):
        for r in product(*(range(q) if a else (0,) for a in active)):
            randomness = Randomness.of(pda, n, b, r)
            state = place(pda, library, randomness, cfg.mode)
            for demands in demand_tuples:
                yield library, randomness, state, demands, deliver(state, demands), weight


def _raw_position(cfg: AuditConfig, library: Library, randomness: Randomness, demands) -> int:
    """The 1-based position of an atom in the walk over every raw atom."""
    q, tuples = cfg.ctx.q, cfg.demand_tuples()
    digits = chain(*library.files, *randomness.security_keys, *randomness.privacy_vectors)
    return reduce(lambda i, x: i * q + x, digits, 0) * len(tuples) + tuples.index(demands) + 1


def _atom_dict(library: Library, randomness: Randomness, demands) -> dict:
    return {
        "files": [list(f) for f in library.files],
        "security_keys": [list(v) for v in randomness.security_keys],
        "privacy_vectors": [list(p) for p in randomness.privacy_vectors],
        "demands": [list(d) for d in demands],
    }


def enumerate_correctness(cfg: AuditConfig) -> AuditReport:
    """Check decoder determinism and exactness for every atom and user."""
    atoms = 0
    for library, randomness, state, demands, payload, weight in _atoms(cfg):
        atoms += weight
        for k, demand in enumerate(demands):
            if decode(state.user_view(k), payload, demand) != library.combine(demand):
                detail = _atom_dict(library, randomness, demands)
                detail["user"] = k + 1
                raw = _raw_position(cfg, library, randomness, demands)
                return AuditReport(False, raw, 1, detail)
    return AuditReport(True, atoms, 0)


def enumerate_security(cfg: AuditConfig) -> AuditReport:
    """Certify that the signal is independent of files and demands."""
    counts = Counter()
    for library, _, _, demands, payload, weight in _atoms(cfg):
        counts[(library.files, demands), (payload.coeff_vectors, payload.blocks)] += weight
    violations, first = factorization_violations(counts)
    counterexample = None
    if first is not None:
        (files, demands), observed = first
        counterexample = {
            "files": [list(f) for f in files],
            "demands": [list(d) for d in demands],
            "signal": repr(observed),
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
    for library, atoms in groupby(_atoms(cfg), itemgetter(0)):
        tables = [Counter() for _ in cuts]
        placed = None
        for _, _, state, demands, payload, weight in atoms:
            if state is not placed:
                placed = state
                slots = [
                    (split, tuple(state.caches[k].key() for k in colluders), table)
                    for (colluders, split), table in zip(cuts, tables)
                ]
            for split, caches, table in slots:
                hidden, seen = split[demands]
                outcome = (hidden, (payload.coeff_vectors, payload.blocks, seen, caches))
                table[outcome] = table.get(outcome, 0) + weight
        for report, table in zip(reports, tables):
            violations, first = factorization_violations(table)
            report.atoms += table.total()
            report.violations += violations
            report.verdict = report.violations == 0
            if first is not None and report.counterexample is None:
                hidden, observed = first
                report.counterexample = {
                    "files": [list(f) for f in library.files],
                    "hidden_demands": [list(d) for d in hidden],
                    "observed": repr(observed),
                }
    return reports


# -- certificates ---------------------------------------------------------


class Point(NamedTuple):
    """What the engine outputs at one point (r, d), for fixed files."""

    signal: Vector  # coefficient vectors, then multicast blocks
    caches: tuple[Vector, ...]  # per user: uncoded packets, then coded records
    errors: tuple[Vector, ...]  # per user: decoded minus demanded; () if not decoded


@dataclass(frozen=True)
class FileModel:
    """The engine at one file realization W, as an affine map of (r, d).

    ``offset`` is the point r = 0, d = d0.  ``keys[i]`` is what A_W adds per
    unit of the i-th symbol of r.  ``demands`` holds (user, C_W * delta) pairs,
    one per single-user demand move away from d0 (see ``_demand_moves``).
    """

    offset: Point
    keys: tuple[Point, ...]
    demands: tuple[tuple[int, Point], ...]


def _flat(vectors: Iterable[Sequence[int]]) -> Vector:
    return tuple(chain.from_iterable(vectors))


def _cache_vector(cache: UserCache) -> Vector:
    uncoded = (pkt for _, pkts in sorted(cache.uncoded.items()) for pkt in pkts)
    coded = (v for _, v in sorted(cache.coded.items()))
    return _flat(chain(uncoded, coded))


def _sub(ctx: FieldContext, u: Vector, w: Vector) -> Vector:
    return tuple(map(ctx.sub, u, w))


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
    Built once per config.
    """
    k, n = cfg.pda.k, cfg.n
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    if cfg.demand_space == "units":
        start, targets = units[0], units[1:]
    else:
        start, targets = (0,) * n, units
    base = (start,) * k
    return base, tuple((j, base[:j] + (t,) + base[j + 1 :]) for j in range(k) for t in targets)


def _point(
    state: SchemeState, demands: tuple, decoded: bool, offset: Optional[Point] = None
) -> Point:
    """The engine's outputs at (r, d), less the ``offset`` point if one is given."""
    payload = deliver(state, demands)
    ctx, lib = state.library.ctx, state.library
    signal = _flat(chain(payload.coeff_vectors, payload.blocks))
    caches = tuple(map(_cache_vector, state.caches))
    errors = tuple(
        _sub(ctx, decode(state.user_view(k), payload, d), lib.combine(d))
        for k, d in enumerate(demands) if decoded
    )
    if offset is not None:
        signal = _sub(ctx, signal, offset.signal)
        caches = tuple(_sub(ctx, u, w) for u, w in zip(caches, offset.caches))
        errors = tuple(_sub(ctx, u, w) for u, w in zip(errors, offset.errors))
    return Point(signal, caches, errors)


def file_model(cfg: AuditConfig, library: Library, decoded: bool = False) -> FileModel:
    """Probe the engine at one W: 1 + S*L + K*N placements; decoders if ``decoded``."""
    base_demands, moves = _demand_moves(cfg)
    state = place(cfg.pda, library, Randomness.zeros(cfg.pda, cfg.n, cfg.b), cfg.mode)
    offset = _point(state, base_demands, decoded)
    return FileModel(
        offset=offset,
        keys=tuple(
            _point(place(cfg.pda, library, r, cfg.mode), base_demands, decoded, offset)
            for r in _key_basis(cfg)
        ),
        demands=tuple((j, _point(state, d, decoded, offset)) for j, d in moves),
    )


def file_models(cfg: AuditConfig, decoded: bool = False) -> Iterator[FileModel]:
    """The model of every file realization, if the probe budget allows them all."""
    cfg.check_budget(cfg.probe_count, "probe points")
    return (file_model(cfg, library, decoded) for library in _libraries(cfg))


def _in_span(ctx: FieldContext, basis: Sequence[Vector], vectors: Iterable[Vector]) -> bool:
    """Whether every vector lies in the span of the reduced echelon ``basis``."""
    return not any(any(ctx.reduce(basis, v)) for v in vectors)


def correctness_certificate(models: Iterable[FileModel]) -> bool:
    """Every decoder is exact at the offset and along every part, for every W."""
    parts = (p for m in models for p in (m.offset, *m.keys, *(p for _, p in m.demands)))
    return not any(any(map(any, p.errors)) for p in parts)


def security_certificate(cfg: AuditConfig, models: Iterable[FileModel]) -> bool:
    """The signal's coset, offset + Im(A_W), is the same for every (W, d).

    Equal cosets have equal images, and equal offset residues against them.
    """
    ctx, first = cfg.ctx, None
    for model in models:
        image = ctx.echelon(p.signal for p in model.keys)
        coset = image, ctx.reduce(image, model.offset.signal)
        first = first or coset
        if coset != first or not _in_span(ctx, image, (p.signal for _, p in model.demands)):
            return False
    return True


def privacy_certificate(
    cfg: AuditConfig, models: Iterable[FileModel], subset: Sequence[int]
) -> bool:
    """Moving another user's demand shifts the colluders' view within Im(A_W).

    The view is the signal and the colluders' caches.  Their own demands
    are part of what they observe too, but are left out: no key or other
    user's demand moves them, so they split the view into disjoint
    cosets without changing the test.
    """
    ctx, colluders = cfg.ctx, [u - 1 for u in subset]

    def view(p: Point) -> Vector:
        return p.signal + _flat(p.caches[k] for k in colluders)

    for model in models:
        moves = (view(p) for j, p in model.demands if j not in colluders)
        if not _in_span(ctx, ctx.echelon(map(view, model.keys)), moves):
            return False
    return True


def _subset(cfg: AuditConfig, subset: Sequence[int]) -> list[int]:
    subset = sorted(set(subset))
    if not subset or any(not 1 <= u <= cfg.pda.k for u in subset):
        raise AuditError(f"subset must be a nonempty subset of [1, {cfg.pda.k}]")
    return subset


def _certified(cfg: AuditConfig) -> AuditReport:
    return AuditReport(True, cfg.atom_count, 0, method="certificate")


def audit_correctness(cfg: AuditConfig) -> AuditReport:
    """Decoder exactness: certificate first, enumeration when it fails."""
    if correctness_certificate(file_models(cfg, decoded=True)):
        return _certified(cfg)
    return enumerate_correctness(cfg)


def audit_security(cfg: AuditConfig) -> AuditReport:
    """Signal independence: certificate first, enumeration when it fails."""
    if security_certificate(cfg, file_models(cfg)):
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
    ok = [True] * len(subsets)
    for model in file_models(cfg):  # one at a time: the models are never all held
        ok = [o and privacy_certificate(cfg, (model,), s) for o, s in zip(ok, subsets)]
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
    "Point",
    "audit_correctness",
    "audit_privacy",
    "audit_security",
    "correctness_certificate",
    "enumerate_correctness",
    "enumerate_privacy",
    "enumerate_security",
    "factorization_violations",
    "file_model",
    "file_models",
    "privacy_certificate",
    "security_certificate",
]
