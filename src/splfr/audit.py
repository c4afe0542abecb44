"""Exact information-theoretic verification on small instances.

Three claims are decided over the joint distribution of (library,
randomness, demands) with uniform independent components:

- correctness: every user's decoder output equals the demanded linear
  combination for every atom;
- security: the broadcast signal is independent of (files, demands);
- privacy: the demands of users outside a colluding subset are independent
  of everything the subset observes, conditioned on the files.

Certificates come first.  Fix the files W.  The signal, every cache and
every decoded output are then affine in the randomness r = (V, p) and the
demands d: this is the premise, and the linear placement, delivery and
decoding of the scheme satisfy it.  For each W, ``file_models`` runs the
real ``place``/``deliver``/``decode`` at an affine basis of (r, d), about
1 + S*L + K*N points, and reads off the linear part A_W and the demand
differences C_W * delta of every observation.  Given (W, d), an
observation is uniform on the coset offset + Im(A_W), so each claim is a
rank test over GF(q):

- security: the coset of the signal is the same for every (W, d);
- privacy: rank([A_W | C_W * delta]) == rank(A_W) for every difference
  delta of the other users' demands (e_a - e_b for unit demand spaces);
- correctness: decoded minus ``Library.combine`` is zero at every basis
  point.

Under the premise each test holds iff the claim does, so a passing
certificate reports the full atom count with no enumeration.  When a
certificate fails, the enumeration runs: one traversal visits every
(files, keys, demands) atom, files outermost, and feeds the three
oracles; the privacy oracle fills one count table per colluding subset,
so every subset whose certificate fails is counted in the same pass.
Independence is decided through the factorization identities
count(a, b) * total == count(a) * count(b), which hold for every pair iff
the mutual information is exactly zero.  The enumeration is the reference
oracle and the only source of the exact violation count and the first
witness.  No logarithms or floating point are involved, so a pass is a
proof for the instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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
    """The joint atom space is larger than the configured budget."""


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

    @property
    def block(self) -> int:
        return self.b // self.pda.f

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
        return (
            q ** (self.n * self.b)
            * q ** (self.pda.s * self.block)
            * q ** (self.pda.k * self.n)
            * per_user_demands ** self.pda.k
        )

    def check_budget(self) -> None:
        if self.atom_count > self.budget:
            raise BudgetExceeded(
                f"{self.atom_count} atoms exceed budget {self.budget}"
            )


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


def _atoms(
    cfg: AuditConfig,
) -> Iterator[tuple[Library, Randomness, SchemeState, tuple, DeliveryPayload]]:
    """Every (files, keys, demands) atom, with its placement and its signal.

    The files are outermost and the demands innermost, so the atoms of one
    file realization, and of one placement, are consecutive.
    """
    cfg.check_budget()
    q, pda = cfg.ctx.q, cfg.pda
    blocks = list(product(range(q), repeat=cfg.block))
    vectors = list(product(range(q), repeat=cfg.n))
    demand_tuples = cfg.demand_tuples()
    for library in _libraries(cfg):
        for keys in product(blocks, repeat=pda.s):
            for privacy in product(vectors, repeat=pda.k):
                randomness = Randomness(security_keys=keys, privacy_vectors=privacy)
                state = place(pda, library, randomness, cfg.mode)
                for demands in demand_tuples:
                    yield library, randomness, state, demands, deliver(state, demands)


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
    for atoms, (library, randomness, state, demands, payload) in enumerate(_atoms(cfg), 1):
        for k, demand in enumerate(demands):
            if decode(state.user_view(k), payload, demand) != library.combine(demand):
                detail = _atom_dict(library, randomness, demands)
                detail["user"] = k + 1
                return AuditReport(False, atoms, 1, detail)
    return AuditReport(True, atoms, 0)


def enumerate_security(cfg: AuditConfig) -> AuditReport:
    """Certify that the signal is independent of files and demands."""
    counts = Counter(
        ((library.files, demands), (payload.coeff_vectors, payload.blocks))
        for library, _, _, demands, payload in _atoms(cfg)
    )
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
        for _, _, state, demands, payload in atoms:
            if state is not placed:
                placed = state
                slots = [
                    (split, tuple(state.caches[k].key() for k in colluders), table)
                    for (colluders, split), table in zip(cuts, tables)
                ]
            for split, caches, table in slots:
                hidden, seen = split[demands]
                outcome = (hidden, (payload.coeff_vectors, payload.blocks, seen, caches))
                table[outcome] = table.get(outcome, 0) + 1
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
    """The engine at one file realization, probed at an affine basis of (r, d).

    ``base`` is the point r = 0, d = d0.  ``keys[i]`` moves r to its i-th
    unit vector.  ``demands`` holds (user, point) pairs, each moving one
    user's demand away from d0 (see ``_demand_moves``).
    """

    base: Point
    keys: tuple[Point, ...]
    demands: tuple[tuple[int, Point], ...]

    @property
    def points(self) -> Iterator[Point]:
        return chain((self.base,), self.keys, (p for _, p in self.demands))


def _flat(vectors: Iterable[Sequence[int]]) -> Vector:
    return tuple(chain.from_iterable(vectors))


def _cache_vector(cache: UserCache) -> Vector:
    uncoded = (pkt for _, pkts in sorted(cache.uncoded.items()) for pkt in pkts)
    coded = (v for _, v in sorted(cache.coded.items()))
    return _flat(chain(uncoded, coded))


def _sub(ctx: FieldContext, u: Vector, w: Vector) -> Vector:
    return tuple(map(ctx.sub, u, w))


def _key_basis(cfg: AuditConfig) -> list[Randomness]:
    """Randomness at each unit vector of r: every symbol of V, then of p."""
    zero = Randomness.zeros(cfg.pda, cfg.n, cfg.b)

    def units(vectors: tuple[Vector, ...]) -> Iterator[tuple[Vector, ...]]:
        for j, vec in enumerate(vectors):
            for i in range(len(vec)):
                one = vec[:i] + (1,) + vec[i + 1 :]
                yield vectors[:j] + (one,) + vectors[j + 1 :]

    v, p = zero.security_keys, zero.privacy_vectors
    return [Randomness(u, p) for u in units(v)] + [Randomness(v, u) for u in units(p)]


def _demand_moves(cfg: AuditConfig) -> tuple[tuple, list[tuple[int, tuple]]]:
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
    return base, [(j, base[:j] + (t,) + base[j + 1 :]) for j in range(k) for t in targets]


def _point(state: SchemeState, demands: tuple, decoded: bool) -> Point:
    payload = deliver(state, demands)
    errors: tuple[Vector, ...] = ()
    if decoded:
        ctx, lib = state.library.ctx, state.library
        errors = tuple(
            _sub(ctx, decode(state.user_view(k), payload, d), lib.combine(d))
            for k, d in enumerate(demands)
        )
    return Point(
        signal=_flat(chain(payload.coeff_vectors, payload.blocks)),
        caches=tuple(map(_cache_vector, state.caches)),
        errors=errors,
    )


def file_models(cfg: AuditConfig, decoded: bool = False) -> Iterator[FileModel]:
    """Probe the engine once per file realization: 1 + S*L + K*N placements.

    ``decoded`` also runs every user's decoder at every point, for the
    correctness certificate.
    """
    key_basis = _key_basis(cfg)
    base_demands, moves = _demand_moves(cfg)
    zero = Randomness.zeros(cfg.pda, cfg.n, cfg.b)
    for library in _libraries(cfg):
        state = place(cfg.pda, library, zero, cfg.mode)
        yield FileModel(
            base=_point(state, base_demands, decoded),
            keys=tuple(
                _point(place(cfg.pda, library, r, cfg.mode), base_demands, decoded)
                for r in key_basis
            ),
            demands=tuple((j, _point(state, d, decoded)) for j, d in moves),
        )


def correctness_certificate(models: Iterable[FileModel]) -> bool:
    """Every decoder is exact at every basis point of every file realization."""
    return not any(any(map(any, p.errors)) for m in models for p in m.points)


def security_certificate(cfg: AuditConfig, models: Iterable[FileModel]) -> bool:
    """The signal's coset, offset + Im(A_W), is the same for every (W, d)."""
    ctx = cfg.ctx
    image = origin = None
    for model in models:
        base = model.base.signal
        span = ctx.echelon(_sub(ctx, p.signal, base) for p in model.keys)
        if image is None:
            image, origin = span, base
        elif span != image:
            return False
        # the base and every demand move stay in the first coset; with the
        # moves spanning the demand differences, so does every (W, d)
        if any(any(ctx.reduce(image, _sub(ctx, p.signal, origin))) for p in model.points):
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
    ctx = cfg.ctx
    colluders = [u - 1 for u in subset]

    def view(p: Point) -> Vector:
        return p.signal + _flat(p.caches[k] for k in colluders)

    for model in models:
        base = view(model.base)
        image = ctx.echelon(_sub(ctx, view(p), base) for p in model.keys)
        for j, p in model.demands:
            if j not in colluders and any(ctx.reduce(image, _sub(ctx, view(p), base))):
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
    cfg.check_budget()
    if correctness_certificate(file_models(cfg, decoded=True)):
        return _certified(cfg)
    return enumerate_correctness(cfg)


def audit_security(cfg: AuditConfig) -> AuditReport:
    """Signal independence: certificate first, enumeration when it fails."""
    cfg.check_budget()
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
    cfg.check_budget()
    users = range(1, cfg.pda.k + 1)
    if subset is None:
        subsets = list(chain.from_iterable(combinations(users, r) for r in users))
    else:
        subsets = [_subset(cfg, subset)]
    models = list(file_models(cfg))
    failing = [sub for sub in subsets if not privacy_certificate(cfg, models, sub)]
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
    "file_models",
    "privacy_certificate",
    "security_certificate",
]
