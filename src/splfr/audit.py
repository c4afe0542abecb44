"""Exact information-theoretic verification on small instances.

Enumerates the full joint distribution of (library, randomness, demands)
with uniform independent components and checks, by exact integer counting:

- correctness: every user's decoder output equals the demanded linear
  combination for every atom;
- security: the broadcast signal is independent of (files, demands);
- privacy: the demands of users outside a colluding subset are independent
  of everything the subset observes, conditioned on the files.

Independence is certified through factorization identities
count(a, b) * total == count(a) * count(b), which hold for every pair iff
the mutual information is exactly zero.  No logarithms or floating point
are involved, so a pass is a proof for the enumerated instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

from .engine import Library, Mode, Randomness, decode, deliver, place
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

    @property
    def atom_count(self) -> int:
        q = self.ctx.q
        per_user_demands = len(self.demand_vectors())
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
class ExactDistribution:
    """Integer counts over outcome tuples; probabilities are count/total."""

    counts: dict = field(default_factory=dict)
    total: int = 0

    def record(self, outcome) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + 1
        self.total += 1


@dataclass
class AuditReport:
    verdict: bool
    atoms: int
    violations: int
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "atoms": self.atoms,
            "violations": self.violations,
            "counterexample": self.counterexample,
        }


def factorization_violations(
    dist: ExactDistribution, partition: Callable
) -> tuple[int, Optional[tuple]]:
    """Count violated identities count(a,b)*total == count(a)*count(b).

    ``partition`` maps each outcome to an (a, b) pair.  All support pairs
    are checked, including those with zero joint count.  No violation
    means A and B are independent: their mutual information is exactly
    zero, decided without logarithms.
    """
    joint: dict[tuple, int] = {}
    margin_a: dict = {}
    margin_b: dict = {}
    for outcome, c in dist.counts.items():
        a, b = partition(outcome)
        joint[(a, b)] = joint.get((a, b), 0) + c
        margin_a[a] = margin_a.get(a, 0) + c
        margin_b[b] = margin_b.get(b, 0) + c
    violations = 0
    first = None
    for a, ca in margin_a.items():
        for b, cb in margin_b.items():
            if joint.get((a, b), 0) * dist.total != ca * cb:
                violations += 1
                if first is None:
                    first = (a, b)
    return violations, first


def _libraries(cfg: AuditConfig) -> Iterator[Library]:
    files = list(product(range(cfg.ctx.q), repeat=cfg.b))
    for combo in product(files, repeat=cfg.n):
        yield Library(cfg.ctx, tuple(combo))


def _randomness(cfg: AuditConfig) -> Iterator[Randomness]:
    q = cfg.ctx.q
    v_space = list(product(range(q), repeat=cfg.block))
    p_space = list(product(range(q), repeat=cfg.n))
    for v_combo in product(v_space, repeat=cfg.pda.s):
        for p_combo in product(p_space, repeat=cfg.pda.k):
            yield Randomness(security_keys=v_combo, privacy_vectors=p_combo)


def _demand_tuples(cfg: AuditConfig) -> list[tuple[tuple[int, ...], ...]]:
    return list(product(cfg.demand_vectors(), repeat=cfg.pda.k))


def _atom_dict(library: Library, randomness: Randomness, demands) -> dict:
    return {
        "files": [list(f) for f in library.files],
        "security_keys": [list(v) for v in randomness.security_keys],
        "privacy_vectors": [list(p) for p in randomness.privacy_vectors],
        "demands": [list(d) for d in demands],
    }


def audit_correctness(cfg: AuditConfig) -> AuditReport:
    """Check decoder determinism and exactness for every atom and user."""
    cfg.check_budget()
    demand_tuples = _demand_tuples(cfg)
    atoms = 0
    for library in _libraries(cfg):
        for randomness in _randomness(cfg):
            state = place(cfg.pda, library, randomness, cfg.mode)
            for demands in demand_tuples:
                atoms += 1
                payload = deliver(state, demands)
                for k in range(cfg.pda.k):
                    got = decode(state.user_view(k), payload, demands[k])
                    want = library.combine(demands[k])
                    if got != want:
                        detail = _atom_dict(library, randomness, demands)
                        detail["user"] = k + 1
                        return AuditReport(False, atoms, 1, detail)
    return AuditReport(True, atoms, 0)


def audit_security(cfg: AuditConfig) -> AuditReport:
    """Certify that the signal is independent of files and demands."""
    cfg.check_budget()
    demand_tuples = _demand_tuples(cfg)
    dist = ExactDistribution()
    for library in _libraries(cfg):
        for randomness in _randomness(cfg):
            state = place(cfg.pda, library, randomness, cfg.mode)
            for demands in demand_tuples:
                payload = deliver(state, demands)
                hidden = (library.files, demands)
                observed = (payload.coeff_vectors, payload.blocks)
                dist.record((hidden, observed))
    violations, first = factorization_violations(dist, lambda o: o)
    counterexample = None
    if first is not None:
        (files, demands), observed = first
        counterexample = {
            "files": [list(f) for f in files],
            "demands": [list(d) for d in demands],
            "signal": repr(observed),
        }
    return AuditReport(violations == 0, dist.total, violations, counterexample)


def audit_privacy(cfg: AuditConfig, subset: Sequence[int]) -> AuditReport:
    """Check colluding-subset privacy, conditioned on the file realization.

    ``subset`` lists the colluding users (1-based, nonempty).  For every
    file realization, the demands of the remaining users must be
    independent of (signal, colluders' demands, colluders' caches).
    """
    cfg.check_budget()
    subset = sorted(set(subset))
    if not subset or any(not 1 <= u <= cfg.pda.k for u in subset):
        raise AuditError(f"subset must be a nonempty subset of [1, {cfg.pda.k}]")
    colluders = [u - 1 for u in subset]
    others = [k for k in range(cfg.pda.k) if k not in colluders]

    demand_tuples = _demand_tuples(cfg)
    atoms = 0
    violations = 0
    counterexample = None
    # conditioning on the files keeps each slice's count table small
    for library in _libraries(cfg):
        dist = ExactDistribution()
        for randomness in _randomness(cfg):
            state = place(cfg.pda, library, randomness, cfg.mode)
            cache_keys = tuple(state.caches[k].key() for k in colluders)
            for demands in demand_tuples:
                payload = deliver(state, demands)
                hidden = tuple(demands[k] for k in others)
                observed = (
                    payload.coeff_vectors,
                    payload.blocks,
                    tuple(demands[k] for k in colluders),
                    cache_keys,
                )
                dist.record((hidden, observed))
        atoms += dist.total
        slice_violations, first = factorization_violations(dist, lambda o: o)
        violations += slice_violations
        if first is not None and counterexample is None:
            hidden, observed = first
            counterexample = {
                "files": [list(f) for f in library.files],
                "hidden_demands": [list(d) for d in hidden],
                "observed": repr(observed),
            }
    return AuditReport(violations == 0, atoms, violations, counterexample)


__all__ = [
    "AuditConfig",
    "AuditError",
    "AuditReport",
    "BudgetExceeded",
    "ExactDistribution",
    "audit_correctness",
    "audit_privacy",
    "audit_security",
    "factorization_violations",
]
