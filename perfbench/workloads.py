"""The four benchmark workloads.

Each workload is a closed loop with one client: the next step starts when
the previous one has returned.  A step is one serving round on
``serve-wide`` and ``rekey-narrow`` and one full pass on ``audit-exact`` and
``analytics``.  Every output is checked while the loop runs; ``attempted``
and ``failed`` count the checks.  All inputs come from the seed.

Set-up (``setup``) imports the package afresh and builds everything a step
needs, so repeating it measures set-up cost each time.  Steps time their
calls into the package with ``self.meter`` (see ``meter.py``), and reach the
package through its module attributes (``engine.deliver``, ``cli.main``),
which is where the tracer and the tests substitute wrappers.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from meter import Meter

LAYERS = ("field", "pda", "engine", "audit", "tradeoff", "cli")


def import_splfr() -> dict:
    """Import the package afresh and return its modules by layer name."""
    for name in [m for m in sys.modules if m == "splfr" or m.startswith("splfr.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"splfr.{layer}") for layer in LAYERS}


def run_cli(cli, argv: list[str], timed) -> tuple[int, dict]:
    """Run ``splfr <argv>`` in process; return the exit code and JSON report."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = timed(cli.main, argv)
    return code, json.loads(out.getvalue())


class Workload:
    name = ""
    #: the workload's own names for the step-time median and the throughput
    p50_name = "round_p50_s"
    rate_name = ""
    rate_unit = ""
    warmup_steps = 0
    work_per_step = 0

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.meter = Meter()
        self.m: dict = {}
        self.macs: list[int] = []  # computed MACs per traced step
        self.arr = None
        self.pass_atoms = 0
        self.pass_violations = 0

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` as one measured segment of the current step."""
        with self.meter.segment():
            return fn(*args, **kwargs)

    def setup(self) -> None:
        self.m = import_splfr()
        self.build()

    def build(self) -> None:
        """Build the step inputs from the seed, using the imported modules."""

    def start(self) -> None:
        """Checks on the freshly built state."""

    def step(self) -> None:
        """Run one step, timing it with ``self.meter``, and check it."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks at the end of a measured phase."""


class Serving(Workload):
    """Rounds of deliver and per-user decode, optionally followed by rekeying."""

    spec = ""
    k = t = n = b = 0
    uniform_demands = True
    rekey = False
    warmup_steps = 2
    rate_name, rate_unit = "decoded_symbols_per_s", "symbols/s"

    @property
    def work_per_step(self) -> int:
        return self.k * self.b  # decoded symbols per round

    def build(self) -> None:
        field, pda, engine = self.m["field"], self.m["pda"], self.m["engine"]
        rng = self.rng("setup")
        self.ctx = field.FieldContext.parse(self.spec)
        self.arr = pda.man_pda(self.k, self.t)
        library = engine.Library.random(self.ctx, self.n, self.b, rng)
        self.keys = engine.Randomness.generate(self.arr, self.n, self.b, self.ctx, rng)
        self.state = engine.place(self.arr, library, self.keys, engine.Mode.SPLFR)
        self.rounds_rng = self.rng("rounds")
        self.block = self.b // self.arr.f
        # for every ordinary entry (row, user k), the other users j that
        # share its symbol: decode cancels one cross term per such j
        sharers: dict[int, list[int]] = {}
        for row in self.arr.entries:
            for j, entry in enumerate(row):
                if entry is not None:
                    sharers.setdefault(entry, []).append(j)
        self.cross_terms = [j for js in sharers.values() for k in js for j in js if j != k]

    def start(self) -> None:
        self.cross_check()

    def cross_check(self) -> None:
        """Measured tx, cache size and load against the array's analytic values."""
        engine, pda = self.m["engine"], self.m["pda"]
        arr = self.arr
        meas = engine.measure(self.state)
        memory, _ = pda.memory_load(arr, self.n)
        self.check(meas.tx_symbols == arr.s * self.block + arr.k * self.n)
        for cache in self.state.caches:
            self.check(cache.symbols == memory * self.b)
        self.check(meas.r_asymptotic == Fraction(arr.s, arr.f))

    def draw_demands(self) -> tuple:
        rng, n = self.rounds_rng, self.n
        if self.uniform_demands:
            return tuple(self.ctx.random_vector(n, rng) for _ in range(self.k))
        files = [rng.randrange(n) for _ in range(self.k)]
        return tuple(tuple(int(i == f) for i in range(n)) for f in files)

    def step(self) -> None:
        engine, ctx, rng = self.m["engine"], self.ctx, self.rounds_rng
        demands = self.draw_demands()
        if self.rekey:
            fresh = tuple(ctx.random_vector(self.block, rng) for _ in range(self.arr.s))
            coeffs = tuple(ctx.random_element(rng) for _ in range(self.k))
        state = self.state
        with self.span("bench.round"):
            payload = self.timed(engine.deliver, state, demands)
            with self.meter.segment():
                decoded = [
                    engine.decode(state.user_view(k), payload, demands[k])
                    for k in range(self.k)
                ]
            if self.rekey:
                self.state = self.timed(engine.update_round, state, demands, fresh, coeffs)
        with self.span("bench.check"):
            for k, out in enumerate(decoded):
                self.check(out == state.library.combine(demands[k]))
        if self.rekey:
            self.accumulate(demands, fresh, coeffs)
        if self.tracer:
            self.macs.append(self.count_macs(payload, demands, coeffs if self.rekey else None))

    def accumulate(self, demands, fresh, coeffs) -> None:
        """Track the keys a from-scratch placement must reproduce."""
        ctx, keys = self.ctx, self.keys
        self.keys = self.m["engine"].Randomness(
            security_keys=tuple(
                ctx.vec_add(v, u) for v, u in zip(keys.security_keys, fresh)
            ),
            privacy_vectors=tuple(
                ctx.vec_add(p, ctx.vec_scale(c, d))
                for p, c, d in zip(keys.privacy_vectors, coeffs, demands)
            ),
        )

    def finish(self) -> None:
        if self.rekey:
            engine = self.m["engine"]
            scratch = engine.place(self.arr, self.state.library, self.keys, engine.Mode.SPLFR)
            self.check(
                self.state.caches == scratch.caches
                and self.state.randomness == scratch.randomness
            )
        self.cross_check()

    def count_macs(self, payload, demands, coeffs) -> int:
        """Scalar multiply-accumulates of one round, from shapes and nonzeros.

        Mirrors the loops of deliver, decode and update_round, which skip
        zero coefficients; subtracting a cached key is an add, not a MAC.
        """
        arr, block = self.arr, self.block
        nnz_q = [sum(1 for c in q if c) for q in payload.coeff_vectors]
        nnz_d = [sum(1 for c in d if c) for d in demands]
        deliver = block * (arr.f - arr.z) * sum(nnz_q)
        decode = block * (arr.z * sum(nnz_d) + sum(nnz_q[j] for j in self.cross_terms))
        macs = deliver + decode
        if coeffs is not None:
            active = sum(1 for c in coeffs if c)
            macs += deliver + decode  # update_round delivers and decodes again
            macs += active * (arr.f - arr.z) * block + arr.k * self.n
        return macs


class ServeWide(Serving):
    """Read path: field multiply-accumulates through the GF(2^8) log tables."""

    name = "serve-wide"
    spec, k, t, n, b = "b:8", 6, 2, 20, 960


class RekeyNarrow(Serving):
    """Write path: light prime-field arithmetic, 210 symbols, index handling."""

    name = "rekey-narrow"
    spec, k, t, n, b = "p:65521", 10, 3, 10, 480
    uniform_demands = False
    rekey = True


#: (group, splfr arguments after "audit", verdict, atoms, violations, witness)
AUDIT_COMMANDS = (
    ("correctness", ("correctness",), "pass", 8192, 0, False),
    ("security", ("security",), "pass", 8192, 0, False),
    ("privacy", ("privacy",), "pass", 24576, 0, False),
    ("counterexample", ("security", "--mode", "lfr"), "fail", 8192, 7936, True),
    ("counterexample", ("privacy", "--mode", "slfr", "--subset", "1"), "fail", 8192, 2048, True),
    ("security", ("security", "--field", "p:3", "--demand-space", "units"), "pass", 78732, 0, False),
)
AUDIT_INSTANCE = ("--pda", "man:2,1", "--n", "2", "--b", "2")
AUDIT_GROUPS = tuple(sorted({group for group, *_ in AUDIT_COMMANDS}))


class AuditExact(Workload):
    """Exact enumeration audits through ``cli.main``: per-call overhead."""

    name = "audit-exact"
    p50_name = "audit_s"
    rate_name, rate_unit = "audit_atoms_per_s", "atoms/s"

    def build(self) -> None:
        audit, engine, field, pda = (self.m[x] for x in ("audit", "engine", "field", "pda"))
        self.arr = pda.man_pda(2, 1)
        # nominal atoms covered: AuditConfig.atom_count per audited subset,
        # independent of how an audit covers them
        nominal = 0
        for _, args, *_ in AUDIT_COMMANDS:
            opts = dict(zip(args[1::2], args[2::2]))
            cfg = audit.AuditConfig(
                pda=self.arr,
                n=2,
                b=2,
                ctx=field.FieldContext.parse(opts.get("--field", "p:2")),
                mode=engine.Mode(opts.get("--mode", "splfr")),
                demand_space=opts.get("--demand-space", "all"),
            )
            every_subset = args[0] == "privacy" and "--subset" not in opts
            nominal += cfg.atom_count * (2**self.arr.k - 1 if every_subset else 1)
        self.work_per_step = nominal
        self.commands = list(AUDIT_COMMANDS)
        self.rng("order").shuffle(self.commands)

    def step(self) -> None:
        cli = self.m["cli"]
        results = []
        with self.span("bench.pass"):
            for group, args, *_ in self.commands:
                with self.span(f"bench.audit.{group}"):
                    results.append(run_cli(cli, ["audit", *args, *AUDIT_INSTANCE], self.timed))
        self.pass_atoms = self.pass_violations = 0
        for (code, report), (_, _, verdict, atoms, violations, witness) in zip(
            results, self.commands
        ):
            self.pass_atoms += report["atoms"]
            self.pass_violations += report["violations"]
            self.check(
                code == (0 if verdict == "pass" else 1)
                and report["verdict"] == verdict
                and report["atoms"] == atoms
                and report["violations"] == violations
                and (report["counterexample"] is not None) == witness
            )


#: worst smooth-bound ratio of acceptance criterion 7(c), exact
SMOOTH_BOUND_WORST = Fraction(874, 175)
BOUNDS_CHECKS = ((10, 5), (30, 10), (20, 20))
ANALYTICS_PARTS = (
    "simple_converse",
    "coded_uncoded",
    "smooth_bound",
    "ratio2",
    "bounds",
    "curves",
)


class Analytics(Workload):
    """The tradeoff layer: ratio suite, bounds checks and curve export."""

    name = "analytics"
    p50_name = "analytics_s"

    def build(self) -> None:
        tradeoff = self.m["tradeoff"]
        self.pairs_b = [(n, k) for n in range(2, 21) for k in range(2, n + 1) if (n, k) != (2, 2)]
        self.pairs_c = [(n, k) for n in range(3, 21) for k in range(n + 1, 41)]
        self.schemes = list(tradeoff.SCHEMES)
        self.parts = list(ANALYTICS_PARTS)
        self.rng("order").shuffle(self.parts)
        # one check per ratio, for the worst smooth-bound ratio, for ratio2,
        # per bounds report and for the curves
        self.work_per_step = 3 + len(self.pairs_b) + len(self.pairs_c) + 1 + 1 + len(BOUNDS_CHECKS) + 1

    def step(self) -> None:
        out_root = self.root / ".bench_out"
        out_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_root) as out_dir:
            results = {}
            with self.span("bench.pass"):
                for part in self.parts:
                    with self.span(f"bench.analytics.{part}"):
                        results[part] = getattr(self, part)(out_dir)
            self.check_pass(results, out_dir)
        try:
            out_root.rmdir()
        except OSError:  # not empty: something else put files there
            pass

    def simple_converse(self, _):
        ratio = self.m["tradeoff"].simple_converse_ratio_max
        return [self.timed(ratio, n, k, per_unit=1000) for n, k in ((30, 10), (20, 20), (10, 30))]

    def coded_uncoded(self, _):
        tradeoff = self.m["tradeoff"]
        return [
            (self.timed(tradeoff.coded_uncoded_ratio_max, n, k), tradeoff.coded_uncoded_threshold(n, k))
            for n, k in self.pairs_b
        ]

    def smooth_bound(self, _):
        ratio = self.m["tradeoff"].smooth_bound_ratio_max
        return [self.timed(ratio, n, k, per_unit=25) for n, k in self.pairs_c]

    def ratio2(self, _):
        return self.timed(self.m["tradeoff"].ratio_checks, 2, 2, per_unit=1000)

    def bounds(self, _):
        cli = self.m["cli"]
        return [
            run_cli(cli, ["bounds", "check", "--n", str(n), "--k", str(k)], self.timed)
            for n, k in BOUNDS_CHECKS
        ]

    def curves(self, out_dir):
        argv = ["curves", "emit", "--n", "30", "--k", "10", "--schemes", ",".join(self.schemes), "--out", out_dir]
        return run_cli(self.m["cli"], argv, self.timed)

    def check_pass(self, results: dict, out_dir: str) -> None:
        for value in results["simple_converse"]:
            self.check(value <= 1)
        for value, threshold in results["coded_uncoded"]:
            self.check(value <= threshold)
        for value in results["smooth_bound"]:
            self.check(value < 8)
        self.check(max(results["smooth_bound"]) == SMOOTH_BOUND_WORST)
        report = results["ratio2"]
        self.check(report["ok"] and report["checks"]["ratio2"]["max"] == 2)
        for code, report in results["bounds"]:
            self.check(code == 0 and report["ok"] and report["verdict"] == "pass")
        code, report = results["curves"]
        files = [os.path.join(out_dir, f"curves_n30_k10.{ext}") for ext in ("csv", "svg")]
        self.check(
            code == 0
            and report["series"] == self.schemes + ["pda-bound", "cutset-bound"]
            and all(os.path.isfile(path) and os.path.getsize(path) > 0 for path in files)
        )


WORKLOADS = {cls.name: cls for cls in (ServeWide, RekeyNarrow, AuditExact, Analytics)}
