"""Command-line entry point.

Subcommands: pda, sim, audit, curves, bounds, gap, toy.  Machine-readable
JSON reports go to stdout (one object per line); short human summaries go
to stderr.  Exit codes: 0 = success / verdict pass, 1 = verdict fail,
2 = usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import secrets
import sys
from fractions import Fraction

from . import __version__, audit, engine, pda as pda_mod, tradeoff
from .field import FieldContext, FieldError


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return {"exact": str(obj), "decimal": f"{obj.numerator / obj.denominator:.12f}"}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_report(payload: dict, *, seed=None, config=None) -> None:
    report = {"version": __version__, "seed": seed, "config": config}
    report.update(payload)
    print(json.dumps(_jsonable(report), sort_keys=True))


def _summary(text: str) -> None:
    print(text, file=sys.stderr)


def _load_pda(spec: str) -> pda_mod.PDA:
    """A PDA argument is either a file path or ``man:K,t``."""
    if spec.startswith("man:"):
        try:
            k, t = (int(x) for x in spec[4:].split(","))
        except ValueError:
            raise pda_mod.PdaError(f"bad construction spec {spec!r}, want man:K,t")
        return pda_mod.man_pda(k, t)
    with open(spec) as fh:
        return pda_mod.parse_pda(fh.read())


# -- pda ------------------------------------------------------------------


def cmd_pda(args) -> int:
    if args.pda_cmd == "man":
        arr = pda_mod.man_pda(args.k, args.t)
        text = pda_mod.render_pda(arr)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
            _summary(f"wrote ({arr.k},{arr.f},{arr.z},{arr.s}) array to {args.output}")
        else:
            sys.stdout.write(text)
        return 0

    try:
        arr = _load_pda(args.file)
    except pda_mod.PdaError as exc:
        emit_report({"verdict": "fail", "error": str(exc)}, config={"file": args.file})
        _summary(f"invalid: {exc}")
        return 1

    info = {
        "verdict": "pass",
        "k": arr.k,
        "f": arr.f,
        "z": arr.z,
        "s": arr.s,
        "regularity": pda_mod.regularity(arr),
    }
    bound, tight = pda_mod.symbol_count_bound(arr)
    info["symbol_count_bound"] = bound
    info["symbol_count_tight"] = tight
    if args.pda_cmd == "info" and args.n:
        m, r = pda_mod.memory_load(arr, args.n)
        info["memory"] = m
        info["load"] = r
    emit_report(info, config={"file": args.file})
    _summary(f"valid ({arr.k},{arr.f},{arr.z},{arr.s}) array")
    return 0


# -- sim ------------------------------------------------------------------


def _parse_demands(spec: str, k: int, n: int, ctx: FieldContext, rng: random.Random):
    if spec == "units":
        return tuple(
            tuple(1 if i == (j % n) else 0 for i in range(n)) for j in range(k)
        )
    if spec == "random":
        return tuple(ctx.random_vector(n, rng) for _ in range(k))
    with open(spec) as fh:
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != k:
        raise engine.EngineError(f"demands file must have {k} lines, got {len(rows)}")
    demands = []
    for row in rows:
        try:
            demand = tuple(map(int, row))
        except ValueError:
            raise engine.EngineError(f"demand values must be integers, got {' '.join(row)!r}")
        engine.check_demand(ctx, demand, n)
        demands.append(demand)
    return tuple(demands)


def _analytic_checks(
    arr: pda_mod.PDA, n: int, b: int, meas: engine.Measure, payload: engine.DeliveryPayload
) -> dict:
    """Measured memory, load and transmitted symbols against the array's values.

    The analytic values are M = 1 + Z(N-1)/F, R = S/F and tx = S*B/F + K*N.
    M is the formula of ``pda.memory_load``, which refuses N < 2; at N = 1 it
    is one file's worth of symbols, which is what a cache then holds.  The
    load and tx are counted in the delivered payload: its block symbols per
    file symbol, and its symbols in all.
    """
    block_symbols = sum(map(len, payload.blocks))
    analytic = {
        "memory": 1 + Fraction(arr.z * (n - 1), arr.f),
        "load": Fraction(arr.s, arr.f),
        "tx_symbols": arr.s * b // arr.f + arr.k * n,
    }
    measured = {
        "memory": meas.m_exact,
        "load": Fraction(block_symbols, b),
        "tx_symbols": block_symbols + sum(map(len, payload.coeff_vectors)),
    }
    return {
        name: {"measured": measured[name], "analytic": value, "ok": measured[name] == value}
        for name, value in analytic.items()
    }


def cmd_sim(args) -> int:
    arr = _load_pda(args.pda)
    ctx = FieldContext.parse(args.field)
    mode = engine.Mode(args.mode)
    rng = random.Random(args.seed)
    # keys come from the OS's secure source unless the run asks to be
    # reproducible; a seeded run draws everything from one generator
    seeded = args.seed is not None
    key_rng = rng if seeded else secrets.SystemRandom()
    library = engine.Library.random(ctx, args.n, args.b, rng)
    randomness = engine.Randomness.generate(arr, args.n, args.b, ctx, key_rng)
    demands = _parse_demands(args.demands, arr.k, args.n, ctx, rng)

    state = engine.place(arr, library, randomness, mode)
    payload = engine.deliver(state, demands)
    meas = engine.measure(state)

    config = {
        "pda": args.pda,
        "n": args.n,
        "b": args.b,
        "field": ctx.spec,
        "mode": mode.value,
        "demands": args.demands,
    }
    users = []
    all_ok = True
    for k in range(arr.k):
        decoded = engine.decode(state.user_view(k), payload, demands[k])
        expected = library.combine(demands[k])
        ok = decoded == expected
        all_ok = all_ok and ok
        digest = hashlib.sha256(",".join(map(str, decoded)).encode()).hexdigest()
        users.append({"user": k + 1, "decode_sha256": digest, "correct": ok})
    checks = _analytic_checks(arr, args.n, args.b, meas, payload)
    checks_ok = all(check["ok"] for check in checks.values())

    emit_report(
        {
            "verdict": "pass" if all_ok and checks_ok else "fail",
            "users": users,
            "checks": checks,
            "memory": meas.m_exact,
            "load": meas.r_asymptotic,
            "tx_symbols": meas.tx_symbols,
            "randomness_log2q_units": meas.randomness_log2q_units,
            "key_source": "seeded" if seeded else "system",
        },
        seed=args.seed,
        config=config,
    )
    _summary(
        f"M={meas.m_exact} R={meas.r_asymptotic} tx={meas.tx_symbols} "
        f"decode={'ok' if all_ok else 'FAIL'} checks={'ok' if checks_ok else 'FAIL'}"
    )
    return 0 if all_ok and checks_ok else 1


# -- audit ----------------------------------------------------------------


def cmd_audit(args) -> int:
    arr = _load_pda(args.pda)
    ctx = FieldContext.parse(args.field)
    cfg = audit.AuditConfig(
        pda=arr,
        n=args.n,
        b=args.b,
        ctx=ctx,
        mode=engine.Mode(args.mode),
        demand_space=args.demand_space,
        budget=args.budget,
    )
    config = {
        "pda": args.pda,
        "n": args.n,
        "b": args.b,
        "field": ctx.spec,
        "mode": args.mode,
        "demand_space": args.demand_space,
        "budget": args.budget,
    }

    if args.audit_cmd == "correctness":
        report = audit.audit_correctness(cfg)
    elif args.audit_cmd == "security":
        report = audit.audit_security(cfg)
    else:
        # no subset given: audit every nonempty colluding subset
        subset = None if args.subset is None else _parse_subset(args.subset)
        report = audit.audit_privacy(cfg, subset)

    emit_report(report.to_dict(), seed=None, config=config)
    _summary(
        f"{args.audit_cmd}: {'PASS' if report.verdict else 'FAIL'} "
        f"({report.atoms} atoms, {report.violations} violations, by {report.method})"
    )
    return 0 if report.verdict else 1


def _parse_subset(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise audit.AuditError(f"--subset must list user numbers like 1,2, got {text!r}") from None


# -- curves / bounds / gap -------------------------------------------------


def cmd_curves(args) -> int:
    result = tradeoff.emit_curves(args.n, args.k, args.schemes.split(","), args.out)
    emit_report(dict(result, verdict="pass"), config={"n": args.n, "k": args.k})
    _summary(f"wrote {result['csv']} and {result['svg']}")
    return 0


def bounds_report(n: int, k: int) -> dict:
    """Consistency checks between achievable curves and converse bounds.

    Each check is certified over all of [1, N], not sampled.
    """
    curve = tradeoff.man_curve(n, k)
    corners_on_bound = all(
        tradeoff.pda_lower_bound(n, k, p.m) == p.r for p in curve.corners
    )
    checks = {
        "corner_equality": corners_on_bound,
        "achievable_above_converse": tradeoff.achievable_above_converse(n, k),
    }
    if k >= n // 2:
        # the smooth envelope only underestimates the cut-set bound when
        # the user count does not truncate the cut sizes
        checks["f_below_cutset"] = tradeoff.f_below_cutset(n, k)
    return {"n": n, "k": k, "checks": checks, "ok": all(checks.values())}


def cmd_bounds(args) -> int:
    report = bounds_report(args.n, args.k)
    emit_report(dict(report, verdict="pass" if report["ok"] else "fail"))
    _summary(f"bounds check: {'PASS' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1


def cmd_gap(args) -> int:
    report = tradeoff.ratio_checks(args.n, args.k)
    emit_report(dict(report, verdict="pass" if report["ok"] else "fail"))
    for name, check in report["checks"].items():
        # an irrational supremum is shown as its certified upper bracket
        sup = f"sup={check['max']}" if check["exact"] else f"sup<={check['max']}"
        _summary(f"{name}: {sup} bound={check['bound']} "
                 f"{'PASS' if check['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1


# -- golden toy walkthrough ------------------------------------------------

TOY_GRID = (
    (None, 1, 2),
    (1, None, 3),
    (2, 3, None),
)


def golden_toy(seed: int = 7) -> dict:
    """Run the 3-user, 4-file, GF(2) walkthrough and check every milestone.

    Uses the 2-regular (3,3,1,3) array; checks the cache layout shape,
    decoding for unit demands by all users, and the measured pair
    (M, R) = (2, 1) with 15 transmitted symbols at B = 3.
    """
    arr = pda_mod.validate(TOY_GRID)
    ctx = FieldContext.prime(2)
    rng = random.Random(seed)
    n, b = 4, 3
    library = engine.Library.random(ctx, n, b, rng)
    randomness = engine.Randomness.generate(arr, n, b, ctx, rng)
    state = engine.place(arr, library, randomness, engine.Mode.SPLFR)

    checks: dict[str, bool] = {}
    checks["parameters"] = arr.parameters == (3, 3, 1, 3)
    checks["regularity"] = pda_mod.regularity(arr) == 2
    # cache layout: user k holds all packets of its starred row and one
    # superposition key per remaining row
    layout_ok = True
    for k in range(3):
        cache = state.caches[k]
        layout_ok = layout_ok and set(cache.uncoded) == {k}
        layout_ok = layout_ok and set(cache.coded) == set(range(3)) - {k}
        layout_ok = layout_ok and len(cache.uncoded[k]) == n
    checks["cache_layout"] = layout_ok

    demands = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(3))
    payload = engine.deliver(state, demands)
    checks["decode"] = all(
        engine.decode(state.user_view(k), payload, demands[k])
        == library.combine(demands[k])
        for k in range(3)
    )
    meas = engine.measure(state)
    checks["memory"] = meas.m_exact == 2
    checks["load"] = meas.r_asymptotic == 1
    checks["tx_symbols"] = meas.tx_symbols == 15

    return {"seed": seed, "checks": checks, "ok": all(checks.values())}


def cmd_toy(args) -> int:
    report = golden_toy(args.seed)
    emit_report(dict(report, verdict="pass" if report["ok"] else "fail"),
                seed=args.seed)
    _summary(f"toy walkthrough: {'PASS' if report['ok'] else 'FAIL'}")
    return 0 if report["ok"] else 1


# -- parser ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="splfr",
        description="secure and private cache-aided linear function retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pda = sub.add_parser("pda", help="array construction and validation")
    pda_sub = p_pda.add_subparsers(dest="pda_cmd", required=True)
    p_val = pda_sub.add_parser("validate", help="validate an array file")
    p_val.add_argument("file")
    p_man = pda_sub.add_parser("man", help="build the t-subset array")
    p_man.add_argument("--k", type=int, required=True)
    p_man.add_argument("--t", type=int, required=True)
    p_man.add_argument("-o", "--output")
    p_info = pda_sub.add_parser("info", help="parameters of an array file")
    p_info.add_argument("file")
    p_info.add_argument("--n", type=int, help="file count, for the memory-load pair")
    p_pda.set_defaults(func=cmd_pda)

    p_sim = sub.add_parser("sim", help="run the scheme end to end")
    sim_sub = p_sim.add_subparsers(dest="sim_cmd", required=True)
    p_run = sim_sub.add_parser("run")
    p_run.add_argument("--pda", required=True, help="array file or man:K,t")
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--b", type=int, required=True)
    p_run.add_argument("--field", default="p:2")
    p_run.add_argument("--seed", type=int, default=None,
                       help="reproducible run; without it the keys come from "
                            "secrets.SystemRandom")
    p_run.add_argument("--mode", choices=[m.value for m in engine.Mode],
                       default="splfr")
    p_run.add_argument("--demands", default="units",
                       help="demands file, 'random', or 'units'")
    p_run.set_defaults(func=cmd_sim)

    p_audit = sub.add_parser(
        "audit",
        help="exact verification: rank certificates, enumeration when one fails",
    )
    audit_sub = p_audit.add_subparsers(dest="audit_cmd", required=True)
    for name in ("correctness", "security", "privacy"):
        p_a = audit_sub.add_parser(name)
        p_a.add_argument("--pda", required=True)
        p_a.add_argument("--n", type=int, required=True)
        p_a.add_argument("--b", type=int, required=True)
        p_a.add_argument("--field", default="p:2")
        p_a.add_argument("--mode", choices=[m.value for m in engine.Mode],
                         default="splfr")
        p_a.add_argument("--demand-space", choices=["all", "units"], default="all")
        p_a.add_argument("--budget", type=int, default=audit.DEFAULT_BUDGET)
        if name == "privacy":
            p_a.add_argument("--subset", help="colluding users, e.g. 1,2")
        p_a.set_defaults(func=cmd_audit)

    p_curves = sub.add_parser("curves", help="emit tradeoff curves")
    curves_sub = p_curves.add_subparsers(dest="curves_cmd", required=True)
    p_emit = curves_sub.add_parser("emit")
    p_emit.add_argument("--n", type=int, required=True)
    p_emit.add_argument("--k", type=int, required=True)
    p_emit.add_argument("--schemes", default="splfr,seckey")
    p_emit.add_argument("--out", required=True)
    p_emit.set_defaults(func=cmd_curves)

    p_bounds = sub.add_parser("bounds", help="converse-bound consistency checks")
    bounds_sub = p_bounds.add_subparsers(dest="bounds_cmd", required=True)
    p_bc = bounds_sub.add_parser("check")
    p_bc.add_argument("--n", type=int, required=True)
    p_bc.add_argument("--k", type=int, required=True)
    p_bc.set_defaults(func=cmd_bounds)

    p_gap = sub.add_parser("gap", help="multiplicative-gap ratio checks")
    gap_sub = p_gap.add_subparsers(dest="gap_cmd", required=True)
    p_gc = gap_sub.add_parser("check")
    p_gc.add_argument("--n", type=int, required=True)
    p_gc.add_argument("--k", type=int, required=True)
    p_gc.set_defaults(func=cmd_gap)

    p_toy = sub.add_parser("toy", help="golden walkthrough on the 3x3 array")
    p_toy.add_argument("--seed", type=int, default=7)
    p_toy.set_defaults(func=cmd_toy)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand ``--config file.json`` into default flag values.

    The file maps flag names (without dashes) to values; explicit
    command-line flags win, whether given as ``--flag value`` or
    ``--flag=value``.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise OSError("--config requires a file path")
    path = argv[idx + 1]
    argv = argv[:idx] + argv[idx + 2 :]
    with open(path) as fh:
        try:
            defaults = json.load(fh)
        except json.JSONDecodeError as exc:
            raise OSError(f"bad config file {path}: {exc}")
    if not isinstance(defaults, dict):
        raise OSError(f"config file {path} must hold a JSON object")
    given = {arg.partition("=")[0] for arg in argv}
    for key, value in defaults.items():
        flag = "--" + str(key).replace("_", "-").lstrip("-")
        if flag not in given:
            argv += [flag, str(value)]
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except OSError as exc:
        emit_report({"verdict": "fail", "error": str(exc)})
        _summary(f"error: {exc}")
        return 1
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (pda_mod.PdaError, engine.EngineError, audit.AuditError,
            tradeoff.TradeoffError, FieldError, OSError) as exc:
        emit_report({"verdict": "fail", "error": str(exc)})
        _summary(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
