"""Command-line entry point.

Subcommands: pda, sim, audit, curves, bounds, gap, toy.  Each ``cmd_*``
returns its JSON report and its short human summary; ``main`` alone
prints them, the report to stdout (one object per line) and the summary to
stderr, and maps the verdict to the exit code: 0 = success / verdict pass,
1 = verdict fail, 2 = usage error.  An error of the program's inputs is a
failing report with its message.  ``pda man`` without ``-o`` prints only
the array.

``sim run`` and the three audits share one instance spec, ``--pda``,
``--n``, ``--b``, ``--field`` and ``--mode``, read by ``_instance``;
``sim run`` and ``toy`` share one run of the scheme, ``_run``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import secrets
import sys
from contextlib import contextmanager
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


@contextmanager
def _all_digits():
    """Ints of any length convert to str inside, as an atom count can pass
    Python's default limit of 4,300 digits; the old limit is restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def emit_report(payload: dict) -> None:
    """Print one JSON report; its seed and config are null unless the payload has them."""
    report = {"version": __version__, "seed": None, "config": None, **payload}
    print(json.dumps(_jsonable(report), sort_keys=True))


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


def _instance(args, **extra):
    """The array, field and mode of ``args``, and the report's config with ``extra``."""
    arr = _load_pda(args.pda)
    ctx = FieldContext.parse(args.field)
    mode = engine.Mode(args.mode)
    config = {"pda": args.pda, "n": args.n, "b": args.b, "field": ctx.spec,
              "mode": mode.value, **extra}
    return arr, ctx, mode, config


# -- pda ------------------------------------------------------------------


def cmd_pda(args):
    if args.pda_cmd == "man":
        arr = pda_mod.man_pda(args.k, args.t)
        text = pda_mod.render_pda(arr)
        if not args.output:
            sys.stdout.write(text)
            return None, None
        with open(args.output, "w") as fh:
            fh.write(text)
        return None, f"wrote ({arr.k},{arr.f},{arr.z},{arr.s}) array to {args.output}"

    config = {"file": args.file}
    try:
        arr = _load_pda(args.file)
    except pda_mod.PdaError as exc:
        return {"verdict": "fail", "error": str(exc), "config": config}, f"invalid: {exc}"

    info = {
        "verdict": "pass",
        "config": config,
        "k": arr.k,
        "f": arr.f,
        "z": arr.z,
        "s": arr.s,
        "regularity": pda_mod.regularity(arr),
    }
    bound, tight = pda_mod.symbol_count_bound(arr)
    info["symbol_count_bound"] = bound
    info["symbol_count_tight"] = tight
    if args.pda_cmd == "info" and args.n is not None:
        m, r = pda_mod.memory_load(arr, args.n)
        info["memory"] = m
        info["load"] = r
    return info, f"valid ({arr.k},{arr.f},{arr.z},{arr.s}) array"


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


def _run(arr, ctx, mode, n, b, demands, rng, key_rng):
    """One run of the scheme: draw the files, then the keys, then the demands,
    then place, deliver and decode.

    ``demands`` is a spec of ``_parse_demands``.  Returns the placement, the
    payload, and each user's decoded function with whether it is correct.
    """
    library = engine.Library.random(ctx, n, b, rng)
    randomness = engine.Randomness.generate(arr, n, b, ctx, key_rng)
    demands = _parse_demands(demands, arr.k, n, ctx, rng)
    state = engine.place(arr, library, randomness, mode)
    payload = engine.deliver(state, demands)
    decoded = [engine.decode(state.user_view(k), payload, demands[k]) for k in range(arr.k)]
    correct = [d == library.combine(demand) for d, demand in zip(decoded, demands)]
    return state, payload, decoded, correct


def cmd_sim(args):
    arr, ctx, mode, config = _instance(args, demands=args.demands)
    rng = random.Random(args.seed)
    # keys come from the OS's secure source unless the run asks to be
    # reproducible; a seeded run draws everything from one generator
    seeded = args.seed is not None
    key_rng = rng if seeded else secrets.SystemRandom()
    state, payload, decoded, correct = _run(
        arr, ctx, mode, args.n, args.b, args.demands, rng, key_rng
    )
    meas = engine.measure(state)
    users = [
        {"user": k, "decode_sha256": hashlib.sha256(",".join(map(str, d)).encode()).hexdigest(),
         "correct": ok}
        for k, (d, ok) in enumerate(zip(decoded, correct), 1)
    ]
    all_ok = all(correct)
    checks = _analytic_checks(arr, args.n, args.b, meas, payload)
    checks_ok = all(check["ok"] for check in checks.values())
    report = {
        "verdict": "pass" if all_ok and checks_ok else "fail",
        "seed": args.seed,
        "config": config,
        "users": users,
        "checks": checks,
        "memory": meas.m_exact,
        "load": meas.r_asymptotic,
        "tx_symbols": meas.tx_symbols,
        "randomness_log2q_units": meas.randomness_log2q_units,
        "key_source": "seeded" if seeded else "system",
    }
    return report, (
        f"M={meas.m_exact} R={meas.r_asymptotic} tx={meas.tx_symbols} "
        f"decode={'ok' if all_ok else 'FAIL'} checks={'ok' if checks_ok else 'FAIL'}"
    )


# -- audit ----------------------------------------------------------------


def cmd_audit(args):
    arr, ctx, mode, config = _instance(args, demand_space=args.demand_space, budget=args.budget)
    cfg = audit.AuditConfig(
        pda=arr,
        n=args.n,
        b=args.b,
        ctx=ctx,
        mode=mode,
        demand_space=args.demand_space,
        budget=args.budget,
    )
    if args.audit_cmd == "correctness":
        report = audit.audit_correctness(cfg)
    elif args.audit_cmd == "security":
        report = audit.audit_security(cfg)
    else:
        # no subset given: audit every nonempty colluding subset
        subset = None if args.subset is None else _parse_subset(args.subset)
        report = audit.audit_privacy(cfg, subset)
    with _all_digits():
        summary = (f"{args.audit_cmd}: {'PASS' if report.verdict else 'FAIL'} "
                   f"({report.atoms} atoms, {report.violations} violations, by {report.method})")
    return dict(report.to_dict(), config=config), summary


def _parse_subset(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise audit.AuditError(f"--subset must list user numbers like 1,2, got {text!r}") from None


# -- curves / bounds / gap -------------------------------------------------


def cmd_curves(args):
    result = tradeoff.emit_curves(args.n, args.k, args.schemes.split(","), args.out)
    return (dict(result, verdict="pass", config={"n": args.n, "k": args.k}),
            f"wrote {result['csv']} and {result['svg']}")


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


def _verdict(report: dict) -> dict:
    return dict(report, verdict="pass" if report["ok"] else "fail")


def cmd_bounds(args):
    report = _verdict(bounds_report(args.n, args.k))
    return report, f"bounds check: {report['verdict'].upper()}"


def cmd_gap(args):
    report = _verdict(tradeoff.ratio_checks(args.n, args.k))
    # an irrational supremum is shown as its certified upper bracket
    return report, "\n".join(
        f"{name}: sup{'=' if check['exact'] else '<='}{check['max']} "
        f"bound={check['bound']} {'PASS' if check['ok'] else 'FAIL'}"
        for name, check in report["checks"].items()
    )


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
    rng = random.Random(seed)
    n, b = 4, 3
    state, _, _, correct = _run(arr, FieldContext.prime(2), engine.Mode.SPLFR, n, b, "units",
                                rng, rng)

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
    checks["decode"] = all(correct)
    meas = engine.measure(state)
    checks["memory"] = meas.m_exact == 2
    checks["load"] = meas.r_asymptotic == 1
    checks["tx_symbols"] = meas.tx_symbols == 15

    return {"seed": seed, "checks": checks, "ok": all(checks.values())}


def cmd_toy(args):
    report = _verdict(golden_toy(args.seed))
    return report, f"toy walkthrough: {report['verdict'].upper()}"


# -- parser ---------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="splfr",
        description="secure and private cache-aided linear function retrieval",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the instance of ``sim run`` and the audits, and the sizes of the analytics
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--pda", required=True, help="array file or man:K,t")
    instance.add_argument("--n", type=int, required=True)
    instance.add_argument("--b", type=int, required=True)
    instance.add_argument("--field", default="p:2")
    instance.add_argument("--mode", choices=[m.value for m in engine.Mode], default="splfr")
    sizes = argparse.ArgumentParser(add_help=False)
    sizes.add_argument("--n", type=int, required=True)
    sizes.add_argument("--k", type=int, required=True)

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
    p_run = sim_sub.add_parser("run", parents=[instance])
    p_run.add_argument("--seed", type=int, default=None,
                       help="reproducible run; without it the keys come from "
                            "secrets.SystemRandom")
    p_run.add_argument("--demands", default="units",
                       help="demands file, 'random', or 'units'")
    p_run.set_defaults(func=cmd_sim)

    p_audit = sub.add_parser(
        "audit",
        help="exact verification: rank certificates, enumeration when one fails",
    )
    audit_sub = p_audit.add_subparsers(dest="audit_cmd", required=True)
    for name in ("correctness", "security", "privacy"):
        p_a = audit_sub.add_parser(name, parents=[instance])
        p_a.add_argument("--demand-space", choices=["all", "units"], default="all")
        p_a.add_argument("--budget", type=int, default=audit.DEFAULT_BUDGET)
        if name == "privacy":
            p_a.add_argument("--subset", help="colluding users, e.g. 1,2")
        p_a.set_defaults(func=cmd_audit)

    p_curves = sub.add_parser("curves", help="emit tradeoff curves")
    curves_sub = p_curves.add_subparsers(dest="curves_cmd", required=True)
    p_emit = curves_sub.add_parser("emit", parents=[sizes])
    p_emit.add_argument("--schemes", default="splfr,seckey")
    p_emit.add_argument("--out", required=True)
    p_emit.set_defaults(func=cmd_curves)

    p_bounds = sub.add_parser("bounds", help="converse-bound consistency checks")
    bounds_sub = p_bounds.add_subparsers(dest="bounds_cmd", required=True)
    bounds_sub.add_parser("check", parents=[sizes]).set_defaults(func=cmd_bounds)

    p_gap = sub.add_parser("gap", help="multiplicative-gap ratio checks")
    gap_sub = p_gap.add_subparsers(dest="gap_cmd", required=True)
    gap_sub.add_parser("check", parents=[sizes]).set_defaults(func=cmd_gap)

    p_toy = sub.add_parser("toy", help="golden walkthrough on the 3x3 array")
    p_toy.add_argument("--seed", type=int, default=7)
    p_toy.set_defaults(func=cmd_toy)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand ``--config file.json`` (or ``--config=file.json``) into flags.

    The file maps flag names (without dashes) to values.  Its flags go
    before the first command-line option, so that argparse, where the last
    of a repeated flag wins, lets every explicit flag win, in any form it
    accepts: ``--flag value``, ``--flag=value`` or an abbreviation.
    """
    idx = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, eq, path = argv.pop(idx).partition("=")
    if not eq:
        if idx >= len(argv):
            raise OSError("--config requires a file path")
        path = argv.pop(idx)
    with open(path) as fh:
        try:
            defaults = json.load(fh)
        except json.JSONDecodeError as exc:
            raise OSError(f"bad config file {path}: {exc}")
    if not isinstance(defaults, dict):
        raise OSError(f"config file {path} must hold a JSON object")
    flags = []
    for key, value in defaults.items():
        flags += ["--" + str(key).replace("_", "-").lstrip("-"), str(value)]
    first = next((i for i, arg in enumerate(argv) if arg.startswith("-")), len(argv))
    return argv[:first] + flags + argv[first:]


def main(argv=None) -> int:
    """Run one subcommand: print its report and summary, return its exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        report, summary = args.func(args)
    except (pda_mod.PdaError, engine.EngineError, audit.AuditError,
            tradeoff.TradeoffError, FieldError, OSError) as exc:
        report, summary = {"verdict": "fail", "error": str(exc)}, f"error: {exc}"
    with _all_digits():
        if report is not None:
            emit_report(report)
        if summary is not None:
            print(summary, file=sys.stderr)
    return 0 if report is None or report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
