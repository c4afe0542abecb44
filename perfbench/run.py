"""splfr benchmark: four closed-loop workloads, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Times are measured in wall seconds and converted to reference seconds, which
cancel the speed swings of a shared CPU (see ``meter.py``); the gated
metrics use reference seconds and the report line carries both.

With ``--trace 0`` each workload reports its end-to-end metrics; with
``--trace 1`` it runs half its time untraced and half with span-recording
wrappers around the package's public functions, and reports per-layer
metrics and the tracing overhead.  For each workload, stdout gets one full
report line (environment, tail percentile, span table) and, last, one line
``{"correct", "attempted", "failed", "metrics"}``.  A table of the
end-to-end metrics under the names used in perfbench/README.md goes to
stderr.  The exit code is 0 when the run completes, whether or not a check
failed; ``correct`` says which.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: set-up is repeated at least this often, and until this much time is spent
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 5, 1.0, 50
#: traced set-ups, for the per-layer set-up metrics
TRACED_SETUP_REPS = 3


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit_hash(),
        "seed": seed,
    }


def commit_hash() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tail(times: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    reported and ``beyond`` says so.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n > 10:
        return {"value": ordered[n - 11], "percentile": 100 * (n - 10) / n, "samples": n, "beyond": 10}
    return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}


def timed_loop(wl, seconds: float, tracer=None) -> list[tuple[float, float]]:
    """Closed loop: steps back to back until ``seconds`` have passed.

    Returns the (wall, reference) seconds of every step.
    """
    times: list[tuple[float, float]] = []
    deadline = perf_counter() + seconds
    while True:
        if tracer:
            tracer.round_id = len(times)
        wl.step()
        times.append(wl.meter.take())
        if perf_counter() >= deadline:
            break
    if tracer:
        tracer.round_id = -1
    return times


def measure_setup(wl) -> list[tuple[float, float]]:
    times: list[tuple[float, float]] = []
    while len(times) < SETUP_MIN_REPS or (
        sum(wall for wall, _ in times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPS
    ):
        gc.collect()
        wl.timed(wl.setup)
        times.append(wl.meter.take())
    gc.collect()
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name](seed, ROOT)
    wl.meter.start()
    try:
        return measure_workload(wl, seed, seconds, trace)
    finally:
        wl.meter.stop()


def measure_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    setup_times = measure_setup(wl)
    wl.start()
    for _ in range(wl.warmup_steps):
        wl.step()
    wl.meter.take()
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "step": "round" if wl.warmup_steps else "pass",
    }
    if trace:
        metrics = traced_run(wl, seconds, report)
    else:
        times = timed_loop(wl, seconds)
        wl.finish()
        metrics = end_to_end(wl, setup_times, times, report)
    report["attempted"], report["failed"] = wl.attempted, wl.failed
    report["error_rate"] = wl.failed / wl.attempted
    return {
        "report": report,
        "result": {
            "correct": wl.failed == 0,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": metrics,
        },
    }


UNITS = {"setup_s": "s", "round_p50_s": "s", "round_tail_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def figures(wl, setup_times, times, clock: int) -> dict:
    """Set-up and step figures on one clock: 0 for wall, 1 for reference seconds."""
    steps = [t[clock] for t in times]
    return {
        "setup_s": statistics.median(t[clock] for t in setup_times),
        "round_p50_s": statistics.median(steps),
        "round_tail_s": tail(steps)["value"],
        "work_per_s": wl.work_per_step * len(steps) / sum(steps),
    }


def named(wl, values: dict) -> dict:
    """The figures under the names the workload's own vocabulary uses."""
    out = {"setup_s": (values["setup_s"], "s"), wl.p50_name: (values["round_p50_s"], "s")}
    if wl.warmup_steps:
        out["round_tail_s"] = (values["round_tail_s"], "s")
    if wl.rate_name:
        out[wl.rate_name] = (values["work_per_s"], wl.rate_unit)
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def end_to_end(wl, setup_times, times, report) -> dict:
    """The declared end-to-end metrics, in reference seconds.

    The report gets them under the workload's own names, on both clocks.
    """
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall, ref = (figures(wl, setup_times, times, clock) for clock in (0, 1))
    report["steps"] = len(times)
    report["setup_reps"] = len(setup_times)
    report["tail"] = tail([r for _, r in times])
    report["named"] = {
        "ref": named(wl, ref),
        "wall": named(wl, wall),
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "error_rate": {"value": wl.failed / wl.attempted, "unit": "ratio"},
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in dict(ref, peak_rss_mb=rss_mb).items()}


def traced_run(wl, seconds: float, report: dict) -> dict:
    # imported here so that untraced runs do not load numpy into peak_rss_mb
    from tracing import Frame, Tracer, layer_metrics

    base = timed_loop(wl, seconds / 2)
    wl.finish()

    setup_tracer = Tracer()
    setup_tracer.install(wl.m)
    wl.tracer = setup_tracer
    setups = []
    for rep in range(TRACED_SETUP_REPS):
        setup_tracer.round_id = rep
        with wl.span("bench.setup"):
            wl.timed(wl.build)
        setups.append(wl.meter.take())
    setup_tracer.uninstall()

    wl.tracer = None
    wl.start()
    tracer = Tracer()
    tracer.install(wl.m)
    wl.tracer = tracer
    traced = timed_loop(wl, seconds / 2, tracer)
    wl.finish()
    tracer.uninstall()
    wl.tracer = None
    return layer_metrics(wl, Frame(setup_tracer), Frame(tracer), setups, base, traced, report)


def print_table(report: dict) -> None:
    named = report.get("named")
    if not named:
        return
    rows = [
        (name, f"{metric['value']:.6g}", f"{named['wall'][name]['value']:.6g}", metric["unit"])
        for name, metric in named["ref"].items()
    ]
    rows += [(k, f"{named[k]['value']:.6g}", "", named[k]["unit"]) for k in ("peak_rss_mb", "error_rate")]
    print(f"{'workload':<13} {'metric':<24} {'reference':>12} {'wall':>12} unit", file=sys.stderr)
    for name, ref, wall, unit in rows:
        print(f"{report['workload']:<13} {name:<24} {ref:>12} {wall:>12} {unit}", file=sys.stderr)
    if report["step"] == "round":
        t = report["tail"]
        print(
            f"{report['workload']:<13} round_tail_s is p{t['percentile']:.1f} of "
            f"{t['samples']} rounds, {t['beyond']} beyond",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "splfr" / "__init__.py").is_file():
        print(f"error: no splfr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(out["report"])
        print(json.dumps(out["report"]))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
