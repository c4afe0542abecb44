"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``splfr`` modules from outside,
so the package itself is unchanged.  Every wrapped call records one span:
name, start, end, parent span and the round (or pass) it belongs to.  Spans
stay in compact in-memory arrays until the run ends; :class:`Frame` then
turns them into per-round totals and self times.

A span's name is ``<layer>.<qualified name>``, e.g. ``engine.deliver`` or
``pda.PDA.symbol_positions``; the layer is the module name.  Spans opened by
the benchmark itself use the layer ``bench``.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: Public functions wrapped per layer.  The scalar and vector methods of
#: ``FieldContext`` are left alone: they run millions of times per pass, so
#: field work shows up as the self time of the engine spans that call it.
TARGETS = {
    "field": ("FieldContext.parse",),
    "pda": ("man_pda", "validate", "memory_load", "PDA.symbol_positions"),
    "engine": (
        "Library.random",
        "Library.combine",
        "Randomness.generate",
        "place",
        "deliver",
        "decode",
        "update_round",
        "measure",
    ),
    "audit": (
        "audit_correctness",
        "audit_security",
        "audit_privacy",
        "factorization_violations",
    ),
    "tradeoff": (
        "TradeoffCurve.evaluate",
        "man_curve",
        "scheme_curve",
        "simple_converse_ratio_max",
        "coded_uncoded_ratio_max",
        "smooth_bound_ratio_max",
        "ratio_checks",
        "emit_curves",
    ),
    "cli": ("main", "bounds_report"),
}


#: per-layer metrics measured on the traced set-ups, not on the steps
SETUP_METRICS = ("field.parse_s", "pda.build_s", "engine.place_s")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.round = array("i")
        self.round_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.round.append(self.round_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        nid, open_, close = self.name_id(name), self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target, in every module of ``modules`` that imported it.

        ``modules`` maps a layer name to its module.  Methods are wrapped on
        the class, so every instance and every importer sees the wrapper.
        """
        for layer, attrs in TARGETS.items():
            home = modules[layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(name, raw.__func__))
                    else:
                        new = self.wrap(name, raw)
                    self._patch(cls, meth, raw, new)
                    continue
                orig = getattr(home, attr)
                new = self.wrap(name, orig)
                for mod in modules.values():
                    if getattr(mod, attr, None) is orig:
                        self._patch(mod, attr, orig, new)

    def _patch(self, owner, attr: str, old, new) -> None:
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


class Frame:
    """Closed spans as numpy columns, with self time and grouping."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.array(tracer.name, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.round = np.array(tracer.round, dtype=np.int64)
        start = np.array(tracer.start)
        self.dur = np.array(tracer.end) - start
        n = len(self.dur)
        has_parent = self.parent >= 0
        children = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=n
        )
        self.self_time = self.dur - children
        self.layer_names = sorted({nm.split(".", 1)[0] for nm in self.names})
        name_layer = np.array(
            [self.layer_names.index(nm.split(".", 1)[0]) for nm in self.names]
        )
        self.layer = name_layer[self.name]
        parent_layer = np.where(has_parent, self.layer[np.maximum(self.parent, 0)], -1)
        # a span that enters its layer from another one (or from the top)
        self.entry = parent_layer != self.layer
        # nearest enclosing benchmark span (the span itself, if it is one)
        bench = {i for i, nm in enumerate(self.names) if nm.startswith("bench.")}
        name, parent, group = self.name.tolist(), self.parent.tolist(), [-1] * n
        for i in range(n):
            if name[i] in bench:
                group[i] = name[i]
            elif parent[i] >= 0:
                group[i] = group[parent[i]]
        self.group = np.array(group, dtype=np.int64)
        self.n_rounds = int(self.round.max()) + 1

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    def named(self, name: str) -> np.ndarray:
        return self.name == self._id(name)

    def in_layer(self, layer: str) -> np.ndarray:
        if layer not in self.layer_names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.layer == self.layer_names.index(layer)

    def in_groups(self, *groups: str) -> np.ndarray:
        return np.isin(self.group, [self._id(g) for g in groups])

    def per_round(self, mask: np.ndarray, values: np.ndarray | None = None) -> np.ndarray:
        """Per-round sums of ``values`` (span counts when None) over ``mask``."""
        keep = mask & (self.round >= 0)
        weights = None if values is None else values[keep]
        return np.bincount(self.round[keep], weights=weights, minlength=self.n_rounds)

    def median_per_round(self, mask, values=None) -> float:
        per = self.per_round(mask, values)
        return float(np.median(per)) if len(per) else 0.0

    def layer_self_times(self) -> dict[str, float]:
        """Median per round of each layer's self time."""
        return {
            layer: self.median_per_round(self.in_layer(layer), self.self_time)
            for layer in self.layer_names
        }

    def span_table(self) -> list[dict]:
        """Calls, total and self seconds per (name, parent name) pair."""
        parent_name = np.where(
            self.parent >= 0, self.name[np.maximum(self.parent, 0)], -1
        )
        rows: dict[tuple[int, int], list[float]] = {}
        for nid, pid, dur, own in zip(
            self.name.tolist(),
            parent_name.tolist(),
            self.dur.tolist(),
            self.self_time.tolist(),
        ):
            row = rows.setdefault((nid, pid), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += own
        return [
            {
                "name": self.names[nid],
                "parent": self.names[pid] if pid >= 0 else None,
                "calls": calls,
                "total_s": total,
                "self_s": own,
            }
            for (nid, pid), (calls, total, own) in sorted(
                rows.items(), key=lambda item: -item[1][1]
            )
        ]


def layer_metrics(wl, setup: Frame, run: Frame, setups, base, traced, report: dict) -> dict:
    """Per-layer metrics of one traced run, in BENCHMARK.json's ``per_layer`` order.

    ``setups``, ``base`` and ``traced`` are the (wall, reference) seconds of
    the traced set-ups, the untraced steps and the traced steps.  Times are
    medians per step (round or pass) unless named otherwise; the set-up
    metrics are medians over the traced set-ups.  Span times are converted
    to reference seconds with the phase's ratio of reference seconds to
    span time.  A layer the workload never calls reports 0.
    """
    from workloads import AUDIT_GROUPS, ANALYTICS_PARTS

    def entry_time(name: str) -> float:
        return run.median_per_round(run.named(name) & run.entry, run.dur)

    def group_time(layer: str, group: str) -> float:
        mask = run.in_layer(layer) & run.entry & run.in_groups(group)
        return run.median_per_round(mask, run.dur)

    def count(name: str) -> float:
        return run.median_per_round(run.named(name))

    audit_groups = [f"bench.audit.{g}" for g in AUDIT_GROUPS]
    in_audit = run.in_groups(*audit_groups)
    steps = run.per_round(run.named("bench.round") | run.named("bench.pass"), run.dur)
    engine_self = run.per_round(run.in_layer("engine") & in_audit, run.self_time)
    round_engine_self = run.self_time[
        run.in_layer("engine") & run.in_groups("bench.round") & (run.round >= 0)
    ].sum()
    sweep = []
    if wl.arr is not None:
        for _ in range(5):
            t0 = perf_counter()
            for s in range(1, wl.arr.s + 1):
                wl.arr.symbol_positions(s)
            sweep.append(perf_counter() - t0)

    layers = run.layer_self_times()
    values = {
        "field.parse_s": (setup.median_per_round(setup.named("field.FieldContext.parse"), setup.dur), "s"),
        "field.macs_per_round": (float(np.mean(wl.macs)) if wl.macs else 0.0, "count"),
        "field.macs_per_s": (sum(wl.macs) / round_engine_self if wl.macs else 0.0, "1/s"),
        "pda.build_s": (setup.median_per_round(setup.named("pda.man_pda"), setup.dur), "s"),
        "pda.symbol_positions_calls_per_round": (count("pda.PDA.symbol_positions"), "count"),
        "pda.symbol_positions_sweep_s": (float(np.median(sweep)) if sweep else 0.0, "s"),
        "engine.place_s": (setup.median_per_round(setup.named("engine.place"), setup.dur), "s"),
        "engine.deliver_s": (entry_time("engine.deliver"), "s"),
        "engine.decode_s": (entry_time("engine.decode"), "s"),
        "engine.update_round_s": (entry_time("engine.update_round"), "s"),
        "engine.combine_s": (entry_time("engine.Library.combine"), "s"),
        "audit.correctness_s": (group_time("audit", "bench.audit.correctness"), "s"),
        "audit.security_s": (group_time("audit", "bench.audit.security"), "s"),
        "audit.privacy_s": (group_time("audit", "bench.audit.privacy"), "s"),
        "audit.counterexample_s": (group_time("audit", "bench.audit.counterexample"), "s"),
        "audit.atoms": (wl.pass_atoms, "count"),
        "audit.violations": (wl.pass_violations, "count"),
        "audit.engine_calls": (
            run.median_per_round(run.in_layer("engine") & run.entry & in_audit), "count"
        ),
        "audit.engine_self_share": (
            float(np.median(engine_self / steps)) if len(steps) else 0.0, "ratio"
        ),
    }
    # the bounds part runs in the cli layer: cli.bounds_report_s below
    for part in ANALYTICS_PARTS:
        if part != "bounds":
            values[f"tradeoff.{part}_s"] = (group_time("tradeoff", f"bench.analytics.{part}"), "s")
    values["tradeoff.evaluate_calls"] = (count("tradeoff.TradeoffCurve.evaluate"), "count")
    values["cli.bounds_report_s"] = (
        run.median_per_round(run.named("cli.bounds_report"), run.dur), "s"
    )
    values["cli.audit_overhead_s"] = (
        run.median_per_round(run.in_layer("cli") & in_audit, run.self_time), "s"
    )
    for layer in ("pda", "engine", "audit", "tradeoff", "cli"):
        values[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    ref = statistics.median(r for _, r in traced) / statistics.median(r for _, r in base)
    values["trace.overhead_ratio"] = (ref, "ratio")
    # span durations include the kernel runs of the meter; these factors turn
    # them into reference seconds
    scale = sum(r for _, r in traced) / steps.sum()
    setup_scale = sum(r for _, r in setups) / setup.dur[setup.named("bench.setup")].sum()
    for name, (value, unit) in values.items():
        factor = setup_scale if name in SETUP_METRICS else scale
        if unit == "s":
            values[name] = (value * factor, unit)
        elif unit == "1/s":
            values[name] = (value / factor, unit)

    report["overhead"] = {
        "untraced_p50_s": statistics.median(r for _, r in base),
        "traced_p50_s": statistics.median(r for _, r in traced),
        "ratio": ref,
        "untraced_steps": len(base),
        "traced_steps": len(traced),
    }
    report["reference_per_wall"] = {"setup": setup_scale, "traced": scale}
    report["layer_self_s"] = {layer: t * scale for layer, t in layers.items()}
    report["computed"] = {"field.macs_per_round": "from array shapes and nonzero coefficients"}
    report["spans_recorded"] = len(run.dur)
    report["spans"] = run.span_table()
    report["setup_spans"] = setup.span_table()
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
