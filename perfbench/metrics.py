"""Metric names, units and the per-layer metrics of a traced pass.

`END_TO_END` and `PER_LAYER` are the lists in BENCHMARK.json; a per-layer
value is a sum over one pass, in adjusted seconds where it is a time (see
run.REFERENCE_S), and a run reports the median over its traced passes.
"""

from __future__ import annotations

import statistics
from collections import Counter

import inputs

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("large_s", "s"), ("peak_rss_mb", "MB")]

CLI_COMMANDS = ("sqrt-todd", "identity-kernel", "k-compose", "orlov")
CHECK_NAMES = (
    "hrr-line-bundles", "char-class-expansions", "identity-kernel", "correspondence-algebra",
    "lefschetz-decomposition", "orbit-rigidification", "orlov-pipeline",
    "compatibility-triangle", "chern-character-basis",
)
CHERN_TOTALS = ("power_sums", "exp_nilpotent", "log_unit", "series_inverse", "chern_character")


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


_NAMES = [
    "ring.Cycle_init.calls", "ring.Cycle_init.self_s", "ring.intersect.calls",
    "ring.intersect.self_s", "ring.intersect.term_pairs", "ring.intersect.kept_ratio",
    "corr.pullback.self_s", "corr.pushforward.self_s", "corr.pushforward.in_terms",
    "corr.compose_cycles.calls", "corr.compose_cycles.total_s", "corr.compose_cycles.self_s",
    "chern.todd_class.calls", "chern.todd_class.total_s", "chern.sqrt_todd.calls",
    "chern.sqrt_todd.total_s", "chern.sqrt_todd.repeat_ratio",
    *(f"chern.{fn}.total_s" for fn in CHERN_TOTALS),
    "kshadow.identity_kernel.total_s", "kshadow.identity_kernel.self_s",
    "kshadow.k_compose.calls", "kshadow.k_compose.total_s", "kshadow.k_compose.self_s",
    "kshadow.chow_image.calls", "kshadow.chow_image.total_s",
    "motives.validate.calls", "motives.validate.total_s", "motives.validate.compose_calls",
    "motives.orlov_pipeline.total_s", "motives.orlov_pipeline.self_s",
    "motives.orbit_compose.total_s", "motives.compatibility_check.total_s",
    "cli.startup_s", "cli.parse_s", "cli.emit_s", "cli.main.total_s",
    *(f"cli.{c}.{inputs.rung(f)}_s" for f in inputs.LADDER for c in CLI_COMMANDS),
    *(f"verify.{check}.total_s" for check in CHECK_NAMES),
    "trace.spans", "trace.overhead_ratio", "repo.src_loc", "repo.api_exports",
]
PER_LAYER = [(name, _unit(name)) for name in _NAMES]


def describe(values) -> str:
    """Median with its sample count, plus the highest percentile that still
    has ten samples beyond it."""
    n = len(values)
    text = f"median of {n}"
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            text += f", p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
            break
    return text


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(p) -> dict:
    """Per-layer metrics of one traced pass (all but the run-level
    `trace.overhead_ratio` and `repo.*` counts)."""
    traced = [op for op in p.ops if op.trace]
    traces = [(op.trace, op.speed) for op in traced]
    if p.worker_trace:
        traces.append((p.worker_trace, p.ops[0].speed))
    calls, total, self_s, groups, counts = (Counter() for _ in range(5))
    for t, speed in traces:
        calls.update(t["calls"])
        counts.update(t["counts"])
        for times, acc in ((t["total"], total), (t["self"], self_s), (t["groups"], groups)):
            acc.update({name: value * speed for name, value in times.items()})
    m = {
        "ring.intersect.term_pairs": counts["intersect.pairs"],
        "ring.intersect.kept_ratio": _ratio(counts["intersect.kept"], counts["intersect.pairs"]),
        "corr.pushforward.in_terms": counts["pushforward.in_terms"],
        "chern.sqrt_todd.repeat_ratio": _ratio(counts["sqrt_todd.repeats"], calls["chern.sqrt_todd"]),
        "motives.validate.compose_calls": counts["validate.compose_calls"],
        "cli.startup_s": sum((op.wall_s - op.trace["total"].get("cli.main", 0.0)) * op.speed
                             for op in traced),
        "cli.parse_s": groups["parse"],
        "cli.emit_s": groups["emit"],
        "trace.spans": sum(t["spans"] for t, _ in traces),
    }
    walls = {op.label: op.wall_s * op.speed for op in traced}
    for name in _NAMES:
        if name in m or name in ("trace.overhead_ratio", "repo.src_loc", "repo.api_exports"):
            continue
        span, stat = name.rsplit(".", 1)
        if span.startswith("cli.") and stat.endswith("_s") and stat != "total_s":
            m[name] = walls.get(f"{span[4:]} {stat[:-2]}", 0.0)
        else:
            m[name] = {"calls": calls, "total_s": total, "self_s": self_s}[stat][span]
    return m
