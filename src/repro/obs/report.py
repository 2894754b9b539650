"""Trace post-processing CLI: ``summary`` and ``compare``.

Usage::

    python -m repro.obs.report summary trace.jsonl
    python -m repro.obs.report compare new.jsonl old.jsonl --tolerance 0.10
    python -m repro.obs.report compare new.jsonl BENCH_kernels.json

``summary`` turns one JSONL trace into the paper-style views: a per-rank
execution profile (computation / halo / remapping — the Figure 9 shape),
a migration summary (planes and bytes moved per rank — the Table 1
bookkeeping), and a per-kernel timing table in the same µs/point unit as
``BENCH_kernels.json``.

``compare`` extracts a flat ``{metric: value}`` dict from each input —
either a JSONL trace or a ``BENCH_kernels.json``-style file — and flags
every time-like metric whose *candidate* value exceeds the *baseline* by
more than the tolerance.  It exits nonzero when any regression is found,
so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

from repro.obs.sink import read_trace
from repro.util.tables import format_table


# ---------------------------------------------------------------- summaries
def phase_profile(events: list[dict]) -> dict[int, dict[str, float]]:
    """Aggregate ``phase`` events into a per-rank profile: phase count,
    computation / halo seconds, halo bytes, last plane count."""
    profile: dict[int, dict[str, float]] = defaultdict(
        lambda: {
            "phases": 0,
            "computation": 0.0,
            "halo": 0.0,
            "halo_f_bytes": 0.0,
            "halo_rho_bytes": 0.0,
            "planes": 0.0,
        }
    )
    for ev in events:
        if ev.get("type") != "phase":
            continue
        row = profile[int(ev.get("rank", 0))]
        row["phases"] += 1
        row["computation"] += (
            ev.get("t_collide", 0.0)
            + ev.get("t_stream_bounce", 0.0)
            + ev.get("t_moments", 0.0)
        )
        row["halo"] += ev.get("t_halo_f", 0.0) + ev.get("t_halo_rho", 0.0)
        row["halo_f_bytes"] += ev.get("halo_f_bytes", 0)
        row["halo_rho_bytes"] += ev.get("halo_rho_bytes", 0)
        row["planes"] = ev.get("planes", row["planes"])
    return dict(profile)


def migration_summary(events: list[dict]) -> dict[int, dict[str, float]]:
    """Aggregate ``migrate`` events per rank: planes/bytes sent and
    received, number of remap rounds that moved anything."""
    summary: dict[int, dict[str, float]] = defaultdict(
        lambda: {"sent": 0, "received": 0, "bytes": 0.0, "rounds": 0}
    )
    rounds: dict[int, set] = defaultdict(set)
    for ev in events:
        if ev.get("type") != "migrate":
            continue
        rank = int(ev.get("rank", 0))
        row = summary[rank]
        planes = int(ev.get("planes", 0))
        if ev.get("action") == "send":
            row["sent"] += planes
        else:
            row["received"] += planes
        row["bytes"] += ev.get("bytes", 0)
        rounds[rank].add(ev.get("round"))
    for rank, rset in rounds.items():
        summary[rank]["rounds"] = len(rset)
    return dict(summary)


def kernel_table(events: list[dict]) -> list[tuple[str, int, float, float]]:
    """Rows ``(kernel, calls, total_s, us_per_point)`` from the final
    ``metrics`` event's kernel histograms/counters."""
    metrics: dict[str, dict] = {}
    for ev in events:
        if ev.get("type") == "metrics":
            metrics = ev.get("metrics", {})
    rows = []
    for name, snap in sorted(metrics.items()):
        if not name.startswith("kernel.") or snap.get("kind") != "histogram":
            continue
        points = metrics.get(f"{name}.points", {}).get("value", 0.0)
        total = snap.get("total", 0.0)
        us_per_point = 1e6 * total / points if points else 0.0
        rows.append((name[len("kernel."):], snap.get("count", 0), total,
                     us_per_point))
    return rows


def sim_summary(events: list[dict]) -> dict | None:
    """The cluster simulator's ``sim_end`` payload, if this is a
    simulator trace."""
    for ev in events:
        if ev.get("type") == "sim_end":
            return ev
    return None


def render_summary(events: list[dict]) -> str:
    sections: list[str] = []
    meta = next((e for e in events if e.get("type") == "run_start"), None)
    if meta is not None:
        pairs = ", ".join(
            f"{k}={meta[k]}"
            for k in ("n_ranks", "backend", "policy", "shape", "phases")
            if k in meta
        )
        sections.append(f"run: {pairs}")

    prof = phase_profile(events)
    if prof:
        rows = [
            (
                rank,
                int(p["phases"]),
                p["computation"],
                p["halo"],
                int(p["halo_f_bytes"] + p["halo_rho_bytes"]),
                int(p["planes"]),
            )
            for rank, p in sorted(prof.items())
        ]
        sections.append(
            format_table(
                ["rank", "phases", "compute (s)", "halo (s)",
                 "halo bytes", "final planes"],
                rows,
                title="-- per-rank execution profile --",
                float_fmt="{:.4f}",
            )
        )

    mig = migration_summary(events)
    if mig:
        rows = [
            (rank, int(m["rounds"]), int(m["sent"]), int(m["received"]),
             int(m["bytes"]))
            for rank, m in sorted(mig.items())
        ]
        sections.append(
            format_table(
                ["rank", "rounds", "planes sent", "planes received", "bytes"],
                rows,
                title="-- migration summary --",
            )
        )
    elif prof:
        sections.append("no migration events (run stayed balanced)")

    kernels = kernel_table(events)
    if kernels:
        sections.append(
            format_table(
                ["kernel", "calls", "total (s)", "us/point"],
                kernels,
                title="-- kernel timings --",
                float_fmt="{:.4f}",
            )
        )

    sim = sim_summary(events)
    if sim is not None:
        rows = [
            (i, c, m, r)
            for i, (c, m, r) in enumerate(
                zip(sim.get("computation", []), sim.get("communication", []),
                    sim.get("remapping", []))
            )
        ]
        sections.append(
            format_table(
                ["node", "computation (s)", "communication (s)",
                 "remapping (s)"],
                rows,
                title=(
                    f"-- simulated cluster profile "
                    f"(total {sim.get('total_time', 0.0):.1f}s, "
                    f"{sim.get('planes_moved', 0)} planes moved) --"
                ),
                float_fmt="{:.2f}",
            )
        )

    if not sections:
        sections.append("trace contains no recognized events")
    return "\n\n".join(sections)


# ------------------------------------------------------------------ compare
#: Metric-name suffixes where *larger is worse* (time-like quantities).
_TIME_LIKE = ("duration", "us_per_point", "total_time", "mean", "seconds")

#: Metric-name suffixes where *larger is better* (rate-like quantities,
#: e.g. the batched ensemble's scenarios-per-second throughput or the
#: scheduler's jobs/sec, cache hit-rate and dedup ratio); a regression
#: is a *drop* beyond the tolerance.
_RATE_LIKE = (
    "throughput_scenarios_per_s",
    "per_second",
    "hit_rate",
    "dedup_ratio",
)


def trace_metrics(events: list[dict]) -> dict[str, float]:
    """Flatten a trace into comparable scalar metrics."""
    out: dict[str, float] = {}
    prof = phase_profile(events)
    for rank, p in prof.items():
        if p["phases"]:
            out[f"phase.rank{rank}.compute.mean"] = (
                p["computation"] / p["phases"]
            )
            out[f"phase.rank{rank}.halo.mean"] = p["halo"] / p["phases"]
    if prof:
        total_phases = sum(p["phases"] for p in prof.values())
        out["phase.compute.mean"] = (
            sum(p["computation"] for p in prof.values()) / total_phases
        )
        out["migration.planes"] = float(
            sum(m["sent"] for m in migration_summary(events).values())
        )
    for name, calls, total, us_per_point in kernel_table(events):
        if us_per_point:
            out[f"kernel.{name}.us_per_point"] = us_per_point
    sim = sim_summary(events)
    if sim is not None:
        out["sim.total_time"] = float(sim.get("total_time", 0.0))
        out["sim.planes_moved"] = float(sim.get("planes_moved", 0))
    return out


def bench_metrics(doc: dict) -> dict[str, float]:
    """Comparable metrics from a ``BENCH_kernels.json``-style document.

    The per-kernel section yields ``kernel.<backend>.<kernel>.
    us_per_point`` time-like metrics; the ``batched`` ensemble section
    yields ``ensemble.n<N>.*`` entries — µs/point (time-like) and
    scenarios-per-second throughput (rate-like) per ensemble size; the
    ``sweep`` section (``BENCH_sweep.json``) yields per-scenario
    ``sweep.<scenario>.*`` entries — samples/s, cache hit-rate and
    dedup ratio (rate-like: a drop is the regression) plus µs/point
    (time-like); the ``halo`` section (``BENCH_halo.json``) yields
    per-schedule ``halo.<schedule>.*_seconds`` entries — wall-clock and
    exposed communication wait, both time-like, so an overlap regression
    (exposed wait creeping back toward the blocking schedule's) trips
    the gate.
    """
    out: dict[str, float] = {}
    for kernel, values in doc.get("benchmarks", {}).items():
        for backend, value in values.items():
            if backend.startswith("speedup"):
                continue
            out[f"kernel.{backend}.{kernel}.us_per_point"] = float(value)
    for size, values in doc.get("batched", {}).get("sizes", {}).items():
        for key, value in values.items():
            if key.startswith("speedup"):
                continue
            out[f"ensemble.n{size}.{key}"] = float(value)
    for frac, values in doc.get("serve", {}).get("duplicates", {}).items():
        for key, value in values.items():
            if (
                key.startswith("speedup")
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
            ):
                continue
            out[f"serve.dup{frac}.{key}"] = float(value)
    for scenario, values in doc.get("sweep", {}).get("scenarios", {}).items():
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out[f"sweep.{scenario}.{key}"] = float(value)
    for schedule, values in doc.get("halo", {}).get("schedules", {}).items():
        for key, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out[f"halo.{schedule}.{key}"] = float(value)
    return out


#: Top-level sections that identify a JSON benchmark document.
_BENCH_SECTIONS = ("benchmarks", "serve", "sweep", "halo")


def load_metrics(path: str | Path) -> dict[str, float]:
    """Metrics from either a JSONL trace or a JSON benchmark document.

    Raises ``ValueError`` naming *path* for a JSON object that is neither
    a known bench schema nor a trace event (trace events carry ``seq``).
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"{path} is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None  # multi-line JSONL trace
    if isinstance(doc, dict):
        if any(section in doc for section in _BENCH_SECTIONS):
            return bench_metrics(doc)
        if "seq" not in doc:
            raise ValueError(
                f"{path}: JSON document matches no known bench schema "
                f"(expected one of the sections {list(_BENCH_SECTIONS)})"
            )
    return trace_metrics(read_trace(path))


def compare_metrics(
    candidate: dict[str, float],
    baseline: dict[str, float],
    tolerance: float,
) -> list[tuple[str, float, float, float]]:
    """Regressions ``(metric, candidate, baseline, change)`` among the
    comparable metrics both sides report; ``change`` is the fractional
    *worsening* — slowdown for time-like metrics (+0.25 = 25% slower),
    throughput loss for rate-like ones (+0.25 = 25% fewer scenarios/s)."""
    regressions = []
    for name in sorted(set(candidate) & set(baseline)):
        rate_like = name.endswith(_RATE_LIKE)
        if not rate_like and not name.endswith(_TIME_LIKE):
            continue
        base = baseline[name]
        if base <= 0:
            continue
        if rate_like:
            change = 1.0 - candidate[name] / base
        else:
            change = candidate[name] / base - 1.0
        if change > tolerance:
            regressions.append((name, candidate[name], base, change))
    return regressions


def run_compare(
    candidate_path: str | Path,
    baseline_path: str | Path,
    tolerance: float = 0.10,
    out=None,
) -> int:
    if out is None:
        out = sys.stdout
    candidate = load_metrics(candidate_path)
    baseline = load_metrics(baseline_path)
    shared = sorted(
        n
        for n in set(candidate) & set(baseline)
        if n.endswith(_TIME_LIKE) or n.endswith(_RATE_LIKE)
    )
    if not shared:
        print("no comparable time-like metrics between the two inputs",
              file=out)
        return 2
    regressions = compare_metrics(candidate, baseline, tolerance)
    rows = [
        (name, candidate[name], baseline[name],
         # a zero baseline (e.g. cache hit rate with no duplicates) has no
         # meaningful percentage change; compare_metrics skips it too
         100.0 * (candidate[name] / baseline[name] - 1.0)
         if baseline[name] > 0 else float("nan"),
         "REGRESSION" if any(r[0] == name for r in regressions) else "ok")
        for name in shared
    ]
    print(
        format_table(
            ["metric", "candidate", "baseline", "change (%)", "verdict"],
            rows,
            title=f"-- compare (tolerance {tolerance:.0%}) --",
            float_fmt="{:.4g}",
        ),
        file=out,
    )
    if regressions:
        print(
            f"\n{len(regressions)} metric(s) regressed beyond "
            f"{tolerance:.0%}",
            file=out,
        )
        return 1
    print("\nno regressions", file=out)
    return 0


# ---------------------------------------------------------------------- CLI
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize or diff repro.obs JSONL traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser("summary", help="render one trace")
    p_summary.add_argument("trace", help="JSONL trace path")

    p_compare = sub.add_parser(
        "compare", help="diff two traces (or a trace vs BENCH_kernels.json)"
    )
    p_compare.add_argument("candidate", help="trace under test")
    p_compare.add_argument("baseline", help="reference trace or bench JSON")
    p_compare.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional slowdown before flagging (default 0.10)",
    )

    args = parser.parse_args(argv)
    if args.command == "summary":
        print(render_summary(read_trace(args.trace)))
        return 0
    try:
        return run_compare(args.candidate, args.baseline, args.tolerance)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke test
    sys.exit(main())
