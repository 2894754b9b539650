"""Metric registry, percentile helper and result printing for perfbench.

Every metric the benchmark can report, with its unit, better-direction
and (end-to-end metrics only) regression bound, is declared once, in
``BENCHMARK.json``; this module reads it from there.  The time bounds
sit at the 0.25 ceiling: on the shared 2-vCPU host the benchmark was
tuned on, a fixed pure-Python loop ran anywhere from 0.20 to 0.39 s
within half a minute.  ``PREDICTIONS`` records, per layer, which
end-to-end metric a change to that layer should move and on which
workloads it should stay flat, so a later performance change can cite
its prediction by layer name.
"""

from __future__ import annotations

import json
import re
import resource
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)

#: Allowed metric-name alphabet (the benchmark manifest's rule).
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Compulsory traffic of one pass over the D3Q19 two-component float64
#: populations: 2 components x 19 directions x 8 bytes, read and written.
#: A computed byte count, not measured memory traffic.
D3Q19_2C_BYTES_PER_POINT = 2 * 19 * 8 * 2

#: Percentiles :func:`percentile_summary` reports.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end regression bound (share of the parent's median);
    #: ``None`` for per-layer metrics, which carry no bound.
    bound: float | None = None


WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])
END_TO_END = tuple(Metric(**m) for m in MANIFEST["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in MANIFEST["per_layer"])
ALL_METRICS = {m.name: m for m in (*END_TO_END, *PER_LAYER)}

KERNELS = ("collide_bgk", "stream", "bounce_back", "moments", "forces_and_velocities")



@dataclass(frozen=True)
class Prediction:
    """Which end-to-end metric a change to *layer* should move."""

    layer: str
    metrics: tuple[str, ...]  # per-layer metric names (prefix ``*`` = glob)
    moves: tuple[tuple[str, str], ...]  # (end-to-end metric, workload)
    flat_on: tuple[str, ...]  # workloads predicted unchanged


PREDICTIONS = (
    Prediction(
        "repro.lbm kernels",
        ("lbm.*.us_per_point", "lbm.*.effective_gbps", "lbm.step.roofline_share"),
        (("mlups", "channel-1rank"), ("mlups", "channel-2rank-disturbed")),
        ("sweep-serve",),
    ),
    Prediction(
        "repro.lbm setup + repro.scenarios",
        ("lbm.solver_init_ms.p50", "scenarios.wall_setup_ms.p50"),
        (("latency_ms_p50", "sweep-serve"), ("latency_ms_p99", "sweep-serve")),
        ("channel-1rank", "channel-2rank-disturbed"),
    ),
    Prediction(
        "repro.api.run_batch / repro.lbm.ensemble",
        ("ensemble.us_per_member_point", "api.run.us_per_point"),
        (("latency_ms_p99", "sweep-serve"),),
        ("channel-1rank", "channel-2rank-disturbed"),
    ),
    Prediction(
        "repro.serve",
        ("serve.*",),
        (("latency_ms_p50", "sweep-serve"), ("latency_ms_p99", "sweep-serve")),
        ("channel-1rank", "channel-2rank-disturbed"),
    ),
    Prediction(
        "repro.parallel halo/transport",
        ("parallel.*",),
        (("mlups", "channel-2rank-disturbed"),),
        ("channel-1rank", "sweep-serve"),
    ),
    Prediction(
        "repro.core remapping + parallel.migration",
        ("remap.*",),
        (("mlups", "channel-2rank-disturbed"),),
        ("channel-1rank", "sweep-serve"),
    ),
    Prediction(
        "repro.ckpt",
        ("ckpt.*",),
        (("mlups", "channel-2rank-disturbed"),),
        ("channel-1rank", "sweep-serve"),
    ),
    Prediction(
        "tracing",
        ("trace.overhead_share",),
        (),
        WORKLOADS,
    ),
)


def percentile_summary(samples) -> dict:
    """Sample count (``count``), each of :data:`PERCENTILES` (``p50``,
    ``p90``, ... ``p99.9``, linearly interpolated by ``np.percentile``)
    and the highest of them with at least ten samples beyond it
    (``top_percentile``, ``None`` when none has).  An empty sample gets
    only its count and ``top_percentile``.
    """
    values = np.asarray(list(samples), dtype=np.float64)
    n = int(values.size)
    out: dict = {"count": n, "top_percentile": None}
    if n == 0:
        return out
    for p in PERCENTILES:
        out[f"p{p:g}"] = float(np.percentile(values, p))
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            out["top_percentile"] = p
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (a forked rank), in MB; ``ru_maxrss`` is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record *what* when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"CHECK FAILED: {what}")
        return ok


def result_line(outcome: Outcome, trace: bool) -> tuple[str, list[str]]:
    """The final JSON line plus human-readable metric lines.

    With tracing off the JSON carries every end-to-end metric, with it
    on every per-layer metric; a per-layer metric the workload's layers
    never exercised reads 0 and is flagged in the human lines.
    """
    wanted = PER_LAYER if trace else END_TO_END
    human: list[str] = []
    metrics: dict[str, dict] = {}
    for m in wanted:
        value = outcome.metrics.get(m.name)
        if value is None:
            if not trace:
                raise KeyError(f"workload did not measure {m.name}")
            value = 0.0
            human.append(f"{m.name} = 0 {m.unit} (layer not exercised)")
        else:
            human.append(f"{m.name} = {value:.6g} {m.unit} ({m.better} is better)")
        metrics[m.name] = {"value": float(value), "unit": m.unit}
    failed_share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    human.append(
        f"failed_share = {failed_share:.6g} ratio "
        f"({outcome.failed} of {outcome.attempted} operations)"
    )
    doc = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    return json.dumps(doc, sort_keys=False), human
