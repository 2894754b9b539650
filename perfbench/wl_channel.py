"""The channel workloads: ``channel-1rank`` and ``channel-2rank-disturbed``.

Both run "the channel": a D3Q19 water/air channel at 200 x 100 x 10
(half the paper's 400 x 200 x 20 on every axis), G = 0.9, a hydrophobic
wall force of 0.1 on water, a body force along x, ``fused`` kernels.

``channel-1rank`` runs it sequentially through ``repro.api.run``.
``channel-2rank-disturbed`` runs it on two forked ranks (``processes``
transport, 1-D slabs, overlapped halos, ``filtered`` remapping) with
periodic checkpoints, while an emulated competing job takes 70% of one
seeded-random rank in seeded windows covering half of the phases (see
:class:`EmulatedLoad`).
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    D3Q19_2C_BYTES_PER_POINT,
    KERNELS,
    Outcome,
    peak_rss_mb,
    percentile_summary,
)
from spans import Tracer

SHAPE = (200, 100, 10)
POINTS = SHAPE[0] * SHAPE[1] * SHAPE[2]
#: Phases per timed ``run()`` call of ``channel-1rank``.
PHASES_1RANK = 10
#: Phases of the disturbed schedule, run by each timed call.
PHASES_2RANK = 40
#: Remap every 5 phases over a 5-sample history, checkpoint every 10;
#: the competing job comes and goes in 10-phase windows, so each window
#: holds one remap round that sees the change and one that runs after it.
REMAP_INTERVAL = 5
CKPT_EVERY = 10
DISTURB_WINDOW = 10
#: Emulated cost per point of one phase, in seconds (the ``c`` of the
#: load model): an undisturbed rank reports ``points * c``.
COST_PER_POINT = 1.0e-6
#: Share of the disturbed rank the competing job leaves to the solver.
AVAILABLE_SHARE = 0.3
#: Set-ups timed before and again after the timed calls, so the median
#: spans the shared host's speed drifts over the run.
SETUP_REPEATS = 5


def channel_config():
    from repro.lbm.components import ComponentSpec
    from repro.lbm.forces import WallForceSpec
    from repro.lbm.geometry import ChannelGeometry
    from repro.lbm.lattice import D3Q19
    from repro.lbm.solver import LBMConfig

    return LBMConfig(
        geometry=ChannelGeometry(shape=SHAPE),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D3Q19,
        wall_force=WallForceSpec(amplitude=0.1, decay_length=2.5, component="water"),
        body_acceleration=(1e-6, 0.0, 0.0),
        backend="fused",
    )


# --------------------------------------------------------------- disturbance
def disturbance_schedule(seed: int) -> tuple[int, frozenset[int]]:
    """``(rank, phases)``: the seeded-random disturbed rank and the
    1-based phases it is disturbed in — every other ``DISTURB_WINDOW``
    phases of ``PHASES_2RANK``, starting with an undisturbed window.  A schedule that started
    disturbed has one more load change and ran 10% slower, so the seed
    picks only the rank."""
    rank = int(np.random.default_rng([seed, 2]).integers(2))
    disturbed = frozenset(
        p for p in range(1, PHASES_2RANK + 1) if ((p - 1) // DISTURB_WINDOW) % 2 == 1
    )
    return rank, disturbed


@dataclass(frozen=True)
class EmulatedLoad:
    """``RunSpec.load_time_fn`` emulating a competing job.

    On the disturbed rank in a disturbed phase it sleeps
    ``points * c * (1/share - 1)`` — the time the competitor takes —
    and reports ``points * c / share``; otherwise it reports
    ``points * c``.  Here ``c`` is ``COST_PER_POINT`` and ``share`` is
    ``AVAILABLE_SHARE``.  The reported load index is synthetic, so remapping
    decisions repeat exactly for a seed; the sleep makes the rank
    really slow without using a CPU.
    """

    rank: int
    phases: frozenset[int]

    def sleep_s(self, rank: int, phase: int, points: int) -> float:
        if rank == self.rank and phase in self.phases:
            return points * COST_PER_POINT * (1.0 / AVAILABLE_SHARE - 1.0)
        return 0.0

    def __call__(self, rank: int, phase: int, points: int) -> float:
        pause = self.sleep_s(rank, phase, points)
        if pause:
            time.sleep(pause)
            return points * COST_PER_POINT / AVAILABLE_SHARE
        return points * COST_PER_POINT


# ------------------------------------------------------------------- helpers
def _component_masses(solver) -> list[float]:
    return [solver.total_mass(c) for c in range(solver.config.n_components)]


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _digest(f: np.ndarray) -> str:
    """Digest of an array's shape, dtype and bytes: equal digests mean
    bit-identical arrays, without keeping the arrays."""
    h = hashlib.sha256(f"{f.shape} {f.dtype}".encode())
    h.update(np.ascontiguousarray(f).data)
    return h.hexdigest()


def _keep_going(start: float, walls: list[float], seconds: float, minimum: int) -> bool:
    """Start another timed call while it is expected to end in time."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + walls[-1] <= seconds


def _end_to_end(out: Outcome, walls: list[float], phases: int) -> None:
    rates = [POINTS * phases / w / 1e6 for w in walls]
    out.metrics["mlups"] = statistics.median(rates)
    latency = percentile_summary(w * 1e3 for w in walls)
    out.metrics["latency_ms_p50"] = latency["p50"]
    out.metrics["latency_ms_p99"] = latency["p99"]
    out.notes.append(
        f"timed run() calls: {len(walls)} x {phases} phases; "
        f"latency = wall of one call (p99 interpolated over {len(walls)} calls)"
    )


# ------------------------------------------------------------ channel-1rank
def _install_kernel_spans(tracer: Tracer) -> None:
    from repro.lbm.backends import get_backend_class
    from repro.lbm.solver import MulticomponentLBM

    backend_cls = get_backend_class("fused")
    for k in KERNELS:
        tracer.wrap(backend_cls, k, f"lbm.{k}")
    tracer.wrap(MulticomponentLBM, "step", "lbm.step")
    tracer.wrap(MulticomponentLBM, "__init__", "lbm.solver_init")


def lbm_layer_metrics(tracer: Tracer, copy_gbps: float | None) -> dict[str, float]:
    """Per-kernel and per-step cost per grid point from the kernel spans,
    with effective bandwidth at the computed 608 B/point."""
    out: dict[str, float] = {}
    steps = tracer.named("lbm.step")
    if not steps:
        return out

    def us_per_point(spans) -> float:
        return sum(s.duration for s in spans) / (len(spans) * POINTS) * 1e6

    def gbps(us: float) -> float:
        return D3Q19_2C_BYTES_PER_POINT / (us * 1e-6) / 1e9

    for k in KERNELS:
        us = us_per_point(tracer.named(f"lbm.{k}"))
        out[f"lbm.{k}.us_per_point"] = us
        out[f"lbm.{k}.effective_gbps"] = gbps(us)
    step_us = us_per_point(steps)
    selfs = tracer.self_times()
    out["lbm.step.us_per_point"] = step_us
    out["lbm.step.residual_us_per_point"] = (
        sum(selfs[s.id] for s in steps) / (len(steps) * POINTS) * 1e6
    )
    out["lbm.step.effective_gbps"] = gbps(step_us)
    if copy_gbps:
        out["lbm.step.roofline_share"] = gbps(step_us) / copy_gbps
    return out


def run_channel_1rank(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """Sequential channel; *seed* is unused (the problem is fixed)."""
    from repro import api

    cfg = channel_config()
    out = Outcome()
    masses0 = None

    def setup() -> float:
        nonlocal masses0
        res, wall = _timed(api.run, api.RunSpec(config=cfg, phases=0))
        masses0 = _component_masses(res.solver())
        return wall

    setups = [setup() for _ in range(SETUP_REPEATS)]
    spec = api.RunSpec(config=cfg, phases=PHASES_1RANK)

    def check(res) -> None:
        solver = res.solver()
        try:
            solver.check_health()
            healthy = True
        except FloatingPointError as exc:
            healthy = False
            out.notes.append(f"unhealthy state: {exc}")
        out.check(healthy, "channel-1rank state finite and subsonic")
        masses = _component_masses(solver)
        out.check(
            bool(np.allclose(masses, masses0, rtol=1e-10, atol=0.0)),
            f"channel-1rank mass conserved ({masses} vs {masses0})",
        )

    walls: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while _keep_going(start, walls, seconds, 2):
        res, wall = _timed(api.run, spec)
        walls.append(wall)
        check(res)
        del res
        gc.collect()
        if tracer is not None:
            # Alternate untraced and traced calls, so drift hits both.
            _install_kernel_spans(tracer)
            try:
                res, span = tracer.call(
                    "api.run", api.run, (spec,), owner="channel-1rank"
                )
            finally:
                tracer.restore()
            span.attrs.update(points=POINTS, phases=PHASES_1RANK)
            traced.append(span.duration)
            check(res)
            del res
            gc.collect()
    setups += [setup() for _ in range(SETUP_REPEATS)]
    out.metrics["setup_s"] = statistics.median(setups)
    _end_to_end(out, walls, PHASES_1RANK)
    if tracer is not None:
        out.metrics["trace.overhead_share"] = (
            statistics.median(traced) / statistics.median(walls) - 1.0
        )
    return out


# -------------------------------------------------- channel-2rank-disturbed
def disturbed_spec(seed: int, store, phases: int = PHASES_2RANK, observer=None):
    from repro import api
    from repro.core.policies import RemappingConfig

    rank, disturbed = disturbance_schedule(seed)
    extra = {} if observer is None else {"observer": observer}
    return api.RunSpec(
        config=channel_config(),
        phases=phases,
        ranks=2,
        transport="processes",
        decomp="slab",
        halo_overlap=True,
        policy="filtered",
        remap_config=RemappingConfig(interval=REMAP_INTERVAL, history=REMAP_INTERVAL),
        load_time_fn=EmulatedLoad(rank, disturbed),
        checkpoint_store=store,
        checkpoint_every=CKPT_EVERY,
        timeout=170.0,
        **extra,
    )


def _fresh_store(scratch: Path):
    from repro.ckpt.store import CheckpointStore

    return CheckpointStore(tempfile.mkdtemp(dir=scratch), keep_last=0)


def _check_store(out: Outcome, store) -> tuple[int, float]:
    """Verify every generation written; returns (generations, mean bytes)."""
    gens = store.generations()
    out.check(
        len(gens) == PHASES_2RANK // CKPT_EVERY and all(g.committed for g in gens),
        f"checkpoint generations {[g.step for g in gens]} all committed",
    )
    sizes = []
    for g in gens:
        problems = store.verify_generation(g.step)
        out.check(not problems, f"checkpoint step {g.step} verifies: {problems}")
        if g.manifest is not None:
            sizes.append(g.manifest.total_bytes)
    return len(gens), (float(np.mean(sizes)) if sizes else 0.0)


def run_channel_2rank(seed: int, seconds: float, tracer: Tracer | None,
                      scratch: Path) -> Outcome:
    from repro import api

    out = Outcome()
    rank, disturbed = disturbance_schedule(seed)
    out.notes.append(
        f"disturbed rank {rank}, phases {sorted(disturbed)}; c = {COST_PER_POINT} s/point"
    )

    def setup() -> float:
        store = _fresh_store(scratch)
        res, wall = _timed(api.run, disturbed_spec(seed, store, phases=0))
        out.check(res.f.shape[2] == SHAPE[0], "phases=0 run assembles the channel")
        del res
        shutil.rmtree(store.root)
        return wall

    setups = [setup() for _ in range(SETUP_REPEATS)]

    finals: list[str] = []  # digests of the assembled populations
    walls: list[float] = []
    counts: list[tuple] = []
    start = time.perf_counter()
    while _keep_going(start, walls, seconds, 2):
        store = _fresh_store(scratch)
        res, wall = _timed(api.run, disturbed_spec(seed, store))
        walls.append(wall)
        finals.append(_digest(res.f))
        gens, gen_bytes = _check_store(out, store)
        counts.append((sum(r.planes_sent for r in res.rank_results), gens))
        del res
        shutil.rmtree(store.root)
        gc.collect()
    setups += [setup() for _ in range(SETUP_REPEATS)]
    out.metrics["setup_s"] = statistics.median(setups)
    # The 2-rank path's peak RSS: read before the traced run and the
    # sequential reference, which run only to measure layers and check.
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        from repro.obs.observer import Observer
        from repro.obs.sink import MemorySink

        sink = MemorySink()
        store = _fresh_store(scratch)
        spec = disturbed_spec(seed, store, observer=Observer(sink=sink))
        res, root = tracer.call("api.run", api.run, (spec,), owner="channel-2rank-disturbed")
        root.attrs.update(points=POINTS, phases=PHASES_2RANK)
        finals.append(_digest(res.f))
        gens, gen_bytes = _check_store(out, store)
        counts.append((sum(r.planes_sent for r in res.rank_results), gens))
        out.metrics.update(
            parallel_layer_metrics(tracer, root, sink, res, EmulatedLoad(rank, disturbed))
        )
        out.metrics["ckpt.generations"] = gens
        out.metrics["ckpt.bytes_per_generation"] = gen_bytes
        out.metrics["trace.overhead_share"] = root.duration / statistics.median(walls) - 1.0
        del res
        shutil.rmtree(store.root)
        gc.collect()

    # Correctness, outside every timed window: the assembled populations
    # must equal a sequential run of the same physics bit for bit.
    reference = _digest(api.run(api.RunSpec(config=channel_config(), phases=PHASES_2RANK)).f)
    for i, f in enumerate(finals):
        out.check(
            f == reference,
            f"call {i}: 2-rank populations bit-identical to the sequential run",
        )
    out.check(len(set(counts)) == 1, f"migration/checkpoint counts repeat (traced too): {counts}")
    out.notes.append(f"planes migrated, generations per call: {counts[0]}")
    _end_to_end(out, walls, PHASES_2RANK)
    return out


def parallel_layer_metrics(tracer: Tracer, root, sink, res, load: EmulatedLoad) -> dict:
    """Rebuild per-rank spans from the observer's ``phase``,
    ``remap_begin``/``remap_end``, ``migrate`` and ``ckpt.save`` events
    (plus the emulated competitor's known sleeps) and derive the halo,
    stage, remap and checkpoint metrics."""
    t0 = sink.t0
    events = [e for e in sink.events if "rank" in e]
    ranks = sorted({e["rank"] for e in events})
    plane_points = SHAPE[1] * SHAPE[2]
    rank_spans = {}
    for r in ranks:
        phases = [e for e in events if e["rank"] == r and e["type"] == "phase"]
        end = next(e["ts"] for e in events if e["rank"] == r and e["type"] == "run_end")
        rank_spans[r] = tracer.add(
            "parallel.rank", t0 + phases[0]["ts"] - phases[0]["t_total"], t0 + end,
            parent=root.id, owner=f"rank{r}",
        )
    busy = dict.fromkeys(ranks, 0.0)
    stages: dict[str, list[float]] = {k: [] for k in
                                      ("collide", "stream_bounce", "moments", "halo_wait")}
    remap_open: dict[tuple[int, int], float] = {}
    round_ms: dict[int, float] = {}
    ckpt_ms: dict[int, float] = {}
    migrate_bytes = 0
    for e in events:
        r, kind = e["rank"], e["type"]
        parent, owner = rank_spans[r].id, f"rank{r}"
        end = t0 + e["ts"]
        if kind == "phase":
            span = tracer.add("parallel.phase", end - e["t_total"], end, parent=parent,
                              owner=owner, phase=e["phase"], planes=e["planes"])
            # Stage spans laid end to end from the event's durations.
            cursor = span.start
            for name, dur in (
                ("parallel.collide", e["t_collide"]),
                ("parallel.halo_f_wait", e["t_halo_f"]),
                ("parallel.stream_bounce", e["t_stream_bounce"]),
                ("parallel.moments", e["t_moments"]),
                ("parallel.halo_rho_wait", e["t_halo_rho"]),
            ):
                tracer.add(name, cursor, cursor + dur, parent=span.id, owner=owner)
                cursor += dur
            for k in ("collide", "stream_bounce", "moments", "halo_wait"):
                stages[k].append(e[f"t_{k}"])
            # The load hook runs right after the phase: 1-based phase.
            pause = load.sleep_s(r, e["phase"] + 1, e["planes"] * plane_points)
            if pause:
                tracer.add("emulated.competitor", end, end + pause, parent=parent, owner=owner)
            busy[r] += e["t_total"] - e["t_halo_wait"] + pause
        elif kind == "remap_begin":
            remap_open[(r, e["round"])] = end
        elif kind == "remap_end":
            span = tracer.add("remap.round", remap_open.pop((r, e["round"])), end,
                              parent=parent, owner=owner, round=e["round"])
            round_ms[e["round"]] = max(round_ms.get(e["round"], 0.0), span.duration * 1e3)
        elif kind == "migrate" and e["action"] == "send":
            migrate_bytes += e["bytes"]
        elif kind == "span" and e["name"] == "ckpt.save":
            tracer.add("ckpt.save", end - e["duration"], end, parent=parent, owner=owner,
                       step=e["step"])
            ckpt_ms[e["step"]] = max(ckpt_ms.get(e["step"], 0.0), e["duration"] * 1e3)
    halo_bytes = sum(
        e["halo_f_bytes"] + e["halo_rho_bytes"] for e in events if e["type"] == "run_end"
    )
    selfs = tracer.self_times()
    rank_phases = len(ranks) * PHASES_2RANK
    return {
        "parallel.halo.bytes_per_phase": halo_bytes / PHASES_2RANK,
        "parallel.halo.exposed_wait_share": sum(r.exposed_wait_s for r in res.rank_results)
        / (len(ranks) * root.duration),
        **{f"parallel.stage.{k}.ms_per_phase": float(np.mean(v)) * 1e3
           for k, v in stages.items()},
        "parallel.rank_imbalance": max(busy.values()) / float(np.mean(list(busy.values()))),
        "parallel.rank.residual_ms_per_phase": sum(selfs[s.id] for s in rank_spans.values())
        / rank_phases * 1e3,
        "remap.rounds": len(round_ms),
        "remap.planes_migrated": sum(r.planes_sent for r in res.rank_results),
        "remap.migrate_bytes": migrate_bytes,
        "remap.round_ms": float(np.mean(list(round_ms.values()))) if round_ms else 0.0,
        "ckpt.write_ms_per_generation": float(np.mean(list(ckpt_ms.values())))
        if ckpt_ms else 0.0,
    }
