"""The ``sweep-serve`` workload: Monte Carlo slip jobs through the scheduler.

Eight client tasks on one event loop each submit a job to
``Scheduler(workers=2)`` (default coalescing), await its result and
submit the next: a closed loop over a seeded stream of specs.  Each job
is a 24 x 36 D2Q9 water/air channel run for 40 phases, its wall drawn
from the ``homogeneous``, ``rough`` and ``patterned`` scenarios with
amplitude, roughness seed and stripe duty drawn from priors; a quarter
of the submissions repeat an earlier spec.  Latency runs from submit to
result; ``setup_s`` is the scheduler start (construction plus
``start()``), a median over groups of starts spread in time.

An open loop of Poisson arrivals at half the saturation rate was tried
first: on the shared 2-vCPU host its median and p99 latency spread by
0.28 and 0.31-0.72 of their medians over ten runs, because a slow spell
of the host let the queue run away.  Eight clients cap the outstanding
work, so a slow spell lengthens latency in proportion instead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from harness import Outcome, percentile_summary
from spans import Tracer

JOB_SHAPE = (24, 36)
JOB_POINTS = JOB_SHAPE[0] * JOB_SHAPE[1]
JOB_PHASES = 40
REPEAT_SHARE = 0.25
WORKERS = 2
#: Concurrent clients: the coalescing width, so batches can fill.
CLIENTS = 8
#: Jobs per run: enough that ten lie beyond the p99.
JOBS = 1000
#: Served results compared bit for bit with a direct ``repro.api.run``.
CHECK_SAMPLE = 24
#: Groups of scheduler start-ups timed before and again after the loop,
#: so the median spans the shared host's speed drifts over the run.
SETUP_GROUPS = 10
#: Timed start-ups per group; a group's sample is their mean.  Each is
#: preceded by a pause and by untimed warm-up start-ups.  A start takes
#: about 70 us on a fast spell of the shared host and 120 us on a slow
#: one; a spell lasts from milliseconds to seconds, and a pause ends it
#: at random.  Back-to-back starts therefore land in one spell, and
#: their median flipped between the two values from run to run.  Spread
#: over pauses, each group averages many spells.
STARTS_PER_GROUP = 20
SETUP_PAUSE_S = 0.005
SETUP_WARMUPS = 3
KINDS = ("homogeneous", "rough", "patterned")


def base_job_config():
    from repro.lbm.components import ComponentSpec
    from repro.lbm.geometry import ChannelGeometry
    from repro.lbm.lattice import D2Q9
    from repro.lbm.solver import LBMConfig
    from repro.scenarios import HomogeneousScenario

    return LBMConfig(
        geometry=ChannelGeometry(shape=JOB_SHAPE),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        scenario=HomogeneousScenario(amplitude=0.05),
        body_acceleration=(1e-6, 0.0),
        # The kernels the serve coalescer batches with, so a served
        # result can be compared bit for bit with a direct run.
        backend="batched",
    )


def _draw_scenario(rng: np.random.Generator):
    from repro.scenarios import HomogeneousScenario, PatternedScenario, RoughScenario

    kind = KINDS[int(rng.integers(len(KINDS)))]
    amplitude = float(rng.uniform(0.02, 0.12))
    if kind == "homogeneous":
        return HomogeneousScenario(amplitude=amplitude)
    if kind == "rough":
        return RoughScenario(
            amplitude=amplitude,
            rms=float(rng.uniform(0.5, 1.5)),
            seed=int(rng.integers(2**31 - 1)),
        )
    return PatternedScenario(amplitude_hi=amplitude, duty=float(rng.uniform(0.25, 0.75)))


def spec_stream(seed: int, n: int, stream: int = 3) -> list:
    """*n* job specs; exactly ``round(n * REPEAT_SHARE)`` of them repeat
    (are the same object as) an earlier unique spec.  *stream* selects
    an independent stream for the same seed."""
    from repro.api import RunSpec

    rng = np.random.default_rng([seed, stream])
    base = base_job_config()
    n_repeat = round(n * REPEAT_SHARE)
    repeat_at = set(int(i) for i in rng.choice(np.arange(1, n), size=n_repeat, replace=False))
    uniques: list = []
    specs: list = []
    for i in range(n):
        if i in repeat_at:
            specs.append(uniques[int(rng.integers(len(uniques)))])
            continue
        spec = RunSpec(
            config=dataclasses.replace(base, scenario=_draw_scenario(rng)),
            phases=JOB_PHASES,
        )
        uniques.append(spec)
        specs.append(spec)
    return specs


@dataclass
class JobRecord:
    job_id: str
    submit: float
    submitted: float
    done: float = math.nan
    ok: bool = False
    result: Any = None


async def _closed_loop(sched, specs: list, keep: set[int]) -> list[JobRecord]:
    from repro.serve.scheduler import JobCancelled, JobFailed

    records: list[JobRecord] = [None] * len(specs)  # type: ignore[list-item]
    pending = iter(range(len(specs)))  # shared: each index is taken once

    async def client() -> None:
        for i in pending:
            s0 = time.perf_counter()
            job_id = await sched.submit(specs[i])
            rec = records[i] = JobRecord(job_id, s0, time.perf_counter())
            try:
                result = await sched.result(job_id)
                rec.ok = True
            except (JobFailed, JobCancelled):
                result = None
            rec.done = time.perf_counter()
            if i in keep:
                rec.result = result

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return records


async def _serve(specs: list, keep: set[int]):
    from repro.serve.scheduler import Scheduler

    async with Scheduler(workers=WORKERS) as sched:
        t0 = time.perf_counter()
        records = await _closed_loop(sched, specs, keep)
        stats = {
            "executions": sched.executions,
            "hit_rate": sched.hit_rate(),
            "dedup_ratio": sched.dedup_ratio(),
        }
    return t0, records, stats


async def _scheduler_starts() -> list[float]:
    """Mean wall time of one scheduler start (construction plus
    ``start()``) in each of ``SETUP_GROUPS`` groups; schedulers are
    closed, and pauses and warm-ups taken, outside the timing."""
    from repro.serve.scheduler import Scheduler

    groups = []
    for _ in range(SETUP_GROUPS):
        total = 0.0
        for _ in range(STARTS_PER_GROUP):
            await asyncio.sleep(SETUP_PAUSE_S)
            for _ in range(SETUP_WARMUPS):
                sched = Scheduler(workers=WORKERS)
                await sched.start()
                await sched.close()
            t0 = time.perf_counter()
            sched = Scheduler(workers=WORKERS)
            await sched.start()
            total += time.perf_counter() - t0
            await sched.close()
        groups.append(total / STARTS_PER_GROUP)
    return groups


async def _drain(specs: list) -> float:
    """Wall time to serve a burst of *specs* submitted at once."""
    from repro.serve.scheduler import Scheduler

    async with Scheduler(workers=WORKERS) as sched:
        t0 = time.perf_counter()
        ids = [await sched.submit(s) for s in specs]
        for job_id in ids:
            await sched.result(job_id)
        return time.perf_counter() - t0


def run_sweep_serve(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """Serve ``JOBS`` jobs; *seconds* is unused, since the p99 needs the
    full thousand (about 37 s on the host the constants were tuned on)."""
    from repro import api

    out = Outcome()
    n = JOBS
    specs = spec_stream(seed, n)
    keep = set(int(i) for i in np.random.default_rng([seed, 5]).choice(n, CHECK_SAMPLE, replace=False))

    setups = asyncio.run(_scheduler_starts())
    # Exercise the batched, ensemble and scenario paths once before the
    # timed loop, so lazy imports and first-call costs stay out of it.
    asyncio.run(_drain(spec_stream(seed, 48, stream=6)))

    if tracer is not None:
        # Alternate untraced and traced drains of one burst, so drift
        # and first-burst costs hit both sides.
        burst = specs[:150]
        untraced, traced = [], []
        for _ in range(2):
            untraced.append(asyncio.run(_drain(burst)))
            _install_serve_spans(tracer, specs)
            try:
                traced.append(asyncio.run(_drain(burst)))
            finally:
                tracer.restore()
        tracer.spans.clear()
        out.metrics["trace.overhead_share"] = sum(traced) / sum(untraced) - 1.0
        _install_serve_spans(tracer, specs)
    try:
        t0, records, stats = asyncio.run(_serve(specs, keep))
    finally:
        if tracer is not None:
            tracer.restore()

    setups += asyncio.run(_scheduler_starts())
    out.metrics["setup_s"] = statistics.median(setups)
    latency_ms = [(r.done - r.submit) * 1e3 for r in records]
    summary = percentile_summary(latency_ms)
    out.metrics["latency_ms_p50"] = summary["p50"]
    out.metrics["latency_ms_p99"] = summary["p99"]
    top = summary["top_percentile"]
    wall = max(r.done for r in records) - t0
    out.metrics["mlups"] = stats["executions"] * JOB_POINTS * JOB_PHASES / wall / 1e6
    out.notes.append(
        f"{n} jobs from {CLIENTS} closed-loop clients in {wall:.1f} s, "
        f"{stats['executions']} executions; latency samples {summary['count']}, "
        f"highest percentile with >=10 beyond: p{top:g} = {summary[f'p{top:g}']:.1f} ms"
    )
    for r in records:
        out.check(r.ok, f"{r.job_id} served")
    # Correctness, outside the loop: a seeded sample of served results
    # equals a direct run of the same spec bit for bit.
    for i in sorted(keep):
        rec = records[i]
        if rec.result is None:
            continue
        direct = api.run(specs[i]).f
        out.check(
            bool(np.array_equal(rec.result.f, direct)),
            f"{rec.job_id} served result bit-identical to a direct run",
        )
    if tracer is not None:
        out.metrics.update(_serve_layer_metrics(tracer, specs, records, stats))
    return out


# ------------------------------------------------------------------ tracing
def _install_serve_spans(tracer: Tracer, specs: list) -> None:
    import repro.api as api_mod
    import repro.lbm.ensemble as ens_mod
    import repro.serve.scheduler as sched_mod
    from repro.lbm.solver import MulticomponentLBM
    from repro.scenarios import (
        HomogeneousScenario,
        PatternedScenario,
        RoughScenario,
        Scenario,
    )

    keys = {id(s): s.fingerprint() for s in specs}

    def on_run(span, args, kwargs, result):
        spec = args[0]
        span.attrs.update(keys=[keys.get(id(spec))], width=1,
                          points=JOB_POINTS, phases=spec.phases)

    def on_batch(span, args, kwargs, result):
        batch = args[0]
        span.attrs.update(
            keys=[keys.get(id(s)) for s in batch],
            width=len(batch),
            fallbacks=sum(r.batch_fallback_reason is not None for r in result),
        )

    def on_ensemble(span, args, kwargs, result):
        ens, n_steps = args[0], args[1] if len(args) > 1 else kwargs["n_steps"]
        span.attrs.update(members=len(ens.members), points=JOB_POINTS, phases=n_steps)

    tracer.wrap(sched_mod, "run", "api.run", on_run)
    tracer.wrap(sched_mod, "run_batch", "api.run_batch", on_batch)
    tracer.wrap(api_mod, "run", "api.run", on_run)
    tracer.wrap(ens_mod, "run_ensemble", "ensemble.run", on_ensemble)
    tracer.wrap(MulticomponentLBM, "__init__", "lbm.solver_init")
    for cls in (HomogeneousScenario, RoughScenario, PatternedScenario):
        tracer.wrap(cls, "wall_accel", "scenarios.wall_accel")
    tracer.wrap(Scenario, "solid_mask", "scenarios.solid_mask")
    tracer.wrap(RoughScenario, "solid_mask", "scenarios.solid_mask")


def _serve_layer_metrics(tracer: Tracer, specs: list, records: list[JobRecord],
                         stats: dict) -> dict[str, float]:
    """Attach the execution spans to job spans and derive the serve,
    ensemble and queue metrics."""
    execs = [s for s in tracer.spans
             if s.parent is None and s.name in ("api.run", "api.run_batch")]
    job_spans = {}
    primary: dict[str, int] = {}
    for i, rec in enumerate(records):
        job = tracer.add("serve.job", rec.submit, rec.done, owner=rec.job_id)
        job_spans[i] = job
        tracer.add("serve.submit", rec.submit, rec.submitted, parent=job.id, owner=rec.job_id)
        key = specs[i].fingerprint()
        if key not in primary:
            primary[key] = i
        else:
            tracer.add("serve.dedup_wait", rec.submitted, rec.done, parent=job.id,
                       owner=rec.job_id)
    waits = []
    for ex in execs:
        for j, key in enumerate(ex.attrs["keys"]):
            i = primary[key]
            job = job_spans[i]
            waits.append(ex.start - records[i].submitted)
            tracer.add("serve.queue_wait", records[i].submitted, ex.start,
                       parent=job.id, owner=records[i].job_id)
            if j == 0:
                ex.parent = job.id
                ex.owner = records[i].job_id
            else:
                tracer.add("serve.exec_shared", ex.start, ex.end, parent=job.id,
                           owner=records[i].job_id)
    widths = [ex.attrs["width"] for ex in execs]
    batched = [ex for ex in execs if ex.name == "api.run_batch"]
    batched_width = sum(ex.attrs["width"] for ex in batched)
    ensembles = tracer.named("ensemble.run")
    wait_ms = percentile_summary(w * 1e3 for w in waits)
    exec_ms = percentile_summary(ex.duration * 1e3 for ex in execs)
    return {
        "serve.queue_wait_ms.p50": wait_ms["p50"],
        "serve.queue_wait_ms.p99": wait_ms["p99"],
        "serve.exec_ms.p50": exec_ms["p50"],
        "serve.exec_ms.p99": exec_ms["p99"],
        "serve.batch_width.mean": float(np.mean(widths)) if widths else 0.0,
        "serve.coalesced_share": batched_width / sum(widths) if widths else 0.0,
        "serve.batch_fallback_share": (
            sum(ex.attrs["fallbacks"] for ex in batched) / batched_width
            if batched_width else 0.0
        ),
        "serve.cache_hit_rate": stats["hit_rate"],
        "serve.dedup_ratio": stats["dedup_ratio"],
        "serve.executions": stats["executions"],
        "ensemble.us_per_member_point": (
            sum(s.duration for s in ensembles)
            / sum(s.attrs["members"] * s.attrs["points"] * s.attrs["phases"] for s in ensembles)
            * 1e6 if ensembles else 0.0
        ),
    }
