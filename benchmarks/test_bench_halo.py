"""Overlapped vs. blocking halo exchange: exposed communication time.

The overlap schedule posts the population halo right after colliding the
two boundary planes and waits only after the interior collide, so
message transit happens *behind* local compute instead of being paid as
blocked time in the wait.  The in-process transports deliver eagerly —
on a single-CPU container there is no real interconnect for the overlap
to hide, and the measured wait collapses into scheduler idle time that
is conserved across schedules.  This benchmark therefore emulates an
interconnect: a delegating communicator stamps every halo message with a
fixed transit latency, and a receive that waits before the stamp matures
sleeps out the remainder — exactly the exposed fraction of the latency.

Both schedules run the identical spec over the emulated link; the
per-rank ``exposed_wait_s`` counters (cumulative seconds blocked inside
halo waits) land in ``BENCH_halo.json`` at the repository root.  The
headline claim the JSON documents: ``overlap.exposed_wait_seconds <
blocking.exposed_wait_seconds`` — the blocking schedule pays the full
transit on every exchange, the overlapped one hides the part covered by
interior compute.  ``python -m repro.obs.report compare`` understands
the file, so CI can gate on the exposed wait creeping back up.

Under ``--benchmark-disable`` each schedule still runs once (a smoke
test, physics checked against the zero-latency run) but no timings are
recorded.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig
from repro.parallel.api import Communicator, Request
from repro.parallel.driver import ParallelLBM, assemble_global_f
from repro.parallel.threads import run_spmd

SHAPE = (96, 84)
PHASES = 40
RANKS = 2
#: Emulated per-message transit latency (seconds).  Chosen so a phase's
#: interior compute can cover it: the overlap schedule should hide most
#: of it, the blocking schedule none.
LATENCY = 0.001
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_halo.json"


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def channel_config() -> LBMConfig:
    return LBMConfig(
        geometry=ChannelGeometry(shape=SHAPE, wall_axes=(1,)),
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        body_acceleration=(1e-6, 0.0),
        backend="fused",
    )


class LatentLink(Communicator):
    """Delegating communicator that emulates interconnect transit.

    Every payload is stamped with its maturity time (``now + latency``);
    a receive whose wait begins before maturity sleeps out the remainder
    inside ``Request.wait`` — which is precisely where the driver's
    exposed-wait counters measure.  A wait that starts after maturity
    pays nothing: the transit happened behind compute.
    """

    def __init__(self, inner: Communicator, latency: float):
        self._inner = inner
        self._latency = latency

    @property
    def rank(self) -> int:
        return self._inner.rank

    @property
    def size(self) -> int:
        return self._inner.size

    def isend(self, dest, tag, payload) -> Request:
        return self._inner.isend(
            dest, tag, (time.perf_counter() + self._latency, payload)
        )

    def irecv(self, source, tag) -> Request:
        real = self._inner.irecv(source, tag)

        def resolve(timeout):
            matures, payload = real.wait(timeout)
            remaining = matures - time.perf_counter()
            if remaining > 0:
                time.sleep(remaining)
            return payload

        return Request(resolve=resolve, test=real.done)

    def barrier(self) -> None:
        self._inner.barrier()

    def allgather(self, payload, tag) -> list:
        return self._inner.allgather(payload, tag)


def halo_run(halo_overlap: bool, latency: float = LATENCY):
    cfg = channel_config()

    def rank_main(comm):
        driver = ParallelLBM(
            LatentLink(comm, latency),
            cfg,
            policy="no-remap",
            halo_overlap=halo_overlap,
        )
        return driver.run(PHASES)

    return run_spmd(RANKS, rank_main)


@pytest.fixture(scope="module")
def bench_record():
    """Collect ``{schedule: metrics}`` across the module and write
    BENCH_halo.json when the module finishes."""
    results: dict[str, dict[str, float]] = {}
    yield results
    if not ("overlap" in results and "blocking" in results):
        return
    hidden = 1.0 - (
        results["overlap"]["exposed_wait_seconds"]
        / max(results["blocking"]["exposed_wait_seconds"], 1e-12)
    )
    payload = {
        "shape": list(SHAPE),
        "phases": PHASES,
        "ranks": RANKS,
        "transport": "threads",
        "backend": "fused",
        "emulated_latency_s": LATENCY,
        "cpus": _available_cpus(),
        "halo": {
            "schedules": results,
            "wait_hidden_by_overlap": round(hidden, 3),
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "blocking"])
def test_bench_halo(benchmark, bench_record, overlap):
    waits: list[float] = []

    def once():
        results = halo_run(overlap)
        waits.append(sum(r.exposed_wait_s for r in results))
        return results

    results = benchmark.pedantic(once, rounds=5, iterations=1)
    # The emulated link must not perturb the physics: same populations
    # as a zero-latency run of the same schedule.
    reference = halo_run(overlap, latency=0.0)
    assert np.array_equal(
        assemble_global_f(results), assemble_global_f(reference)
    )
    benchmark.extra_info["cpus"] = _available_cpus()
    if benchmark.stats is None:  # --benchmark-disable smoke run
        return
    exposed = sorted(waits)[len(waits) // 2]  # median of the rounds
    schedule = "overlap" if overlap else "blocking"
    benchmark.extra_info["exposed_wait_seconds"] = round(exposed, 4)
    bench_record[schedule] = {
        "wall_seconds": round(benchmark.stats["mean"], 4),
        "exposed_wait_seconds": round(exposed, 4),
    }
