#!/usr/bin/env python3
"""perfbench: the slip solver's end-to-end and per-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload channel-1rank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``channel-1rank``, ``channel-2rank-disturbed``, ``sweep-serve``
(see ``wl_channel.py`` and ``wl_sweep.py``); ``all`` runs each in a fresh
process.  With ``--trace 0`` the last output line is a JSON object with
every end-to-end metric; with ``--trace 1`` the run records spans around
calls into each layer, reports every per-layer metric and dumps the spans
to ``.perfbench_out/``.  Every output is checked; the exit code is 1 when
a check fails and 2 when ``src/repro`` is missing.

Every ``REPRO_*`` variable is cleared first, so the environment cannot
swap the backend, transport, decomposition, checkpointing or serve
settings.  The load stays within two CPUs: at most two rank processes,
or two serve worker threads plus the event loop.  Every process gets a one-thread BLAS pool, set before
NumPy loads: two ranks with a two-thread pool each oversubscribed the
CPUs and made ``channel-2rank-disturbed`` 20% slower and three times as
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from harness import WORKLOADS, peak_rss_mb, percentile_summary, result_line  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = ".perfbench_out"
SCRATCH_DIR = ".perfbench_tmp"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def common_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics any workload's spans can feed: per-point cost of single
    ``api.run`` executions, solver and wall set-up, and the residual."""
    runs = [s for s in tracer.named("api.run") if s.attrs.get("phases")]
    inits = tracer.named("lbm.solver_init")
    wall_setup: dict[int | None, float] = {}
    for s in tracer.spans:
        if s.name.startswith("scenarios."):
            wall_setup[s.parent] = wall_setup.get(s.parent, 0.0) + s.duration
    out = {"trace.residual_share": tracer.residual_share()}
    if inits:
        out["lbm.solver_init_ms.p50"] = percentile_summary(
            s.duration * 1e3 for s in inits)["p50"]
    if wall_setup:
        out["scenarios.wall_setup_ms.p50"] = percentile_summary(
            v * 1e3 for v in wall_setup.values())["p50"]
    if runs:
        out["api.run.us_per_point"] = sum(s.duration for s in runs) / sum(
            s.attrs["points"] * s.attrs["phases"] for s in runs
        ) * 1e6
    return out


def run_one(args: argparse.Namespace, root: Path) -> int:
    import wl_channel
    import wl_sweep
    from machine import machine_block

    tracer = Tracer() if args.trace else None
    scratch = root / SCRATCH_DIR
    scratch.mkdir(exist_ok=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if args.workload == "channel-1rank":
            outcome = wl_channel.run_channel_1rank(args.seed, args.seconds, tracer)
        elif args.workload == "channel-2rank-disturbed":
            outcome = wl_channel.run_channel_2rank(args.seed, args.seconds, tracer, Path(tmp))
        else:
            outcome = wl_sweep.run_sweep_serve(args.seed, args.seconds, tracer)
    try:
        scratch.rmdir()
    except OSError:
        pass  # another run's scratch is still in use
    # A workload may read its peak RSS earlier, before work it does only
    # to check its outputs.
    outcome.metrics.setdefault("peak_rss_mb", peak_rss_mb())
    machine = machine_block()
    print("machine " + json.dumps(machine, sort_keys=True))
    if tracer is not None:
        outcome.metrics.update(common_layer_metrics(tracer))
        outcome.metrics.update(
            wl_channel.lbm_layer_metrics(tracer, machine["copy_gbps"])
        )
        outcome.metrics["machine.copy_gbps"] = machine["copy_gbps"]
        outcome.metrics["machine.cpus"] = machine["cpus"]
        outcome.metrics["machine.l3_mib"] = machine["l3_mib"] or 0.0
        print("self time per span name (name, count, total ms, self ms):")
        for name, count, total, own in tracer.self_time_table():
            print(f"  {name:28s} {count:7d} {total * 1e3:12.2f} {own * 1e3:12.2f}")
        dump = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(dump, {"workload": args.workload, "seed": args.seed,
                           "machine": machine})
        print(f"spans written to {dump.relative_to(root)}")
    for note in outcome.notes:
        print(note)
    line, human = result_line(outcome, bool(args.trace))
    for text in human:
        print(text)
    print(line, flush=True)
    return 0 if json.loads(line)["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process; prints each one's output and a
    combined JSON line, exit code 1 if any workload's check failed."""
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        lines = proc.stdout.strip().splitlines()
        if not lines:
            combined["correct"] = False
            continue
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["workloads"][name] = doc["metrics"]
    print(json.dumps(combined), flush=True)
    return status


def stop_helper_processes() -> None:
    """Stop, and wait for, every process the run started that would
    outlive it: rank processes still alive after an error, and the
    resource tracker ``multiprocessing`` starts for the ranks' shared
    memory, which otherwise exits only some time after this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    try:
        status = run_one(args, root)
    finally:
        stop_helper_processes()
    print(f"perfbench wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
