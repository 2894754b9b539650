"""Fault injection for checkpoint/restart testing.

Two halves:

- :class:`FaultPlan` — deterministic, phase-addressed faults fired from
  instrumented *sites* inside the parallel driver and the checkpoint
  store.  A ``kill`` fault raises :class:`InjectedFault`; a ``stall``
  fault sleeps, simulating a slow writer.  Because the plan is shared by
  every rank thread and addressed by phase number, a "job kill" (every
  rank dies at the same phase, as when one node of an MPI job fails and
  the launcher tears the job down) is exactly reproducible.
- byte-level corruptors (:func:`corrupt_file`, :func:`truncate_file`) —
  post-hoc damage to shards on disk, for proving that verification
  detects what the filesystem can do to a checkpoint.

Fault sites (``site`` strings)
------------------------------
``phase_start``
    Before the phase's collision (driver run loop).
``mid_phase``
    After the boundary planes collide, before this rank posts its f halo
    — the state is mid-update, which is precisely what a checkpoint must
    never observe, and no message of this rank is in flight.
``shard_written``
    Right after a rank's shard landed on disk, before the manifest
    commit — a crash here must leave the previous generation intact.
``pre_commit``
    On the committing rank, just before the manifest rename.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: The recognised fault sites, in the order a phase visits them.
FAULT_SITES = ("phase_start", "mid_phase", "shard_written", "pre_commit")


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never raised in production)."""

    def __init__(self, site: str, rank: int, at: int):
        super().__init__(
            f"injected fault: rank {rank} killed at {site} of phase {at}"
        )
        self.site = site
        self.rank = rank
        self.at = at


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    site: str
    at: int
    rank: int | None = None  # None: every rank (a whole-job failure)
    action: str = "kill"  # "kill" | "stall"
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}"
            )
        if self.action not in ("kill", "stall"):
            raise ValueError(f"action must be 'kill' or 'stall', got {self.action!r}")
        if self.action == "stall" and self.stall_seconds <= 0:
            raise ValueError("a stall fault needs stall_seconds > 0")

    def matches(self, site: str, rank: int, at: int) -> bool:
        return (
            site == self.site
            and at == self.at
            and (self.rank is None or rank == self.rank)
        )


@dataclass
class FaultPlan:
    """A deterministic schedule of faults, shared across rank threads.

    ``fired`` records every spec that triggered (list append is atomic
    under the GIL; tests read it after the run joins).
    """

    specs: list[FaultSpec] = field(default_factory=list)
    fired: list[tuple[str, int, int]] = field(default_factory=list)

    # ------------------------------------------------------- construction
    @classmethod
    def kill_job(cls, phase: int, *, site: str = "phase_start") -> "FaultPlan":
        """Every rank dies at *phase* — the MPI fail-stop model: one node
        dropping out takes the whole job with it."""
        return cls([FaultSpec(site=site, at=phase)])

    @classmethod
    def kill_rank(
        cls, rank: int, phase: int, *, site: str = "phase_start"
    ) -> "FaultPlan":
        """Only *rank* dies (its peers will block until their transport
        times out — use short timeouts when testing this mode)."""
        return cls([FaultSpec(site=site, at=phase, rank=rank)])

    @classmethod
    def stall_writer(
        cls, rank: int, step: int, seconds: float
    ) -> "FaultPlan":
        """Rank *rank*'s shard write at *step* takes *seconds* longer."""
        return cls(
            [
                FaultSpec(
                    site="shard_written",
                    at=step,
                    rank=rank,
                    action="stall",
                    stall_seconds=seconds,
                )
            ]
        )

    def also(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    # ------------------------------------------------------------- firing
    def fire(self, site: str, *, rank: int, at: int) -> None:
        """Called by the instrumented sites; raises or stalls per plan."""
        for spec in self.specs:
            if not spec.matches(site, rank, at):
                continue
            self.fired.append((site, rank, at))
            if spec.action == "stall":
                time.sleep(spec.stall_seconds)
            else:
                raise InjectedFault(site, rank, at)


# --------------------------------------------------- byte-level damage
def corrupt_file(
    path, *, offset: int | None = None, xor: int = 0xFF
) -> int:
    """Flip one byte of *path* in place (default: the middle byte);
    returns the offset damaged.  Deterministic — no ambient entropy."""
    from pathlib import Path

    path = Path(path)
    size = path.stat().st_size
    if size == 0:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    if offset is None:
        offset = size // 2
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside file of {size} bytes")
    # repro: allow[REP005] -- deliberate in-place damage: this helper exists
    # to simulate exactly the torn writes the atomic-io rule prevents
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ (xor & 0xFF) or 0x01]))
    return offset


def truncate_file(path, keep_bytes: int) -> int:
    """Cut *path* down to *keep_bytes* (simulates a crash mid-write on a
    non-atomic writer); returns the bytes removed."""
    from pathlib import Path

    path = Path(path)
    size = path.stat().st_size
    if not 0 <= keep_bytes < size:
        raise ValueError(
            f"keep_bytes must be in [0, {size}), got {keep_bytes}"
        )
    # repro: allow[REP005] -- deliberate truncation for fault-injection tests
    with open(path, "r+b") as fh:
        fh.truncate(keep_bytes)
    return size - keep_bytes
