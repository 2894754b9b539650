"""Policy grid: run every cluster scenario under every remapping policy
and tabulate/export the results.

Used for custom studies beyond the paper's figures::

    from repro.cluster.scenario import ClusterScenario
    from repro.experiments.policy_grid import policy_grid, policy_grid_to_csv

    rows = policy_grid(
        scenarios={
            f"{k} slow": ClusterScenario(params={"slow_nodes": list(range(k))})
            for k in (1, 2, 3)
        },
        policies=("no-remap", "filtered"),
        phases=600,
    )
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from pathlib import Path

from repro.ckpt.io import atomic_open
from repro.cluster.scenario import ClusterScenario
from repro.core.policies import POLICY_NAMES
from repro.util.tables import format_table


@dataclass(frozen=True)
class PolicyGridRow:
    """One (scenario, policy) measurement."""

    scenario: str
    policy: str
    total_time: float
    planes_moved: int
    final_max_planes: int


def policy_grid(
    scenarios: Mapping[str, ClusterScenario],
    policies: Iterable[str] = POLICY_NAMES,
    *,
    phases: int | None = None,
) -> list[PolicyGridRow]:
    """Run every scenario under every policy.

    *phases*, when given, overrides each scenario's phase count.
    """
    if not scenarios:
        raise ValueError("need at least one scenario")
    rows: list[PolicyGridRow] = []
    for label, scenario in scenarios.items():
        for policy in policies:
            if policy not in POLICY_NAMES:
                raise ValueError(f"unknown policy {policy!r}")
            configured = replace(
                scenario,
                policy=policy,
                phases=phases if phases is not None else scenario.phases,
            )
            result = configured.run()
            rows.append(
                PolicyGridRow(
                    scenario=label,
                    policy=policy,
                    total_time=result.total_time,
                    planes_moved=result.planes_moved,
                    final_max_planes=max(result.final_plane_counts),
                )
            )
    return rows


def policy_grid_table(
    rows: list[PolicyGridRow], *, title: str | None = None
) -> str:
    """Render policy-grid rows as an ASCII table."""
    return format_table(
        ["scenario", "policy", "total (s)", "planes moved", "max planes"],
        [
            (r.scenario, r.policy, r.total_time, r.planes_moved, r.final_max_planes)
            for r in rows
        ],
        title=title,
        float_fmt="{:.1f}",
    )


def policy_grid_to_csv(rows: list[PolicyGridRow], path: str | Path) -> None:
    """Export policy-grid rows to CSV."""
    if not rows:
        raise ValueError("no rows to export")
    with atomic_open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "policy", "total_time_s", "planes_moved", "max_planes"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.scenario,
                    r.policy,
                    f"{r.total_time:.3f}",
                    r.planes_moved,
                    r.final_max_planes,
                ]
            )


def read_policy_grid_csv(path: str | Path) -> list[PolicyGridRow]:
    """Read back a CSV written by :func:`policy_grid_to_csv`."""
    rows: list[PolicyGridRow] = []
    with open(Path(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != [
            "scenario",
            "policy",
            "total_time_s",
            "planes_moved",
            "max_planes",
        ]:
            raise ValueError(
                f"not a policy-grid CSV: header {reader.fieldnames}"
            )
        for record in reader:
            rows.append(
                PolicyGridRow(
                    scenario=record["scenario"],
                    policy=record["policy"],
                    total_time=float(record["total_time_s"]),
                    planes_moved=int(record["planes_moved"]),
                    final_max_planes=int(record["max_planes"]),
                )
            )
    return rows
