import pytest

from repro.cluster.scenario import ClusterScenario
from repro.experiments.policy_grid import (
    policy_grid,
    policy_grid_table,
    policy_grid_to_csv,
    read_policy_grid_csv,
)


@pytest.fixture(scope="module")
def small_grid():
    scenarios = {
        "dedicated": ClusterScenario(workload="dedicated", phases=40),
        "1 slow": ClusterScenario(
            workload="fixed-slow", phases=40, params={"slow_nodes": [9]}
        ),
    }
    return policy_grid(scenarios, policies=("no-remap", "filtered"))


class TestPolicyGrid:
    def test_row_count(self, small_grid):
        assert len(small_grid) == 4

    def test_rows_complete(self, small_grid):
        for row in small_grid:
            assert row.total_time > 0
            assert row.final_max_planes >= 20

    def test_slow_scenario_slower_without_remap(self, small_grid):
        by_key = {(r.scenario, r.policy): r for r in small_grid}
        assert (
            by_key[("1 slow", "no-remap")].total_time
            > by_key[("dedicated", "no-remap")].total_time
        )

    def test_phase_override(self):
        rows = policy_grid(
            {"d": ClusterScenario(workload="dedicated", phases=999)},
            policies=("no-remap",),
            phases=20,
        )
        # 20 phases of ~0.42s.
        assert rows[0].total_time < 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            policy_grid({})
        with pytest.raises(ValueError):
            policy_grid({"d": ClusterScenario()}, policies=("sorcery",))


class TestTableAndCsv:
    def test_table_renders(self, small_grid):
        out = policy_grid_table(small_grid, title="demo")
        assert "demo" in out
        assert "filtered" in out

    def test_csv_round_trip(self, small_grid, tmp_path):
        path = tmp_path / "grid.csv"
        policy_grid_to_csv(small_grid, path)
        back = read_policy_grid_csv(path)
        assert len(back) == len(small_grid)
        for a, b in zip(small_grid, back):
            assert a.scenario == b.scenario
            assert a.policy == b.policy
            assert a.total_time == pytest.approx(b.total_time, abs=1e-3)

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            policy_grid_to_csv([], tmp_path / "x.csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="policy-grid CSV"):
            read_policy_grid_csv(path)
