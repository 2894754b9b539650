"""Sequential-solver checkpoints through :class:`CheckpointStore`:
bitwise round trip, continued runs, and rejection of a checkpoint
written under different physics."""

import dataclasses

import numpy as np
import pytest

from repro.ckpt import CheckpointStore, IncompatibleCheckpointError
from repro.lbm.components import ComponentSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.solver import MulticomponentLBM


@pytest.fixture
def solver(two_component_config):
    s = MulticomponentLBM(two_component_config)
    s.run(25)
    return s


@pytest.fixture
def store(tmp_path, solver):
    store = CheckpointStore(tmp_path / "ckpt")
    store.save_solver(solver)
    return store


def _restored(store, config):
    fresh = MulticomponentLBM(config)
    assert store.restore_solver(fresh) is not None
    return fresh


class TestRoundTrip:
    def test_state_restored_bitwise(self, solver, store, two_component_config):
        fresh = _restored(store, two_component_config)
        assert np.array_equal(fresh.f, solver.f)
        assert np.array_equal(fresh.rho, solver.rho)
        assert np.array_equal(fresh.u_eq, solver.u_eq)
        assert np.array_equal(fresh.force, solver.force)

    def test_continued_run_identical(self, solver, store, two_component_config):
        """Run A->B directly vs checkpoint at A, restore, run to B."""
        solver.run(15)
        restored = _restored(store, two_component_config)
        restored.run(15)
        assert np.array_equal(solver.f, restored.f)

    def test_step_count_restored(self, store, two_component_config):
        assert _restored(store, two_component_config).step_count == 25


class TestCompatibility:
    def _assert_rejected(self, store, config):
        other = MulticomponentLBM(config)
        with pytest.raises(IncompatibleCheckpointError):
            store.restore_solver(other)

    def test_wrong_grid_rejected(self, store, two_component_config):
        geo = ChannelGeometry(shape=(14, 18), wall_axes=(1,))
        self._assert_rejected(
            store, dataclasses.replace(two_component_config, geometry=geo)
        )

    def test_wrong_components_rejected(self, store, two_component_config):
        self._assert_rejected(
            store,
            dataclasses.replace(
                two_component_config,
                components=(ComponentSpec("water", tau=1.0),),
                g_matrix=np.zeros((1, 1)),
            ),
        )

    def test_wrong_tau_rejected(self, store, two_component_config):
        water, air = two_component_config.components
        comps = (dataclasses.replace(water, tau=water.tau + 0.1), air)
        self._assert_rejected(
            store, dataclasses.replace(two_component_config, components=comps)
        )
