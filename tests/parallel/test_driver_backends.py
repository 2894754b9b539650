"""The parallel driver must produce identical physics under either
kernel backend: bitwise-equal to the matching sequential solver, and
within 1e-12 of the reference backend (same slip profiles)."""

import dataclasses

import numpy as np
import pytest

from repro.api import RunSpec, run
from repro.core.policies import RemappingConfig
from repro.lbm.components import ComponentSpec
from repro.lbm.diagnostics import slip_fraction, velocity_profile
from repro.lbm.forces import WallForceSpec
from repro.lbm.geometry import ChannelGeometry
from repro.lbm.lattice import D2Q9
from repro.lbm.solver import LBMConfig, MulticomponentLBM


def small_config(backend):
    geo = ChannelGeometry(shape=(20, 14), wall_axes=(1,))
    return LBMConfig(
        geometry=geo,
        components=(
            ComponentSpec("water", tau=1.0, rho_init=1.0),
            ComponentSpec("air", tau=1.0, rho_init=0.03),
        ),
        g_matrix=np.array([[0.0, 0.9], [0.9, 0.0]]),
        lattice=D2Q9,
        wall_force=WallForceSpec(amplitude=0.03),
        body_acceleration=(1e-6, 0.0),
        backend=backend,
    )


def solver_with_state(config, f):
    """A sequential solver carrying the assembled parallel state (for
    running the profile diagnostics on a parallel result)."""
    solver = MulticomponentLBM(config)
    solver.f[:] = f
    solver.update_moments_and_forces()
    return solver


class TestParallelBackends:
    @pytest.mark.parametrize("backend", ["reference", "fused", "batched"])
    def test_matches_sequential_bitwise(self, backend):
        cfg = small_config(backend)
        seq = MulticomponentLBM(cfg)
        seq.run(25)
        f = run(RunSpec(config=cfg, phases=25, ranks=3, policy="no-remap")).f
        assert np.array_equal(f, seq.f)

    def test_fused_matches_reference(self):
        kw = dict(phases=25, ranks=3, policy="no-remap")
        ref = run(RunSpec(config=small_config("reference"), **kw)).f
        fused = run(RunSpec(config=small_config("fused"), **kw)).f
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_fused_survives_migration(self):
        """Plane migration resizes the slabs; the backend must be rebuilt
        with the new shapes and still match the sequential run bitwise."""
        cfg = small_config("fused")
        seq = MulticomponentLBM(cfg)
        seq.run(40)

        def slow_rank(rank, phase, points):
            t = points * 1e-6
            return t / 0.35 if rank == 1 else t

        f = run(RunSpec(
            config=cfg, phases=40, ranks=4,
            policy="filtered",
            remap_config=RemappingConfig(interval=5, history=5),
            load_time_fn=slow_rank,
        )).f
        assert np.array_equal(f, seq.f)

    def test_identical_slip_profiles(self):
        profiles = {}
        for backend in ("reference", "fused"):
            cfg = small_config(backend)
            f = run(
                RunSpec(config=cfg, phases=60, ranks=2, policy="no-remap")
            ).f
            carrier = solver_with_state(cfg, f)
            profiles[backend] = velocity_profile(carrier)
        ref, fused = profiles["reference"], profiles["fused"]
        np.testing.assert_array_equal(ref.positions, fused.positions)
        np.testing.assert_allclose(
            fused.values, ref.values, rtol=0.0, atol=1e-12
        )
        assert slip_fraction(fused) == pytest.approx(
            slip_fraction(ref), abs=1e-9
        )
