"""``batched`` backend tests: in single-scenario mode (batch=None) it
must be **bit-identical** (``np.array_equal``, not allclose) to the
``reference`` backend — the contract that makes it a drop-in
replacement — and it must reject configurations its stacked streaming
plan cannot compute.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.lbm.backends import (
    BatchedBackend,
    available_backends,
    get_backend_class,
)
from repro.lbm.lattice import D2Q9, Lattice
from repro.lbm.solver import MulticomponentLBM

from .test_backends import DIFF_MATRIX, _pair, two_component_config


class TestRegistry:
    def test_portable_backends_registered(self):
        assert "batched" in available_backends()

    def test_get_backend_class(self):
        assert get_backend_class("batched") is BatchedBackend

    def test_solver_builds_portable_backends(self):
        cfg = two_component_config(D2Q9, backend="batched")
        solver = MulticomponentLBM(cfg)
        assert type(solver.backend) is BatchedBackend


class TestBitIdentical:
    """``batched`` is *exactly* the reference computation — not within
    a tolerance, the same bits."""

    @pytest.mark.parametrize("backend", ["batched"])
    @pytest.mark.parametrize(
        "lattice,scenario",
        DIFF_MATRIX,
        ids=[f"{lat.name}-{s}" for lat, s in DIFF_MATRIX],
    )
    def test_full_run_bitwise(self, backend, lattice, scenario):
        ref, other = _pair(lattice, scenario, backend)
        ref.run(15)
        other.run(15)
        assert np.array_equal(other.f, ref.f)
        assert np.array_equal(other.rho, ref.rho)
        assert np.array_equal(other.u_eq, ref.u_eq)
        assert np.array_equal(other.force, ref.force)

    @pytest.mark.parametrize("backend", ["batched"])
    def test_wall_momentum_bitwise(self, backend):
        ref, other = _pair(D2Q9, "obstacles", backend)
        ref.track_wall_momentum = other.track_wall_momentum = True
        ref.run(10)
        other.run(10)
        assert np.array_equal(other.last_wall_momentum, ref.last_wall_momentum)


class TestBatchedConstraints:
    def test_large_stencil_lattice_rejected(self):
        # The batched streaming plan assumes |c| <= 1 per axis; a lattice
        # violating that must be rejected at construction, not silently
        # miscomputed.  Both builtin lattices satisfy it today, so fake
        # a wide-stencil lattice.
        cfg = two_component_config(D2Q9, backend="batched")
        shape = cfg.geometry.shape
        solid = cfg.geometry.solid_mask()
        wide = Lattice("D2Q9-wide", D2Q9.c * 2, D2Q9.w)
        bad = dataclasses.replace(cfg, lattice=wide)
        with pytest.raises(ValueError, match="single-link"):
            BatchedBackend(bad, shape, solid)

    def test_batch_size_must_be_positive(self):
        cfg = two_component_config(D2Q9, backend="batched")
        with pytest.raises(ValueError, match="batch"):
            BatchedBackend(
                cfg, cfg.geometry.shape, cfg.geometry.solid_mask(), batch=0
            )
