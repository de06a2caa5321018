"""Tests for the Fig. 3 CPU-reference machine."""

import numpy as np

from repro.core.gmres import gmres
from repro.gpu.context import MultiGpuContext
from repro.matrices import cant, poisson2d
from repro.perf.machine import cpu_reference_node, keeneland_node


class TestCpuReferenceNode:
    def test_single_device(self):
        spec = cpu_reference_node()
        assert spec.n_gpus == 1

    def test_device_rates_are_cpu_rates(self):
        spec = cpu_reference_node()
        base = keeneland_node(1)
        assert spec.gpu.peak_gflops == base.cpu.peak_gflops
        assert spec.gpu.mem_bandwidth == base.cpu.mem_bandwidth

    def test_interconnect_is_shared_memory(self):
        spec = cpu_reference_node()
        assert spec.pcie.latency < 1e-6
        assert not spec.pcie.shared_bus

    def test_solver_runs_on_cpu_reference(self):
        A = poisson2d(10)
        b = np.ones(A.n_rows)
        ctx = MultiGpuContext(1, machine=cpu_reference_node())
        r = gmres(A, b, ctx=ctx, m=15, tol=1e-6)
        assert r.converged

    def test_gpu_beats_cpu_on_large_matrix(self):
        """Fig. 3's premise: one M2090 out-streams the 16-core host."""
        A = cant(nx=48, ny=10, nz=10)
        b = np.ones(A.n_rows)
        ctx_cpu = MultiGpuContext(1, machine=cpu_reference_node())
        r_cpu = gmres(A, b, ctx=ctx_cpu, m=20, tol=1e-14, max_restarts=1)
        r_gpu = gmres(A, b, n_gpus=1, m=20, tol=1e-14, max_restarts=1)
        assert r_gpu.time_per_restart() < r_cpu.time_per_restart()

    def test_same_numerics_on_both_machines(self):
        A = poisson2d(8)
        b = np.ones(A.n_rows)
        ctx_cpu = MultiGpuContext(1, machine=cpu_reference_node())
        r_cpu = gmres(A, b, ctx=ctx_cpu, m=12, tol=1e-8)
        r_gpu = gmres(A, b, n_gpus=1, m=12, tol=1e-8)
        assert r_cpu.n_iterations == r_gpu.n_iterations
        np.testing.assert_allclose(r_cpu.x, r_gpu.x, atol=1e-12)
