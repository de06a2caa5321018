"""The benchmark's workloads and the measurements made on them.

Every workload serves CA-GMRES requests from one client in a closed loop:
one process, one thread, the next request sent once the previous one has
returned.  The program sees only the right-hand sides generated here from
the workload seed.  Every answer is checked against the caller's matrix in
its original ordering.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import matrices
from repro.serve import PlanCache, SolverSession

from spans import (
    DRIVER,
    SETUP_LAYERS,
    SETUP_PROBES,
    SOLVE_LAYERS,
    SOLVE_PROBES,
    Tracer,
    driver_seconds,
    layer_totals,
    median_count,
)

#: Tolerance of the requests solved to tolerance, checked as
#: ||b - A x|| / ||b|| on the caller's system.
TOL = 1e-4
#: Fixed-work requests: a tolerance no capped request reaches.
UNREACHABLE_TOL = 1e-12
N_GPUS = 3
SETUP_REPEATS = 5
#: Right-hand sides answered untimed before the timed loop.
WARMUP_RHS = 1
TRACED_SETUP_REPEATS = 3
#: Restart cap of the fixed-work requests and of the GMRES baseline.
FIXED_RESTARTS = 4
#: Simulated regions (``details["profile"]``) and the layer each belongs to.
REGION_LAYERS = {
    "mpk": "mpk",
    "borth": "orth.borth",
    "tsqr": "orth.tsqr",
    "spmv": "dist.spmv",
    "orth": "orth.single",
    "lsq": "core.lsq",
    "update": "core.update",
}


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: str
    matrix_kwargs: dict
    session: dict  # SolverSession arguments of the CA-GMRES requests
    batch: int  # RHS per request; more than one goes through solve_many
    ceiling: float | None  # residual ceiling of fixed work; None: solve to TOL
    baseline_ceiling: float  # residual ceiling of the GMRES baseline request

    @property
    def mpk_lengths(self) -> list[int]:
        m, s = self.session["m"], self.session["s"]
        return sorted({s, m % s} - {0})


_G3_SESSION = dict(
    solver="ca", n_gpus=N_GPUS, ordering="kway", m=30, s=15, basis="newton",
    tsqr_method="cholqr", tol=TOL,
)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("g3-solve", "g3_circuit", {"nx": 256}, _G3_SESSION, 1, None, 0.02),
        Workload(
            "cant-restart", "cant", {"nx": 64, "ny": 12, "nz": 12},
            dict(
                solver="ca", n_gpus=N_GPUS, ordering="natural", m=60, s=15,
                basis="newton", tsqr_method="cholqr", reorth=2,
                tol=UNREACHABLE_TOL, max_restarts=FIXED_RESTARTS,
            ),
            1, 0.2, 0.2,
        ),
        Workload("g3-batch", "g3_circuit", {"nx": 256}, _G3_SESSION, 3, None, 0.02),
    )
}


def relative_residual(A, b: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(b - A.matvec(x)) / np.linalg.norm(b))


def answer_ok(A, b: np.ndarray, result, ceiling: float | None) -> bool:
    """A request solved to TOL must report convergence and meet TOL; a
    fixed-work request must return a finite ``x`` under ``ceiling``."""
    if not np.all(np.isfinite(result.x)):
        return False
    residual = relative_residual(A, b, result.x)
    if ceiling is None:
        return bool(result.converged) and residual <= TOL
    return residual <= ceiling


def failed_frac(failed: int, attempted: int) -> float:
    return failed / attempted


def simulated(results) -> dict[str, float]:
    """Simulated-clock figures per RHS of one request.

    The results of one ``solve_many`` batch all describe the batch's single
    interleaved timeline, so the first one carries the whole request.
    """
    first, n = results[0], len(results)
    profile = first.details["profile"]
    restarts = sum(r.n_restarts for r in results)
    out = {
        "sim_ms_per_solve": 1e3 * first.total_time / n,
        "sim_ms_per_restart": 1e3 * first.total_time / restarts,
    }
    regions = profile["regions"]
    for region, layer in REGION_LAYERS.items():
        out[f"{layer}.sim_ms"] = 1e3 * regions.get(region, {}).get("exclusive", 0.0) / n
    transfers = profile["transfers"]
    out["gpu.pcie.d2h_msgs"] = transfers["d2h"]["count"] / n
    out["gpu.pcie.h2d_msgs"] = transfers["h2d"]["count"] / n
    out["gpu.pcie.bytes"] = (transfers["h2d"]["bytes"] + transfers["d2h"]["bytes"]) / n
    out["gpu.pcie.busy_ms"] = 1e3 * profile["bus"]["busy_time"] / n
    out["gpu.kernel_launches"] = first.counters["kernel_launches"] / n
    out["core.restarts"] = restarts / n
    out["core.iterations"] = sum(r.n_iterations for r in results) / n
    out["core.breakdowns"] = sum(r.breakdowns for r in results) / n
    return out


@dataclass
class Request:
    n_rhs: int  # right-hand sides sent
    wall: float = 0.0  # host seconds from send to return
    sim: dict | None = None  # simulated figures; None if the request raised
    xs: list = field(default_factory=list)  # answers, kept to compare twins


class Bench:
    """One workload on one seed: plan builds, requests and answer checks."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.A = getattr(matrices, workload.matrix)(**workload.matrix_kwargs)
        self._rhs = np.random.default_rng([seed, 0])
        self._baseline_rhs = np.random.default_rng([seed, 1])
        self.attempted = 0
        self.failed = 0

    def draw(self) -> list[np.ndarray]:
        """One request's right-hand sides: nonnegative seeded loads."""
        return [self._rhs.random(self.A.n_rows) for _ in range(self.workload.batch)]

    def build(self) -> SolverSession:
        """Plan on a fresh cache: the session, its plan and its MPK closures."""
        session = SolverSession(self.A, cache=PlanCache(), **self.workload.session)
        session.plan.ensure_mpk(self.workload.mpk_lengths)
        return session

    def setup(self, repeats: int, tracer: Tracer | None = None):
        """Build the plan ``repeats`` times; returns the last session and
        the host seconds of every build."""
        session, times = None, []
        for _ in range(repeats):
            # Free the previous plan (its cache and plan refer to each other,
            # so only the cycle collector frees them) outside the timing.
            session = None
            gc.collect()
            start = time.perf_counter()
            if tracer is None:
                session = self.build()
            else:
                with tracer.patched(SETUP_PROBES):
                    session = self.build()
            times.append(time.perf_counter() - start)
        return session, times

    def request(self, session: SolverSession, bs, keep_x: bool = False,
                ceiling: float | None = None) -> Request:
        """Send one request and check its answers; ``ceiling`` defaults to
        the workload's."""
        if ceiling is None:
            ceiling = self.workload.ceiling
        req = Request(len(bs))
        self.attempted += len(bs)
        start = time.perf_counter()
        try:
            if len(bs) == 1:
                results = [session.solve(bs[0])]
            else:
                results = session.solve_many(bs)
        except Exception:  # a request that raises is a failed request
            req.wall = time.perf_counter() - start
            self.failed += len(bs)
            traceback.print_exc(file=sys.stderr)
            return req
        req.wall = time.perf_counter() - start
        self.failed += sum(
            not answer_ok(self.A, b, r, ceiling)
            for b, r in zip(bs, results)
        )
        req.sim = simulated(results)
        if keep_x:
            req.xs = [r.x for r in results]
        return req

    def warm_up(self, session) -> None:
        """Untimed requests (answers still checked) before the timed loop."""
        for _ in range(-(-WARMUP_RHS // self.workload.batch)):
            self.request(session, self.draw())
        gc.collect()

    def serve(self, session, seconds: float) -> list[Request]:
        """Closed loop of fresh requests until ``seconds`` have passed."""
        done: list[Request] = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            done.append(self.request(session, self.draw()))
        return done

    def serve_pairs(self, session, seconds: float, tracer: Tracer):
        """Closed loop in which every fresh request is sent twice: untraced
        and with every solve probe on, in alternating order so that drift of
        the machine's speed falls on both alike.

        Returns the untraced and the traced requests, and whether every
        traced answer and simulated figure equals its untraced twin byte for
        byte.
        """
        plain: list[Request] = []
        traced: list[Request] = []
        inert = True
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            bs = self.draw()
            tracer.request = len(traced)

            def with_probes():
                with tracer.patched(SOLVE_PROBES):
                    return self.request(session, bs, keep_x=True)

            if len(plain) % 2:
                b = with_probes()
                a = self.request(session, bs, keep_x=True)
            else:
                a = self.request(session, bs, keep_x=True)
                b = with_probes()
            inert = inert and a.sim == b.sim and len(a.xs) == len(b.xs) and all(
                x.tobytes() == y.tobytes() for x, y in zip(a.xs, b.xs)
            )
            a.xs = b.xs = []
            plain.append(a)
            traced.append(b)
        return plain, traced, inert

    def baseline(self) -> float:
        """One GMRES(m)-CGS request capped like the fixed-work requests;
        returns its simulated ms per restart (the paper's baseline row)."""
        w = self.workload
        session = SolverSession(
            self.A, solver="gmres", n_gpus=N_GPUS, ordering=w.session["ordering"],
            m=w.session["m"], orth_method="cgs", tol=UNREACHABLE_TOL,
            max_restarts=FIXED_RESTARTS, cache=PlanCache(),
        )
        req = self.request(
            session, [self._baseline_rhs.random(self.A.n_rows)],
            ceiling=w.baseline_ceiling,
        )
        return req.sim["sim_ms_per_restart"] if req.sim is not None else 0.0


def _sim_unit(key: str) -> str:
    if key.endswith("_ms"):
        return "sim_ms"
    return "B" if key.endswith("bytes") else "count"


def _timed(requests: list[Request]) -> list[Request]:
    return [r for r in requests if r.sim is not None]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float):
    """The untraced run: every end-to-end metric, plus sample counts.

    Returns the bench (attempted/failed counts), ``{name: (value, unit)}``
    and the sample counts.
    """
    bench = Bench(WORKLOADS[name], seed)
    session, setup_times = bench.setup(SETUP_REPEATS)
    gmres_per_restart = bench.baseline()
    bench.warm_up(session)
    timed = _timed(bench.serve(session, seconds))
    rhs = sum(r.n_rhs for r in timed)
    setup_s, n_setup = median_count(setup_times)
    p50, n_req = median_count(r.wall for r in timed)
    metrics = {
        "setup_s": (setup_s, "s"),
        "solve_p50_s": (p50, "s"),
        "solves_per_s": (rhs / sum(r.wall for r in timed), "1/s"),
        "sim_ms_per_solve": (median_count(r.sim["sim_ms_per_solve"] for r in timed)[0], "sim_ms"),
        "sim_ms_per_restart": (
            median_count(r.sim["sim_ms_per_restart"] for r in timed)[0], "sim_ms",
        ),
        "gmres_sim_ms_per_restart": (gmres_per_restart, "sim_ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
    samples = {
        "setup_builds": n_setup,
        "requests": n_req,
        "rhs": rhs,
        "failed_frac": failed_frac(bench.failed, bench.attempted),
    }
    return bench, metrics, samples


def per_layer(name: str, seed: int, seconds: float):
    """The traced run: host self time per layer and the simulated breakdown.

    Every request is sent untraced and traced (see :meth:`Bench.serve_pairs`);
    the traced one must return byte-identical answers and simulated figures,
    and every patched attribute must be its original object afterwards
    (``samples["inert"]`` and ``samples["restored"]``).
    """
    bench = Bench(WORKLOADS[name], seed)
    setup_tracer, solve_tracer = Tracer(), Tracer()
    session, setup_times = bench.setup(TRACED_SETUP_REPEATS, setup_tracer)
    bench.warm_up(session)
    plain, traced, inert = bench.serve_pairs(session, seconds, solve_tracer)
    restored = setup_tracer.all_restored() and solve_tracer.all_restored()

    metrics: dict[str, tuple[float, str]] = {}
    builds = len(setup_times)
    setup = layer_totals(setup_tracer.spans)
    for layer in SETUP_LAYERS:
        seconds_, calls = setup.get(layer, (0.0, 0))
        metrics[f"{layer}.host_ms"] = (1e3 * seconds_ / builds, "ms")
        metrics[f"{layer}.calls"] = (calls / builds, "count")

    rhs = sum(r.n_rhs for r in traced)
    wall = sum(r.wall for r in traced)
    spans = solve_tracer.spans
    solve = layer_totals(spans)
    for layer in SOLVE_LAYERS:
        seconds_, calls = solve.get(layer, (0.0, 0))
        metrics[f"{layer}.host_ms"] = (1e3 * seconds_ / rhs, "ms")
        metrics[f"{layer}.calls"] = (calls / rhs, "count")
    metrics[f"{DRIVER}.host_ms"] = (1e3 * driver_seconds(wall, spans) / rhs, "ms")
    metrics[f"{DRIVER}.calls"] = (len(traced) / rhs, "count")
    p50_plain = median_count(r.wall for r in plain)[0]
    p50_traced = median_count(r.wall for r in traced)[0]
    metrics["trace.overhead_frac"] = (p50_traced / p50_plain - 1.0, "frac")

    sims = [r.sim for r in _timed(plain)]
    for key in sims[0]:
        if key.startswith("sim_ms_per_"):
            continue
        metrics[key] = (median_count(s[key] for s in sims)[0], _sim_unit(key))
    stats = session.stats()
    metrics["serve.plan_hits"] = (stats["plan_hits"], "count")
    metrics["serve.plan_misses"] = (stats["plan_misses"], "count")
    device_bytes = sum(session.plan.device_memory_bytes())
    metrics["serve.plan_device_mb"] = (device_bytes / 2**20, "MiB")
    samples = {
        "setup_builds": builds,
        "requests": len(traced),
        "rhs": rhs,
        "inert": inert,
        "restored": restored,
        "failed_frac": failed_frac(bench.failed, bench.attempted),
    }
    return bench, metrics, samples
