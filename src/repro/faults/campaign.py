"""Fault-injection campaigns: repeated solves under a seeded fault plan.

A campaign runs ``trials`` independent solves of one problem/solver
configuration, each with its own deterministic :class:`FaultPlan` (trial
``i`` uses ``seed + i``), and aggregates what was injected, detected,
recovered, and lost.  Everything — fault schedules, numerics, simulated
timings — is a pure function of the configuration, so the same seed
reproduces the identical campaign dict, byte for byte.

This module imports the solvers, so it is *not* re-exported from
:mod:`repro.faults` (which the GPU layer imports); pull it in explicitly::

    from repro.faults.campaign import run_campaign, campaign_tables
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .injector import fault_report
from .plan import DEFAULT_KINDS, FaultPlan

__all__ = ["run_campaign", "run_trial", "campaign_tables", "make_session"]


#: Campaign solver name -> :class:`~repro.serve.SolverSession` solver.
_SESSION_SOLVERS = {"gmres": "gmres", "ca_gmres": "ca", "pipelined": "pipelined"}


def _problems() -> dict:
    from ..matrices.stencil import convection_diffusion2d, poisson2d, poisson3d

    return {
        "poisson2d": poisson2d,
        "poisson3d": poisson3d,
        "convdiff2d": convection_diffusion2d,
    }


def make_session(
    solver: str = "ca_gmres",
    problem: str = "poisson2d",
    nx: int = 30,
    n_gpus: int = 2,
    s: int = 5,
    m: int = 20,
    tol: float = 1e-6,
    max_restarts: int = 80,
    metrics=None,
):
    """One :class:`~repro.serve.SolverSession` for a whole campaign.

    ``solver`` is ``"gmres"``, ``"ca_gmres"`` or ``"pipelined"``; ``s``
    applies to ``"ca_gmres"`` only.  The
    session's structural plan (partition, distributed matrix, MPK closure,
    exchange index sets) is computed once and shared by every trial;
    :meth:`~repro.serve.SolverSession.arm_fault_plan` swaps the fault
    schedule between trials on the long-lived context.  ``metrics`` (a
    :class:`~repro.metrics.registry.MetricsRegistry`) makes the session
    record serving + solve telemetry labeled with ``problem``.
    """
    from ..serve import SolverSession

    if solver not in _SESSION_SOLVERS:
        raise ValueError(
            f"unknown solver {solver!r}; choose from {tuple(_SESSION_SOLVERS)}"
        )
    return SolverSession(
        _problems()[problem](nx), solver=_SESSION_SOLVERS[solver],
        n_gpus=n_gpus, m=m, s=s if solver == "ca_gmres" else None, tol=tol,
        max_restarts=max_restarts, metrics=metrics, metrics_label=problem,
    )


def run_trial(
    solver: str = "ca_gmres",
    problem: str = "poisson2d",
    nx: int = 30,
    n_gpus: int = 2,
    seed: int = 0,
    rate: float = 1e-3,
    kinds: tuple = DEFAULT_KINDS,
    s: int = 5,
    m: int = 20,
    tol: float = 1e-6,
    max_restarts: int = 80,
    stall_factor: float = 8.0,
    max_faults: int | None = None,
    degrade: bool = False,
    deadline: float | None = None,
    session=None,
    metrics=None,
) -> dict:
    """One solve under one fault plan; returns a flat record.

    With ``degrade`` the solve runs under a default
    :class:`~repro.core.degrade.DegradePolicy`: device dropouts are
    absorbed by repartitioning over the survivors instead of aborting.
    ``deadline`` sets a simulated-time budget in seconds.  The solve runs
    on ``session`` (see :func:`make_session`), reusing its cached
    structural plan and context; without one, the trial builds its own
    from the problem arguments and ``metrics``, which then records the
    solve's serving, runtime, convergence and fault telemetry.  The record
    is byte-identical either way.
    """
    from ..core.degrade import DegradePolicy

    if session is None:
        session = make_session(
            solver=solver, problem=problem, nx=nx, n_gpus=n_gpus, s=s, m=m,
            tol=tol, max_restarts=max_restarts, metrics=metrics,
        )
    plan = FaultPlan.from_rate(
        seed, rate, kinds=kinds, stall_factor=stall_factor, max_faults=max_faults
    )
    overrides = {}
    if degrade:
        overrides["degrade"] = DegradePolicy()
    if deadline is not None:
        overrides["deadline"] = deadline
    session.arm_fault_plan(plan)
    b = np.ones(session.matrix.n_rows)
    # Poisoned values legitimately flow through a few kernels before a
    # guard catches them; silence the resulting NumPy warnings locally.
    with np.errstate(invalid="ignore", over="ignore"):
        result = session.solve(b, **overrides)
    faults = result.details.get("faults") or fault_report()
    degradation = result.details.get("degradation")
    injected_by_kind = dict(Counter(r["kind"] for r in faults["injected"]))
    recoveries_by_action = dict(Counter(r["action"] for r in faults["recovered"]))
    return {
        "seed": seed,
        "converged": bool(result.converged),
        "restarts": int(result.n_restarts),
        "iterations": int(result.n_iterations),
        "sim_time_ms": 1e3 * result.total_time,
        "injected": faults["counts"]["injected"],
        "detected": faults["counts"]["detected"],
        "recovered": faults["counts"]["recovered"],
        "unrecovered": faults["counts"]["unrecovered"],
        "injected_by_kind": injected_by_kind,
        "recoveries_by_action": recoveries_by_action,
        "lost_devices": list(faults["lost_devices"]),
        "aborted": bool(faults["aborted"]),
        "schedule": [
            (r["site"], r["kind"], r["index"]) for r in faults["injected"]
        ],
        "repartitions": 0 if degradation is None else degradation["n_repartitions"],
        "final_devices": (
            n_gpus if degradation is None else degradation["final_devices"]
        ),
        "deadline_exceeded": (
            False if degradation is None else bool(degradation["deadline_exceeded"])
        ),
    }


def run_campaign(
    solver: str = "ca_gmres",
    problem: str = "poisson2d",
    nx: int = 30,
    n_gpus: int = 2,
    seed: int = 0,
    rate: float = 1e-3,
    kinds: tuple = DEFAULT_KINDS,
    trials: int = 3,
    s: int = 5,
    m: int = 20,
    tol: float = 1e-6,
    max_restarts: int = 80,
    stall_factor: float = 8.0,
    max_faults: int | None = None,
    degrade: bool = False,
    deadline: float | None = None,
    metrics=None,
) -> dict:
    """Run ``trials`` solves (trial ``i`` seeded ``seed + i``); aggregate.

    Returns a JSON-friendly dict with the configuration, per-trial
    records (:func:`run_trial`), and campaign totals.  Deterministic:
    identical arguments produce an identical dict.  ``degrade`` and
    ``deadline`` are forwarded to every trial (see :func:`run_trial`).
    All trials share one :class:`~repro.serve.SolverSession` (structural
    plan computed once, fault plans re-armed per trial); the per-trial
    records are byte-identical to a fresh session per trial, and the
    ``"serving"`` key holds the session's plan-cache stats.  ``metrics``
    aggregates every trial's telemetry into one registry, through the
    session — the ``--metrics-out`` CLI flag writes it as a JSON snapshot.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    config = {
        "solver": solver, "problem": problem, "nx": nx, "n_gpus": n_gpus,
        "seed": seed, "rate": rate, "kinds": list(kinds), "trials": trials,
        "s": s, "m": m, "tol": tol, "max_restarts": max_restarts,
        "stall_factor": stall_factor, "max_faults": max_faults,
        "degrade": degrade, "deadline": deadline,
    }
    session = make_session(
        solver=solver, problem=problem, nx=nx, n_gpus=n_gpus,
        s=s, m=m, tol=tol, max_restarts=max_restarts, metrics=metrics,
    )
    records = [
        run_trial(
            solver=solver, problem=problem, nx=nx, n_gpus=n_gpus,
            seed=seed + i, rate=rate, kinds=kinds, s=s, m=m, tol=tol,
            max_restarts=max_restarts, stall_factor=stall_factor,
            max_faults=max_faults, degrade=degrade, deadline=deadline,
            session=session,
        )
        for i in range(trials)
    ]
    by_kind: Counter = Counter()
    by_action: Counter = Counter()
    for r in records:
        by_kind.update(r["injected_by_kind"])
        by_action.update(r["recoveries_by_action"])
    totals = {
        "injected": sum(r["injected"] for r in records),
        "detected": sum(r["detected"] for r in records),
        "recovered": sum(r["recovered"] for r in records),
        "unrecovered": sum(r["unrecovered"] for r in records),
        "injected_by_kind": dict(sorted(by_kind.items())),
        "recoveries_by_action": dict(sorted(by_action.items())),
        "converged_trials": sum(r["converged"] for r in records),
        "aborted_trials": sum(r["aborted"] for r in records),
        "repartitions": sum(r["repartitions"] for r in records),
        "deadline_exceeded_trials": sum(r["deadline_exceeded"] for r in records),
    }
    return {
        "config": config, "trials": records, "totals": totals,
        "serving": session.stats(),
    }


def campaign_tables(campaign: dict) -> str:
    """Human-readable per-trial + recovery-summary tables.

    Degraded-mode columns (repartitions, final device count, deadline
    hits) appear only when the campaign ran with ``degrade`` or a
    ``deadline`` — the default table stays byte-stable.
    """
    from ..harness import format_table

    cfg = campaign["config"]
    degraded_mode = bool(cfg.get("degrade")) or cfg.get("deadline") is not None
    headers = ["trial", "seed", "conv", "rest", "iter", "sim ms",
               "inj", "det", "rec", "unrec", "lost"]
    if degraded_mode:
        headers += ["rep", "dev", "ddl"]
    rows = []
    for i, r in enumerate(campaign["trials"]):
        row = [
            i, r["seed"], "yes" if r["converged"] else "no",
            r["restarts"], r["iterations"], f"{r['sim_time_ms']:.2f}",
            r["injected"], r["detected"], r["recovered"], r["unrecovered"],
            ",".join(r["lost_devices"]) or "-",
        ]
        if degraded_mode:
            row += [
                r["repartitions"], r["final_devices"],
                "yes" if r["deadline_exceeded"] else "no",
            ]
        rows.append(row)
    trial_table = format_table(
        headers,
        rows,
        title=(
            f"Fault campaign — {cfg['solver']} on {cfg['n_gpus']} GPU(s), "
            f"{cfg['problem']} nx={cfg['nx']}, rate={cfg['rate']:g}, "
            f"seed={cfg['seed']}"
        ),
    )
    t = campaign["totals"]
    kind_rows = [
        [kind, count] for kind, count in t["injected_by_kind"].items()
    ] or [["(none)", 0]]
    action_rows = [
        [action, count] for action, count in t["recoveries_by_action"].items()
    ] or [["(none)", 0]]
    summary = format_table(
        ["fault kind", "injected"], kind_rows, title="Injected by kind"
    )
    actions = format_table(
        ["recovery action", "count"], action_rows, title="Recoveries by action"
    )
    tail = (
        f"totals: {t['injected']} injected, {t['detected']} detected, "
        f"{t['recovered']} recovered, {t['unrecovered']} unrecovered; "
        f"{t['converged_trials']}/{cfg['trials']} trials converged, "
        f"{t['aborted_trials']} aborted"
    )
    if degraded_mode:
        tail += (
            f"; {t['repartitions']} repartition(s), "
            f"{t['deadline_exceeded_trials']} deadline-exceeded trial(s)"
        )
    serving = campaign["serving"]
    tail += (
        f"\nserving: {serving['structural_plans']} structural plan(s) "
        f"across {serving['n_solves']} solve(s) — "
        f"{serving['plan_hits']} hit(s), {serving['plan_misses']} miss(es), "
        f"{serving['invalidations']} invalidation(s)"
    )
    return "\n\n".join([trial_table, summary, actions, tail])
