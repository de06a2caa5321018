"""Paper-style breakdown tables from a trace-derived profile.

The paper's Tables/Figs. 11-15 are per-kernel breakdowns of where CA-GMRES
time goes.  These helpers turn ``SolveResult.details["profile"]`` (built by
:meth:`repro.gpu.trace.TraceFold.profile`) into the same table shapes,
so benchmark scripts report attribution from the structured event trace
rather than the coarse ``ctx.timers`` sums.
"""

from __future__ import annotations

from .tables import format_table

__all__ = [
    "resolve_profile",
    "region_breakdown_rows",
    "kernel_breakdown_rows",
    "profile_breakdown_table",
    "cycle_breakdown_table",
]


def resolve_profile(result_or_profile) -> dict:
    """Accept a ``SolveResult`` or a bare profile dict; return the profile."""
    profile = getattr(result_or_profile, "details", None)
    if profile is not None:
        profile = profile.get("profile")
        if profile is None:
            raise ValueError("SolveResult has no details['profile']")
        return profile
    if not isinstance(result_or_profile, dict):
        raise TypeError("expected a SolveResult or a profile dict")
    return result_or_profile


def region_breakdown_rows(profile: dict) -> list:
    """Rows ``[region, incl ms, excl ms, count, % of total]``, largest first."""
    total = profile["total_time"]
    rows = []
    for name, entry in sorted(
        profile["regions"].items(), key=lambda kv: -kv[1]["inclusive"]
    ):
        rows.append(
            [
                name,
                1e3 * entry["inclusive"],
                1e3 * entry["exclusive"],
                entry["count"],
                100.0 * entry["inclusive"] / total if total else 0.0,
            ]
        )
    return rows


def kernel_breakdown_rows(profile: dict, top: int | None = None) -> list:
    """Rows ``[kernel, launches, total ms, lanes]``, costliest first."""
    rows = []
    for name, entry in sorted(
        profile["kernels"].items(), key=lambda kv: -kv[1]["time"]
    ):
        lanes = ",".join(sorted(entry["by_lane"]))
        rows.append([name, entry["count"], 1e3 * entry["time"], lanes])
    return rows[:top] if top is not None else rows


def profile_breakdown_table(result_or_profile, title: str = "") -> str:
    """Region + per-kernel + PCIe breakdown as one text report."""
    profile = resolve_profile(result_or_profile)
    parts = []
    header = title or "Simulated-timeline breakdown"
    parts.append(
        format_table(
            ["region", "incl ms", "excl ms", "spans", "% time"],
            region_breakdown_rows(profile),
            title=f"{header} — regions "
            f"(total {1e3 * profile['total_time']:.3f} ms simulated)",
        )
    )
    parts.append(
        format_table(
            ["kernel", "launches", "total ms", "lanes"],
            kernel_breakdown_rows(profile),
            title="per-kernel",
        )
    )
    xfer = profile["transfers"]
    parts.append(
        format_table(
            ["direction", "messages", "bytes", "bus ms"],
            [
                [d, xfer[d]["count"], xfer[d]["bytes"], 1e3 * xfer[d]["time"]]
                for d in ("h2d", "d2h")
            ],
            title="PCIe",
        )
    )
    return "\n\n".join(parts)


def cycle_breakdown_table(result_or_profile, title: str = "") -> str:
    """Per-restart-cycle table: duration and per-region inclusive ms."""
    profile = resolve_profile(result_or_profile)
    cycles = profile.get("cycles", [])
    names: list[str] = []
    for cycle in cycles:
        for name in cycle["regions"]:
            if name not in names:
                names.append(name)
    rows = [
        [i, 1e3 * c["duration"]] + [1e3 * c["regions"].get(n, 0.0) for n in names]
        for i, c in enumerate(cycles)
    ]
    return format_table(
        ["cycle", "total ms"] + [f"{n} ms" for n in names],
        rows,
        title=title or "Per-restart-cycle breakdown",
    )
