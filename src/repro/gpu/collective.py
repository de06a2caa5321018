"""Collective programs: host-staged reductions and broadcasts a batch shares.

A *collective program* is a generator that does one member's device work
and yields each host-staged collective it needs: a :class:`Reduce` (sum one
partial per device on the host) is answered with the host sum, a
:class:`Broadcast` (copy a host array to every device) with the per-device
copies.  The orthogonalization kernels and the restart cycle's vector steps
are written this way, so one code path serves a single solve and a lockstep
batch: :func:`run_together` drives the programs of ``k`` independent members
in step, and each round's reductions travel in one d2h message per device,
its broadcasts in one h2d message per device, whatever ``k`` is
(:meth:`~repro.gpu.context.MultiGpuContext.allreduce_sums`,
:meth:`~repro.gpu.context.MultiGpuContext.broadcasts`).  Device work and
host arithmetic stay per member and are priced as for a member alone, so
a batch of one makes exactly the calls a direct program would.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["Reduce", "Broadcast", "run_together", "run_alone", "settle", "resume"]


class Reduce(NamedTuple):
    """Sum ``partials`` (one per device) on the host."""

    partials: list

    def finite(self) -> bool:
        return all(np.isfinite(p.data).all() for p in self.partials)


class Broadcast(NamedTuple):
    """Copy the host ``array`` to every device."""

    array: np.ndarray

    def finite(self) -> bool:
        return bool(np.isfinite(self.array).all())


def run_together(ctx, programs: list, tags: list[int] | None = None) -> list:
    """Run collective ``programs`` in step; returns each one's outcome.

    Every round advances each program to its next collective, then answers
    the round's reductions with one fused reduction and its broadcasts with
    one fused broadcast.  A member whose payload is not finite is served
    alone, so the failure its transfer detects stays its own.  An outcome
    is what the program returned, or the exception that ended it (its own,
    or a transfer's raised into it at the ``yield``); one member's failure
    never stops the others.  ``tags`` are the members' trace request tags,
    set while a member runs or is served alone.
    """
    collectives = {Reduce: ctx.allreduce_sums, Broadcast: ctx.broadcasts}
    outcomes: list = [None] * len(programs)
    replies: dict = dict.fromkeys(range(len(programs)))
    while replies:
        asked = {}
        for i, reply in replies.items():
            if tags is not None:
                ctx.trace.request = tags[i]
            try:
                asked[i] = resume(programs[i], reply)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:
                outcomes[i] = exc
        replies = {}
        for kind, collective in collectives.items():
            members = [i for i, request in asked.items() if type(request) is kind]
            shared = [i for i in members if asked[i].finite()]
            alone = [[i] for i in members if i not in shared]
            for group in ([shared] if shared else []) + alone:
                if tags is not None:
                    ctx.trace.request = tags[group[0]]
                try:
                    results = collective([asked[i][0] for i in group])
                except Exception as exc:
                    results = [exc] * len(group)
                replies.update(zip(group, results))
    return outcomes


def resume(generator, outcome):
    """Resume ``generator`` with an outcome: raise it in at the ``yield``
    when it is an exception, else send it; returns what it yields next."""
    if isinstance(outcome, Exception):
        return generator.throw(outcome)
    return generator.send(outcome)


def settle(outcome):
    """An outcome's value, or raise the exception it holds."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_alone(ctx, program):
    """Run one collective program: its value, or raise what ended it."""
    [outcome] = run_together(ctx, [program])
    return settle(outcome)
