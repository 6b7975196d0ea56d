"""Switch-point commands: the continuation protocol for rank bodies.

A rank body written as a generator *yields* switch commands instead of
calling the blocking scheduler primitives::

    def body():
        ...
        yield BlockUntil(lambda: cell.ready or ctx.has_incoming())
        ...
        yield YIELD_NOW

The event-loop scheduler interprets each command in place — a switch
costs one generator resume.  For plain blocking call sites (a
plain-function body on its thread shim, or the ambient world)
:func:`run_blocking` drives the generator to completion by translating
every command into the context's blocking primitives.  The library's
blocking constructs (``Future.wait``, ``World.barrier``) are written once
as generators and shared by both call styles through this module, which
is what keeps their charge sequences — and therefore all virtual clocks —
identical whichever way a body is written.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SchedulerError


class SwitchCommand:
    """Base class of everything a continuation rank body may yield."""

    __slots__ = ()


class BlockUntil(SwitchCommand):
    """Suspend the yielding rank until ``wake_when()`` is true.

    Mirrors :meth:`RankContext.block_until`: the predicate is evaluated
    once immediately (no switch if already true), then re-evaluated by the
    scheduler's round-robin scan until it holds.

    ``wake`` optionally names the event(s) that can turn the predicate
    true, so the scheduler can park the rank on a wake list instead of
    re-evaluating the predicate on every switch (see
    :class:`~repro.runtime.scheduler.SchedulerCore`).  Recognized keys:

    * ``("cell", cell)`` — the predicate is
      ``cell.ready or ctx.has_incoming()``;
    * ``("epoch",)`` — the predicate is
      ``barrier epoch advanced or ctx.has_incoming()``.

    ``None`` (the default) keeps the legacy predicate-scan behaviour; any
    blocking site whose wake condition is not exactly one of the shapes
    above must leave it ``None``.
    """

    __slots__ = ("wake_when", "wake")

    def __init__(self, wake_when: Callable[[], bool], wake: tuple = None):
        self.wake_when = wake_when
        self.wake = wake


class YieldNow(SwitchCommand):
    """Give every other runnable rank a chance to run, then continue."""

    __slots__ = ()


#: shared singleton — the command carries no state, so bodies yield this
#: instead of allocating per switch
YIELD_NOW = YieldNow()


def run_blocking(ctx, gen):
    """Drive a switch-command generator to completion through blocking
    primitives (on a shim thread, or in the ambient world); return the
    generator's return value.

    Exceptions raised while executing a command (teardown, deadlock) are
    thrown *into* the generator so its ``try/finally`` cleanup runs —
    exactly the unwind a plain call stack would see from a raising
    ``block_until``.
    """
    try:
        cmd = next(gen)
        while True:
            try:
                if type(cmd) is BlockUntil:
                    ctx.block_until(cmd.wake_when, cmd.wake)
                elif type(cmd) is YieldNow:
                    ctx.yield_to_others()
                else:
                    raise SchedulerError(
                        f"rank body yielded {cmd!r}; expected a SwitchCommand"
                    )
            except BaseException as exc:  # noqa: BLE001 - forwarded to body
                cmd = gen.throw(exc)
                continue
            cmd = gen.send(None)
    except StopIteration as stop:
        return stop.value
    finally:
        gen.close()
