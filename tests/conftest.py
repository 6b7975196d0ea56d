"""Shared fixtures.

Most unit tests exercise the runtime through the *ambient* single-rank
world (created lazily by ``current_ctx()`` outside ``spmd_run``); the
autouse fixture discards it between tests so each test gets fresh
segments, clocks and counters.
"""

from __future__ import annotations

import pytest

from repro.runtime.config import RuntimeConfig, Version, flags_for
from repro.runtime.context import (
    current_ctx,
    reset_ambient_ctx,
    set_current_ctx,
)
from repro.runtime.event_loop import EventLoopScheduler
from repro.runtime.runtime import build_world
from repro.sim.costmodel import CostModel

ALL_VERSIONS = (
    Version.V2021_3_0,
    Version.V2021_3_6_DEFER,
    Version.V2021_3_6_EAGER,
)

VD = Version.V2021_3_6_DEFER
VE = Version.V2021_3_6_EAGER


# ---------------------------------------------------------------------------
# shared flags/body helpers (import as ``from tests.conftest import ...``)
# ---------------------------------------------------------------------------


def obs_flags(version):
    """The version's standard flags with observability spans enabled."""
    return flags_for(version).replace(obs_spans=True)


def rank_body(fn, continuation: bool):
    """``fn`` (a generator rank body) in the requested execution style.

    ``continuation=True`` returns ``fn`` itself, which the event loop
    resumes in place.  ``False`` returns a plain-function wrapper: the
    event loop runs it on the per-rank thread shim, which drives the same
    generator through the blocking primitives.  Both styles must schedule
    identically — same values, clocks and switch traces."""
    if continuation:
        return fn
    return lambda *args: fn(*args)


def unbatched(monkeypatch) -> None:
    """Make every world built from now on charge per call: the unbatched
    arm of the batched-vs-unbatched oracle (a noise-free run batches)."""
    monkeypatch.setattr(CostModel, "enable_batching", lambda self: None)


def count_parked_predicates(monkeypatch) -> list:
    """Count the scheduler's evaluations of parked ranks' predicates.

    Wraps every predicate a rank parks with (the immediate check before
    parking is not counted) and returns a one-element list holding the
    running count.  The wake-list path never evaluates a keyed parked
    predicate; the predicate scan evaluates every parked one per switch."""
    evaluations = [0]
    enter_blocked = EventLoopScheduler._enter_blocked

    def counting_enter_blocked(sched, rank, pred, wake):
        def counted():
            evaluations[0] += 1
            return pred()

        enter_blocked(sched, rank, counted, wake)

    monkeypatch.setattr(
        EventLoopScheduler, "_enter_blocked", counting_enter_blocked
    )
    return evaluations


@pytest.fixture(autouse=True)
def _fresh_ambient_world():
    """Isolate tests from each other's ambient world state."""
    reset_ambient_ctx()
    yield
    reset_ambient_ctx()


@pytest.fixture
def ctx():
    """The ambient single-rank context (generic profile, smp conduit)."""
    return current_ctx()


@pytest.fixture
def versioned_ctx():
    """Factory: bind the calling thread to a fresh single-rank world built
    for a given version/machine; restores the ambient world afterwards."""
    created = []

    def make(
        version: Version = Version.V2021_3_6_EAGER,
        machine: str = "generic",
        conduit: str = "smp",
        flags=None,
    ):
        config = RuntimeConfig(
            version=version, machine=machine, conduit=conduit, flags=flags
        )
        world = build_world(config)
        set_current_ctx(world.contexts[0])
        created.append(world)
        return world.contexts[0]

    yield make
    set_current_ctx(None)
    reset_ambient_ctx()


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run slow integration tests",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running integration test")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
