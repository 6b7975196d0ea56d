"""Golden scheduling oracle: exact switch traces, values, and clocks.

``tests/data/sched_golden.json`` records, for a fixed set of SPMD
programs, every scheduling decision (the ``switch_trace``), the per-rank
return values, the per-rank virtual clocks, and the rank-to-rank switch
count.  The file was written by the thread-per-rank scheduler that the
event loop replaced; the event loop must reproduce it exactly.  Any
change to the promote-and-pick policy, the self-resume and
immediate-true shortcuts, the deadlock declaration, or failure teardown
shows up here as a diff.

Cases cover the generator fast path (fuzz programs under every mode),
the plain-function thread shim, a blocking wrapper around a generator
body, an all-blocked deadlock, and a rank failure.  Traces of the
deadlock and failure cases are cut at the first terminal event: what
follows is teardown, whose order the original substrate left to the OS.

:data:`APP_CASES` are records of the ported application bodies (DHT,
matching, serving) and of completion-kind-swapped fuzz runs; the suites
that own those workloads check them through :func:`assert_golden`.  The
swapped runs were re-recorded by the event loop under ``defer`` when the
adaptive-progress fuzz mode they used to run under was deleted; every
other record is still the thread-per-rank scheduler's.

Rewrite the file (only for an intended scheduling change) with::

    PYTHONPATH=src python -m tests.test_sched_golden --write
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys

import pytest

from repro import barrier, barrier_gen, current_ctx, rank_me
from repro.apps.dht import DhtConfig, _dht_body, _dht_body_gen
from repro.apps.matching import MatchingConfig, _matching_body_gen
from repro.errors import DeadlockError
from repro.fuzz import MODES, generate_program
from repro.fuzz.runner import _fuzz_body, mode_flags
from repro.runtime.runtime import spmd_run
from repro.runtime.switchpoints import BlockUntil
from repro.serve import ServeConfig
from repro.serve.driver import _serve_body_gen

GOLDEN = pathlib.Path(__file__).parent / "data" / "sched_golden.json"

FUZZ_SEEDS = (3, 5, 11, 27)
TERMINALS = ("deadlock", "fail")

DHT_CFG = DhtConfig(log2_slots=9, inserts_per_rank=16, finds_per_rank=16)
SERVE_CFG = ServeConfig(
    log2_slots=10, key_space=128, requests_per_rank=64,
    offered_rate_rps=2e6, seed=3,
)


def _cut(trace):
    """Everything up to and including the first terminal event."""
    for i, ev in enumerate(trace):
        if ev[0] in TERMINALS:
            return trace[: i + 1]
    return trace


def _record(fn, *, ranks, expect=None, **kw):
    """Run ``fn`` on ``ranks`` ranks and return its JSON-shaped record.

    With ``expect`` set, ``fn`` must be a generator function that fails
    with that exception type; the record then has no values but keeps the
    clocks of the world the failed job left behind."""
    trace: list = []
    if expect is None:
        res = spmd_run(fn, ranks=ranks, switch_trace=trace, **kw)
        values, world, error = res.values, res.world, None
    else:
        worlds: list = []

        def body():
            worlds.append(current_ctx().world)
            return (yield from fn())

        with pytest.raises(expect) as ei:
            spmd_run(body, ranks=ranks, switch_trace=trace, **kw)
        values, world = None, worlds[0]
        error = f"{type(ei.value).__name__}: {ei.value}"
        trace = _cut(trace)
    rec = {
        "trace": trace,
        "values": values,
        "clocks": [c.clock.now_ns for c in world.contexts],
        "sched_switches": world.sched_switches,
    }
    if error is not None:
        rec["error"] = error
    # tuples become lists and int dict keys strings: compare as stored
    return json.loads(json.dumps(rec))


def _fuzz_case(seed, mode, cx="future"):
    program = generate_program(seed)
    version, flags = mode_flags(mode)
    if cx != "future":
        flags = flags.replace(cx_continuations=True)
    return _record(
        _fuzz_body, ranks=program.ranks, version=version, flags=flags,
        machine="generic", conduit=program.conduit,
        n_nodes=program.n_nodes, seed=program.seed, args=(program, cx),
    )


def _plain_case():
    def body():
        barrier()
        current_ctx().yield_to_others()
        barrier()
        return rank_me()

    return _record(body, ranks=6)


def _dht_case(body):
    return _record(
        body, ranks=4, args=(DHT_CFG,), machine="generic",
        seed=DHT_CFG.seed, segment_bytes=1 << 17,
    )


def _matching_case():
    cfg = MatchingConfig(graph="random", scale=1)
    return _record(
        _matching_body_gen, ranks=4, args=(cfg.build_graph(), cfg),
        machine="generic", conduit="mpi", seed=cfg.seed,
        segment_bytes=1 << 20,
    )


def _serve_case():
    return _record(
        _serve_body_gen, ranks=4, args=(SERVE_CFG,), machine="intel",
        seed=SERVE_CFG.seed, segment_bytes=1 << 17,
    )


def _deadlock_case():
    def body():
        yield BlockUntil(lambda: False)

    return _record(body, ranks=3, expect=DeadlockError)


def _failure_case():
    def body():
        yield from barrier_gen()
        if rank_me() == 1:
            raise ValueError("kaboom")
        yield from barrier_gen()

    return _record(body, ranks=4, expect=ValueError)


CASES = {
    **{
        f"fuzz{seed}_{mode}": (lambda s=seed, m=mode: _fuzz_case(s, m))
        for seed in FUZZ_SEEDS
        for mode in MODES
    },
    "plain_barrier_yield_6": _plain_case,
    "dht_blocking_4": lambda: _dht_case(lambda c: _dht_body(c)),
    "deadlock_all_blocked_3": _deadlock_case,
    "failure_rank1_4": _failure_case,
}

#: the first programs of the differential-fuzz tier-1 sweep (seed 1)
FUZZ_SWEEP_PROGRAMS = tuple(1_000_003 + i for i in range(6))

APP_CASES = {
    "dht_gen_4": lambda: _dht_case(_dht_body_gen),
    "matching_gen_4": _matching_case,
    "serve_gen_4": _serve_case,
    **{
        f"fuzz_sweep{i}_defer_{cx}": (
            lambda s=seed, c=cx: _fuzz_case(s, "defer", c)
        )
        for i, seed in enumerate(FUZZ_SWEEP_PROGRAMS)
        for cx in ("continuation", "counter")
    },
}

ALL_CASES = {**CASES, **APP_CASES}


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_golden(name: str) -> None:
    """Re-run case ``name`` and compare it with its golden record."""
    got = ALL_CASES[name]()
    want = _golden()[name]
    # compare piecewise so a failure names the part that moved
    assert got["trace"] == want["trace"]
    assert got["values"] == want["values"]
    assert got["clocks"] == want["clocks"]
    assert got["sched_switches"] == want["sched_switches"]
    assert got.get("error") == want.get("error")


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(ALL_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name):
    assert_golden(name)


def _dumps(doc: dict) -> str:
    """JSON with one trace event per line and every other field on one
    line, so a schedule change reads as a short diff."""
    cases = []
    for name in sorted(doc):
        rec = doc[name]
        events = ",\n".join("   " + json.dumps(ev) for ev in rec["trace"])
        fields = [f'  "trace": [\n{events}\n  ]'] + [
            f"  {json.dumps(key)}: {json.dumps(val)}"
            for key, val in rec.items()
            if key != "trace"
        ]
        body = ",\n".join(fields)
        cases.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(cases) + "\n}\n"


def _write() -> None:
    doc = {name: ALL_CASES[name]() for name in sorted(ALL_CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dumps(doc))
    print(f"wrote {len(doc)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_sched_golden --write")
    _write()
