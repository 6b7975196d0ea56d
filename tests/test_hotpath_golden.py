"""Hot-path golden: exact virtual results and cost-action counts of the
four benchmark shapes.

``tests/data/hotpath_golden.json`` records, for each workload shape of
``perfbench/workloads.py`` (same variant, build, conduit, node count and
flags) at 64 operations per rank and seeds 1 and 2:

* GUPS: the exact ``solve_ns``, the checksum and the sha1 of the final
  table;
* serving: requests served, missing values, SLO misses, the per-op
  tally, total-latency p50/p99 and queue p99;
* both: ``world.total_count`` of every :class:`CostAction`, read from the
  world ``spmd_run`` returned.

A wall-time optimisation of the per-op path must leave every entry
unchanged: a dropped, added or reordered charge moves a count or a
virtual tick and shows up here as a diff.

Rewrite the file (only for an intended cost-model or workload change)
with::

    PYTHONPATH=src python -m tests.test_hotpath_golden --write
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import pathlib
import sys

import pytest

from repro.sim.costmodel import CostAction

GOLDEN = pathlib.Path(__file__).parent / "data" / "hotpath_golden.json"

OPS_PER_RANK = 64
SEEDS = (1, 2)

#: the perfbench GUPS shapes: (variant, build, nodes, conduit, aggregation)
GUPS_SHAPES = {
    "gups_defer_future": ("rma_future", "2021.3.6-defer", 1, None, False),
    "gups_eager_promise": ("rma_promise", "2021.3.6-eager", 1, None, False),
    "gups_offnode_agg": ("agg", "2021.3.6-eager", 2, "ibv", True),
}
GUPS_RANKS = 16
SERVE_RANKS = 8


@contextlib.contextmanager
def _capture_worlds(module):
    """Collect the world of every ``spmd_run`` that ``module`` makes."""
    worlds: list = []
    real = module.spmd_run

    def spy(*args, **kw):
        res = real(*args, **kw)
        worlds.append(res.world)
        return res

    module.spmd_run = spy
    try:
        yield worlds
    finally:
        module.spmd_run = real


def _action_counts(world) -> dict:
    return {a.name: world.total_count(a) for a in CostAction}


def _gups_case(shape: str, seed: int) -> dict:
    from repro.apps import gups
    from repro.runtime.config import Version, flags_for

    variant, build, n_nodes, conduit, aggregation = GUPS_SHAPES[shape]
    version = Version(build)
    cfg = gups.GupsConfig(variant, table_log2=14,
                          updates_per_rank=OPS_PER_RANK, batch=32, seed=seed)
    with _capture_worlds(gups) as worlds:
        res = gups.run_gups(
            cfg, ranks=GUPS_RANKS, version=version, machine="intel",
            conduit=conduit, n_nodes=n_nodes,
            flags=flags_for(version).replace(am_aggregation=aggregation),
        )
    return {
        "solve_ns": res.solve_ns,
        "checksum": res.checksum,
        "table_sha1": hashlib.sha1(res.table.tobytes()).hexdigest(),
        "counts": _action_counts(worlds[0]),
    }


def _serve_case(seed: int) -> dict:
    from repro.runtime.config import Version, flags_for
    from repro.serve import driver
    from repro.serve.workload import ServeConfig

    cfg = ServeConfig(log2_slots=12, key_space=128,
                      requests_per_rank=OPS_PER_RANK, offered_rate_rps=5e5,
                      zipf_s=1.1, get_frac=0.6, put_frac=0.25,
                      slo_ns=150_000.0, seed=seed)
    version = Version.V2021_3_6_EAGER
    with _capture_worlds(driver) as worlds:
        res = driver.run_serve(cfg, ranks=SERVE_RANKS, version=version,
                               machine="intel", conduit="ibv", n_nodes=2,
                               flags=flags_for(version))
    total = res.percentiles("total")
    return {
        "requests": res.requests,
        "missing": res.missing,
        "slo_misses": res.slo_misses,
        "by_op": res.by_op,
        "total_p50": total["p50"],
        "total_p99": total["p99"],
        "queue_p99": res.percentiles("queue")["p99"],
        "counts": _action_counts(worlds[0]),
    }


CASES = {
    **{
        f"{shape}_seed{seed}": (
            lambda s=shape, d=seed: _gups_case(s, d)
        )
        for shape in GUPS_SHAPES
        for seed in SEEDS
    },
    **{
        f"serve_zipf_mixed_seed{seed}": (lambda d=seed: _serve_case(d))
        for seed in SEEDS
    },
}


def _record(name: str) -> dict:
    # int dict keys become strings: compare as stored
    return json.loads(json.dumps(CASES[name]()))


@functools.lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(name):
    got = _record(name)
    want = _golden()[name]
    # compare the counts one action at a time so a failure names it
    got_counts, want_counts = got.pop("counts"), want["counts"]
    assert sorted(got_counts) == sorted(want_counts)
    for action in sorted(want_counts):
        assert (action, got_counts[action]) == (action, want_counts[action])
    assert got == {k: v for k, v in want.items() if k != "counts"}


def _write() -> None:
    doc = {name: _record(name) for name in sorted(CASES)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_hotpath_golden --write")
    _write()
