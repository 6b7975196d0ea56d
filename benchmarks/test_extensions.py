"""Extension studies beyond the paper's figures.

1. **DHT** — the eager-notification effect on a different fine-grained
   RMA application (distributed hash table): eager should help roughly
   like GUPS's promise variants.
2. **Stencil** — the negative control: a coarse-grained halo-exchange
   solver where per-operation overheads are amortized and eager wins
   almost nothing; the relative gain must *shrink* as blocks grow.
3. **Sensitivity** — how the GUPS futures blowup scales with batch size
   (the conjoined-chain length): the deferred build's penalty per update
   should stay roughly flat (it is per-op), while wait-amortization makes
   tiny batches slightly worse.
4. **Aggregation** — destination-batched AM coalescing in the off-node
   regime: the ``agg`` GUPS variant must cut AM injections >= 2x and
   lower the per-update time, and the win must *compose* with eager
   notification (measured on ``amo_promise``, where both effects apply
   to disjoint parts of each update: aggregation to the off-node request,
   eager to the on-node completion).
"""

from benchmarks.conftest import bench_scale, write_figure
from repro.apps.dht import DhtConfig, run_dht
from repro.apps.gups import GupsConfig, run_gups
from repro.apps.stencil import StencilConfig, run_stencil
from repro.bench.report import format_table
from repro.runtime.config import Version, flags_for

V0 = Version.V2021_3_0
VD, VE = Version.V2021_3_6_DEFER, Version.V2021_3_6_EAGER


def test_dht_extension(benchmark, figure_dir):
    s = bench_scale()
    cfg = DhtConfig(
        log2_slots=11, inserts_per_rank=48 * s, finds_per_rank=48 * s
    )
    rows = []
    times = {}
    for v in (V0, VD, VE):
        r = run_dht(cfg, ranks=8, version=v, machine="intel")
        assert r.correct
        times[v] = r.solve_ns
        rows.append([v.value, f"{r.solve_ns / 1e3:.1f}",
                     f"{r.ops / r.solve_ns * 1e3:.2f}"])
    write_figure(
        figure_dir,
        "ext_dht.txt",
        format_table(
            "Extension: DHT insert+find (Intel, 8 ranks)",
            ["build", "solve us", "Mops/s"],
            rows,
        ),
    )
    assert times[V0] >= times[VD] >= times[VE]
    assert times[VD] / times[VE] > 1.1  # fine-grained: eager matters

    benchmark.pedantic(
        lambda: run_dht(
            DhtConfig(log2_slots=9, inserts_per_rank=16, finds_per_rank=16),
            ranks=4,
            version=VE,
            machine="intel",
        ),
        rounds=3,
        iterations=1,
    )


def test_stencil_negative_control(benchmark, figure_dir):
    s = bench_scale()
    rows = []
    gains = []
    for n in (256 * s, 4096 * s):
        cfg = StencilConfig(n=n, iterations=10)
        td = run_stencil(cfg, ranks=8, version=VD, machine="intel")
        te = run_stencil(cfg, ranks=8, version=VE, machine="intel")
        assert td.matches_serial and te.matches_serial
        gain = td.solve_ns / te.solve_ns - 1
        gains.append(gain)
        rows.append(
            [str(n), f"{td.solve_ns / 1e3:.1f}", f"{te.solve_ns / 1e3:.1f}",
             f"+{gain * 100:.1f}%"]
        )
    write_figure(
        figure_dir,
        "ext_stencil.txt",
        format_table(
            "Extension: Jacobi stencil halo exchange (Intel, 8 ranks) — "
            "negative control",
            ["cells", "defer us", "eager us", "eager gain"],
            rows,
        ),
    )
    assert all(0 <= g < 0.10 for g in gains)
    assert gains[1] < gains[0]  # gain shrinks with block size

    benchmark.pedantic(
        lambda: run_stencil(
            StencilConfig(n=128, iterations=5),
            ranks=4,
            version=VE,
            machine="intel",
        ),
        rounds=3,
        iterations=1,
    )


def test_gups_batch_sensitivity(benchmark, figure_dir):
    s = bench_scale()
    rows = []
    ratios = {}
    for batch in (8, 32, 128):
        cfg = GupsConfig(
            variant="rma_future",
            table_log2=11,
            updates_per_rank=128 * s,
            batch=batch,
        )
        td = run_gups(cfg, ranks=8, version=VD, machine="intel").solve_ns
        te = run_gups(cfg, ranks=8, version=VE, machine="intel").solve_ns
        ratios[batch] = td / te
        rows.append([str(batch), f"{td / 1e3:.0f}", f"{te / 1e3:.0f}",
                     f"{td / te:.2f}x"])
    write_figure(
        figure_dir,
        "ext_gups_batch.txt",
        format_table(
            "Extension: GUPS rma_future eager gain vs batch size "
            "(Intel, 8 ranks)",
            ["batch", "defer us", "eager us", "ratio"],
            rows,
        ),
    )
    # the conjoining penalty is per-op: the ratio persists at every batch
    for batch, ratio in ratios.items():
        assert ratio > 1.5, f"batch {batch}"

    benchmark.pedantic(
        lambda: run_gups(
            GupsConfig(
                variant="rma_future", table_log2=10,
                updates_per_rank=32, batch=8,
            ),
            ranks=4,
            version=VE,
            machine="intel",
        ),
        rounds=3,
        iterations=1,
    )


def _agg_grid(variant, s, agg_states=(False, True)):
    """Run one GUPS variant over builds x aggregation (8 ranks, 4 nodes,
    ibv conduit: the off-node regime aggregation targets)."""
    cfg = GupsConfig(
        variant=variant, table_log2=12, updates_per_rank=256 * s, batch=32
    )
    grid = {}
    for v in (VD, VE):
        for agg in agg_states:
            fl = flags_for(v).replace(am_aggregation=agg)
            r = run_gups(
                cfg,
                ranks=8,
                n_nodes=4,
                version=v,
                machine="intel",
                conduit="ibv",
                flags=fl,
            )
            assert r.matches_oracle, f"{variant} {v.value} agg={agg}"
            grid[v, agg] = r
    return cfg, grid


def test_gups_agg_extension(benchmark, figure_dir):
    s = bench_scale()
    sections = []

    # -- headline: the agg variant (pure one-sided rpc_ff updates) --------
    cfg, grid = _agg_grid("agg", s)
    updates = cfg.updates_per_rank * 8
    rows = []
    for (v, agg), r in grid.items():
        mean = (
            f"{r.am_agg_entries / r.am_bundles:.1f}" if r.am_bundles else "-"
        )
        rows.append([
            v.value,
            "on" if agg else "off",
            f"{r.solve_ns / 1e3:.1f}",
            f"{r.solve_ns / updates:.0f}",
            str(r.am_injects),
            str(r.am_bundles),
            mean,
        ])
    sections.append(format_table(
        "Extension: GUPS agg variant with destination-batched AMs "
        "(Intel, ibv, 8 ranks / 4 nodes)",
        ["build", "agg", "solve us", "ns/update", "AM injects",
         "bundles", "mean bundle"],
        rows,
    ))
    for v in (VD, VE):
        off, on = grid[v, False], grid[v, True]
        assert off.am_injects / on.am_injects >= 2.0, v.value
        assert on.solve_ns < off.solve_ns, v.value

    # -- composition: amo_promise, where eager notification also bites ----
    _, pgrid = _agg_grid("amo_promise", s)
    rows = []
    for (v, agg), r in pgrid.items():
        rows.append([
            v.value,
            "on" if agg else "off",
            f"{r.solve_ns / 1e3:.1f}",
            str(r.am_injects),
        ])
    eager_gain_off = pgrid[VD, False].solve_ns / pgrid[VE, False].solve_ns
    eager_gain_on = pgrid[VD, True].solve_ns / pgrid[VE, True].solve_ns
    rows.append(["eager gain", "off", f"{eager_gain_off:.3f}x", ""])
    rows.append(["eager gain", "on", f"{eager_gain_on:.3f}x", ""])
    sections.append(format_table(
        "Composition: GUPS amo_promise, eager x aggregation "
        "(Intel, ibv, 8 ranks / 4 nodes)",
        ["build", "agg", "solve us", "AM injects"],
        rows,
    ))
    write_figure(figure_dir, "ext_gups_agg.txt", "\n".join(sections))

    # the two optimizations attack different costs and must stack:
    # aggregation helps both builds, eager keeps its gain under
    # aggregation, and eager+agg is the best cell of the grid
    for v in (VD, VE):
        assert pgrid[v, True].solve_ns < pgrid[v, False].solve_ns, v.value
    assert eager_gain_on > 1.005
    best = min(r.solve_ns for r in pgrid.values())
    assert pgrid[VE, True].solve_ns == best
    # eager never hurts the agg variant itself (no completions to defer)
    assert grid[VE, True].solve_ns <= grid[VD, True].solve_ns

    benchmark.pedantic(
        lambda: run_gups(
            GupsConfig(
                variant="agg", table_log2=10, updates_per_rank=32, batch=8
            ),
            ranks=4,
            n_nodes=2,
            version=VE,
            machine="intel",
            conduit="ibv",
            flags=flags_for(VE).replace(am_aggregation=True),
        ),
        rounds=3,
        iterations=1,
    )
