"""Extension: continuation completions vs the future path in a GUPS sweep.

The ``cont`` GUPS variant tracks each atomic update with
``operation_cx.as_continuation`` (``FeatureFlags.cx_continuations``), a
callback ticking a done counter — no future or promise cell, and the
completion never parks on the deferred queue: it dispatches inline at
whichever agent observes the ack.  The claims, per sweep point on the
deferred-notification build:

* **latency** — the mean notification gap of the continuation path is
  strictly below the future path's (``amo_future`` on the same knobs),
  because futures park on the deferred queue until the batch-end drain
  while continuations dispatch at observation;
* **classification** — continuation spans land in the ``eager`` gap
  class even on the defer build (they are eager-by-construction), while
  the future path's land in ``defer``;
* **identity** — with no continuation requests in the workload, turning
  the flag on leaves the future-path figure bit-identical (virtual
  clocks included).
"""

from benchmarks.conftest import bench_scale, write_figure
from repro.apps.gups import GupsConfig, run_gups
from repro.bench.ab import mean_update_gap
from repro.bench.report import format_table
from repro.runtime.config import Version, flags_for

VD = Version.V2021_3_6_DEFER


def _flags(cx: bool = True):
    return flags_for(VD).replace(obs_spans=True, cx_continuations=cx)


def _run(cfg, cx: bool = True):
    return run_gups(
        cfg, ranks=8, version=VD, machine="intel", flags=_flags(cx)
    )


def test_cont_gap_sweep(benchmark, figure_dir):
    s = bench_scale()
    rows = []
    for batch in (16, 32, 64):
        mk = lambda variant: GupsConfig(
            variant=variant,
            table_log2=10,
            updates_per_rank=128 * s,
            batch=batch,
        )
        fut = _run(mk("amo_future"))
        cont = _run(mk("cont"))
        assert fut.matches_oracle
        assert cont.matches_oracle

        gap_f, n_f = mean_update_gap(fut.obs_stats)
        gap_c, n_c = mean_update_gap(cont.obs_stats)
        assert n_f > 0 and n_c > 0
        # the headline claim: the callback path beats the future path on
        # mean notification gap at every sweep point
        assert gap_c < gap_f, (
            f"batch={batch}: continuation gap did not beat the future "
            f"path ({gap_c:.0f} vs {gap_f:.0f})"
        )
        # and the mechanism is the one documented: continuations are
        # eager-by-construction (never parked), futures park under defer
        cont_modes = {
            m for (m, _loc) in cont.obs_stats.gaps if m != "none"
        }
        fut_modes = {
            m for (m, _loc) in fut.obs_stats.gaps if m != "none"
        }
        assert cont_modes == {"eager"}, cont_modes
        assert "defer" in fut_modes, fut_modes

        rows.append([
            str(batch),
            f"{gap_f:.0f}",
            f"{gap_c:.0f}",
            f"{gap_f / gap_c:.1f}x" if gap_c else "inf",
            str(n_f),
            str(n_c),
        ])

    table = format_table(
        "Extension: continuation completions vs the future path "
        "(GUPS, defer build, Intel, 8 ranks) [mean notify gap, ns]",
        [
            "batch", "gap future", "gap cont", "gap gain",
            "spans future", "spans cont",
        ],
        rows,
    )
    write_figure(figure_dir, "ext_gups_cont.txt", table)

    benchmark.pedantic(
        lambda: _run(
            GupsConfig(
                variant="cont",
                table_log2=9,
                updates_per_rank=32,
                batch=16,
            )
        ),
        rounds=3,
        iterations=1,
    )


def test_flag_on_without_requests_is_bit_identical(figure_dir):
    """``cx_continuations`` only changes runs that *use* the new kinds:
    the future-path figure is bit-identical with the flag on or off."""
    cfg = GupsConfig(
        variant="amo_future", table_log2=9, updates_per_rank=48, batch=16
    )
    a = _run(cfg, cx=False)
    b = _run(cfg, cx=True)
    assert a.solve_ns == b.solve_ns
    assert a.checksum == b.checksum
    assert a.progress_polls == b.progress_polls
