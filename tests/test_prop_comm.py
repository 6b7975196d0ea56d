"""Property-based tests for VIS RMA."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    new_array,
    rget_indexed,
    rget_strided,
    rput_indexed,
    rput_strided,
)
from repro.runtime.context import reset_ambient_ctx

u64 = st.integers(0, (1 << 64) - 1)


class TestVisProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        count=st.integers(1, 16),
        stride=st.integers(1, 8),
        values=st.lists(u64, min_size=16, max_size=16),
    )
    def test_strided_roundtrip_matches_numpy(self, count, stride, values):
        """put-then-get at any stride equals the numpy scatter/gather."""
        reset_ambient_ctx()
        size = count * stride + 8
        g = new_array("u64", size)
        vals = values[:count]
        rput_strided(vals, g, count, stride).wait()
        got = rget_strided(g, count, stride).wait()
        assert [int(x) for x in got] == vals
        # the in-between slots stayed zero
        model = np.zeros(size, dtype=np.uint64)
        model[0 : count * stride : stride] = vals
        assert list(g.local().view(size)) == list(model)

    @settings(max_examples=50, deadline=None)
    @given(
        idx=st.lists(st.integers(0, 31), min_size=1, max_size=20),
        values=st.lists(u64, min_size=20, max_size=20),
    )
    def test_indexed_scatter_matches_serial_semantics(self, idx, values):
        """Later writes to the same index win (program order)."""
        reset_ambient_ctx()
        g = new_array("u64", 32)
        vals = values[: len(idx)]
        rput_indexed(vals, g, idx).wait()
        model = np.zeros(32, dtype=np.uint64)
        for k, i in enumerate(idx):
            model[i] = vals[k]
        assert list(g.local().view(32)) == list(model)
        got = rget_indexed(g, idx).wait()
        assert [int(x) for x in got] == [int(model[i]) for i in idx]

