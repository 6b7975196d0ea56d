"""Exhaustive eager/deferred readiness matrix.

For every (build, operation, completion request) combination, pins down
whether the returned future is ready at initiation — the full decision
table implied by §III-A:

* default ``as_future``: eager only on the eager build;
* explicit ``as_eager_future``: eager on any 2021.3.6 build;
* explicit ``as_defer_future``: never eager;
* all of the above only when the transfer is synchronous (local);
* 2021.3.0: always deferred, explicit factories unavailable.
"""

import pytest

from repro import (
    AtomicDomain,
    new_,
    new_array,
    operation_cx,
    rget,
    rget_into,
    rput,
    rput_bulk,
)
from repro.runtime.config import Version

V0 = Version.V2021_3_0
VD = Version.V2021_3_6_DEFER
VE = Version.V2021_3_6_EAGER

_AD = None


def issue(op: str, comps):
    """Issue one local op with the given completions; return its future."""
    if op == "rput":
        return rput(1, new_("u64"), comps)
    if op == "rput_bulk":
        return rput_bulk([1, 2], new_array("u64", 2), comps)
    if op == "rget":
        return rget(new_("u64"), comps)
    if op == "rget_into":
        return rget_into(new_("u64"), new_("u64"), 1, comps)
    if op == "amo_add":
        return AtomicDomain({"add"}).add(new_("u64"), 1, comps)
    if op == "amo_fetch_add":
        return AtomicDomain({"fetch_add"}).fetch_add(new_("u64"), 1, comps)
    if op == "amo_fetch_add_into":
        return AtomicDomain({"fetch_add"}).fetch_add_into(
            new_("u64"), 1, new_("u64"), comps
        )
    raise AssertionError(op)


OPS = [
    "rput",
    "rput_bulk",
    "rget",
    "rget_into",
    "amo_add",
    "amo_fetch_add",
]

#: (version, factory) -> expected ready-at-initiation for local ops
EXPECTED = {
    (V0, "default"): False,
    (VD, "default"): False,
    (VE, "default"): True,
    (VD, "eager"): True,
    (VE, "eager"): True,
    (VD, "defer"): False,
    (VE, "defer"): False,
}

FACTORIES = {
    "default": operation_cx.as_future,
    "eager": operation_cx.as_eager_future,
    "defer": operation_cx.as_defer_future,
}


class TestReadinessMatrix:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize(
        "version,factory",
        sorted(EXPECTED, key=lambda k: (k[0].value, k[1])),
    )
    def test_cell(self, versioned_ctx, op, version, factory):
        ctx = versioned_ctx(version)
        fut = issue(op, FACTORIES[factory]())
        expected = EXPECTED[(version, factory)]
        assert fut._cell.ready == expected, (op, version.value, factory)
        if not expected:
            ctx.progress()
            assert fut._cell.ready, "deferred future must ready at progress"

    @pytest.mark.parametrize("op", OPS + ["amo_fetch_add_into"])
    def test_functional_result_is_version_independent(
        self, versioned_ctx, op
    ):
        """Whatever the notification mode, the op's data effect is the
        same (wait() then inspect)."""
        results = []
        for version in (V0, VD, VE):
            if op == "amo_fetch_add_into" and version is V0:
                continue  # op doesn't exist there
            versioned_ctx(version)
            fut = issue(op, operation_cx.as_future())
            val = fut.wait()
            results.append(
                tuple(val) if hasattr(val, "__len__") else val
            )
        assert len(set(map(repr, results))) == 1

    @pytest.mark.parametrize("factory", ["eager", "defer"])
    def test_explicit_factories_rejected_on_2021_3_0(
        self, versioned_ctx, factory
    ):
        from repro.errors import CompletionError

        versioned_ctx(V0)
        with pytest.raises(CompletionError):
            issue("rput", FACTORIES[factory]())
