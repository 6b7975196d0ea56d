"""Tests for the exception hierarchy and error-path behaviours."""

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.NotInitializedError,
            errors.BadSharedAlloc,
            errors.SegmentError,
            errors.InvalidGlobalPointer,
            errors.LocalityError,
            errors.FutureError,
            errors.PromiseError,
            errors.CompletionError,
            errors.AtomicDomainError,
            errors.SerializationError,
            errors.DeadlockError,
            errors.SchedulerError,
            errors.RpcError,
        ],
    )
    def test_all_derive_from_upcxx_error(self, exc):
        assert issubclass(exc, errors.UpcxxError)
        assert issubclass(exc, RuntimeError)

    def test_bad_shared_alloc_is_memory_error(self):
        assert issubclass(errors.BadSharedAlloc, MemoryError)

    def test_locality_error_is_invalid_pointer(self):
        assert issubclass(errors.LocalityError, errors.InvalidGlobalPointer)

    def test_not_initialized_message(self):
        e = errors.NotInitializedError("rput")
        assert "rput" in str(e)
        assert "spmd_run" in str(e)

    def test_catch_all_family(self):
        with pytest.raises(errors.UpcxxError):
            raise errors.DeadlockError("hang")


class TestErrorPaths:
    def test_require_spmd_ctx_outside_world(self):
        from repro.runtime.context import (
            current_ctx_or_none,
            require_spmd_ctx,
            set_current_ctx,
        )

        saved = current_ctx_or_none()
        set_current_ctx(None)
        try:
            with pytest.raises(errors.NotInitializedError):
                require_spmd_ctx()
        finally:
            set_current_ctx(saved)

    def test_rank_failure_tears_down_whole_job(self):
        from repro import barrier, rank_me
        from repro.runtime.runtime import spmd_run

        def body():
            if rank_me() == 2:
                raise errors.SegmentError("synthetic")
            barrier()  # would hang forever without teardown

        with pytest.raises(errors.SegmentError, match="synthetic"):
            spmd_run(body, ranks=4)

    def test_error_in_progress_callback_propagates(self):
        from repro.runtime.runtime import spmd_run
        from repro.runtime.context import current_ctx

        def body():
            ctx = current_ctx()
            ctx.progress_engine.enqueue_deferred(
                lambda: (_ for _ in ()).throw(ValueError("from callback"))
            )
            ctx.progress()

        with pytest.raises(ValueError, match="from callback"):
            spmd_run(body, ranks=1)
