"""Exception hierarchy for the :mod:`repro` APGAS runtime.

All runtime-raised errors derive from :class:`UpcxxError` so callers can
catch the whole family.  The names mirror the failure modes of the real
UPC++ runtime where one exists (e.g. ``upcxx::bad_shared_alloc``); the
simulation-specific failures (deadlock, scheduler misuse) get their own
subclasses.
"""

from __future__ import annotations


class UpcxxError(RuntimeError):
    """Base class for all errors raised by the repro APGAS runtime."""


class NotInitializedError(UpcxxError):
    """An API call required an active runtime (inside ``spmd_run``)."""

    def __init__(self, what: str = "UPC++ API call"):
        super().__init__(
            f"{what} requires an active rank context; "
            "call it from inside a function running under spmd_run()"
        )


class BadSharedAlloc(UpcxxError, MemoryError):
    """Shared-segment allocation failed (out of segment space)."""


class SegmentError(UpcxxError):
    """Out-of-bounds or misaligned access to a shared segment."""


class InvalidGlobalPointer(UpcxxError):
    """A global pointer was dereferenced/downcast where not permitted."""


class LocalityError(InvalidGlobalPointer):
    """``.local()`` was called on a pointer that is not locally addressable."""


class FutureError(UpcxxError):
    """Misuse of a future (e.g. reading the result of a non-ready future)."""


class PromiseError(UpcxxError):
    """Misuse of a promise (e.g. fulfilling past its dependency count)."""


class CompletionError(UpcxxError):
    """Invalid completion request for an operation (e.g. remote completion
    requested on an operation that does not support it)."""


class AtomicDomainError(UpcxxError):
    """An atomic op was issued that is not part of the domain's op set, or
    the domain was used after destruction."""


class SerializationError(UpcxxError):
    """An RPC argument or return value could not be serialized."""


class DeadlockError(UpcxxError):
    """Every simulated rank is blocked and no pending event can unblock any
    of them.  This is the simulation analogue of a hung SPMD job."""


class SchedulerError(UpcxxError):
    """Internal cooperative-scheduler invariant violation or misuse (e.g.
    calling a blocking primitive inline from a continuation rank body
    while another rank is runnable)."""


class RpcError(UpcxxError):
    """An RPC callback raised; the exception is propagated to the initiator
    wrapped in this type (the real runtime would abort the job)."""
