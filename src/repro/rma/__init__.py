"""Remote memory access operations: ``rput``, ``rget`` (value and
into-buffer forms) and bulk transfers.

Every operation follows the same shape (the paper's §III-A):

1. pay the call/completions-processing overhead;
2. dynamic locality check (free under SMP + ``constexpr is_local``);
3. **local** (shared-memory bypass): the data moves synchronously; the
   dispatcher delivers eager or deferred notifications per the build;
4. **off-node**: an active-message round trip; completion is always
   asynchronous, delivered from the progress engine.  Builds deploying
   eager notification pay exactly one extra branch on this path.
"""

from repro.rma.put import rput, rput_bulk
from repro.rma.get import rget, rget_bulk, rget_into

__all__ = [
    "rput",
    "rput_bulk",
    "rget",
    "rget_into",
    "rget_bulk",
]
