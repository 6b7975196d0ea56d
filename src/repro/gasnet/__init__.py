"""Simulated GASNet-EX communication substrate.

UPC++ sits on GASNet-EX; the paper's experiments use its SMP conduit (on
Intel) and UDP/MPI conduits with process-shared memory (PSHM, on IBM and
Marvell) so that all on-node communication is via shared memory.  This
package provides the same structure:

* :mod:`repro.gasnet.conduit` — conduits with a PSHM shared-memory-bypass
  path (synchronous completion) and an active-message path (asynchronous,
  completion via progress);
* :mod:`repro.gasnet.am` — the active-message queues;
* :mod:`repro.gasnet.aggregator` — destination-batched coalescing of
  small off-node AMs into bundled messages (flush policies, the
  completion-semantics gate).
"""

from repro.gasnet.am import ActiveMessage
from repro.gasnet.aggregator import AggregatorSnapshot, AmAggregator
from repro.gasnet.conduit import Conduit, make_conduit, CONDUIT_NAMES

__all__ = [
    "ActiveMessage",
    "AggregatorSnapshot",
    "AmAggregator",
    "Conduit",
    "make_conduit",
    "CONDUIT_NAMES",
]
