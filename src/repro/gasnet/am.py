"""Active messages: the asynchronous transport under every conduit.

An :class:`ActiveMessage` is a handler plus arguments injected into a
target rank's inbox (a FIFO ``collections.deque`` owned by the conduit:
arrival order is injection order, like GASNet's default ordered transport)
with an arrival timestamp; the target executes it from inside its progress
engine.  Delivery advances the receiver's virtual clock to at least the
arrival time (conservative causality: a message cannot be observed before
it arrives).
"""

from __future__ import annotations

from typing import Callable


class ActiveMessage:
    """One in-flight active message.

    Slotted: a message can wait in an inbox until the next barrier, so it
    carries no per-instance ``__dict__`` (a separate GC-tracked object on
    Python 3.10) and is built positionally on the send path.
    """

    __slots__ = ("src_rank", "dst_rank", "handler", "args", "nbytes",
                 "arrival_ns", "label")

    def __init__(
        self,
        src_rank: int,
        dst_rank: int,
        handler: Callable,  # invoked as handler(dst_ctx, *args)
        args: tuple,
        nbytes: int,
        arrival_ns: float,
        label: str = "am",
    ):
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.handler = handler
        self.args = args
        self.nbytes = nbytes
        self.arrival_ns = arrival_ns
        self.label = label
