"""Payload-size accounting for RPC arguments and results.

UPC++ serializes RPC arguments with its own serialization framework; here
the simulation only needs the *size* of the payload (to charge per-byte
costs) plus a guarantee that the payload is actually shippable.  Sizes are
estimated without copying where possible (numpy buffers, bytes); other
objects are measured by pickling, which simultaneously validates that the
object could be serialized at all.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.errors import SerializationError


def payload_nbytes(obj) -> int:
    """Estimated on-the-wire size of ``obj`` in bytes.

    Raises :class:`~repro.errors.SerializationError` for objects that
    cannot be serialized (e.g. lambdas capturing sockets, open files).
    """
    if isinstance(obj, (tuple, list)):
        # an element whose exact type is int, float or bool is one 8-byte
        # word, sized inline; every other element (subclasses included)
        # takes the general path
        total = 8
        for x in obj:
            cls = type(x)
            if cls is int or cls is float or cls is bool:
                total += 8
            else:
                total += payload_nbytes(x)
        return total
    if obj is None:
        return 0
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (memoryview, np.ndarray)):
        return obj.nbytes
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, dict):
        return (
            sum(
                payload_nbytes(k) + payload_nbytes(v)
                for k, v in obj.items()
            )
            + 8
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # noqa: BLE001 - converted to domain error
        raise SerializationError(
            f"cannot serialize RPC payload of type {type(obj).__name__}: {exc}"
        ) from exc
