"""Estimating the wire size of Python payloads.

Messages carry real Python/NumPy objects (so the numerics are checkable);
their simulated wire size comes from :func:`nbytes_of`.  Applications that
send structured objects can always pass an explicit ``nbytes=`` to override
the estimate.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

__all__ = ["checked_nbytes", "nbytes_of"]

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 16

# exact types answered before the isinstance chain: collectives ship lists
# of small tuples of ints (e.g. comm_split's allgather), so these are the
# common items
_SCALAR_TYPES = frozenset((bool, int, float, complex))
_SEQUENCE_TYPES = frozenset((list, tuple, set, frozenset))


def checked_nbytes(nbytes: Any) -> int:
    """An explicit ``nbytes=`` as an ``int``, refused when negative.

    A negative size would count negative bytes sent and schedule a copy
    that ends before it starts, so a send checks it before any counter
    or clock moves.
    """
    size = int(nbytes)
    if size < 0:
        raise ValueError(f"negative message size {size}")
    return size


def nbytes_of(payload: Any) -> int:
    """Estimated bytes on the wire for ``payload``."""
    kind = type(payload)
    if kind in _SCALAR_TYPES:
        return _SCALAR_BYTES
    if kind in _SEQUENCE_TYPES:
        return _CONTAINER_OVERHEAD + _items_nbytes(payload)
    # the general rules; the scalar and sequence branches below only see
    # what the exact-type checks above leave: subclasses (namedtuple,
    # IntEnum, ...) and NumPy scalars.  Both paths return the same constants.
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return _SCALAR_BYTES
    if isinstance(payload, (list, tuple, set, frozenset)):
        return _CONTAINER_OVERHEAD + _items_nbytes(payload)
    if isinstance(payload, dict):
        return (
            _CONTAINER_OVERHEAD
            + _items_nbytes(payload.keys())
            + _items_nbytes(payload.values())
        )
    # dataclass-ish objects: walk their __dict__ once
    attrs = getattr(payload, "__dict__", None)
    if attrs is not None:
        return _CONTAINER_OVERHEAD + _items_nbytes(attrs.values())
    return _SCALAR_BYTES


def _items_nbytes(items: Iterable[Any]) -> int:
    """Summed ``nbytes_of`` of ``items``; exact scalars skip the call."""
    total = 0
    for item in items:
        total += _SCALAR_BYTES if type(item) in _SCALAR_TYPES else nbytes_of(item)
    return total
