"""The symmetric heap: per-rank copies of collectively allocated arrays.

A :class:`SymmetricArray` named ``x`` of shape ``(n,)`` exists once *per
rank*; ``shmem.put`` writes into the target rank's copy, ``local()`` returns
this rank's copy for direct computation.  Each copy's pages are pinned to
the owning rank's node, as the real ``shmalloc`` does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.machine.machine import Machine

__all__ = ["SymmetricArray", "SymmetricHeap"]


class SymmetricArray:
    """One symmetric allocation: ``nprocs`` same-shaped NumPy arrays."""

    def __init__(self, name: str, machine: Machine, nprocs: int, shape: Tuple[int, ...], dtype):
        self.name = name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.copies: List[np.ndarray] = []
        #: 1-D views of ``copies``, the buffers puts, gets and atomics address
        self.flat: List[np.ndarray] = []
        self.itemsize = self.dtype.itemsize
        nbytes = max(int(np.prod(self.shape)) * self.itemsize, 1)
        self.nbytes = nbytes
        for rank in range(nprocs):
            addr = machine.memory.alloc(nbytes, page_aligned=True)
            machine.memory.place(addr, nbytes, machine.config.node_of_cpu(rank))
            copy = np.zeros(self.shape, dtype=self.dtype)
            self.copies.append(copy)
            self.flat.append(copy.reshape(-1))

    def local(self, rank: int) -> np.ndarray:
        """This rank's copy (ordinary local memory to compute on)."""
        return self.copies[rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymmetricArray({self.name!r}, shape={self.shape}, dtype={self.dtype})"


class SymmetricHeap:
    """Collective allocator: every rank must request the same allocations.

    The first caller creates the array; later callers (other ranks) receive
    the same object and the shape/dtype are verified to match — mirroring
    the real requirement that ``shmalloc`` be called symmetrically.
    """

    def __init__(self, machine: Machine, nprocs: int):
        self.machine = machine
        self.nprocs = nprocs
        self._arrays: Dict[str, SymmetricArray] = {}
        self._alloc_counts: Dict[str, int] = {}

    def allocate(self, name: str, shape: Tuple[int, ...], dtype) -> SymmetricArray:
        arr = self._arrays.get(name)
        if arr is None:
            arr = SymmetricArray(name, self.machine, self.nprocs, shape, dtype)
            self._arrays[name] = arr
            self._alloc_counts[name] = 0
        else:
            if arr.shape != tuple(shape) or arr.dtype != np.dtype(dtype):
                raise ValueError(
                    f"asymmetric allocation of {name!r}: "
                    f"{arr.shape}/{arr.dtype} vs {tuple(shape)}/{np.dtype(dtype)}"
                )
        self._alloc_counts[name] += 1
        return arr

    def get(self, name: str) -> SymmetricArray:
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"no symmetric array named {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._arrays)
