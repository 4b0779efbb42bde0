"""Sub-communicators: ``comm_split`` and group-scoped operations.

``ctx.comm_split(color, key)`` is collective over the world; every rank
with the same ``color`` lands in one group, ordered by ``(key, world
rank)``.  The returned :class:`MpiComm` exposes the same point-to-point
and collective API with *local* ranks, and namespaces its tags so traffic
on different communicators can never match each other — which is what
makes the hybrid (MPI between nodes, shared memory within) programming
model expressible.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.models.mpi.requests import Request, Status
from repro.models.payload import checked_nbytes

__all__ = ["MpiComm"]

_USER_TAG_LIMIT = 1 << 20       # user tags must stay below this
_COMM_TAG_STRIDE = 1 << 22      # tag space reserved per communicator


class MpiComm:
    """A communicator over a subset of world ranks.

    Construct via :meth:`repro.models.mpi.context.MpiContext.comm_split`.
    Exposes ``rank``/``nprocs`` in *group* coordinates and the full
    point-to-point + collective API (delegating to the world context with
    rank translation and tag namespacing).
    """

    model_name = "mpi"

    def __init__(self, parent, members: Sequence[int], comm_id: int):
        if parent.rank not in members:
            raise ValueError(f"world rank {parent.rank} not in group {list(members)}")
        self.parent = parent
        self.members: Tuple[int, ...] = tuple(members)
        self.comm_id = comm_id
        self.rank = self.members.index(parent.rank)
        self.nprocs = len(self.members)
        self._tag_base = (1 + comm_id) * _COMM_TAG_STRIDE
        self._coll_seq = 0
        # accounting passthrough (collectives charge via these)
        self.stats = parent.stats
        self.machine = parent.machine
        self.cfg = parent.cfg
        self._obs = parent._obs

    # -- plumbing the collectives module expects --------------------------------

    @property
    def now(self) -> float:
        return self.parent.now

    @property
    def _charge_category(self):
        return self.parent._charge_category

    @_charge_category.setter
    def _charge_category(self, value) -> None:
        self.parent._charge_category = value

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return self._tag_base + _USER_TAG_LIMIT + self._coll_seq

    def _xlate_tag(self, tag: int) -> int:
        if not 0 <= tag < _USER_TAG_LIMIT:
            if tag >= self._tag_base:  # already namespaced (collective internals)
                return tag
            raise ValueError(f"communicator tags must be in [0, {_USER_TAG_LIMIT})")
        return self._tag_base + tag

    def world_rank(self, local: int) -> int:
        if not 0 <= local < self.nprocs:
            raise ValueError(f"bad group rank {local} (size {self.nprocs})")
        return self.members[local]

    # -- point to point -----------------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        req = yield from self.parent.isend(
            payload, self.world_rank(dest), self._xlate_tag(tag), nbytes
        )
        return req

    def send(self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        req = yield from self.isend(payload, dest, tag, nbytes)
        yield from req.wait()

    def irecv(self, source: int, tag: int = 0) -> Generator:
        req = yield from self.parent.irecv(self.world_rank(source), self._xlate_tag(tag))
        return req

    def recv(self, source: int, tag: int = 0, status: Optional[Status] = None) -> Generator:
        req = yield from self.irecv(source, tag)
        payload = yield from req.wait()
        if status is not None:
            status.source = req.status.source
            status.tag = req.status.tag
            status.nbytes = req.status.nbytes
            if status.source in self.members:
                status.source = self.members.index(status.source)
        return payload

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Generator:
        if nbytes is not None:
            checked_nbytes(nbytes)  # refuse a bad size before the receive posts
        rreq = yield from self.irecv(source, recvtag)
        sreq = yield from self.isend(payload, dest, sendtag, nbytes)
        results = yield from Request.waitall(self.parent, [rreq, sreq])
        return results[0]

    def waitall(self, requests: List[Request]) -> Generator:
        out = yield from Request.waitall(self.parent, requests)
        return out

    # -- collectives (group-scoped, same algorithms) --------------------------------

    def barrier(self) -> Generator:
        from repro.models.mpi import collectives

        yield from collectives.barrier(self)

    def bcast(self, payload: Any, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.bcast(self, payload, root)
        return result

    def reduce(self, value: Any, op=None, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.reduce(self, value, op, root)
        return result

    def allreduce(self, value: Any, op=None) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.allreduce(self, value, op)
        return result

    def gather(self, value: Any, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.gather(self, value, root)
        return result

    def allgather(self, value: Any) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.allgather(self, value)
        return result

    def scatter(self, values, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.scatter(self, values, root)
        return result

    def alltoall(self, values) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.alltoall(self, values)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiComm id={self.comm_id} rank={self.rank}/{self.nprocs} of {self.members}>"
