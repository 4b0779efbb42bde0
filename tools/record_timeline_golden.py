#!/usr/bin/env python
"""Record the simulated-timeline fingerprints the equivalence suites check.

The batched event engine, the timer-driven network transfers, the
indexed MPI match queues and the vectorised CC-SAS directory path were
each proven bit-identical to a scalar twin kept behind a
``derived[...] = "off"`` switch.  Those twins are gone; their
recordings replace them.  ``tests/golden/timelines.json`` was first
written with every configuration of the equivalence matrices run on the
scalar reference stack (all four switches off), after checking that
the default stack and each switch turned off alone gave the same
fingerprint.  The suites compare the current tree against that file,
and this script rewrites it from the current tree.

A fingerprint holds elapsed nanoseconds (by ``repr``, so float-exact),
SHA-256 digests of the per-rank results and per-CPU statistics, the
aggregate statistics summary, and, for traced rows, the obs event
stream's length and SHA-256.

Cases:

* ``engine/<model>-<P>``: a short per-model kernel (MPI halo exchange
  plus an unexpected-queue flood, SHMEM put/iput/get rings, CC-SAS
  neighbour reads, hybrid node barriers plus MPI eager traffic), traced,
  for every model at P in {1, 8, 64, 128}, and for MPI, SHMEM and hybrid
  at P=12, where the collective trees are not powers of two and SHMEM
  ``to_all`` takes its fold/unfold path;
* ``mpi-waits/<P>``: MPI ``waitall`` over interleaved eager, rendezvous
  and zero-byte receives and sends, ``waitany`` races, blocking sends of
  both protocols, every world collective, and point-to-point and
  collective traffic on ``comm_split`` sub-communicators, traced, at
  P=12;
* ``adapt-mpi/<P>``: the adapt application under MPI at P in {64, 128};
* ``adapt-sas/<P>``: adapt under CC-SAS at P in {1, 4, 8} on a mesh
  large enough for its shared-array sweeps to take the vectorised
  directory path;
* ``wildcard-flood/<P>``: MPI receives with ``ANY_SOURCE`` over deep
  unexpected queues, the matching pattern the bucket index cannot answer;
* ``nbody-<model>/<P>``: Barnes–Hut under MPI, SHMEM and CC-SAS at P in
  {8, 64}, whose per-rank tree builds, force walks and cost-zones
  splits all feed the simulated time;
* ``contended-net/<model>/<P>``: all-to-all traffic dense enough that
  most transfers queue for a busy link — SHMEM ``put``/``iput`` with a
  blocking ``get`` per rank, and MPI eager ``isend`` with one rendezvous
  send per rank — traced, at P in {8, 64}, with per-link statistics on.
  These rows also carry the SHA-256 of ``Network.link_stats()`` (bytes,
  acquires, claim waits, queued ns and busy ns per link), which pins
  per-link FIFO queueing;
* ``adapt-coarsen/<model>/<P>``: the adapt application under every model
  at P in {8, 64}, traced, on the smallest trajectory whose ghost,
  boundary-mark, migration and coarsening-handoff tables are all
  non-empty (``mesh_n=8, phases=3``);
* ``adapt3d/<model>/<P>``: the 3-D application on the default
  ``Adapt3DConfig`` under every model at P=8, traced.

The P=12 ``engine`` rows, the ``mpi-waits`` rows, the ``contended-net``
rows and the ``nbody-shmem`` rows also record the engine's ``seq`` count
(``Engine.counters()["events"]``): a runtime that folds coroutine steps
into timers, or a timer transfer that queues on busy links, must
allocate the same seqs.

Re-run only when an intentional simulated-time change lands (and say so
in the commit):

    PYTHONPATH=src python tools/record_timeline_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, Generator, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "timelines.json"
)

MODELS = ("mpi", "shmem", "sas", "hybrid")
ENGINE_PROCS = (1, 8, 64, 128)
ENGINE_ODD_MODELS = ("mpi", "shmem", "hybrid")
ENGINE_ODD_PROCS = (12,)
MPI_WAITS_PROCS = (12,)
ADAPT_MPI_PROCS = (64, 128)
ADAPT_SAS_PROCS = (1, 4, 8)
WILDCARD_PROCS = (8,)
NBODY_MODELS = ("mpi", "shmem", "sas")
NBODY_PROCS = (8, 64)
CONTENDED_MODELS = ("shmem", "mpi")
CONTENDED_PROCS = (8, 64)
ADAPT_COARSEN_PROCS = (8, 64)
ADAPT3D_PROCS = (8,)

_HALO_TAG = 5
_FLOOD_TAG = 100


# -- per-model kernels ---------------------------------------------------------


def halo_pairs(nprocs: int) -> List[Tuple[int, int, int]]:
    """The adapt application's ghost-exchange pattern at this P.

    The union of the per-phase ghost sends of a small adapt trajectory,
    as ``(src, dst, nbytes)`` triples.
    """
    from repro.apps.adapt import AdaptConfig, build_script

    script = build_script(AdaptConfig(mesh_n=8, phases=3, solver_iters=2), nprocs)
    merged: Dict[Tuple[int, int], int] = {}
    for plan in script.phases:
        for (p, q), ids in plan.ghost_sends.items():
            key = (int(p), int(q))
            merged[key] = max(merged.get(key, 0), max(int(len(ids)) * 8, 8))
    return [(p, q, nb) for (p, q), nb in sorted(merged.items())]


def halo_flood_program(ctx, pairs, flood: int, sweeps: int) -> Generator:
    """MPI halo exchange, then ``flood`` eager messages drained in reverse.

    The reverse-order drain makes every receive miss the queue head, so
    it exercises the match queue's out-of-order route.
    """
    me = ctx.rank
    for _ in range(sweeps):
        reqs = []
        for (p, q, nb) in pairs:
            if q == me:
                r = yield from ctx.irecv(p, tag=_HALO_TAG)
                reqs.append(r)
        for (p, q, nb) in pairs:
            if p == me:
                r = yield from ctx.isend(None, q, tag=_HALO_TAG, nbytes=nb)
                reqs.append(r)
        if reqs:
            yield from ctx.waitall(reqs)
        partner = me ^ 1
        if partner < ctx.nprocs:
            sreqs = []
            for f in range(flood):
                r = yield from ctx.isend(None, partner, tag=_FLOOD_TAG + f, nbytes=64)
                sreqs.append(r)
            for f in reversed(range(flood)):
                yield from ctx.recv(partner, tag=_FLOOD_TAG + f)
            yield from ctx.waitall(sreqs)
        yield from ctx.barrier()
    return float(ctx.now)


def mpi_program(ctx, flood: int) -> Generator:
    v = yield from halo_flood_program(ctx, halo_pairs(ctx.nprocs), flood, 1)
    return v


def shmem_program(ctx, nelems: int) -> Generator:
    import numpy as np

    sym = ctx.salloc("eq", nelems * ctx.nprocs)
    data = np.full(nelems, float(ctx.rank))
    right = (ctx.rank + 1) % ctx.nprocs
    left = (ctx.rank - 1) % ctx.nprocs
    for _ in range(2):
        yield from ctx.put(sym, right, data, offset=ctx.rank * nelems)
        yield from ctx.iput(sym, left, data[: nelems // 2], 2, offset=ctx.rank * nelems)
        yield from ctx.quiet()
        got = yield from ctx.get(sym, left, offset=left * nelems, count=nelems)
        yield from ctx.barrier_all()
        v = yield from ctx.sum_to_all(float(got[0]))
        yield from ctx.compute(100.0)
    return v


def sas_program(ctx, nelems: int) -> Generator:
    arr = ctx.shalloc("eq", nelems * ctx.nprocs)
    lo = ctx.rank * nelems
    for _ in range(2):
        yield from ctx.swrite(arr, [float(ctx.rank)] * nelems, lo=lo)
        yield from ctx.barrier()
        peer = (ctx.rank + 1) % ctx.nprocs
        vals = yield from ctx.sread(arr, lo=peer * nelems, hi=peer * nelems + nelems)
        v = yield from ctx.reduce_all(float(vals[0]))
        yield from ctx.compute(100.0)
    return v


def hybrid_program(ctx, flood: int) -> Generator:
    # both halves: node-scoped SAS barriers + MPI eager traffic
    yield from ctx.node_barrier()
    partner = ctx.rank ^ 1
    if partner < ctx.nprocs:
        reqs = []
        for f in range(flood):
            r = yield from ctx.mpi.isend(None, partner, tag=300 + f, nbytes=64)
            reqs.append(r)
        for f in reversed(range(flood)):
            yield from ctx.mpi.recv(partner, tag=300 + f)
        yield from ctx.mpi.waitall(reqs)
    yield from ctx.node_barrier()
    v = yield from ctx.allreduce(float(ctx.rank))
    return v


def wildcard_flood_program(ctx, flood: int) -> Generator:
    """Every rank floods both ring neighbours, then drains by tag from ANY_SOURCE.

    Tags are drained in reverse, so each receive probes a deep unexpected
    queue with a wildcard source: the bucket index cannot answer it.  The
    neighbours send different sizes and each rank folds the order of the
    sources it matched into its result, so a wrong match changes both the
    timeline and the results.
    """
    from repro.models.mpi import ANY_SOURCE, Status

    n = ctx.nprocs
    peers = sorted({(ctx.rank + 1) % n, (ctx.rank - 1) % n})
    reqs = []
    for peer in peers:
        for f in range(flood):
            nbytes = 32 + 8 * (ctx.rank % 3)
            r = yield from ctx.isend(None, peer, tag=_FLOOD_TAG + f, nbytes=nbytes)
            reqs.append(r)
    status = Status()
    matched = 0
    for f in reversed(range(flood)):
        for _ in peers:
            yield from ctx.recv(ANY_SOURCE, tag=_FLOOD_TAG + f, status=status)
            matched = (matched * 31 + status.source) % 1_000_003
    yield from ctx.waitall(reqs)
    yield from ctx.barrier()
    return float(ctx.now), matched


def contended_shmem_program(ctx, nelems: int) -> Generator:
    """All-to-all puts, strided puts and a blocking get, twice.

    Slice sizes vary by (rank, peer), so transfers of different lengths
    overlap on shared links and queue in FIFO order; the blocking ``get``
    queues a coroutine transfer among the callback ones.
    """
    import numpy as np

    n = ctx.nprocs
    sym = ctx.salloc("a2a", 2 * nelems * n)
    for step in range(2):
        for k in range(1, n):
            peer = (ctx.rank + k) % n
            count = 1 + (ctx.rank * 7 + peer * 3 + step) % nelems
            data = np.full(count, float(ctx.rank * n + peer))
            yield from ctx.put(sym, peer, data, offset=ctx.rank * nelems)
            if k % 3 == 1:
                yield from ctx.iput(
                    sym, peer, data[: max(count // 4, 1)], 2,
                    offset=n * nelems + ctx.rank * nelems,
                )
        left = (ctx.rank - 1) % n
        got = yield from ctx.get(sym, left, offset=0, count=nelems)
        yield from ctx.quiet()
        yield from ctx.barrier_all()
        yield from ctx.compute(50.0 + float(got[0] % 7))
    yield from ctx.barrier_all()
    return float(sym.copies[ctx.rank].sum())


def contended_mpi_program(ctx, max_bytes: int) -> Generator:
    """Eager all-to-all plus one rendezvous message per rank, twice.

    The rendezvous transfer runs as a coroutine and queues for links
    among the eager callback transfers.
    """
    n = ctx.nprocs
    me = ctx.rank
    total = 0.0
    for step in range(2):
        reqs = []
        for k in range(1, n):
            src = (me - k) % n
            r = yield from ctx.irecv(src, tag=200 + step)
            reqs.append(r)
        right = (me + 1) % n
        left = (me - 1) % n
        if n > 1:
            r = yield from ctx.irecv(left, tag=300 + step)
            reqs.append(r)
        for k in range(1, n):
            dst = (me + k) % n
            nbytes = 64 + ((me * 131 + dst * 17 + step) * 97) % max_bytes
            r = yield from ctx.isend(float(me), dst, tag=200 + step, nbytes=nbytes)
            reqs.append(r)
        if n > 1:
            r = yield from ctx.isend(float(me), right, tag=300 + step,
                                     nbytes=4 * ctx.cfg.mpi_eager_bytes)
            reqs.append(r)
        vals = yield from ctx.waitall(reqs)
        total += sum(v for v in vals if isinstance(v, float))
        yield from ctx.barrier()
    return total


def mpi_waits_program(ctx, rounds: int) -> Generator:
    """Nonblocking completion calls over mixed protocols, plus sub-communicators.

    Each round every rank exchanges with both ring neighbours through one
    ``waitall`` whose list interleaves receives and sends of eager,
    rendezvous and zero-byte messages; then races three receives through
    ``waitany`` (one already complete, two arriving after staggered
    compute); then sends blocking messages of both protocols around the
    ring.  The world collectives and a ``comm_split`` group's
    point-to-point and collective calls follow.  Results fold in every
    received value and the ``waitany`` completion order.
    """
    n = ctx.nprocs
    me = ctx.rank
    big = 4 * ctx.cfg.mpi_eager_bytes
    left = (me - 1) % n
    right = (me + 1) % n
    acc = 0.0
    order = 0
    for step in range(rounds):
        base = 400 + 10 * step
        size_r = big if (me + step) % 3 == 0 else 24 + 8 * (me % 5)
        size_l = big if (me + step) % 4 == 1 else 40
        reqs = []
        r = yield from ctx.irecv(left, tag=base)
        reqs.append(r)
        r = yield from ctx.isend(float(me + step), right, tag=base, nbytes=size_r)
        reqs.append(r)
        r = yield from ctx.irecv(right, tag=base + 1)
        reqs.append(r)
        r = yield from ctx.isend(None, left, tag=base + 2)
        reqs.append(r)
        r = yield from ctx.irecv(right, tag=base + 2)
        reqs.append(r)
        r = yield from ctx.isend(float(2 * me), left, tag=base + 1, nbytes=size_l)
        reqs.append(r)
        vals = yield from ctx.waitall(reqs)
        acc += sum(v for v in vals if isinstance(v, float))
        # waitany: the neighbours' messages land after staggered compute,
        # the self-message is already complete before the call
        racers = []
        for peer, tag in ((left, base + 3), (right, base + 4), (me, base + 5)):
            r = yield from ctx.irecv(peer, tag=tag)
            racers.append(r)
        sends = []
        r = yield from ctx.isend(float(me), me, tag=base + 5, nbytes=16)
        sends.append(r)
        yield from ctx.compute(37.0 * (me % 4))
        r = yield from ctx.isend(float(me), right, tag=base + 3, nbytes=32)
        sends.append(r)
        yield from ctx.compute(53.0 * ((me + 1) % 3))
        r = yield from ctx.isend(float(me), left, tag=base + 4,
                                 nbytes=big if me % 2 else 48)
        sends.append(r)
        pending = list(range(len(racers)))
        while pending:
            idx, val = yield from ctx.waitany([racers[i] for i in pending])
            order = (order * 7 + pending[idx]) % 1_000_003
            acc += val
            del pending[idx]
        yield from ctx.waitall(sends)
        # blocking sends of both protocols; odd ranks receive first so the
        # rendezvous ring cannot deadlock
        size = big if (me + step) % 2 else 56
        if me % 2:
            got = yield from ctx.recv(left, tag=base + 6)
            yield from ctx.send(float(me), right, tag=base + 6, nbytes=size)
        else:
            yield from ctx.send(float(me), right, tag=base + 6, nbytes=size)
            got = yield from ctx.recv(left, tag=base + 6)
        acc += got
    total = yield from ctx.allreduce(acc)
    root_val = yield from ctx.bcast(float(me) if me == 3 else None, root=3)
    part = yield from ctx.reduce(float(me), root=n - 1)
    every = yield from ctx.allgather(me * me)
    mine = yield from ctx.scatter([float(i) for i in range(n)] if me == 1 else None, root=1)
    scanned = yield from ctx.scan(float(me))
    shifted = yield from ctx.alltoall([float(me * n + i) for i in range(n)])
    comm = yield from ctx.comm_split(me % 3, key=-me)
    c_me, c_n = comm.rank, comm.nprocs
    c_right = (c_me + 1) % c_n
    c_left = (c_me - 1) % c_n
    got = yield from comm.sendrecv(float(me), c_right, c_left, sendtag=1, recvtag=1)
    creqs = []
    r = yield from comm.irecv(c_left, tag=2)
    creqs.append(r)
    r = yield from comm.isend(float(me), c_right, tag=2,
                              nbytes=big if c_me % 2 else 24)
    creqs.append(r)
    cvals = yield from comm.waitall(creqs)
    if c_me % 2:
        cgot = yield from comm.recv(c_left, tag=3)
        yield from comm.send(float(me), c_right, tag=3, nbytes=big)
    else:
        yield from comm.send(float(me), c_right, tag=3, nbytes=big)
        cgot = yield from comm.recv(c_left, tag=3)
    csum = yield from comm.allreduce(float(me))
    cb = yield from comm.bcast(float(me), root=c_n - 1)
    yield from ctx.barrier()
    return (acc, order, total, root_val, part, sum(every), mine, scanned,
            sum(shifted), got, cvals[0], cgot, csum, cb)


ENGINE_PROGRAMS = {
    "mpi": (mpi_program, (8,)),
    "shmem": (shmem_program, (32,)),
    "sas": (sas_program, (32,)),
    "hybrid": (hybrid_program, (8,)),
}

CONTENDED_PROGRAMS = {
    "shmem": (contended_shmem_program, 512),
    "mpi": (contended_mpi_program, 8 * 1024),
}


def adapt_workload(model: str):
    from repro.apps.adapt import AdaptConfig

    if model == "sas":
        # mesh_n=12 is the smallest mesh whose shared-array sweeps are long
        # enough (>= 16 cache lines) to enter the vectorised directory path
        return AdaptConfig(mesh_n=12, phases=3, solver_iters=4)
    return AdaptConfig(mesh_n=8, phases=2, solver_iters=2)


def nbody_workload():
    from repro.apps.nbody import NBodyConfig

    return NBodyConfig(n=128, steps=3)


# -- cases -----------------------------------------------------------------------


def cases() -> List[str]:
    """Every recorded case name, in file order."""
    names = [f"engine/{m}-{p}" for m in MODELS for p in ENGINE_PROCS]
    names += [f"engine/{m}-{p}" for m in ENGINE_ODD_MODELS for p in ENGINE_ODD_PROCS]
    names += [f"mpi-waits/{p}" for p in MPI_WAITS_PROCS]
    names += [f"adapt-mpi/{p}" for p in ADAPT_MPI_PROCS]
    names += [f"adapt-sas/{p}" for p in ADAPT_SAS_PROCS]
    names += [f"wildcard-flood/{p}" for p in WILDCARD_PROCS]
    names += [f"nbody-{m}/{p}" for m in NBODY_MODELS for p in NBODY_PROCS]
    names += [f"contended-net/{m}/{p}" for m in CONTENDED_MODELS for p in CONTENDED_PROCS]
    names += [f"adapt-coarsen/{m}/{p}" for m in MODELS for p in ADAPT_COARSEN_PROCS]
    names += [f"adapt3d/{m}/{p}" for m in MODELS for p in ADAPT3D_PROCS]
    return names


#: cases whose rows also pin the engine's seq count
SEQ_CASES = frozenset(
    [f"engine/{m}-{p}" for m in ENGINE_ODD_MODELS for p in ENGINE_ODD_PROCS]
    + [f"mpi-waits/{p}" for p in MPI_WAITS_PROCS]
    + [f"contended-net/{m}/{p}" for m in CONTENDED_MODELS for p in CONTENDED_PROCS]
    + [f"nbody-shmem/{p}" for p in NBODY_PROCS]
)


def case_machine(name: str) -> Any:
    """A fresh machine for one case (per-link stats on for ``contended-net``).

    The router network needs a power-of-two CPU count, so a P=12 case runs
    its 12 ranks on a 16-CPU machine.
    """
    from repro.machine import Machine, MachineConfig

    nprocs = int(name.rsplit("/", 1)[-1].rsplit("-", 1)[-1])
    cpus = 1 << (nprocs - 1).bit_length()
    derived = {"link_stats": "on"} if name.startswith("contended-net/") else {}
    return Machine(MachineConfig(nprocs=cpus, derived=derived))


def run_case(name: str, machine: Any = None):
    """Run one case; returns its ``ProgramResult``.

    ``machine`` lets a caller inspect fast-path counters after the run.
    """
    from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
    from repro.apps.nbody import NBODY_PROGRAMS
    from repro.models.registry import run_program

    if machine is None:
        machine = case_machine(name)
    if name.startswith("contended-net/"):
        _, model, p = name.split("/")
        program, arg = CONTENDED_PROGRAMS[model]
        return run_program(model, program, int(p), arg, machine=machine, trace=True)
    if name.startswith(("adapt-coarsen/", "adapt3d/")):
        kind, model, p = name.split("/")
        if kind == "adapt3d":
            from repro.apps.adapt3d import Adapt3DConfig, build_script3d

            script = build_script3d(Adapt3DConfig(), int(p))
        else:
            script = build_script(AdaptConfig(mesh_n=8, phases=3, solver_iters=2), int(p))
        return run_program(model, ADAPT_PROGRAMS[model], int(p), script,
                           machine=machine, trace=True)
    kind, p = name.split("/")
    if kind == "engine":
        model, p = p.split("-")
    nprocs = int(p)
    if kind == "engine":
        program, args = ENGINE_PROGRAMS[model]
        return run_program(model, program, nprocs, *args, machine=machine, trace=True)
    if kind == "mpi-waits":
        return run_program("mpi", mpi_waits_program, nprocs, 2, machine=machine, trace=True)
    if kind == "wildcard-flood":
        return run_program("mpi", wildcard_flood_program, nprocs, 48, machine=machine)
    app, model = kind.split("-")
    if app == "nbody":
        return run_program(model, NBODY_PROGRAMS[model], nprocs, nbody_workload(), machine=machine)
    script = build_script(adapt_workload(model), nprocs)
    return run_program(model, ADAPT_PROGRAMS[model], nprocs, script, machine=machine)


def record_case(name: str, machine: Any = None):
    """Run one case; returns ``(ProgramResult, fingerprint row)``."""
    if machine is None:
        machine = case_machine(name)
    result = run_case(name, machine=machine)
    row = fingerprint(result, machine)
    if name in SEQ_CASES:
        row["seqs"] = machine.engine.counters()["events"]
    return result, row


def fingerprint(result, machine: Any = None) -> Dict[str, Any]:
    """One run reduced to exact comparable fields.

    With a ``machine`` whose per-link statistics are on, the row also
    holds the SHA-256 of every link's bytes, acquires, claim waits,
    queued ns and busy ns.
    """

    def sha(obj: Any) -> str:
        return hashlib.sha256(repr(obj).encode()).hexdigest()

    row: Dict[str, Any] = {
        # repr round-trips floats exactly; the tests compare strings
        "elapsed_ns": repr(result.elapsed_ns),
        "rank_results_sha256": sha(result.rank_results),
        "per_cpu_stats_sha256": sha(result.stats.per_cpu),
        "stats_summary": {k: repr(v) for k, v in sorted(result.stats.summary().items())},
    }
    if result.events is not None:
        row["events"] = len(result.events)
        blob = "\n".join(repr(ev) for ev in result.events).encode()
        row["events_sha256"] = hashlib.sha256(blob).hexdigest()
    if machine is not None and machine.network.link_bytes is not None:
        row["link_stats_sha256"] = sha([
            (ls.kind, ls.src, ls.dst, ls.bytes, ls.acquires, ls.claim_waits,
             ls.queued_ns, ls.busy_ns)
            for ls in machine.network.link_stats()
        ])
    return row


def main() -> int:
    rows = {}
    for name in cases():
        _, row = record_case(name)
        rows[name] = row
        print(f"recorded {name:<20} elapsed={row['elapsed_ns']} events={row.get('events', '-')}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"rows": rows}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
