"""Unit tests for the contended interconnect."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Machine, MachineConfig


def run_transfers(machine, transfers):
    """Spawn concurrent transfers; returns completion times in spawn order."""
    done = []

    def mover(src, dst, nbytes, start):
        from repro.sim.engine import Delay

        yield Delay(start)
        yield from machine.network.transfer(src, dst, nbytes)
        done.append(machine.engine.now)

    for spec in transfers:
        machine.engine.spawn(mover(*spec))
    machine.engine.run()
    return done


def test_uncontended_matches_pipe_ns():
    m = Machine(MachineConfig(nprocs=16))
    times = run_transfers(m, [(0, 5, 4096, 0)])
    assert times[0] == pytest.approx(m.network.pipe_ns(0, 5, 4096))


def test_intra_node_transfer_uses_memory_copy():
    m = Machine(MachineConfig(nprocs=4))
    times = run_transfers(m, [(1, 1, 1024, 0)])
    assert times[0] == pytest.approx(1024 / m.config.intra_node_copy_bpns)


def test_more_hops_cost_more():
    m = Machine(MachineConfig(nprocs=32))
    near = m.network.pipe_ns(0, 1, 1024)   # same router
    far = m.network.pipe_ns(0, 15, 1024)   # across the hypercube
    assert far > near


def test_contention_serialises_shared_link():
    m = Machine(MachineConfig(nprocs=16))
    # two transfers from node 0 at t=0 share node 0's hub-out link
    times = sorted(run_transfers(m, [(0, 4, 8192, 0), (0, 5, 8192, 0)]))
    solo = m.network.pipe_ns(0, 4, 8192)
    assert times[0] == pytest.approx(solo)
    assert times[1] > solo * 1.5


def test_disjoint_paths_do_not_interfere():
    m = Machine(MachineConfig(nprocs=16))
    solo_a = m.network.pipe_ns(0, 1, 8192)
    times = run_transfers(m, [(0, 1, 8192, 0), (4, 5, 8192, 0)])
    assert times[0] == pytest.approx(solo_a)
    assert times[1] == pytest.approx(m.network.pipe_ns(4, 5, 8192))


def test_negative_size_rejected():
    m = Machine(MachineConfig(nprocs=4))

    def bad():
        yield from m.network.transfer(0, 1, -1)

    m.engine.spawn(bad())
    with pytest.raises(ValueError):
        m.engine.run()


def test_traffic_statistics():
    m = Machine(MachineConfig(nprocs=8))
    run_transfers(m, [(0, 2, 1000, 0), (1, 1, 500, 0)])
    assert m.stats.network_messages == 2
    assert m.stats.network_bytes == 1000  # intra-node bytes don't hit links


def test_many_concurrent_transfers_complete():
    """Stress the no-deadlock guarantee: all-to-all burst on 32 CPUs."""
    m = Machine(MachineConfig(nprocs=32))
    specs = []
    n = m.config.nnodes
    for s in range(n):
        for d in range(n):
            if s != d:
                specs.append((s, d, 2048, 0))
    times = run_transfers(m, specs)
    assert len(times) == n * (n - 1)


def test_link_utilisations_shape():
    m = Machine(MachineConfig(nprocs=8))
    run_transfers(m, [(0, 3, 65536, 0)])
    utils = m.network.link_utilisations()
    assert len(utils) == len(m.topology.links)
    assert any(u > 0 for u in utils)
    assert all(0 <= u <= 1.0 + 1e-9 for u in utils)


def _link(machine, kind, src, dst):
    (ls,) = [
        ls for ls in machine.network.link_stats()
        if (ls.kind, ls.src, ls.dst) == (kind, src, dst)
    ]
    return ls


def _issue(machine, start, src, dst, nbytes, label, log, blocking=False):
    """At ``start``, begin a transfer that appends ``(label, now)`` on arrival."""
    from repro.sim.engine import Delay

    def mover():
        yield Delay(start)
        if blocking:
            yield from machine.network.transfer(src, dst, nbytes)
            log.append((label, machine.engine.now))
        else:
            started = machine.network.transfer_async(
                src, dst, nbytes,
                lambda lab: log.append((lab, machine.engine.now)), label,
            )
            assert started

    machine.engine.spawn(mover())


def test_link_fifo_mixes_coroutine_and_callback_waiters():
    """A busy link serves a blocking transfer and two timer transfers in arrival order."""
    m = Machine(MachineConfig(nprocs=16, derived={"link_stats": "on"}))
    log = []
    # every transfer takes node 0 -> node 1: hub-out(0) then hub-in(1)
    _issue(m, 0.0, 0, 1, 4096, "holder", log)
    _issue(m, 1.0, 0, 1, 1024, "blocking", log, blocking=True)
    _issue(m, 2.0, 0, 1, 2048, "async-x", log)
    _issue(m, 3.0, 0, 1, 512, "async-y", log)
    m.engine.run()

    p = {n: m.network.pipe_ns(0, 1, n) for n in (4096, 1024, 2048, 512)}
    t_holder = p[4096]
    t_blocking = t_holder + p[1024]
    t_x = t_blocking + p[2048]
    t_y = t_x + p[512]
    assert log == [
        ("holder", t_holder), ("blocking", t_blocking),
        ("async-x", t_x), ("async-y", t_y),
    ]
    hub_out = _link(m, "hub-out", 0, 0)
    assert (hub_out.acquires, hub_out.claim_waits) == (4, 3)
    # each waiter queued from its arrival until its predecessor finished
    assert hub_out.queued_ns == (t_holder - 1.0) + (t_blocking - 2.0) + (t_x - 3.0)
    assert hub_out.busy_ns == t_y
    # the handoff leaves hub-in(1) free by the time each waiter reaches it
    hub_in = _link(m, "hub-in", 0, 1)
    assert (hub_in.acquires, hub_in.claim_waits, hub_in.queued_ns) == (4, 0, 0.0)


def test_finished_transfer_releases_its_route_in_reverse():
    """The last link's waiter is handed over first, so it completes first on a tie."""
    m = Machine(MachineConfig(nprocs=16, derived={"link_stats": "on"}))
    log = []
    _issue(m, 0.0, 0, 1, 1024, "a", log)   # hub-out(0), hub-in(1)
    _issue(m, 1.0, 0, 3, 1024, "b", log)   # queues on hub-out(0)
    _issue(m, 2.0, 2, 1, 1024, "c", log)   # queues on hub-in(1)
    m.engine.run()

    t_a = m.network.pipe_ns(0, 1, 1024)
    t_bc = t_a + m.network.pipe_ns(0, 3, 1024)
    assert m.network.pipe_ns(2, 1, 1024) == m.network.pipe_ns(0, 3, 1024)
    # hub-in(1) is released before hub-out(0): c resumes, and so arrives, first
    assert log == [("a", t_a), ("c", t_bc), ("b", t_bc)]
    assert _link(m, "hub-out", 0, 0).queued_ns == t_a - 1.0
    assert _link(m, "hub-in", 0, 1).queued_ns == t_a - 2.0


def _run_batch(cpus, batch, timer):
    """Run ``batch`` of ``(start, src, dst, nbytes)`` transfers on a fresh machine.

    With ``timer`` each mover starts its transfer with ``transfer_async``;
    otherwise it spawns a coroutine around ``Network.transfer``.  Returns
    the machine and the ``(index, arrival time)`` log in arrival order.
    """
    from repro.sim.engine import Delay

    m = Machine(MachineConfig(nprocs=cpus, derived={"link_stats": "on"}))
    net = m.network
    log = []

    def carry(i, src, dst, nbytes):
        yield from net.transfer(src, dst, nbytes)
        log.append((i, m.engine.now))

    def mover(i, start, src, dst, nbytes):
        yield Delay(start)
        if timer:
            assert net.transfer_async(
                src, dst, nbytes, lambda j: log.append((j, m.engine.now)), i
            )
        else:
            m.engine.spawn(carry(i, src, dst, nbytes))

    for i, spec in enumerate(batch):
        m.engine.spawn(mover(i, *spec))
    m.engine.run()
    return m, log


@st.composite
def _transfer_batches(draw):
    cpus = draw(st.sampled_from((16, 64)))
    nodes = st.integers(0, cpus // MachineConfig(nprocs=cpus).cpus_per_node - 1)
    spec = st.tuples(
        st.integers(0, 6).map(lambda k: 150.0 * k),
        nodes,
        nodes,
        st.one_of(st.sampled_from((0, 1, 64, 4096)), st.integers(0, 70_000)),
    )
    return cpus, draw(st.lists(spec, min_size=1, max_size=40))


@settings(max_examples=40, deadline=None)
@given(_transfer_batches())
def test_timer_transfers_match_coroutine_transfers(case):
    """``transfer_async`` and spawned ``transfer`` coroutines are indistinguishable.

    Random batches (same-node pairs and zero-byte sizes included) with
    staggered starts, so links queue in mixed orders: delivery times and
    order, per-link statistics, traffic counters and the engine's seq
    count must all be identical.
    """
    cpus, batch = case
    timer, timer_log = _run_batch(cpus, batch, timer=True)
    spawned, spawned_log = _run_batch(cpus, batch, timer=False)
    assert timer_log == spawned_log
    assert len(timer_log) == len(batch)
    assert timer.network.link_stats() == spawned.network.link_stats()
    assert timer.stats.network_messages == spawned.stats.network_messages == len(batch)
    assert timer.stats.network_bytes == spawned.stats.network_bytes
    assert timer.engine.counters()["events"] == spawned.engine.counters()["events"]
    assert timer.network.timer_fast_transfers == len(batch)
