"""Unit tests for the directory coherence protocol cost model."""

import pytest

from repro.machine import Machine, MachineConfig


@pytest.fixture
def machine():
    return Machine(MachineConfig(nprocs=8))


def test_latency_ladder(machine):
    """hit < local miss < remote miss < dirty miss — the Origin2000 ladder."""
    d = machine.directory
    cfg = machine.config
    # cpu0 (node0) first-touch -> home is node0
    local, kind = d.transaction(0, 1000, False, 0.0)
    assert kind == "local"
    hit, kind = d.transaction(0, 1000, False, 0.0)
    assert kind == "hit" and hit == cfg.l2_hit_ns
    # cpu6 is node3 (router 1): remote read of node0-homed line
    remote, kind = d.transaction(6, 2000, False, 0.0)
    assert kind == "local"  # 2000 first touched by node 3 -> local there
    d2 = machine.directory
    remote, kind = d2.transaction(6, 1000, False, 0.0)
    assert kind == "remote"
    # make line 3000 dirty at cpu0, then read from cpu6 -> dirty miss
    d.transaction(0, 3000, True, 0.0)
    dirty, kind = d.transaction(6, 3000, False, 0.0)
    assert kind == "dirty"
    assert hit < local < remote < dirty


def test_write_invalidates_sharers(machine):
    d = machine.directory
    for cpu in (0, 2, 4):
        d.transaction(cpu, 500, False, 0.0)
    assert d.sharers_of(500) == {0, 2, 4}
    d.transaction(6, 500, True, 0.0)
    assert d.sharers_of(500) == {6}
    assert d.owner_of(500) == 6
    # the previous sharers lost their copies
    for cpu in (0, 2, 4):
        assert not machine.caches[cpu].contains(500)
    assert machine.stats.per_cpu[6].invalidations_sent == 3


def test_read_downgrades_dirty_owner(machine):
    d = machine.directory
    d.transaction(0, 600, True, 0.0)
    assert d.owner_of(600) == 0
    d.transaction(4, 600, False, 0.0)
    assert d.owner_of(600) is None
    assert d.sharers_of(600) == {0, 4}
    assert machine.caches[0].contains(600)
    assert not machine.caches[0].is_dirty(600)


def test_write_hit_when_exclusive_is_cheap(machine):
    d = machine.directory
    d.transaction(0, 700, True, 0.0)
    lat, kind = d.transaction(0, 700, True, 0.0)
    assert kind == "hit"
    assert lat == machine.config.l2_hit_ns


def test_upgrade_from_shared(machine):
    d = machine.directory
    d.transaction(0, 800, False, 0.0)
    d.transaction(2, 800, False, 0.0)
    lat, kind = d.transaction(0, 800, True, 0.0)
    assert kind == "upgrade"
    assert lat > machine.config.l2_hit_ns
    assert d.owner_of(800) == 0
    assert not machine.caches[2].contains(800)


def test_eviction_clears_directory_state():
    machine = Machine(MachineConfig(nprocs=2, l2_bytes=2 * 128, l2_assoc=1))
    d = machine.directory
    d.transaction(0, 0, False, 0.0)   # set 0
    d.transaction(0, 2, False, 0.0)   # set 0 again (2 sets total) -> evicts 0
    assert d.sharers_of(0) == set()


def test_home_queueing_penalises_hot_node():
    machine = Machine(MachineConfig(nprocs=8), placement="fixed:0")
    d = machine.directory
    # many CPUs hammer lines homed on node 0 at the same instant
    lat_first, _ = d.transaction(2, 10_000, False, 0.0)
    lat_second, _ = d.transaction(4, 10_001, False, 0.0)
    assert lat_second > lat_first  # waits behind the first at node 0's memory


def test_dirty_write_takes_ownership(machine):
    d = machine.directory
    d.transaction(0, 900, True, 0.0)
    lat, kind = d.transaction(4, 900, True, 0.0)
    assert kind == "dirty"
    assert d.owner_of(900) == 4
    assert not machine.caches[0].contains(900)


def test_transaction_counter(machine):
    before = machine.stats.directory_transactions
    machine.directory.transaction(0, 42, False, 0.0)
    machine.directory.transaction(0, 42, False, 0.0)  # hit: not a dir txn
    assert machine.stats.directory_transactions == before + 1


class TestWritebackCharge:
    """A dirty victim's drain to home memory is billed, not dropped."""

    @staticmethod
    def _one_set_machine():
        # one 2-way set: every line maps to it, evictions are immediate
        return Machine(MachineConfig(nprocs=4, l2_bytes=2 * 128))

    def test_dirty_eviction_charges_service_time(self):
        dirty_m = self._one_set_machine()
        clean_m = self._one_set_machine()
        d, c = dirty_m.directory, clean_m.directory
        for line in (0, 1):
            d.transaction(0, line, True, 0.0)   # dirty residents
            c.transaction(0, line, False, 0.0)  # clean residents
        lat_dirty, kind_d = d.transaction(0, 2, False, 0.0)
        lat_clean, kind_c = c.transaction(0, 2, False, 0.0)
        assert kind_d == kind_c == "local"
        assert lat_dirty == lat_clean + d._service_ns
        assert dirty_m.stats.writebacks_charged == 1
        assert clean_m.stats.writebacks_charged == 0

    def test_remote_victim_home_counts_network_bytes(self):
        def run(write_first: bool):
            m = self._one_set_machine()
            d = m.directory
            # cpu2 (node 1) first-touches line 7's page -> homed on node 1
            d.transaction(2, 7, False, 0.0)
            d.transaction(0, 7, write_first, 0.0)
            d.transaction(0, 8, False, 0.0)
            d.transaction(0, 9, False, 0.0)  # evicts line 7, home remote
            return m.stats.writebacks_charged, m.stats.network_bytes

        wb_dirty, bytes_dirty = run(write_first=True)
        wb_clean, bytes_clean = run(write_first=False)
        assert wb_dirty == 1 and wb_clean == 0
        # draining the dirty victim to its remote home moves one extra line
        line_bytes = MachineConfig(nprocs=4).line_bytes
        assert bytes_dirty == bytes_clean + line_bytes

    def test_clean_eviction_charges_nothing(self):
        m = self._one_set_machine()
        d = m.directory
        for line in (0, 1, 2, 3):  # read-only churn through the single set
            d.transaction(0, line, False, 0.0)
        assert m.stats.writebacks_charged == 0

    def test_batch_path_bills_writebacks_identically(self):
        on = Machine(MachineConfig(nprocs=2, l2_bytes=8 * 128))
        off = Machine(MachineConfig(nprocs=2, l2_bytes=8 * 128))
        lines = range(64)  # 8x the cache capacity
        for _ in range(2):
            on.directory.transaction_batch(0, list(lines), True, 0.0)
            for line in lines:  # the scalar protocol, one line at a time
                off.directory.transaction(0, line, True, 0.0)
        assert on.stats.writebacks_charged == off.stats.writebacks_charged > 0
