"""The result store's identity index and its concurrent writers.

``find_stale`` lists the keys filed under each identity a sweep touches
instead of reading the whole store.  These tests hold it to the full
scan (``tests/reference.py::reference_find_stale``) over random
sequences of put, delete, gc and refresh, on stores written with and
without the index, and check that ``verify`` reports every kind of
index drift, that a refresh reads no object of an identity it does not
touch, and that threads of one process can store one key at once.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
import threading
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.jacobi import JacobiConfig
from repro.serving import Cell, ResultStore, cache_key, find_stale, refresh
from repro.serving import scheduler
from tests.reference import reference_find_stale

#: 4 identities (model x P), 3 contents each
CELLS = [
    Cell("jacobi", model, p, JacobiConfig(nx=n, ny=n, iters=2))
    for model in ("mpi", "sas") for p in (1, 2) for n in (8, 12, 16)
]

PAYLOAD = {"model": "mpi", "nprocs": 1, "elapsed_ns": 1.0, "rank_results": [0.5]}


def _fake_compute(kwargs):
    return dict(PAYLOAD, model=kwargs["model"], nprocs=kwargs["nprocs"])


def _put(store, cell, engine=None):
    """File ``cell`` as the serving layer does; ``engine`` fakes an old one."""
    sig = cell.signature() if engine is None else dict(cell.signature(), engine=engine)
    store.put(cache_key(sig), sig, PAYLOAD, identity=cell.identity())


def _legacy_store(root, cells):
    """A store as written before the index existed: objects only."""
    store = ResultStore(root)
    for cell in cells:
        _put(store, cell)
    shutil.rmtree(store.index_dir, ignore_errors=True)
    return ResultStore(root)


class _Reads:
    """Records the key of every store object opened for reading."""

    def __init__(self):
        self.keys = []
        self._open = os.open

    def __call__(self, path, flags, *args, **kwargs):
        fd = self._open(path, flags, *args, **kwargs)
        path = str(path)
        if path.endswith(".json") and not flags & os.O_CREAT:
            self.keys.append(os.path.basename(path)[:-len(".json")])
        return fd


OPS = st.one_of(
    st.tuples(st.just("put"), st.integers(0, len(CELLS) - 1)),
    st.tuples(st.just("put_old_engine"), st.integers(0, len(CELLS) - 1)),
    st.tuples(st.just("delete"), st.integers(0, len(CELLS) - 1)),
    st.tuples(st.just("gc"), st.sampled_from(["outdated", "corrupt", "everything"])),
    st.tuples(st.just("refresh"),
              st.lists(st.integers(0, len(CELLS) - 1), min_size=1, max_size=4)),
    st.tuples(st.just("check"), st.lists(st.integers(0, len(CELLS) - 1),
                                         min_size=1, max_size=6)),
)


@settings(max_examples=40, deadline=None)
@given(
    legacy=st.lists(st.integers(0, len(CELLS) - 1), max_size=6),
    ops=st.lists(OPS, max_size=12),
    spec=st.lists(st.integers(0, len(CELLS) - 1), min_size=1, max_size=6),
)
def test_index_find_stale_equals_full_scan(legacy, ops, spec):
    root = tempfile.mkdtemp(prefix="store-index-")
    try:
        store = _legacy_store(root, [CELLS[i] for i in legacy])
        with mock.patch.object(scheduler, "_compute_cell", _fake_compute):
            for op, arg in ops + [("check", spec)]:
                if op == "put":
                    _put(store, CELLS[arg])
                elif op == "put_old_engine":
                    _put(store, CELLS[arg], engine="0.0.1")
                elif op == "delete":
                    store.delete(CELLS[arg].key())
                elif op == "gc":
                    store.gc(**{arg: True})
                elif op == "refresh":
                    cells = [CELLS[i] for i in arg]
                    expected = reference_find_stale(cells, store)
                    _, report = refresh(cells, store, gc_stale=True)
                    assert report["invalidated"] == sum(map(len, expected.values()))
                    assert report["stale_removed"] == report["invalidated"]
                    assert reference_find_stale(cells, store) == {}
                else:
                    cells = [CELLS[i] for i in arg]
                    assert find_stale(cells, store) == reference_find_stale(cells, store)
                assert store.verify()[1] == []
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _unrelated(store, count):
    """``count`` objects under identities no sweep here touches."""
    keys = set()
    for i in range(count):
        sig = {"schema": 1, "cell": i}
        key = cache_key(sig)
        store.put(key, sig, PAYLOAD, identity=f"other/{i % 400}")
        keys.add(key)
    return keys


def test_refresh_reads_no_object_outside_the_spec(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    unrelated = _unrelated(store, 2000)
    old = JacobiConfig(nx=8, ny=8, iters=3)
    for cell in CELLS[:4] + [Cell("jacobi", "sas", 2, old)]:
        _put(store, cell)
    spec = CELLS[:4] + [CELLS[-1]]  # CELLS[-1] supersedes the ``old`` cell
    reads = _Reads()
    monkeypatch.setattr(os, "open", reads)
    with mock.patch.object(scheduler, "_compute_cell", _fake_compute):
        _, report = refresh(spec, store, gc_stale=True)
    assert (report["hits"], report["misses"]) == (4, 1)
    assert report["invalidated"] == 1 and report["stale_removed"] == 1
    assert not unrelated & set(reads.keys)
    assert len(reads.keys) <= len(spec) + 2  # served hits + the stale entry


def test_store_without_index_is_indexed_once(tmp_path, monkeypatch):
    store = _legacy_store(tmp_path, CELLS[:3])
    unrelated = _unrelated(store, 50)
    shutil.rmtree(store.index_dir)
    expected = reference_find_stale(CELLS[2:3], store)
    reads = _Reads()
    monkeypatch.setattr(os, "open", reads)
    assert find_stale(CELLS[2:3], store) == expected
    assert unrelated <= set(reads.keys)  # the one full scan
    reads.keys.clear()
    assert find_stale(CELLS[2:3], ResultStore(tmp_path)) == expected
    assert not unrelated & set(reads.keys)


def _folder(cell):
    """The index directory of ``cell``'s identity."""
    return hashlib.sha256(cell.identity().encode()).hexdigest()


def test_verify_reports_each_kind_of_index_drift(tmp_path):
    store = ResultStore(tmp_path)
    for cell in CELLS[:3]:
        _put(store, cell)
    assert store.verify() == (3, [])
    unfiled, orphaned, misfiled = (c.key() for c in CELLS[:3])
    (store.index_dir / _folder(CELLS[0]) / unfiled).unlink()
    store.path_for(orphaned).unlink()
    wrong = store.index_dir / _folder(CELLS[3])
    wrong.mkdir()
    (wrong / misfiled).touch()
    count, problems = store.verify()
    assert count == 2
    assert sorted(p.split(": ")[-1] for p in problems) == [
        "filed under the wrong identity", "missing from the identity index", "no object",
    ]
    assert store.gc(older_than_days=1e6) == 0  # no object removed …
    assert store.verify() == (2, [])           # … and the index is re-filed


def test_put_during_delete_leaves_no_object_unindexed(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    sig, key, identity = CELLS[0].signed()
    store.put(key, sig, PAYLOAD, identity=identity)
    unlink = os.unlink

    def unlink_then_put(path):
        """The first unlink of ``delete``, then another writer's ``put``."""
        unlink(path)
        monkeypatch.setattr(os, "unlink", unlink)
        store.put(key, sig, PAYLOAD, identity=identity)

    monkeypatch.setattr(os, "unlink", unlink_then_put)
    assert store.delete(key)
    # at worst a marker outlives its object, which gc drops
    assert [p.split(": ")[-1] for p in store.verify()[1]] == ["no object"]
    assert store.gc() == 0 and store.verify() == (0, [])


def test_two_threads_store_one_key(tmp_path):
    store = ResultStore(tmp_path)
    cell = CELLS[0]
    sig, key, identity = cell.signed()
    errors = []

    def writer():
        try:
            for _ in range(300):
                store.put(key, sig, PAYLOAD, identity=identity)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert store.get(key) == PAYLOAD
    assert [p.name for p in store.path_for(key).parent.iterdir()] == [f"{key}.json"]
    assert store.keys_of(identity) == [key]
