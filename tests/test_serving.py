"""Tests for the experiment-serving layer: store, scheduler, invalidation.

The contract under test everywhere: serving is *transparent*.  A served
result is bit-identical to a computed one, ``jobs=N`` is bit-identical
to ``jobs=1``, and a change to any signature field invalidates exactly
the dependent cells — nothing more, nothing less.
"""

import json
import marshal
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.adapt import AdaptConfig
from repro.apps.jacobi import JacobiConfig
from repro.harness import run_app, sweep
from repro.harness.experiment import SCRIPT_CACHE_MAX, _ScriptCache, _script_cache
from repro.serving import (
    Cell,
    ResultStore,
    cache_key,
    plan,
    refresh,
    run_cells,
    run_identity,
    run_signature,
    run_tasks,
    serve_report,
    summarize_result,
    summary_from_payload,
)
from repro.serving.store import STORE_LAYOUT
from tests.reference import write_store_object

SMALL = JacobiConfig(nx=32, ny=32, iters=4)
ADAPT = AdaptConfig(mesh_n=8, phases=2, solver_iters=2)


class TestSignatures:
    def test_stable_across_calls(self):
        assert cache_key(run_signature("jacobi", "mpi", 4, SMALL)) == \
            cache_key(run_signature("jacobi", "mpi", 4, JacobiConfig(nx=32, ny=32, iters=4)))

    def test_every_field_is_load_bearing(self):
        base = cache_key(run_signature("jacobi", "mpi", 4, SMALL))
        variants = [
            run_signature("jacobi", "shmem", 4, SMALL),
            run_signature("jacobi", "mpi", 8, SMALL),
            run_signature("jacobi", "mpi", 4, JacobiConfig(nx=32, ny=32, iters=5)),
            run_signature("jacobi", "mpi", 4, SMALL, placement="round-robin"),
            run_signature("jacobi", "mpi", 4, SMALL, faults="drizzle"),
            run_signature("jacobi", "mpi", 4, SMALL, derived={"link_stats": "on"}),
        ]
        keys = {cache_key(v) for v in variants}
        assert base not in keys and len(keys) == len(variants)

    def test_scenario_signature_uses_content_hash(self):
        from repro.workloads.synth import generate_scenario

        a = generate_scenario("multi_front", seed=1, mesh_n=6, phases=2, solver_iters=2)
        b = generate_scenario("multi_front", seed=2, mesh_n=6, phases=2, solver_iters=2)
        sig = run_signature("scenario", "mpi", 4, a)
        assert sig["workload"] == {"kind": "scenario", "content_hash": a.content_hash()}
        assert cache_key(sig) != cache_key(run_signature("scenario", "mpi", 4, b))

    def test_cross_process_hash_stability(self):
        """The key is a disk-wide contract: a fresh interpreter must agree."""
        code = (
            "from repro.apps.jacobi import JacobiConfig\n"
            "from repro.serving import cache_key, run_signature\n"
            "print(cache_key(run_signature('jacobi', 'mpi', 4, "
            "JacobiConfig(nx=32, ny=32, iters=4), faults='drizzle')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={**os.environ, "PYTHONPATH": "src"},
        )
        here = cache_key(run_signature("jacobi", "mpi", 4, SMALL, faults="drizzle"))
        assert out.stdout.strip() == here

    def test_identity_ignores_content(self):
        ident = run_identity("jacobi", "mpi", 4, SMALL)
        assert ident == "jacobi/JacobiConfig/mpi/P4/first-touch/none/default"
        assert run_identity("jacobi", "mpi", 4, JacobiConfig(nx=64, ny=64, iters=9)) == ident


class TestCellSigning:
    """A cell signs itself once, and its cached key never goes stale."""

    @staticmethod
    def _count_signing(monkeypatch):
        from repro.serving import scheduler

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[:3])
            return run_signature(*args, **kwargs)

        monkeypatch.setattr(scheduler, "run_signature", counting)
        return calls

    def test_plan_and_refresh_sign_each_cell_once(self, monkeypatch, tmp_path):
        calls = self._count_signing(monkeypatch)
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", m, p, SMALL) for m in ("mpi", "sas") for p in (1, 2)]
        assert len(plan(cells, store).misses) == 4
        _, report = refresh(cells, store, gc_stale=True)
        assert report["computed"] == 4
        _, report = refresh(cells, store, gc_stale=True)
        assert report["hits"] == 4
        assert len(calls) == len(cells)

    def test_derived_is_copied_at_construction(self):
        derived = {"link_stats": "on", "nested": {"depth": [1, 2]}}
        cell = Cell("jacobi", "mpi", 2, SMALL, derived=derived)
        key = cell.key()
        derived["link_stats"] = "off"
        derived["nested"]["depth"].append(3)
        derived["extra"] = 1
        fresh = Cell("jacobi", "mpi", 2, SMALL,
                     derived={"link_stats": "on", "nested": {"depth": [1, 2]}})
        assert cell.key() == key == fresh.key()
        assert cell.run_kwargs() == fresh.run_kwargs()
        assert cell == fresh and repr(cell) == repr(fresh)

    def test_path_scenario_is_signed_on_every_lookup(self, tmp_path):
        from repro.workloads.synth import generate_scenario

        first = generate_scenario("multi_front", seed=1, mesh_n=6, phases=2, solver_iters=2)
        second = generate_scenario("multi_front", seed=2, mesh_n=6, phases=2, solver_iters=2)
        path = first.save(tmp_path / "spec.json")
        cell = Cell("scenario", "mpi", 4, str(path))
        assert cell.key() == Cell("scenario", "mpi", 4, first).key()
        second.save(path)
        assert cell.key() == Cell("scenario", "mpi", 4, second).key()
        assert cell.key() != Cell("scenario", "mpi", 4, first).key()


class TestResultStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        result = run_app("jacobi", "mpi", 2, SMALL)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        assert store.get(key) is None  # cold
        store.put(key, sig, summarize_result(result))
        summary = summary_from_payload(store.get(key))
        assert summary.cached
        assert summary.elapsed_ns == result.elapsed_ns
        assert list(summary.rank_results) == list(result.rank_results)
        assert summary.stats.total("msgs_sent") == result.stats.total("msgs_sent")
        assert summary.stats.breakdown_totals() == result.stats.breakdown_totals()
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_corrupt_object_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        store.put(key, sig, {"model": "mpi"})
        write_store_object(store, key, b"{not marshal", {"identity": None, "signature": sig})
        assert store.get(key) is None
        assert store.read_errors == 1

    def test_json_that_is_not_an_object_is_unreadable(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        store.put(key, sig, {"model": "mpi"}, identity="jacobi/cell")
        write_store_object(store, key, {"model": "mpi"}, "[1]")
        assert store.get(key) == {"model": "mpi"}  # a lookup reads no meta
        assert store.verify() == (1, [f"{key}.json: unreadable JSON"])
        write_store_object(store, key, [1], "[1]")
        assert store.get(key) is None and store.read_errors == 1
        assert store.verify() == (1, [f"{key}.json: unreadable payload"])
        assert store.stats()["unreadable"] == 1
        assert store.gc(corrupt=True) == 1
        assert store.verify() == (0, []) and store.keys_of("jacobi/cell") == []

    def test_fields_of_the_wrong_type_are_read_as_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        store.put(key, sig, {"model": "mpi"}, identity="jacobi/cell")
        meta = {"identity": 5, "signature": sig}
        write_store_object(store, key, {"model": "mpi"}, meta)
        shutil.rmtree(store.index_dir)
        assert store.keys_of("jacobi/cell") == []  # the full scan files nothing
        assert store.verify() == (1, [])
        assert store.gc() == 0 and store.verify() == (1, [])
        meta["signature"] = [1]
        write_store_object(store, key, {"model": "mpi"}, meta)
        assert store.stats()["by_app"] == {"?": 1}
        assert store.gc(outdated=True) == 1
        write_store_object(store, key, {"model": "mpi"}, meta)
        assert store.delete(key) and store.verify() == (0, [])

    def test_verify_flags_drifted_content(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        store.put(key, sig, {"model": "mpi"})
        assert store.verify() == (1, [])
        drifted = dict(sig, nprocs=64)  # content no longer hashes to the key
        write_store_object(store, key, {"model": "mpi"},
                           {"identity": None, "signature": drifted})
        assert len(store.verify()[1]) == 1

    def test_gc_outdated_and_everything(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        store.put(cache_key(sig), sig, {"model": "mpi"})
        old = dict(sig, engine="0.0.1")
        store.put(cache_key(old), old, {"model": "mpi"})
        assert store.gc(outdated=True) == 1
        assert store.gc(everything=True) == 1
        assert store.stats()["entries"] == 0

    def test_unserialisable_payload_is_not_cached(self, tmp_path):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        assert store.put(cache_key(sig), sig, {"bad": object()}) is None
        assert store.stats()["entries"] == 0


#: a payload whose floats print with many digits
FLOATS = {"model": "mpi", "nprocs": 2, "elapsed_ns": 123456.78125,
          "rank_results": [0.1, -2.5e-7]}


def _stored(tmp_path, payload=FLOATS, identity="jacobi/cell"):
    """A store holding ``payload`` under a jacobi cell's key."""
    store = ResultStore(tmp_path)
    sig = run_signature("jacobi", "mpi", 2, SMALL)
    key = cache_key(sig)
    store.put(key, sig, payload, identity=identity)
    return store, sig, key


def _spans(data):
    """``{part: (start, end)}`` of an object's header, payload and meta
    line, found through the payload length the header declares (a binary
    payload may hold newline bytes)."""
    start = data.index(b"\n") + 1
    end = start + int(data[:start].split()[2])
    return {"header": (0, start - 1), "payload": (start, end),
            "meta": (end + 1, len(data) - 1)}


def _edit(path, part, old, new):
    """Replace the first ``old`` inside ``part`` of the object file ``path``."""
    data = path.read_bytes()
    lo, hi = _spans(data)[part]
    at = data.index(old, lo, hi)
    assert at + len(old) <= hi
    path.write_bytes(data[:at] + new + data[at + len(old):])


def _float_bytes(value):
    """How marshal stores a float: its 8 IEEE bytes, little-endian."""
    return struct.pack("<d", value)


class TestStoreIntegrity:
    """Every byte of an object is checked before it is served."""

    def test_object_bytes_match_the_layout(self, tmp_path):
        store, sig, key = _stored(tmp_path)
        path = store.path_for(key)
        stored = path.read_bytes()
        assert path == tmp_path / f"v{STORE_LAYOUT}" / "objects" / key[:2] / f"{key}.json"
        write_store_object(store, key, FLOATS, {"identity": "jacobi/cell", "signature": sig})
        assert path.read_bytes() == stored

    def test_flipped_payload_digit_is_a_miss(self, tmp_path):
        store, _, key = _stored(tmp_path)
        # the lowest mantissa bit of a stored float
        stored = _float_bytes(123456.78125)
        _edit(store.path_for(key), "payload", stored, bytes([stored[0] ^ 1]) + stored[1:])
        assert store.get(key) is None
        assert (store.read_errors, store.misses, store.hits) == (1, 1, 0)
        assert store.verify() == (1, [f"{key}.json: checksum mismatch"])
        assert store.gc(corrupt=True) == 1
        assert not store.contains(key) and store.verify() == (0, [])

    def test_damaged_meta_line_fails_the_crc(self, tmp_path):
        store, _, key = _stored(tmp_path)
        _edit(store.path_for(key), "meta", b'"jacobi/cell"', b'"jacobi/cels"')
        assert store.get(key) is None and store.read_errors == 1
        assert store.record(key) is None
        assert store.verify()[1] == [f"{key}.json: checksum mismatch"]

    def test_header_of_another_key_is_a_miss(self, tmp_path):
        store, sig, key = _stored(tmp_path)
        other = cache_key(dict(sig, nprocs=4))
        _edit(store.path_for(key), "header", key.encode(), other.encode())
        assert store.get(key) is None and store.read_errors == 1
        assert store.verify()[1] == [f"{key}.json: filed under the wrong key"]

    @pytest.mark.parametrize("keep", [0, 40, 64, 75, -200, -1])
    def test_truncated_object_is_a_miss(self, tmp_path, keep):
        store, _, key = _stored(tmp_path)
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:keep])
        assert store.get(key) is None
        assert (store.read_errors, store.misses) == (1, 1)
        assert len(store.verify()[1]) == 1

    def test_large_object_round_trips(self, tmp_path):
        payload = dict(FLOATS, rank_results=[i / 7 for i in range(8000)])
        store, _, key = _stored(tmp_path, payload)
        assert store.path_for(key).stat().st_size > 4 * 16384
        assert store.get(key) == payload and store.verify() == (1, [])

    def test_superseded_layout_is_never_read_and_gc_removes_it(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        sig = run_signature("jacobi", "mpi", 2, SMALL)
        key = cache_key(sig)
        identity = run_identity("jacobi", "mpi", 2, SMALL)
        old = tmp_path / "v1"
        (old / "objects" / key[:2]).mkdir(parents=True)
        (old / "objects" / key[:2] / f"{key}.json").write_text(json.dumps({
            "schema": 1, "key": key, "identity": identity, "signature": sig,
            "payload": FLOATS,
        }))
        (old / "index").mkdir()
        (old / "index" / "COMPLETE").touch()
        newer = tmp_path / f"v{STORE_LAYOUT + 1}"
        newer.mkdir()
        opened = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda path, *a: opened.append(str(path))
                            or real_open(path, *a))
        assert store.get(key) is None and store.read_errors == 0
        assert store.keys_of(identity) == [] and store.verify() == (0, [])
        monkeypatch.setattr(os, "open", real_open)
        assert not [p for p in opened if os.sep + "v1" + os.sep in p]
        stats = store.stats()
        assert stats["entries"] == 0
        assert stats["superseded_files"] == 2
        assert stats["superseded_bytes"] == sum(
            f.stat().st_size for f in old.rglob("*") if f.is_file())
        assert store.gc() == 0 and old.is_dir()
        assert store.gc(outdated=True) == 1
        assert not old.exists() and newer.is_dir()
        assert store.stats()["superseded_files"] == 0


#: values a text layout could bend: signed zeros, subnormals, the float
#: extremes, ints past 64 bits, and text and keys beyond ASCII
EXACT = {
    "floats": [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, 123456.78125],
    "ints": [0, -1, 2 ** 31, -2 ** 31 - 1, 2 ** 63, -2 ** 63 - 1, 10 ** 30, -10 ** 40],
    "text": ["naïve", "日本語", "emoji \U0001F600", "nul \x00 and newline \n", ""],
    "ключ": {"ü": 1.5, "日本": -0.0, "\U0001F600": [True, False, None]},
}


def _bits(value):
    """``value`` with every float as its IEEE bytes and every leaf tagged by
    its exact type, so ``==`` tells -0.0 from 0.0 and 1 from 1.0 or True."""
    if type(value) is float:
        return ("float", struct.pack("<d", value))
    if type(value) is list:
        return [_bits(v) for v in value]
    if type(value) is dict:
        return sorted((k, _bits(v)) for k, v in value.items())
    return (type(value).__name__, value)


class TestPayloadLayout:
    """The payload span is marshal format 2 of the canonical JSON's value."""

    def test_equal_payloads_give_identical_bytes(self, tmp_path):
        shared = 1 / 3
        distinct = [struct.unpack("<d", _float_bytes(shared))[0] for _ in range(16)]
        assert len({id(v) for v in distinct}) == 16
        phase = {"solve": shared, "adapt": 2.5}
        payloads = [
            dict(FLOATS, rank_results=[shared] * 16, phase_ns=phase, breakdown=phase),
            dict(FLOATS, rank_results=distinct, phase_ns=dict(phase), breakdown=dict(phase)),
        ]
        objects = []
        for i, payload in enumerate(payloads):
            store, _, key = _stored(tmp_path / str(i), payload)
            objects.append(store.path_for(key).read_bytes())
        assert objects[0] == objects[1]
        assert _float_bytes(shared) in objects[0]

    def test_get_of_put_is_bit_exact(self, tmp_path):
        store, _, key = _stored(tmp_path, EXACT)
        got = store.get(key)
        assert _bits(got) == _bits(EXACT)
        assert list(got) == sorted(EXACT)  # canonical key order
        assert _bits(store.record(key)["payload"]) == _bits(EXACT)
        assert store.verify() == (1, [])

    def test_payload_goes_through_canonical_json(self, tmp_path):
        payload = {"tuple": (1, 2.5), "nested": {"b": (), "a": [(-0.0,)]}}
        store, _, key = _stored(tmp_path, payload)
        got = store.get(key)
        assert got == {"nested": {"a": [[-0.0]], "b": []}, "tuple": [1, 2.5]}
        assert list(got["nested"]) == ["a", "b"]

    @pytest.mark.parametrize("span", [
        b"\xff",                                          # ValueError: bad type code
        marshal.dumps(FLOATS, 2)[:-3],                    # EOFError: cut short
        b"{[\x01\x00\x00\x00i\x01\x00\x00\x00i\x01\x00\x00\x000",  # TypeError: list key
        marshal.dumps([FLOATS], 2),                       # decodes, but not to a dict
        b"",
    ], ids=["bad-code", "truncated", "unhashable-key", "not-a-dict", "empty"])
    def test_undecodable_payload_is_a_miss_that_verify_names(self, tmp_path, span):
        store, sig, key = _stored(tmp_path)
        write_store_object(store, key, span, {"identity": "jacobi/cell", "signature": sig})
        assert store.get(key) is None
        assert (store.read_errors, store.misses, store.hits) == (1, 1, 0)
        assert store.record(key) is None
        assert store.verify() == (1, [f"{key}.json: unreadable payload"])
        assert store.gc(corrupt=True) == 1 and not store.contains(key)


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0]),
    st.text(),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)


def _canonical(value):
    """JSON text that tells -0.0 from 0.0 and 1 from 1.0."""
    return json.dumps(value, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(
    payload=st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6),
    identity=st.text(min_size=1),
    extra=JSON_VALUES,
)
def test_get_of_put_round_trips_any_payload(payload, identity, extra):
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        sig = dict(run_signature("jacobi", "mpi", 2, SMALL), extra=extra)
        key = cache_key(sig)
        assert store.put(key, sig, payload, identity=identity) is not None
        got = store.get(key)
        assert got == payload and _canonical(got) == _canonical(payload)
        record = store.record(key)
        assert record["identity"] == identity and record["key"] == key
        assert _canonical(record["signature"]) == _canonical(sig)
        assert store.verify() == (1, [])
        assert store.keys_of(identity) == [key]


class TestRunAppStore:
    def test_warm_run_is_served_and_identical(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_app("jacobi", "mpi", 2, SMALL, store=store)
        warm = run_app("jacobi", "mpi", 2, SMALL, store=store)
        assert warm.cached and not getattr(cold, "cached", False)
        assert warm.elapsed_ns == cold.elapsed_ns
        assert list(warm.rank_results) == list(cold.rank_results)
        assert store.hit_rate == 0.5

    def test_traced_runs_bypass_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        run_app("jacobi", "mpi", 2, SMALL, store=store)
        traced = run_app("jacobi", "mpi", 2, SMALL, store=store, trace=True)
        assert traced.events  # a served summary could never carry events
        assert store.hits == 0


class TestScheduler:
    def test_jobs_do_not_change_results(self):
        cells = [Cell("jacobi", m, p, SMALL)
                 for m in ("mpi", "shmem") for p in (1, 2)]
        serial = run_cells(cells, jobs=1)
        sharded = run_cells(cells, jobs=4)
        assert [r.summary.elapsed_ns for r in serial] == \
            [r.summary.elapsed_ns for r in sharded]
        assert [r.summary.rank_results for r in serial] == \
            [r.summary.rank_results for r in sharded]
        assert all(r.source == "computed" for r in sharded)

    def test_results_in_input_order(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", "mpi", p, SMALL) for p in (4, 1, 2)]
        results = run_cells(cells, store=store, jobs=2)
        assert [r.cell.nprocs for r in results] == [4, 1, 2]
        again = run_cells(cells, store=store)
        assert all(r.source == "store" for r in again)
        assert [r.summary.elapsed_ns for r in again] == \
            [r.summary.elapsed_ns for r in results]

    def test_errors_are_captured_not_fatal(self):
        cells = [Cell("jacobi", "mpi", 2, SMALL), Cell("nosuchapp", "mpi", 2)]
        good, bad = run_cells(cells)
        assert good.summary is not None
        assert bad.source == "error" and bad.summary is None
        assert "unknown app" in bad.error
        report = serve_report([good, bad])
        assert report["errors"] == 1 and report["failed_cells"] == ["nosuchapp/mpi/P2"]

    def test_run_tasks_timeout_is_captured(self):
        # two payloads: a single payload clamps jobs to 1 and runs inline,
        # where the deadline is deliberately not enforced
        results = run_tasks(_slow_task, [0.0, 0.0], jobs=2, timeout=0.1)
        assert all(value is None for value, _, _ in results)
        assert all(error.startswith("timeout") for _, error, _ in results)


def _slow_task(_payload):
    import time

    time.sleep(2.0)


class TestInvalidation:
    def test_knob_change_invalidates_only_dependent_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", m, 2, SMALL) for m in ("mpi", "shmem", "sas")]
        _, report = refresh(cells, store)
        assert (report["hits"], report["misses"]) == (0, 3)
        changed = [Cell("jacobi", "mpi", 2, JacobiConfig(nx=32, ny=32, iters=5))] + cells[1:]
        ahead = plan(changed, store)
        assert [e.cell.model for e in ahead.misses] == ["mpi"]
        _, report = refresh(changed, store, gc_stale=True)
        assert (report["hits"], report["misses"]) == (2, 1)
        assert report["invalidated"] == 1 and report["stale_removed"] == 1
        assert report["stale_identities"] == [
            "jacobi/JacobiConfig/mpi/P2/first-touch/none/default"
        ]

    def test_noop_refresh_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        cells = [Cell("jacobi", "mpi", p, SMALL) for p in (1, 2)]
        refresh(cells, store)
        _, report = refresh(cells, store)
        assert (report["hits"], report["misses"], report["invalidated"]) == (2, 0, 0)


class TestSweepServing:
    def test_sweep_jobs_rows_identical(self):
        rows1 = sweep("jacobi", models=("mpi", "shmem"), nprocs_list=(1, 2),
                      workload=SMALL)
        rows2 = sweep("jacobi", models=("mpi", "shmem"), nprocs_list=(1, 2),
                      workload=SMALL, jobs=2)
        assert [(r.model, r.nprocs, r.elapsed_ms, r.speedup) for r in rows1] == \
            [(r.model, r.nprocs, r.elapsed_ms, r.speedup) for r in rows2]

    def test_sweep_store_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = sweep("jacobi", models=("mpi",), nprocs_list=(1, 2),
                     workload=SMALL, store=store)
        warm = sweep("jacobi", models=("mpi",), nprocs_list=(1, 2),
                     workload=SMALL, store=store)
        assert store.hits == 2
        assert [r.elapsed_ms for r in cold] == [r.elapsed_ms for r in warm]

    def test_failed_cell_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="sweep cell"):
            sweep("jacobi", models=("nosuchmodel",), nprocs_list=(1,),
                  workload=SMALL, store=ResultStore(tmp_path))

    def test_scenario_bench_warm_pass_is_byte_identical(self, tmp_path):
        from repro.harness.rankings import run_scenario_bench

        kwargs = dict(
            classes=("multi_front",), models=("mpi", "shmem"),
            nprocs_list=(2,), intensities=(0.2,), mesh_n=6, phases=2,
            solver_iters=2, include_insights=False,
        )
        store = ResultStore(tmp_path)
        cold = run_scenario_bench(store=store, **kwargs)
        cold_lookups = store.lookups
        assert store.hits == 0
        warm = run_scenario_bench(store=store, **kwargs)
        warm_lookups = store.lookups - cold_lookups
        assert warm_lookups > 0 and store.hits == warm_lookups  # 100% served
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)

    def test_fault_bench_verify_runs_bypass_store(self, tmp_path):
        from repro.harness.faultbench import run_fault_bench

        store = ResultStore(tmp_path)
        record = run_fault_bench(
            "jacobi", models=("mpi",), nprocs_list=(2,), profile="drizzle",
            workload=SMALL, store=store, verify=True,
        )
        # 2 measurement cells stored; verify re-simulated outside the store
        assert store.puts == 2
        warm = run_fault_bench(
            "jacobi", models=("mpi",), nprocs_list=(2,), profile="drizzle",
            workload=SMALL, store=store, verify=True,
        )
        assert store.hits == 2
        assert warm["rows"] == record["rows"]


class TestScriptCacheLRU:
    def test_bounded_with_eviction_counter(self):
        cache = _ScriptCache(maxsize=3)
        for i in range(5):
            cache[f"k{i}"] = i
        assert len(cache) == 3 and cache.evictions == 2
        assert list(cache) == ["k2", "k3", "k4"]  # oldest two evicted

    def test_reads_refresh_recency(self):
        cache = _ScriptCache(maxsize=3)
        for i in range(3):
            cache[f"k{i}"] = i
        assert cache.get("k0") == 0  # touch the oldest entry …
        cache["k3"] = 3              # … so the eviction takes k1 instead
        assert "k0" in cache and "k1" not in cache

    def test_global_cache_is_bounded(self):
        assert isinstance(_script_cache, _ScriptCache)
        assert _script_cache.maxsize == SCRIPT_CACHE_MAX
        _script_cache.clear()
        run_app("adapt", "mpi", 2, ADAPT)
        run_app("adapt", "mpi", 2, ADAPT, placement="round-robin")
        assert len(_script_cache) == 2  # distinct signatures, distinct keys
        _script_cache.clear()


class TestServeCommand:
    """``python -m repro serve`` end to end: spec checks, cold, warm, gc."""

    @staticmethod
    def _serve(capsys, spec, cache, *extra):
        from repro.__main__ import main

        rc = main(["serve", str(spec), "--cache-dir", str(cache), "--json", *extra])
        out = json.loads(capsys.readouterr().out)
        return rc, out

    @pytest.mark.parametrize("entry, message", [
        ({"app": "jacobi", "models": ["mpi", "pvm"], "nprocs": 2},
         r"serve spec cell #1: unknown model 'pvm'.*choose from"),
        ({"app": "jaccobi", "model": "mpi", "nprocs": 2},
         r"serve spec cell #1: unknown app 'jaccobi'.*choose from"),
        ({"app": "jacobi", "model": "mpi", "size": "huge"},
         r"serve spec cell #1: unknown size 'huge'; choose from small"),
        ({"app": "scenario", "model": "mpi", "size": "small"},
         r"serve spec cell #1: app 'scenario' with scenario None"),
        ({"app": "adapt", "model": "mpi", "scenario": "hotspot_drift"},
         r"serve spec cell #1: app 'adapt' with scenario 'hotspot_drift'"),
        ({"app": "jacobi", "model": "mpi", "placement": "bogus"},
         r"serve spec cell #1: unknown placement policy 'bogus'"),
        ({"app": "jacobi", "model": "mpi", "nprocs": 2.7},
         r"serve spec cell #1: invalid processor count 2\.7"),
        ({"app": "jacobi", "model": "mpi", "nprocs": True},
         r"serve spec cell #1: invalid processor count True"),
        ({"app": "jacobi", "model": "mpi", "nproc": 4},
         r"serve spec cell #1: unknown field\(s\) 'nproc'; a cell takes app"),
        ({"app": "jacobi", "model": "mpi", "machine_profile": "fat-tree"},
         r"serve spec cell #1: unknown machine profile 'fat-tree'"),
        ({"app": "jacobi", "model": "mpi", "faults": 3},
         r"serve spec cell #1: fault profile spec must be"),
        ({"app": "jacobi", "model": "mpi", "faults": "lossy", "fault_seed": "7"},
         r"serve spec cell #1: fault_seed must be an integer, got '7'"),
        ({"app": "jacobi", "model": "mpi", "derived": "on"},
         r"serve spec cell #1: derived must be a dict"),
        ({"app": "jacobi", "models": "mpi"},
         r"serve spec cell #1: 'models' must be a list"),
    ], ids=["model", "app", "size", "scenario-app-without-spec",
            "scenario-on-adapt", "placement", "float-nprocs", "bool-nprocs",
            "unknown-field", "machine-profile", "fault-type", "fault-seed-type",
            "derived-type", "models-type"])
    def test_bad_spec_rejected_before_any_cell(self, entry, message, monkeypatch, tmp_path):
        import repro.harness.experiment as experiment
        from repro.__main__ import main

        def no_cells(*args, **kwargs):
            raise AssertionError("a serve cell ran before the spec was checked")

        monkeypatch.setattr(experiment, "run_app", no_cells)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"app": "jacobi", "model": "sas", "nprocs": 1}, entry]))
        with pytest.raises(SystemExit, match=message):
            main(["serve", str(spec), "--cache-dir", str(tmp_path / "store")])
        assert not (tmp_path / "store").exists()

    def test_spec_takes_run_fields(self, tmp_path):
        from repro.__main__ import _serve_cells_from_spec

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{
            "app": "jacobi", "models": ["mpi", "sas"], "nprocs": [2, 4],
            "size": "small", "machine_profile": "fat-tree-cluster",
            "faults": "lossy", "fault_seed": 3, "placement": "round-robin",
        }]))
        cells = _serve_cells_from_spec(str(spec))
        assert [c.label() for c in cells] == [
            f"jacobi/{m}/P{n}@fat-tree-cluster" for n in (2, 4) for m in ("mpi", "sas")]
        assert {(c.faults.name, c.faults.seed, c.placement) for c in cells} == \
            {("lossy", 3, "round-robin")}
        assert cells[0].workload == JacobiConfig(nx=64, ny=64, iters=10)

    def test_cold_then_warm_then_gc_stale(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        cache = tmp_path / "store"
        entries = [
            {"app": "jacobi", "models": ["mpi", "sas"], "nprocs": [1, 2], "size": "small"},
            {"app": "jacobi", "model": "shmem", "nprocs": 2, "size": "small"},
        ]
        spec.write_text(json.dumps(entries))
        rc, cold = self._serve(capsys, spec, cache)
        assert rc == 0 and cold["report"]["computed"] == 5 and cold["report"]["hits"] == 0

        rc, warm = self._serve(capsys, spec, cache)
        assert rc == 0
        assert warm["plan"]["hits"] == 5
        assert warm["report"]["hits"] == 5 and warm["report"]["computed"] == 0
        assert [r["source"] for r in warm["rows"]] == ["store"] * 5
        assert [r["elapsed_ms"] for r in warm["rows"]] == \
            [r["elapsed_ms"] for r in cold["rows"]]

        entries[1]["size"] = "medium"
        spec.write_text(json.dumps(entries))
        superseded = Cell("jacobi", "shmem", 2, JacobiConfig(nx=64, ny=64, iters=10)).key()
        assert ResultStore(cache).contains(superseded)
        rc, moved = self._serve(capsys, spec, cache, "--gc-stale")
        assert rc == 0
        assert moved["report"]["hits"] == 4 and moved["report"]["computed"] == 1
        assert moved["report"]["invalidated"] == 1
        assert moved["report"]["stale_removed"] == 1
        assert not ResultStore(cache).contains(superseded)
        assert ResultStore(cache).stats()["entries"] == 5

    def test_serve_signs_each_cell_once(self, capsys, monkeypatch, tmp_path):
        calls = TestCellSigning._count_signing(monkeypatch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([
            {"app": "jacobi", "models": ["mpi", "sas"], "nprocs": [1, 2], "size": "small"},
        ]))
        rc, out = self._serve(capsys, spec, tmp_path / "store", "--gc-stale")
        assert rc == 0 and out["report"]["cells"] == 4
        assert sorted(calls) == sorted(
            ("jacobi", m, n) for m in ("mpi", "sas") for n in (1, 2))
