"""Content-addressed on-disk result store: the serving layer's memory.

Every simulated run is deterministic, so its result is a pure function
of its *run signature* — app, model, P, workload content, placement,
fault profile, derived machine switches, and the engine version.  The
store canonicalises that signature to JSON (sorted keys, compact
separators), takes the sha256, and files the run's summary under that
key: two processes that build the same signature always read and write
the same object, and any change to any signature field lands on a
different key, which is the whole invalidation story (see
:mod:`repro.serving.invalidate`).

Layout on disk (``v3`` is :data:`STORE_LAYOUT`)::

    <root>/v3/objects/<key[:2]>/<key>.json
    <root>/v3/index/<sha256(identity)>/<key>     (empty marker files)
    <root>/v3/index/COMPLETE                     (the index covers every object)

An object file keeps its ``.json`` name, but its payload is binary::

    <key> <crc32> <n>                  header: CRC-32 (8 hex digits) of
                                       every byte below, n = payload bytes
    <n payload bytes>                  what a lookup returns: ``marshal``
                                       (format 2) of the canonical JSON's
                                       value, then a newline
    {"identity":…,"signature":…}       what administration reads (JSON)

The payload goes through canonical JSON before it is marshalled, so a
lookup serves exactly what a JSON layout would: tuples come back as
lists, NumPy scalars as Python numbers, and a payload JSON cannot hold
is not cached.  Marshal format 2 writes no back-references, so equal
payloads give equal bytes however their objects are shared, and floats
are stored as their 8 IEEE bytes.  A lookup (:meth:`ResultStore.get`)
checks the header's key and the CRC over every byte after the header,
then decodes only the payload span with ``marshal.loads``; any
mismatch, or a span that does not decode to a dict, is a miss.  ``cache
verify`` decodes both parts and also re-derives the key from the stored
signature and checks the identity index.  The CRC catches damage, not
tampering: the store is a trusted cache.  The layout version names the
object tree and is not signed, so a new layout keeps every key; trees
of older layouts are never read, and ``cache gc --outdated`` deletes
them.

``<root>`` defaults to ``$REPRO_CACHE_DIR`` or ``./.repro-cache``.
Writes are atomic (a temp file of the writer's own + ``os.replace``), so
concurrent sweep workers and concurrent processes can share one store
without locking — last writer wins with an identical object.  The
identity index lets incremental invalidation list the keys filed under
one cell identity without reading the store (see
:meth:`ResultStore.keys_of`).  ``python -m repro cache stats|gc|verify``
administers the store from the command line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import marshal
import os
import shutil
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import repro

__all__ = [
    "STORE_LAYOUT",
    "STORE_SCHEMA",
    "ResultStore",
    "ResultSummary",
    "SummaryStats",
    "cache_key",
    "canonical_json",
    "default_cache_dir",
    "resolve_workload",
    "run_identity",
    "run_signature",
    "summarize_result",
    "summary_from_payload",
]

#: signed into every run signature: bump when what a signature means
#: changes, and every key moves (old objects simply never hit)
STORE_SCHEMA = 1

#: the object file layout; it names the object tree (``<root>/v<layout>``)
#: and is not signed, so a new layout keeps every key.  Bump it when the
#: bytes of an object change; older trees are never read
STORE_LAYOUT = 3

#: per-CPU counters a stored summary totals (everything R-T2 tabulates)
COUNTER_ATTRS = (
    "msgs_sent", "bytes_sent", "puts", "put_bytes", "gets", "get_bytes",
    "atomics", "loads", "stores", "l2_hits", "local_misses",
    "remote_misses", "dirty_misses", "invalidations_sent", "lines_touched",
)

#: machine-global counters carried alongside the per-CPU totals
GLOBAL_ATTRS = (
    "network_bytes", "network_messages", "directory_transactions",
    "writebacks_charged",
)


def default_cache_dir() -> Path:
    """The store root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get("REPRO_CACHE_DIR") or ".repro-cache")


# -- canonical signatures -----------------------------------------------------


#: class -> its dataclass field names (None for other classes), filled on
#: first sight; a class's fields are fixed when it is created, so every
#: caller may share the entry
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (tuple(f.name for f in dataclasses.fields(cls))
                 if dataclasses.is_dataclass(cls) else None)
        _FIELD_NAMES[cls] = names
        return names


def _plain(value: Any) -> Any:
    """A JSON-safe canonical form of ``value`` (recursive, order-free).

    A dataclass becomes ``{"__type__": <class name>, <field>: ...}``, a
    dict gets ``str`` keys, a list or tuple becomes a list, a ``Path``
    becomes its ``str``, a ``str``/``int``/``float``/``bool``/``None``
    stays as it is, and anything else becomes its ``repr``.  Exact
    builtin types are checked first; subclasses (NamedTuples, NumPy
    floats, int enums) take the ``isinstance`` rules below them.
    """
    cls = type(value)
    if cls is str or cls is int or cls is float or cls is bool or value is None:
        return value
    if cls is list or cls is tuple:
        return [_plain(v) for v in value]
    if cls is dict:
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    names = _field_names(cls)
    if names is not None:
        fields = {name: _plain(getattr(value, name)) for name in names}
        return {"__type__": cls.__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float)):
        return value
    return repr(value)


def canonical_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, compact separators.

    ``json`` writes the JSON-native values itself and hands everything
    else to :func:`_plain`, so an already-plain signature is dumped
    without a second walk.  The text equals ``json.dumps(_plain(obj))``
    whenever the dicts ``json`` meets directly have ``str`` keys, which
    holds for every run signature (:func:`run_signature` plains its
    ``derived`` dict and the workload's fields).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)


def resolve_workload(app: str, workload: Any) -> Any:
    """Resolve a workload argument to its value object.

    For the ``"scenario"`` app a string/path workload is loaded into a
    :class:`repro.workloads.synth.ScenarioSpec` so the signature can use
    its content hash; every other workload passes through unchanged.
    """
    if app == "scenario" and workload is not None \
            and not hasattr(workload, "content_hash"):
        from repro.workloads.synth import load_spec

        return load_spec(workload)
    return workload


def _workload_signature(workload: Any) -> Dict[str, Any]:
    """The signature component describing the workload *content*."""
    if workload is None:
        return {"kind": "default"}
    if hasattr(workload, "content_hash"):  # ScenarioSpec (or compatible)
        return {"kind": "scenario", "content_hash": workload.content_hash()}
    if dataclasses.is_dataclass(workload) and not isinstance(workload, type):
        return {
            "kind": "config",
            "type": type(workload).__name__,
            "fields": _plain(workload),
        }
    return {"kind": "opaque", "repr": repr(workload)}


def _faults_signature(faults: Any) -> Optional[str]:
    """Canonical fault component: the resolved profile's repr, or None."""
    if faults is None:
        return None
    if isinstance(faults, str):
        from repro.faults import resolve_profile

        faults = resolve_profile(faults)
    return repr(faults)


def run_signature(
    app: str,
    model: str,
    nprocs: int,
    workload: Any = None,
    placement: str = "first-touch",
    faults: Any = None,
    derived: Optional[Dict[str, Any]] = None,
    machine_profile: Any = None,
) -> Dict[str, Any]:
    """The full canonical signature of one run.

    Covers everything that can change a simulated result: the workload
    content (a scenario's sha256 content hash, a config dataclass's full
    field set), the machine shape (``nprocs``, ``placement``,
    ``derived`` switches, the hardware profile), the fault profile, and
    a version salt (``repro.__version__`` + the store schema) so a new
    engine never serves results computed by an old one.  The hardware
    profile signs as its registry name when its overlay matches the
    registered entry, and as its full canonical ``repr`` otherwise — so
    two profiles that differ in a single cost constant can never alias.

    Returns:
        A JSON-safe dict; hash it with :func:`cache_key`.
    """
    from repro.machine.profiles import machine_profile_signature

    return {
        "schema": STORE_SCHEMA,
        "engine": repro.__version__,
        "app": app,
        "model": model,
        "nprocs": int(nprocs),
        "workload": _workload_signature(resolve_workload(app, workload)),
        "placement": str(placement),
        "faults": _faults_signature(faults),
        "derived": _plain(dict(derived)) if derived else None,
        "machine_profile": machine_profile_signature(machine_profile),
    }


def cache_key(signature: Dict[str, Any]) -> str:
    """sha256 hex digest of the canonical JSON of ``signature``."""
    return hashlib.sha256(canonical_json(signature).encode()).hexdigest()


def run_identity(
    app: str,
    model: str,
    nprocs: int,
    workload: Any = None,
    placement: str = "first-touch",
    faults: Any = None,
    machine_profile: Any = None,
) -> str:
    """The human grouping key of a run: *which cell*, not *which content*.

    Two signatures with the same identity but different keys are the
    same sweep cell computed from different content — i.e. the old one
    is *stale*.  The workload contributes its name (scenario specs) or
    its type (config dataclasses), never its content.  The hardware
    profile contributes its name (``default`` when none), so cells on
    different machines are different cells, never stale copies of each
    other.
    """
    workload = resolve_workload(app, workload)
    if workload is None:
        wl = "default"
    elif hasattr(workload, "content_hash"):
        wl = getattr(workload, "name", None) or "scenario"
    else:
        wl = type(workload).__name__
    if faults is None:
        fl = "none"
    elif isinstance(faults, str):
        fl = faults
    else:
        fl = getattr(faults, "name", None) or "profile"
    if machine_profile is None:
        mp = "default"
    elif isinstance(machine_profile, str):
        mp = machine_profile
    else:
        mp = getattr(machine_profile, "name", None) or "profile"
    return f"{app}/{wl}/{model}/P{int(nprocs)}/{placement}/{fl}/{mp}"


# -- result summaries ---------------------------------------------------------


class SummaryStats:
    """A stored stand-in for :class:`repro.machine.stats.MachineStats`.

    Exposes the aggregate surface the harness reads from a result —
    ``total(attr)``, ``breakdown_totals()``, ``summary()`` and the
    machine-global counters — backed by the totals persisted in the
    store rather than live per-CPU objects.
    """

    def __init__(self, counters: Dict[str, float], breakdown: Dict[str, float]):
        self._counters = dict(counters)
        self._breakdown = dict(breakdown)

    def total(self, attr: str) -> float:
        """Machine-wide total of a per-CPU counter (0 if not stored)."""
        return self._counters.get(attr, 0)

    def breakdown_totals(self) -> Dict[str, float]:
        """Summed compute/comm/sync/stall simulated nanoseconds."""
        return dict(self._breakdown)

    def summary(self) -> Dict[str, float]:
        """The full stored counter dict (per-CPU totals + globals)."""
        return dict(self._counters)

    @property
    def network_bytes(self) -> float:
        return self._counters.get("network_bytes", 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SummaryStats {len(self._counters)} counters>"


@dataclass
class ResultSummary:
    """What the store keeps of a :class:`repro.models.base.ProgramResult`.

    Everything a sweep consumer reads — elapsed time, per-rank results,
    phase times, fault counters, and aggregate machine statistics — in a
    JSON-round-trippable shape.  Simulated times are exact: floats
    survive marshal bit-for-bit, so a served sweep row is bit-identical
    to a computed one.
    """

    model: str
    nprocs: int
    elapsed_ns: float
    rank_results: List[Any]
    phase_ns: Dict[str, float] = field(default_factory=dict)
    fault_summary: Optional[Dict[str, Any]] = None
    counters: Dict[str, float] = field(default_factory=dict)
    breakdown: Dict[str, float] = field(default_factory=dict)
    cached: bool = False

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / 1e6

    @property
    def stats(self) -> SummaryStats:
        """Aggregate statistics with the ``MachineStats`` read surface."""
        return SummaryStats(self.counters, self.breakdown)

    @property
    def events(self) -> None:
        """Stored summaries never carry an event stream."""
        return None


def summarize_result(result: Any) -> Dict[str, Any]:
    """Reduce a :class:`ProgramResult` to the JSON-safe stored payload."""
    stats = result.stats
    counters: Dict[str, float] = {a: stats.total(a) for a in COUNTER_ATTRS}
    for a in GLOBAL_ATTRS:
        counters[a] = getattr(stats, a, 0)
    return {
        "model": result.model,
        "nprocs": result.nprocs,
        "elapsed_ns": result.elapsed_ns,
        "rank_results": list(result.rank_results),
        "phase_ns": dict(result.phase_ns),
        "fault_summary": result.fault_summary,
        "counters": counters,
        "breakdown": stats.breakdown_totals(),
    }


def summary_from_payload(payload: Dict[str, Any]) -> ResultSummary:
    """Rehydrate a stored payload into a :class:`ResultSummary`."""
    return ResultSummary(
        model=payload["model"],
        nprocs=int(payload["nprocs"]),
        elapsed_ns=payload["elapsed_ns"],
        rank_results=payload["rank_results"],
        phase_ns=payload.get("phase_ns") or {},
        fault_summary=payload.get("fault_summary"),
        counters=payload.get("counters") or {},
        breakdown=payload.get("breakdown") or {},
        cached=True,
    )


# -- the store ----------------------------------------------------------------


#: the file in the index directory that says every object is indexed
_INDEX_COMPLETE = "COMPLETE"


def _identity_hash(identity: str) -> str:
    """The index directory name of a cell identity."""
    return hashlib.sha256(identity.encode()).hexdigest()


#: one ``os.read`` takes a whole object of up to this many bytes
_READ_SIZE = 16384


def _dumps(value: Any) -> str:
    """Canonical JSON of plain data (raises on anything JSON cannot hold)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _read_bytes(path: Union[str, Path]) -> bytes:
    """The bytes of the file ``path``: one read for a typical object."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _READ_SIZE)
        if len(data) == _READ_SIZE:
            chunks = [data]
            while chunks[-1]:
                chunks.append(os.read(fd, _READ_SIZE))
            data = b"".join(chunks)
    finally:
        os.close(fd)
    return data


#: the ``marshal`` format of stored payloads.  Formats 3 and up write
#: back-references wherever the payload shares an object, so two equal
#: payloads could differ in bytes; format 2 writes every value in full
_MARSHAL_VERSION = 2

#: what ``marshal.loads`` raises on bytes it cannot decode
_DECODE_ERRORS = (ValueError, EOFError, TypeError)


def _encode_payload(payload: Any) -> bytes:
    """The payload bytes of an object: marshal of the canonical JSON's value
    (raises on anything JSON cannot hold)."""
    return marshal.dumps(json.loads(_dumps(payload)), _MARSHAL_VERSION)


def _encode_object(key: str, payload: bytes, meta: str) -> bytes:
    """The object file for ``key``: header, payload bytes, meta line."""
    body = payload + b"\n" + meta.encode() + b"\n"
    return f"{key} {zlib.crc32(body):08x} {len(payload)}\n".encode() + body


def _checked(data: bytes) -> Tuple[bytes, int, int]:
    """``(key, start, end)``: the header's key and the span of the payload
    in the object bytes ``data``, once the CRC holds.

    Raises:
        ValueError: naming the damage when the header is malformed or the
            CRC does not match the bytes after it (a flipped or lost byte).
    """
    start = data.find(b"\n") + 1
    try:
        if not start:
            raise ValueError
        key, crc, size = data[:start - 1].split(b" ")
        crc = int(crc, 16)
        end = start + int(size)
    except ValueError:
        raise ValueError("malformed header") from None
    if zlib.crc32(memoryview(data)[start:]) != crc or data[end:end + 1] != b"\n":
        raise ValueError("checksum mismatch")
    return key, start, end


def _load_record(path: Union[str, Path]) -> Tuple[Optional[Dict[str, Any]], str]:
    """``(record, "")`` for a sound object file, ``(None, what is wrong)``
    for a missing, unreadable or damaged one.

    The record holds the header's ``key``, the decoded ``payload`` and
    the ``identity`` and ``signature`` of the meta line; the payload and
    the meta line must both decode to objects.
    """
    try:
        data = _read_bytes(path)
        key, start, end = _checked(data)
    except OSError:
        return None, "unreadable"
    except ValueError as exc:
        return None, str(exc)
    try:
        payload = marshal.loads(data[start:end])
    except _DECODE_ERRORS:
        payload = None
    if type(payload) is not dict:
        return None, "unreadable payload"
    try:
        meta = json.loads(data[end + 1:])
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        return None, "unreadable JSON"
    return {
        "key": key.decode("ascii", "replace"),
        "identity": meta.get("identity"),
        "signature": meta.get("signature"),
        "payload": payload,
    }, ""


def _identity_of(record: Dict[str, Any]) -> Optional[str]:
    """A record's identity, or ``None`` when it has none that is a string."""
    identity = record.get("identity")
    return identity if isinstance(identity, str) else None


def _signature_of(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record's signature, or ``{}`` when it has none that is an object."""
    signature = record.get("signature")
    return signature if isinstance(signature, dict) else {}


def _touch(path: str) -> None:
    """Create the empty file ``path`` unless it exists.

    An empty file has no content to tear, so creating it in place is
    atomic, and two writers that create the same file both succeed.
    """
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))


class ResultStore:
    """Content-addressed result store with per-session serving counters.

    Thread- and process-safe by construction: keys are content hashes,
    every writer fills a temp file of its own before an atomic rename,
    index markers are empty files, and readers only ever see complete
    objects.  The instance counts its own session's ``hits`` /
    ``misses`` / ``puts`` so a bench can report its serving ratio.

    Beside the objects the store keeps an identity → keys index: one
    empty marker ``index/<sha256(identity)>/<key>`` per object stored
    with an identity.  ``put`` files the marker after its object and
    ``delete`` drops it before its object, so however a ``put`` and a
    ``delete`` of one key interleave, no object is left without its
    marker.  A marker can outlive its object (``delete`` and ``gc`` leave
    it for a moment, an interleaved ``put`` until the next ``gc``), so a
    reader of the index checks the object before acting on a key.
    ``index/COMPLETE`` says that every object has its marker: a store
    written before the index existed lacks it, and :meth:`keys_of` builds
    the index once, by one full scan.

    Args:
        root: store directory; default :func:`default_cache_dir`.
    """

    def __init__(self, root: Union[None, str, Path] = None):
        self._root = Path(root) if root is not None else default_cache_dir()
        # objects_dir as a string ending in a separator: a lookup appends
        # ``<key[:2]>/<key>.json`` to it instead of joining Paths
        self._prefix = os.path.join(self._root, f"v{STORE_LAYOUT}", "objects", "")
        self._index = os.path.join(self._root, f"v{STORE_LAYOUT}", "index")
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.read_errors = 0

    # -- paths ----------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def objects_dir(self) -> Path:
        return Path(self._prefix)

    @property
    def index_dir(self) -> Path:
        return Path(self._index)

    def _object_path(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def path_for(self, key: str) -> Path:
        """Where the object for ``key`` lives (whether or not it exists)."""
        return Path(self._object_path(key))

    def _marker_dir(self, identity: str) -> str:
        return os.path.join(self._index, _identity_hash(identity))

    # -- read / write ---------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Presence check that does not touch the session counters."""
        return os.path.isfile(self._object_path(key))

    def record(self, key: str) -> Optional[Dict[str, Any]]:
        """The whole stored record for ``key``, or ``None``.

        The record holds ``key`` (from the header), ``identity``,
        ``signature`` and ``payload``.  A missing, unreadable or damaged
        object reads as ``None``; the session counters are left alone.
        """
        return _load_record(self._object_path(key))[0]

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on miss.

        Reads the object, checks its header's key and the CRC of every
        byte after the header, and decodes only the payload span.  An
        unreadable or damaged object, one filed under another key, or
        one whose payload does not decode to a dict counts as a miss
        (and bumps ``read_errors``) — the serving layer recomputes and
        overwrites it rather than failing a sweep.
        """
        try:
            data = _read_bytes(self._object_path(key))
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            data = b""
        try:
            stored, start, end = _checked(data)
            payload = marshal.loads(data[start:end]) if stored == key.encode() else None
        except _DECODE_ERRORS:
            payload = None
        if type(payload) is not dict:
            self.read_errors += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(
        self,
        key: str,
        signature: Dict[str, Any],
        payload: Dict[str, Any],
        identity: Optional[str] = None,
    ) -> Optional[Path]:
        """Atomically store ``payload`` under ``key``.

        Args:
            key: :func:`cache_key` of ``signature``.
            signature: the signature :func:`run_signature` returns, already
                plain JSON data (stored as it is alongside the payload so
                ``cache verify`` can re-derive the key).
            payload: JSON-serialisable result summary (stored as it
                reads back from canonical JSON).
            identity: optional grouping label (see :func:`run_identity`)
                used by incremental invalidation to find stale entries;
                an object stored with one is filed in the identity index.

        Returns:
            The object path, or ``None`` when the payload is not
            JSON-serialisable (the run simply is not cached).
        """
        try:
            data = _encode_object(
                key, _encode_payload(payload),
                _dumps({"identity": identity, "signature": signature}),
            )
        except (TypeError, ValueError):
            return None
        if not os.path.isdir(self._prefix):
            # no object yet, so an index started now covers every object
            os.makedirs(self._index, exist_ok=True)
            _touch(os.path.join(self._index, _INDEX_COMPLETE))
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # the thread id keeps two threads of one process off one temp file
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        if identity is not None:
            self._file_marker(key, identity)
        self.puts += 1
        return Path(path)

    def delete(self, key: str) -> bool:
        """Remove the object for ``key`` and its index marker.

        The marker goes first: a concurrent ``put`` of the key then
        leaves at worst a marker without an object, never an object
        without a marker.  Returns True if an object was removed.
        """
        record = self.record(key)
        identity = _identity_of(record) if record is not None else None
        if identity is not None:
            try:
                os.unlink(os.path.join(self._marker_dir(identity), key))
            except OSError:
                pass
        try:
            os.unlink(self._object_path(key))
        except OSError:
            return False
        return True

    def keys_of(self, identity: str) -> List[str]:
        """The keys the index files under ``identity``, sorted.

        Lists one directory and reads no object.  A store without
        ``index/COMPLETE`` (written before the index existed) is indexed
        first, by one full scan.  A listed key may have lost its object
        to a concurrent ``delete``; read the object before acting on it.
        """
        if not os.path.exists(os.path.join(self._index, _INDEX_COMPLETE)):
            self._reindex()
        try:
            return sorted(os.listdir(self._marker_dir(identity)))
        except OSError:
            return []

    def entries(self) -> Iterator[Tuple[Path, Optional[Dict[str, Any]]]]:
        """Iterate ``(path, record)`` over every object (record None if
        unreadable or damaged), in sorted path order for deterministic
        reports."""
        for path, record, _ in self._scan():
            yield path, record

    def _scan(self) -> Iterator[Tuple[Path, Optional[Dict[str, Any]], str]]:
        """``(path, record, what is wrong)`` over every object (see
        :func:`_load_record`), in sorted path order."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.json")):
            yield (path, *_load_record(path))

    def _superseded(self) -> List[Path]:
        """The object trees of older layouts (``<root>/v1/``, ``v2/``), never read."""
        try:
            names = sorted(os.listdir(self._root))
        except OSError:
            return []
        return [
            self._root / name for name in names
            if name[:1] == "v" and name[1:].isdigit()
            and int(name[1:]) < STORE_LAYOUT and (self._root / name).is_dir()
        ]

    # -- the identity index ---------------------------------------------------

    def _file_marker(self, key: str, identity: str) -> None:
        folder = self._marker_dir(identity)
        os.makedirs(folder, exist_ok=True)
        _touch(os.path.join(folder, key))

    def _markers(self) -> Iterator[Tuple[str, str]]:
        """``(identity hash, key)`` for every marker, in sorted order."""
        try:
            folders = sorted(os.listdir(self._index))
        except OSError:
            return
        for folder in folders:
            if folder == _INDEX_COMPLETE:
                continue
            try:
                keys = sorted(os.listdir(os.path.join(self._index, folder)))
            except OSError:
                continue
            for key in keys:
                yield folder, key

    def _stray_markers(
        self, filed: Dict[str, Optional[str]]
    ) -> Iterator[Tuple[str, str, str]]:
        """``(identity hash, key, problem)`` for every marker that should
        not be there, given ``filed``: each readable object's key -> its
        identity.  A marker is stray when its object carries no identity
        or another one, or when it has no object."""
        for folder, key in self._markers():
            if key in filed:
                identity = filed[key]
                if identity is None or _identity_hash(identity) != folder:
                    yield folder, key, "filed under the wrong identity"
            elif not os.path.exists(self._object_path(key)):
                yield folder, key, "no object"

    def _reindex(self, filed: Optional[Dict[str, Optional[str]]] = None) -> None:
        """Bring the index in line with the objects and mark it complete.

        Args:
            filed: each readable object's key -> its stored identity, from
                a scan the caller already made; ``None`` scans the store.

        Files the missing marker of every object with an identity and
        drops every stray marker (see :meth:`_stray_markers`).  A marker
        that a concurrent ``put`` files after the scan stays, because its
        object exists when the marker is checked; one whose object a
        ``put`` writes between that check and the unlink is filed again.
        A store with no objects directory is left as it is: its first
        ``put`` starts the index.
        """
        if not os.path.isdir(self._prefix):
            return
        if filed is None:
            filed = {
                path.stem: _identity_of(record)
                for path, record in self.entries() if record is not None
            }
        for key, identity in filed.items():
            if identity is not None:
                self._file_marker(key, identity)
        for folder, key, _ in list(self._stray_markers(filed)):
            marker = os.path.join(self._index, folder, key)
            try:
                os.unlink(marker)
            except OSError:
                pass
            if key not in filed and os.path.exists(self._object_path(key)):
                _touch(marker)
        os.makedirs(self._index, exist_ok=True)
        _touch(os.path.join(self._index, _INDEX_COMPLETE))

    # -- administration -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Store-wide inventory: entries, bytes, apps, engines, profiles,
        and the files and bytes of superseded layouts' trees."""
        count = 0
        nbytes = 0
        apps: Dict[str, int] = {}
        engines: Dict[str, int] = {}
        profiles: Dict[str, int] = {}
        unreadable = 0
        for path, record in self.entries():
            count += 1
            try:
                nbytes += path.stat().st_size
            except OSError:
                pass
            if record is None:
                unreadable += 1
                continue
            sig = _signature_of(record)
            app = str(sig.get("app", "?"))
            apps[app] = apps.get(app, 0) + 1
            eng = str(sig.get("engine", "?"))
            engines[eng] = engines.get(eng, 0) + 1
            mp = str(sig.get("machine_profile") or "default")
            # unregistered profiles sign by a long canonical repr; bucket
            # them under their name prefix to keep the report readable
            if mp.startswith("MachineProfile("):
                mp = "custom"
            profiles[mp] = profiles.get(mp, 0) + 1
        old_files = old_bytes = 0
        for tree in self._superseded():
            for folder, _, names in os.walk(tree):
                for name in names:
                    old_files += 1
                    try:
                        old_bytes += os.path.getsize(os.path.join(folder, name))
                    except OSError:
                        pass
        return {
            "root": str(self.root),
            "entries": count,
            "bytes": nbytes,
            "unreadable": unreadable,
            "by_app": apps,
            "by_engine": engines,
            "by_profile": profiles,
            "superseded_files": old_files,
            "superseded_bytes": old_bytes,
        }

    def verify(self) -> Tuple[int, List[str]]:
        """Re-derive every object's key from its stored signature, in one
        pass, and check the identity index against the objects.

        Unlike a lookup, which checks the CRC and decodes the payload
        only, this decodes the payload and the meta line of every object.

        Returns:
            ``(objects, problems)``: how many objects were read, and one
            problem string per unreadable, damaged (CRC mismatch),
            undecodable, mislabelled or content-drifted object, per object missing
            from a complete index, and per marker with no object or filed
            under another identity.  An empty problem list means the
            store is sound.
        """
        problems: List[str] = []
        count = 0
        filed: Dict[str, Optional[str]] = {}
        complete = os.path.exists(os.path.join(self._index, _INDEX_COMPLETE))
        for path, record, damage in self._scan():
            count += 1
            if record is None:
                problems.append(f"{path.name}: {damage}")
                continue
            identity = filed[path.stem] = _identity_of(record)
            key = record.get("key")
            if path.stem != key:
                problems.append(f"{path.name}: filed under the wrong key")
                continue
            sig = record["signature"]
            if sig is None:
                problems.append(f"{path.name}: missing signature")
                continue
            if cache_key(sig) != key:
                problems.append(
                    f"{path.name}: signature hashes to {cache_key(sig)[:12]}…, "
                    f"not its key"
                )
            if complete and identity is not None and not os.path.exists(
                    os.path.join(self._marker_dir(identity), key)):
                problems.append(f"{path.name}: missing from the identity index")
        for folder, key, problem in self._stray_markers(filed):
            problems.append(f"index marker {folder[:12]}…/{key[:12]}…: {problem}")
        return count, problems

    def gc(
        self,
        older_than_days: Optional[float] = None,
        outdated: bool = False,
        everything: bool = False,
        corrupt: bool = False,
    ) -> int:
        """Remove objects; returns how many were deleted.

        The same pass brings the identity index in line with the objects
        that remain (and builds it for a store written without one).

        Args:
            older_than_days: drop objects whose mtime is older than this.
            outdated: drop objects whose engine-version salt differs from
                the running ``repro.__version__`` (they can never hit), and
                the trees of older layouts (counted by their objects).
            everything: drop all objects.
            corrupt: drop unreadable, damaged or key-mismatched objects.
        """
        removed = 0
        if outdated:
            for tree in self._superseded():
                removed += sum(1 for _ in tree.glob("objects/*/*.json"))
                shutil.rmtree(tree, ignore_errors=True)
        filed: Dict[str, Optional[str]] = {}
        cutoff = (
            time.time() - older_than_days * 86400.0
            if older_than_days is not None else None
        )
        for path, record in self.entries():
            drop = everything
            if not drop and cutoff is not None:
                try:
                    drop = path.stat().st_mtime < cutoff
                except OSError:
                    drop = True
            if not drop and corrupt:
                drop = record is None or record.get("key") != path.stem
            if not drop and outdated and record is not None:
                drop = _signature_of(record).get("engine") != repro.__version__
            if drop:
                try:
                    path.unlink()
                    removed += 1
                    continue
                except OSError:
                    pass
            if record is not None:
                filed[path.stem] = _identity_of(record)
        self._reindex(filed)
        return removed

    # -- session reporting ----------------------------------------------------

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of this session's lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0

    def report_line(self) -> str:
        """One-line session summary for bench output."""
        return (
            f"serving: {self.hits}/{self.lookups} lookups from the store "
            f"(hit rate {100.0 * self.hit_rate:.0f}%), "
            f"{self.puts} stored, root {self.root}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore {self.root} hits={self.hits} misses={self.misses}>"
