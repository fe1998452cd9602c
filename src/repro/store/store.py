"""Content-addressed, disk-backed store of simulation results.

:class:`ResultStore` maps a :meth:`~repro.api.spec.RunPoint.run_hash` to the
:class:`~repro.sim.results.SimulationResult` it produced, so re-running an
identical :class:`~repro.api.spec.ExperimentSpec` can skip every finished
point and an interrupted sweep can resume where it stopped.

On-disk layout (everything under one cache directory)::

    manifest.json        store marker + schema version of the writer
    shards/<hh>.jsonl    result records, sharded by the hash's first byte
    quarantine/          unparseable shard files, moved aside verbatim
    artifacts/<name>.json  named JSON documents (benchmark trajectories, ...)

Design points:

* **JSON-lines shards.**  Each record is one self-contained line carrying
  its own ``run_hash`` and ``schema`` version, so a shard is readable (and
  salvageable) line by line and concurrent appends from one process never
  interleave partial records.
* **Atomic writes.**  Appends are a single ``write`` of one line; full-file
  rewrites (``gc``, ``invalidate``, corruption salvage) go through a
  temporary file and ``os.replace``.
* **Corruption quarantine.**  A shard with an unparseable line is moved to
  ``quarantine/`` verbatim and its parseable records are re-written in
  place, so one torn write (e.g. a run killed mid-append) never poisons the
  cache or loses its neighbours.
* **Schema versioning.**  Records written under a different
  :data:`~repro.store.serialization.SCHEMA_VERSION` are never returned;
  :meth:`ResultStore.gc` deletes them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.faults import injector as _faults
from repro.obs import metrics as _metrics
from repro.sim.results import SimulationResult
from repro.store import serialization
from repro.store.serialization import (
    SerializationError,
    payload_to_result,
    result_to_payload,
)

__all__ = ["ResultStore", "StoreStats", "GcStats"]

_MANIFEST_FORMAT = "repro-result-store"
_HASH_PATTERN = re.compile(r"^[0-9a-f]{4,64}$")
_ARTIFACT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's contents (``repro cache stats``)."""

    path: str
    schema_version: int
    n_results: int
    n_stale: int
    n_shards: int
    n_quarantined: int
    n_artifacts: int
    total_bytes: int

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`ResultStore.gc` pass removed."""

    dropped_stale: int
    dropped_duplicates: int
    reclaimed_bytes: int


class ResultStore:
    """Content-addressed on-disk cache of run results.

    Parameters
    ----------
    path:
        Cache directory; created (with its manifest) if it does not exist.
    fsync:
        Flush and ``os.fsync`` every shard append before releasing the
        store lock.  Off by default (the OS page cache is plenty for a
        local cache); turn it on when a stored record must survive an
        operating-system crash or power loss right after the append.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        fsync: bool = False,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._lock = threading.RLock()
        #: Shard name -> {run_hash: record}; loaded lazily per shard.
        self._loaded: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._ensure_layout()

    # ------------------------------------------------------------ filesystem
    @property
    def _shards_dir(self) -> Path:
        return self.path / "shards"

    @property
    def _quarantine_dir(self) -> Path:
        return self.path / "quarantine"

    @property
    def _artifacts_dir(self) -> Path:
        return self.path / "artifacts"

    def _ensure_layout(self) -> None:
        self._shards_dir.mkdir(parents=True, exist_ok=True)
        self._quarantine_dir.mkdir(exist_ok=True)
        self._artifacts_dir.mkdir(exist_ok=True)
        manifest = self.path / "manifest.json"
        if manifest.exists():
            try:
                payload = json.loads(manifest.read_text(encoding="utf-8"))
                if payload.get("format") != _MANIFEST_FORMAT:
                    raise ValueError(f"{self.path} is not a result store")
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._quarantine_file(manifest)
            else:
                return
        self._write_atomic(manifest, json.dumps({
            "format": _MANIFEST_FORMAT,
            "schema_version": serialization.SCHEMA_VERSION,
            # Provenance metadata (when the store was created), exempt from
            # the determinism contract — never feeds back into a simulation.
            "created_unix": time.time(),  # lint: allow[KRN002]
        }, indent=2) + "\n")

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        # One temporary name per process: processes that open a fresh
        # store together each write a manifest, and a shared name would
        # let one rename the other's file away mid-write.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)

    def _quarantine_file(self, path: Path) -> Path:
        """Move an unreadable file aside verbatim and return its new home."""
        target = self._quarantine_dir / path.name
        counter = 0
        while target.exists():
            counter += 1
            target = self._quarantine_dir / f"{path.name}.{counter}"
        os.replace(path, target)
        return target

    # ---------------------------------------------------------------- shards
    @staticmethod
    def _shard_name(run_hash: str) -> str:
        return f"{run_hash[:2]}.jsonl"

    def _validate_hash(self, run_hash: str) -> str:
        if not isinstance(run_hash, str) or not _HASH_PATTERN.match(run_hash):
            raise ValueError(f"{run_hash!r} is not a hex run hash")
        return run_hash

    def _shard(self, name: str) -> Dict[str, Dict[str, Any]]:
        """Load one shard (salvaging around corruption), cached in memory.

        Two distinct damage modes:

        * a torn **final** line — the signature of a process killed in the
          middle of its append — is expected wear, not corruption: the
          partial line is truncated away in place and every complete
          record survives, with no quarantine detour;
        * anything else unparseable (interior damage, undecodable bytes)
          still moves the file verbatim to ``quarantine/`` for post-mortem
          before the good records are re-written.
        """
        cached = self._loaded.get(name)
        if cached is not None:
            return cached
        path = self._shards_dir / name
        records: Dict[str, Dict[str, Any]] = {}
        if path.exists():
            good_lines: List[str] = []
            bad_indices: List[int] = []
            undecodable = False
            try:
                raw = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                raw = ""
                undecodable = True  # the whole file, unreadable
            lines = [line for line in raw.splitlines() if line.strip()]
            for index, line in enumerate(lines):
                try:
                    record = json.loads(line)
                    run_hash = record["run_hash"]
                    record["schema"], record["result"]
                except (json.JSONDecodeError, TypeError, KeyError):
                    bad_indices.append(index)
                    continue
                records[run_hash] = record  # duplicate hashes: last write wins
                good_lines.append(line)
            torn_tail_only = (
                not undecodable
                and bad_indices == [len(lines) - 1]
            )
            if torn_tail_only:
                m = _metrics.METRICS
                if m.enabled:
                    m.inc("store.torn_tail_salvaged")
                self._write_atomic(
                    path, "\n".join(good_lines) + "\n" if good_lines else ""
                )
            elif undecodable or bad_indices:
                m = _metrics.METRICS
                if m.enabled:
                    m.inc(
                        "store.quarantined_lines",
                        len(bad_indices) if bad_indices else 1,
                    )
                # Preserve the damaged file verbatim for post-mortems, then
                # re-write the salvageable records in place.
                self._quarantine_file(path)
                if good_lines:
                    self._write_atomic(path, "\n".join(good_lines) + "\n")
        self._loaded[name] = records
        return records

    def _rewrite_shard(
        self, name: str, records: Dict[str, Dict[str, Any]]
    ) -> None:
        path = self._shards_dir / name
        if records:
            lines = [json.dumps(r, sort_keys=True) for r in records.values()]
            self._write_atomic(path, "\n".join(lines) + "\n")
        elif path.exists():
            path.unlink()
        self._loaded[name] = dict(records)

    def _shard_names_on_disk(self) -> List[str]:
        return sorted(p.name for p in self._shards_dir.glob("*.jsonl"))

    # ------------------------------------------------------------------- API
    def get(self, run_hash: str) -> Optional[SimulationResult]:
        """The cached result for ``run_hash``, or None.

        Records from other schema versions are treated as misses; a record
        whose payload no longer deserialises is quarantined and dropped.
        """
        run_hash = self._validate_hash(run_hash)
        with self._lock:
            name = self._shard_name(run_hash)
            record = self._shard(name).get(run_hash)
            if record is None or record.get("schema") != serialization.SCHEMA_VERSION:
                return None
            try:
                return payload_to_result(record["result"])
            except SerializationError:
                self._quarantine_record(name, record)
                return None

    def _quarantine_record(
        self, shard_name: str, record: Dict[str, Any]
    ) -> None:
        """Move one undeserialisable record out of its shard."""
        m = _metrics.METRICS
        if m.enabled:
            m.inc("store.quarantined_lines")
        with open(self._quarantine_dir / "bad-records.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        records = dict(self._shard(shard_name))
        records.pop(record.get("run_hash"), None)
        self._rewrite_shard(shard_name, records)

    def get_many(
        self, run_hashes: Iterable[str]
    ) -> Dict[str, SimulationResult]:
        """Cached results for every hit among ``run_hashes``."""
        found: Dict[str, SimulationResult] = {}
        for run_hash in run_hashes:
            result = self.get(run_hash)
            if result is not None:
                found[run_hash] = result
        return found

    def put(
        self,
        run_hash: str,
        result: SimulationResult,
        coords: Optional[Dict[str, object]] = None,
    ) -> None:
        """Persist one result under its run hash (append, atomic per line)."""
        run_hash = self._validate_hash(run_hash)
        record: Dict[str, Any] = {
            "run_hash": run_hash,
            "schema": serialization.SCHEMA_VERSION,
            # Provenance metadata (when the record landed), exempt from the
            # determinism contract — never read back into simulation state.
            "saved_unix": time.time(),  # lint: allow[KRN002]
            "coords": dict(coords) if coords else None,
            "result": result_to_payload(result),
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        torn = False
        injector = _faults.INJECTOR
        if injector is not None:
            maimed = injector.torn_append(line)
            torn = maimed != line
            line = maimed
        with self._lock:
            name = self._shard_name(run_hash)
            records = self._shard(name)
            with open(self._shards_dir / name, "a", encoding="utf-8") as handle:
                handle.write(line)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            if torn:
                # Simulated mid-write kill: the record never made it, so the
                # memory cache must not claim it did.  Dropping the shard
                # from the cache forces the next read back through the
                # torn-tail salvage path, like a restart would.
                self._loaded.pop(name, None)
            else:
                records[run_hash] = record

    def __contains__(self, run_hash: str) -> bool:
        return self.get(run_hash) is not None

    def __len__(self) -> int:
        with self._lock:
            return sum(
                1
                for name in self._shard_names_on_disk()
                for record in self._shard(name).values()
                if record.get("schema") == serialization.SCHEMA_VERSION
            )

    def __bool__(self) -> bool:
        # An *empty* store must still be truthy: without this, __len__ makes
        # ``store if store else None``-style guards silently disable caching
        # on every cold start.
        return True

    def invalidate(self, run_hash: str) -> bool:
        """Drop one cached result; returns whether it existed."""
        run_hash = self._validate_hash(run_hash)
        with self._lock:
            name = self._shard_name(run_hash)
            records = dict(self._shard(name))
            if run_hash not in records:
                return False
            records.pop(run_hash)
            self._rewrite_shard(name, records)
            return True

    def clear(self) -> int:
        """Drop every cached result; returns how many were removed."""
        with self._lock:
            removed = len(self)
            for name in self._shard_names_on_disk():
                (self._shards_dir / name).unlink()
            self._loaded.clear()
            return removed

    def gc(self) -> GcStats:
        """Rewrite every shard, dropping stale-schema records and duplicates.

        Shard files are append-only, so a hash overwritten by a newer run or
        invalidated by a schema bump leaves dead lines behind; ``gc``
        compacts them away and reports what was reclaimed.
        """
        with self._lock:
            dropped_stale = 0
            duplicates = 0
            reclaimed = 0
            for name in self._shard_names_on_disk():
                path = self._shards_dir / name
                before = path.stat().st_size if path.exists() else 0
                self._loaded.pop(name, None)
                live = self._shard(name)  # re-load, salvaging corruption
                raw_lines = 0
                if path.exists():
                    with open(path, "r", encoding="utf-8") as handle:
                        raw_lines = sum(1 for line in handle if line.strip())
                kept = {
                    run_hash: record
                    for run_hash, record in live.items()
                    if record.get("schema") == serialization.SCHEMA_VERSION
                }
                dropped_stale += len(live) - len(kept)
                duplicates += raw_lines - len(live)
                self._rewrite_shard(name, kept)
                after = path.stat().st_size if path.exists() else 0
                reclaimed += max(0, before - after)
            return GcStats(
                dropped_stale=dropped_stale,
                dropped_duplicates=duplicates,
                reclaimed_bytes=reclaimed,
            )

    def stats(self) -> StoreStats:
        """Count live results, stale records, shards and quarantined files."""
        with self._lock:
            n_results = 0
            n_stale = 0
            total_bytes = 0
            shard_names = self._shard_names_on_disk()
            for name in shard_names:
                path = self._shards_dir / name
                if path.exists():
                    total_bytes += path.stat().st_size
                for record in self._shard(name).values():
                    if record.get("schema") == serialization.SCHEMA_VERSION:
                        n_results += 1
                    else:
                        n_stale += 1
            return StoreStats(
                path=str(self.path),
                schema_version=serialization.SCHEMA_VERSION,
                n_results=n_results,
                n_stale=n_stale,
                n_shards=len(shard_names),
                n_quarantined=sum(
                    1 for p in self._quarantine_dir.iterdir() if p.is_file()
                ),
                n_artifacts=len(self.list_artifacts()),
                total_bytes=total_bytes,
            )

    # -------------------------------------------------------------- artifacts
    def _artifact_path(self, name: str) -> Path:
        if not _ARTIFACT_PATTERN.match(name):
            raise ValueError(
                f"artifact name {name!r} must match {_ARTIFACT_PATTERN.pattern}"
            )
        return self._artifacts_dir / f"{name}.json"

    def put_artifact(self, name: str, payload: object) -> Path:
        """Atomically persist a named JSON document next to the results.

        Used by the benchmark harness for per-figure timing/result
        trajectories; anything JSON-serialisable goes.
        """
        path = self._artifact_path(name)
        with self._lock:
            self._write_atomic(path, json.dumps(payload, indent=2,
                                                sort_keys=True) + "\n")
        return path

    def get_artifact(self, name: str) -> Optional[object]:
        """Load a named JSON document, or None if absent/unreadable."""
        path = self._artifact_path(name)
        with self._lock:
            if not path.exists():
                return None
            try:
                return json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._quarantine_file(path)
                return None

    def list_artifacts(self) -> List[str]:
        """Names of the stored artifacts, sorted."""
        return sorted(p.stem for p in self._artifacts_dir.glob("*.json"))

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"
