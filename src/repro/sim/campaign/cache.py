"""Campaign record cache: skip already-computed cells on resumed sweeps.

Campaign records are pure functions of their :class:`ScenarioSpec` (that
purity is what makes sharding and worker-count independence byte-exact),
and ``spec.key()`` is a stable content identity - so a record computed
once can be replayed for every later campaign that contains the same
cell.  This store keys one small JSON file per record under a cache
directory by the SHA-256 of the spec key; a resumed or re-sharded
million-scenario sweep then recomputes only the cells it has never seen,
and the replayed stream is byte-identical to a cold run (the canonical
record serialisation round-trips through the same domain record classes
the stream reader uses).

Corrupt, foreign, or colliding files are treated as misses and
recomputed (then overwritten), never trusted: the worst a damaged cache
can do is cost time.  ``put`` writes via a unique temporary file and an
atomic rename, so concurrent shard processes sharing one cache directory
cannot interleave partial writes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path


class RecordCache:
    """One-record-per-file store keyed by ``spec.key()``."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, spec) -> Path:
        digest = hashlib.sha256(spec.key().encode("utf-8")).hexdigest()
        return self.root / f"{digest[:40]}.json"

    def get(self, spec):
        """The cached record for ``spec``, or ``None`` (counted a miss)."""
        from repro.sim.domains import record_class_for

        try:
            with open(self.path_for(spec), encoding="utf-8") as stream:
                payload = json.load(stream)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("key") != spec.key():
            self.misses += 1  # foreign file or (theoretical) hash collision
            return None
        fields = payload.get("record")
        try:
            record = record_class_for(payload.get("domain", ""))(**fields)
        except (KeyError, TypeError, ValueError):
            # stale schema (an unknown domain, missing or unknown fields,
            # or field content the record class rejects): recompute and
            # overwrite
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, spec, record) -> None:
        """Store ``record`` for ``spec`` (atomic, last writer wins)."""
        path = self.path_for(spec)
        payload = {"key": spec.key(), "domain": record.domain,
                   "record": vars(record)}
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)

    def flush(self) -> None:
        """Make every ``put`` so far durable (fsync the cache directory).

        Record files are written atomically, but the *directory entries*
        from the renames may still sit in the page cache; a graceful
        service shutdown calls this so a machine crash right after cannot
        lose finished cells.  Best effort - filesystems without directory
        fsync just no-op.
        """
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)


class MemoryRecordCache(RecordCache):
    """The same cache contract held in a plain dict - no disk at all.

    The campaign service uses this when started without a cache
    directory: cross-request dedup still works for the life of the
    process (two clients sweeping overlapping matrices pay for the union
    once), it just doesn't survive a restart.  Also handy for repeated
    in-process sweeps: ``execute_request(request,
    cache=MemoryRecordCache())``.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._records: dict[str, object] = {}

    def path_for(self, spec):
        raise TypeError("MemoryRecordCache keeps records in memory; "
                        "there is no file path")

    def get(self, spec):
        record = self._records.get(spec.key())
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, spec, record) -> None:
        self._records[spec.key()] = record

    def flush(self) -> None:
        pass  # nothing on disk to make durable
