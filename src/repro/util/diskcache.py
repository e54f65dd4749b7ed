"""Persistent, digest-sharded, size-bounded on-disk cache.

:class:`DiskCache` is the durable second level under the in-process
:class:`~repro.util.parallel.KeyedCache` layers (the library's
``memo_cache`` and the serve daemon's request cache): partitioning
results are keyed by content digests (``docs/parallel.md``), so a result
computed once is valid for every later process — and for every *user* —
that presents the same key.  The ``repro serve`` daemon leans on this store
for warm restarts (``docs/serve.md``); ``repro cache --dir`` inspects it.

Design:

* **One file per entry, sharded by digest prefix.**  The entry key is
  hashed (SHA-256) together with a *version tag* (library version +
  store schema version + optional salt) and lands in
  ``root/<hh>/<hash>.pkl`` — 256 shard directories keep any single
  directory small at millions of entries.
* **Versioned keys.**  Because the version tag participates in the
  hash, a library upgrade simply stops *seeing* old entries (they age
  out through eviction) instead of deserialising stale results.  The
  full key ``repr`` is stored inside each entry and verified on read,
  so even a hash collision degrades to a miss, never a wrong value.
* **Atomic writes.**  Entries are written to a temporary file in the
  shard directory and ``os.replace``-d into place; readers never see a
  torn write.  Unreadable/corrupt entries are deleted and reported as
  misses.  A write the disk refuses (full, read-only, no permission) is
  counted under ``errors`` and dropped; the value it carried was already
  computed, so the caller still gets it.
* **LRU-ish size-bounded eviction.**  Hits touch the entry's mtime;
  when the store's total size passes *max_bytes* after a put, the
  oldest-mtime entries are removed until it fits again.  The total is
  tracked as a running byte counter (seeded by one directory scan on
  the first put, adjusted per put/unlink) so a put under budget costs
  O(1) stats, not an O(entries) rescan; the full scan only happens when
  the budget is actually crossed, which also re-synchronises the
  counter against anything other processes did to the directory.
* **Thread-safe** within a process (one lock around mutations — the
  serve daemon's request threads share one store).  Cross-*process*
  safety relies on the atomic replace plus key verification: concurrent
  writers of the same key write identical content (results are
  deterministic given the key), so last-writer-wins is harmless.

Values travel by pickle: the store is a **local, trusted** cache
directory, not an interchange format — do not point it at files from
untrusted sources.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from pathlib import Path

import repro.obs as _obs
from repro import __version__
from repro.util.errors import ReproError

__all__ = ["DiskCache", "SCHEMA_VERSION"]

#: Bump when the on-disk entry layout changes; participates in the key
#: hash, so older stores are silently invisible rather than misread.
SCHEMA_VERSION = 1

_SUFFIX = ".pkl"


class DiskCache:
    """Persistent key→value store with the :class:`KeyedCache` backend
    protocol (``lookup`` / ``put`` / ``stats`` / ``__contains__``).

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).  Safe to share
        between the memo cache and the serve results cache — keys are
        namespaced tuples.
    max_bytes:
        Soft cap on the store's total size; crossing it after a put
        evicts oldest-mtime entries until the store fits (the entry just
        written has the newest mtime, so it survives).  Default 256 MiB.
    salt:
        Extra string mixed into every key hash — lets tests (and
        deliberate cache-busting deployments) isolate stores sharing a
        directory.
    name:
        Label for this store's series in the unified observability
        registry (``cache.lookups{cache=<name>, ...}``).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int = 256 * 1024 * 1024,
        salt: str = "",
        name: str = "disk",
    ) -> None:
        if max_bytes < 1:
            raise ReproError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.name = name
        self._version_tag = f"repro/{__version__}/schema/{SCHEMA_VERSION}/{salt}"
        self._lock = threading.Lock()
        # running store size in bytes; None until the first put seeds it
        # with a directory scan (later puts adjust it incrementally)
        self._total_bytes: int | None = None
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.errors = 0

    # ------------------------------------------------------------------ #
    def _locate(self, key) -> tuple[Path, str]:
        """Shard path and canonical key repr for *key*."""
        key_repr = repr(key)
        h = hashlib.sha256(
            (self._version_tag + "\x00" + key_repr).encode()
        ).hexdigest()
        return self.root / h[:2] / (h + _SUFFIX), key_repr

    def lookup(self, key) -> tuple[bool, object]:
        """``(True, value)`` if *key* is stored, else ``(False, None)``."""
        path, key_repr = self._locate(key)
        with self._lock:
            try:
                blob = path.read_bytes()
            except OSError:
                self.misses += 1
                _obs.cache_event(self.name, "miss")
                return False, None
            try:
                doc = pickle.loads(blob)
                stored_repr = doc["key"]
                value = doc["value"]
            except Exception:
                # torn/corrupt/foreign entry: drop it, report a miss
                try:
                    path.unlink(missing_ok=True)
                except OSError:  # pragma: no cover - defensive
                    pass
                else:
                    if self._total_bytes is not None:
                        self._total_bytes -= len(blob)
                self.misses += 1
                _obs.cache_event(self.name, "miss")
                return False, None
            if stored_repr != key_repr:
                # hash collision — astronomically unlikely, but the cost
                # of verifying is one string compare and the cost of not
                # verifying would be a *wrong result*
                self.misses += 1
                _obs.cache_event(self.name, "miss")
                return False, None
            try:
                os.utime(path)  # refresh recency for LRU-ish eviction
            except OSError:  # pragma: no cover - defensive
                pass
            self.hits += 1
            _obs.cache_event(self.name, "hit")
            return True, value

    def put(self, key, value) -> None:
        """Store *value* under *key* atomically; evict if over budget.

        A write that fails with :class:`OSError` (``ENOSPC``, ``EACCES``,
        ``EROFS``) drops the entry instead of raising: the temporary file
        is removed, ``stats()["errors"]`` counts it and
        ``cache.errors{cache=<name>}`` records it.
        """
        path, key_repr = self._locate(key)
        blob = pickle.dumps(
            {"key": key_repr, "value": value},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with self._lock:
            if self._total_bytes is None:
                # seed the running total once; adjusted incrementally below
                self._total_bytes = sum(
                    size for _, size, _ in self._entries()
                )
            try:
                old_size = path.stat().st_size  # overwrite replaces this
            except OSError:
                old_size = 0
            tmp = None
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    prefix=".tmp-", suffix=_SUFFIX, dir=path.parent
                )
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
                tmp = None
            except OSError:
                # a full, read-only or unwritable store loses this entry,
                # never the caller's computed result
                self.errors += 1
                _obs.add("cache.errors", cache=self.name)
                return
            finally:
                if tmp is not None:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
            self._total_bytes += len(blob) - old_size
            self.puts += 1
            _obs.add("cache.puts", cache=self.name)
            if self._total_bytes > self.max_bytes:
                self._evict_over_budget()

    # ------------------------------------------------------------------ #
    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every live entry (lock held)."""
        out = []
        for p in self.root.glob(f"??/*{_SUFFIX}"):
            try:
                st = p.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, p))
        return out

    def _evict_over_budget(self) -> None:
        # the full scan also re-seeds the running total, correcting any
        # drift (foreign writers, failed unlinks) accumulated since the
        # last crossing
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total > self.max_bytes:
            for _, size, p in sorted(entries):  # oldest mtime first
                try:
                    p.unlink()
                except OSError:  # pragma: no cover - defensive
                    continue
                self.evictions += 1
                _obs.add("cache.evictions", cache=self.name)
                total -= size
                if total <= self.max_bytes:
                    break
        self._total_bytes = total

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Remove every stored entry (counters reset too)."""
        with self._lock:
            for _, _, p in self._entries():
                try:
                    p.unlink()
                except OSError:  # pragma: no cover - defensive
                    pass
            self.hits = 0
            self.misses = 0
            self.puts = 0
            self.evictions = 0
            self.errors = 0
            self._total_bytes = None  # re-seeded on the next put

    def stats(self) -> dict:
        with self._lock:
            entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "errors": self.errors,
        }

    def __contains__(self, key) -> bool:
        """True iff *key* is stored with a *verified* key repr.

        A pure query: unlike :meth:`lookup` it never touches the
        hit/miss counters, the entry's mtime, or corrupt files — so
        probing membership does not skew stats or eviction order.
        Verification matters: a hash collision or torn write answers
        ``False`` here exactly as it would miss in :meth:`lookup`.
        """
        path, key_repr = self._locate(key)
        try:
            doc = pickle.loads(path.read_bytes())
            return doc["key"] == key_repr
        except Exception:
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries())
