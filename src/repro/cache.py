"""Persistent on-disk store of offline kernel profiles.

The Slate daemon amortizes first-run profiling with its kernel profile
table (§IV-B): a kernel is profiled once, and every later scheduling
decision reads the stored profile, including profiles "obtained from its
previous runs".  :class:`repro.slate.profiler.ProfileCache` keeps that
table on disk through this module, so offline profiles are reused across
experiments, pytest sessions and parallel runner workers.

Design rules:

* **Keys are fingerprints** (:func:`repro.config.fingerprint`) over every
  input that influences the result (kernel spec, device config, cost
  model, task size, ...).  A changed configuration hashes to a new key, so
  stale results are structurally unreachable — invalidation is automatic.
* **Values are JSON**.  Python's JSON encoder writes floats with their
  shortest round-tripping repr, so cached numbers are *bit-identical* to
  freshly computed ones; cached and uncached runs produce byte-identical
  reports.
* **Writes are atomic** (temp file + ``os.replace``) so concurrent runner
  workers can share one cache directory without corrupting entries.
* **Each file is read once per instance.**  A :class:`JsonCache` keeps
  every payload it has read from disk and serves later gets of that key
  from memory.  ``put`` drops its key's kept payload without filling the
  store (the next get reads the new file), and ``clear`` drops them all.
  The process-wide profile cache is one instance, so a cached profile is
  opened once per process however many runtimes preload it.

Layout on disk::

    <cache root>/                 # repro.config.cache_dir()
        profiles/<fingerprint>.json

Set ``REPRO_CACHE_DIR`` to relocate the root, ``REPRO_NO_CACHE=1`` to
bypass caching entirely, or delete the directory to force recomputation.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional

from repro.config import cache_dir, cache_enabled, fingerprint

__all__ = ["JsonCache"]


class JsonCache:
    """A namespaced directory of JSON payloads keyed by fingerprint.

    Parameters
    ----------
    namespace:
        Subdirectory under the cache root (``"profiles"``).
    root:
        Cache root; defaults to :func:`repro.config.cache_dir` (which
        honours ``$REPRO_CACHE_DIR``).
    enabled:
        Force caching on/off; defaults to :func:`repro.config.cache_enabled`
        (which honours ``$REPRO_NO_CACHE``).
    """

    def __init__(
        self,
        namespace: str,
        root: "Path | str | None" = None,
        enabled: Optional[bool] = None,
    ) -> None:
        if not namespace or "/" in namespace:
            raise ValueError(f"invalid cache namespace {namespace!r}")
        self.namespace = namespace
        self.root = Path(root) if root is not None else cache_dir()
        self.enabled = cache_enabled() if enabled is None else bool(enabled)
        self.hits = 0
        self.misses = 0
        #: Payloads read from disk, by fingerprint (never filled by ``put``).
        self._read: dict[str, Any] = {}

    @property
    def directory(self) -> Path:
        return self.root / self.namespace

    def path_for(self, *key_parts: Any) -> Path:
        """The file a payload keyed by ``key_parts`` lives in."""
        return self.directory / f"{fingerprint(*key_parts)}.json"

    # -- access ----------------------------------------------------------

    def get(self, *key_parts: Any) -> Optional[dict]:
        """The cached payload for ``key_parts``, or ``None`` on a miss.

        A key's file is read at most once per instance; later hits return
        the same payload object, which callers must not mutate.  Corrupt
        entries (interrupted writes from an older, non-atomic writer, disk
        faults) are treated as misses and removed.
        """
        if not self.enabled:
            return None
        key = fingerprint(*key_parts)
        payload = self._read.get(key)
        if payload is not None:
            self.hits += 1
            return payload
        path = self.directory / f"{key}.json"
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, OSError):
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._read[key] = payload
        return payload

    def put(self, payload: dict, *key_parts: Any) -> None:
        """Atomically store ``payload`` under the key of ``key_parts``.

        A payload kept from an earlier :meth:`get` of the key is dropped,
        so the next get reads what this call wrote.
        """
        if not self.enabled:
            return
        directory = self.directory
        directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(*key_parts)
        self._read.pop(path.stem, None)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance -----------------------------------------------------

    def clear(self) -> int:
        """Delete every entry in this namespace; returns the count removed."""
        self._read.clear()
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return (
            f"<JsonCache {self.namespace!r} at {self.directory} "
            f"[{state}] hits={self.hits} misses={self.misses}>"
        )
