"""Shared on-disk p-action cache stores — campaign warm-start.

Repeated campaigns (CI runs, parameter sweeps, regression timing) keep
re-simulating the same binaries under the same processor model. Each
(program text, parameters) pair has a binding signature
(:func:`repro.memo.engine.run_signature`); a :class:`CacheStore` maps
that signature to a persisted p-action cache file
(:mod:`repro.memo.persist`), so any worker — in any process, on any
placement, in any later campaign — can start fully warm.

The store is **content-addressed by the run signature**: the file name
*is* the SHA-256 digest of everything that defines the cache's content
(program text, text base, processor parameters), so two writers racing
on the same name are by construction writing caches for the same
binding, and a reader can never be handed bytes for the wrong binary —
the binding is re-imposed on load. Writes are concurrency-safe for
many writers, including many threads of one process (the work-stealing
queue backend) and unrelated processes on a shared filesystem: each
write goes through a per-process *and* per-thread unique temporary
file and one atomic :func:`os.replace` (last writer wins; both wrote
compatible caches for the same binding, so either outcome is sound).

A corrupt or truncated file is treated as a miss, never an error:
warm-start is an optimisation, and the bit-identical invariant
guarantees a cold run produces the same simulated results. Corrupt
files are **quarantined**, not silently skipped: the damaged file is
atomically renamed to ``<name>.bad`` (preserving the evidence and
preventing every later run from tripping over it), counted in the
``guard.cache_quarantined`` obs metric, and reported through the
progress sink as a ``cache-quarantined`` event (a WARNING line in
text mode) — see docs/robustness.md.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Union

from repro.errors import MemoizationError
from repro.memo import segstore
from repro.memo.pcache import PActionCache
from repro.memo.persist import load_pcache, save_pcache
from repro.obs.core import ensure_observer

_SUFFIX = ".fspc"
#: Sibling file carrying the persisted compiled segments for a binding
#: (:mod:`repro.memo.segstore`); same name, different suffix, same
#: quarantine/miss semantics as the p-cache itself.
_SEG_SUFFIX = ".fsseg"
#: Appended to a corrupt cache file's name when it is quarantined.
QUARANTINE_SUFFIX = ".bad"

#: Process-wide monotonic counter making temp names unique per writer
#: even when one process writes from many threads (the queue backend).
_TEMP_SEQUENCE = itertools.count()


class CacheStore:
    """A directory of persisted p-action caches keyed by signature."""

    def __init__(self, root: Union[str, "os.PathLike"], obs=None,
                 sink=None):
        self.root = os.fspath(root)
        self.obs = ensure_observer(obs)
        self.sink = sink
        #: Base names of files quarantined by this store instance.
        self.quarantined: List[str] = []
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, signature: bytes) -> str:
        """The cache file path for one binding signature."""
        return os.path.join(self.root, signature.hex() + _SUFFIX)

    def seg_path_for(self, signature: bytes) -> str:
        """The compiled-segment archive path for one binding signature."""
        return os.path.join(self.root, signature.hex() + _SEG_SUFFIX)

    def load(self, signature: bytes) -> Optional[PActionCache]:
        """Return the persisted cache for *signature*, or None.

        Missing files miss silently. Corrupt or unreadable files — and
        files whose stored binding does not match (should never happen,
        but a hash collision on the file name must not poison a run) —
        miss *and* are quarantined: renamed to ``<name>.bad`` so later
        runs re-record a clean cache instead of re-parsing damage.
        """
        path = self.path_for(signature)
        try:
            cache = load_pcache(path)
        except FileNotFoundError:
            return None
        except (MemoizationError, OSError, IndexError) as exc:
            self._quarantine(path, exc)
            return None
        if cache._bound_program != signature:
            self._quarantine(path, MemoizationError(
                "persisted cache bound to a different program"))
            return None
        return cache

    def load_segments(self, signature: bytes):
        """The persisted segment archive for *signature*, or None.

        Same contract as :meth:`load`: missing files miss silently,
        damaged files miss *and* quarantine. A quarantined (or even a
        silently wrong) archive can never corrupt a run — install
        recompiles every record from the live graph and digest-checks
        it (:mod:`repro.memo.segstore`) — so this path is pure
        optimisation, like warm-start itself.
        """
        path = self.seg_path_for(signature)
        try:
            return segstore.load_segments(path)
        except FileNotFoundError:
            return None
        except (MemoizationError, OSError, IndexError) as exc:
            self._quarantine(path, exc)
            return None

    def _quarantine(self, path: str, exc: Exception) -> None:
        """Rename a corrupt cache file aside and report it."""
        name = os.path.basename(path)
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            # Concurrent worker already moved it (or the file vanished);
            # the report below still records that *we* hit corruption.
            pass
        self.quarantined.append(name)
        if self.obs.enabled:
            self.obs.counter("guard.cache_quarantined")
            self.obs.event("guard.cache-quarantined", cat="guard",
                           file=name, error=str(exc))
        if self.sink is not None:
            self.sink.emit("cache-quarantined", file=name,
                           error=str(exc))

    def _temp_path(self, signature: bytes) -> str:
        """A writer-unique temporary name next to the final path.

        Unique across processes (pid), across threads of one process
        (thread ident), and across successive writes by one thread
        (sequence counter) — any number of concurrent writers may
        target the same signature without touching each other's bytes.
        """
        return os.path.join(
            self.root,
            f".{signature.hex()}.{os.getpid()}"
            f".{threading.get_ident()}.{next(_TEMP_SEQUENCE)}.tmp",
        )

    def store(self, signature: bytes, cache: PActionCache,
              known_nodes: int = 0) -> bool:
        """Persist *cache* unless it holds nothing new.

        *known_nodes* is the node count the run started from (0 for a
        cold start); when the run recorded nothing beyond it there is
        nothing worth writing. Returns True when a file was written.
        """
        recorded = cache.configs_allocated + cache.actions_allocated
        if recorded <= known_nodes and os.path.exists(
                self.path_for(signature)):
            return False
        final_path = self.path_for(signature)
        temp_path = self._temp_path(signature)
        try:
            save_pcache(cache, temp_path)
            os.replace(temp_path, final_path)
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
        return True

    def store_segments(self, signature: bytes, archive) -> bool:
        """Persist a :class:`~repro.memo.segstore.SegmentArchive`.

        Empty archives are not worth a file (a later run simply
        re-warms); returns True when a file was written. The write is
        concurrency-safe exactly like :meth:`store` (writer-unique
        temp file + atomic replace).
        """
        if not archive.records:
            return False
        temp_path = self._temp_path(signature)
        try:
            with open(temp_path, "wb") as stream:
                segstore.write_segments(archive, stream)
            os.replace(temp_path, self.seg_path_for(signature))
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
        return True

    def read_bytes(self, signature: bytes,
                   suffix: str = _SUFFIX) -> Optional[bytes]:
        """The persisted file's raw bytes, or None when missing.

        No integrity check happens here (:meth:`load` is the validating
        reader). *suffix* selects the p-cache file (default) or its
        ``.fsseg`` sibling.
        """
        try:
            path = os.path.join(self.root, signature.hex() + suffix)
            with open(path, "rb") as stream:
                return stream.read()
        except OSError:
            return None

    def entries(self) -> List[str]:
        """Hex signatures currently persisted, sorted."""
        found = []
        for name in os.listdir(self.root):
            if name.endswith(_SUFFIX) and not name.startswith("."):
                found.append(name[: -len(_SUFFIX)])
        return sorted(found)


@dataclass(frozen=True)
class StoreSpec:
    """A picklable recipe for a cache store.

    Jobs cross process boundaries (a forked child's arguments, a
    spawned worker's envelope), so workers receive the *description* of the store and
    build their own instance — exactly like :class:`PolicySpec` for
    replacement policies. ``cache_dir`` None means no store
    (always-cold runs).
    """

    cache_dir: Optional[str] = None

    def __bool__(self) -> bool:
        return self.cache_dir is not None

    def build(self, obs=None, sink=None) -> Optional[CacheStore]:
        """Instantiate the described store (or None)."""
        if not self.cache_dir:
            return None
        return CacheStore(self.cache_dir, obs=obs, sink=sink)


def make_store(cache_dir: Optional[str] = None, obs=None,
               sink=None) -> Optional[CacheStore]:
    """One-call convenience over :class:`StoreSpec`."""
    return StoreSpec(cache_dir=cache_dir).build(obs=obs, sink=sink)
