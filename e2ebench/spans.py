"""The traced run's span recorder.

Spans are recorded from the benchmark's side of each layer boundary:
:func:`install` replaces each public entry point in :data:`ENTRY_POINTS`
with a wrapper that notes ``(id, parent, name, start, end)`` in memory
while the recorder is active, and :func:`uninstall` puts the originals
back.  Nothing under ``src/`` changes.

A module-level function is replaced in every ``repro`` module that
holds it, because callers such as ``SDComplex._restart_instance`` look
it up at call time in the module they import it from.  A generator
entry point (``LogManager.scan``) gets one span per record it yields,
so the consumer's work between records is not charged to the scan.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

clock = time.perf_counter

#: (id, parent id — 0 at the root, name, start, end)
Span = Tuple[int, int, str, float, float]

#: (layer, module, class name or None for functions, attributes)
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("storage", "repro.storage.disk", "SharedDisk",
     ("read_page", "read_page_view", "write_page", "write_many")),
    ("wal", "repro.wal.log_manager", "LogManager",
     ("append", "append_many", "append_raw", "force", "force_through",
      "scan")),
    ("wal", "repro.wal.client_log", "ClientLogManager", ("append",)),
    ("buffer", "repro.buffer.buffer_pool", "BufferPool",
     ("fix", "write_page", "flush_pages", "flush_all")),
    ("locking", "repro.locking.lock_manager", "LockManager",
     ("acquire", "try_acquire", "release", "release_all")),
    ("sd", "repro.sd.coherency", "CoherencyController", ("access",)),
    ("sd", "repro.sd.instance", "DbmsInstance",
     ("begin", "commit", "sync_commits", "rollback", "insert", "update",
      "delete", "read", "read_many", "update_many", "allocate_page")),
    ("cs", "repro.cs.client", "CsClient",
     ("begin", "commit", "sync_commits", "rollback", "insert", "update",
      "delete", "read", "allocate_page", "flush_all", "send_page_back")),
    ("cs", "repro.cs.server", "CsServer",
     ("lock", "unlock", "release_txn_locks", "fetch_page", "note_new_page",
      "relinquish_page", "receive_log_records", "receive_dirty_page",
      "commit_point")),
    ("net", "repro.net.network", "Network", ("message",)),
    ("recovery", "repro.recovery.aries", None,
     ("analysis_pass", "restart_recovery", "fast_restart_recovery")),
    ("recovery", "repro.recovery.instant", "InstantRecoveryManager",
     ("recover_page",)),
    ("recovery", "repro.recovery.media", None,
     ("recover_database_from_media",)),
    ("recovery", "repro.cs.server", "CsServer", ("recover_client",)),
    ("replication", "repro.replication.shipper", "ReplicationManager",
     ("on_commit", "drain")),
    ("replication", "repro.replication.standby", "StandbyComplex",
     ("receive",)),
)

#: Each layer must record a span on every workload where the README's
#: layer table says it should move an end-to-end metric.
SHOULD_MOVE: Dict[str, Tuple[str, ...]] = {
    "locking": ("oltp-sd", "oltp-cs"),
    "sd": ("oltp-sd",),
    "wal": ("oltp-sd", "bulk-standby", "restart-sd", "oltp-cs"),
    "buffer": ("oltp-sd", "bulk-standby"),
    "storage": ("bulk-standby", "restart-sd"),
    "recovery": ("restart-sd", "oltp-cs"),
    "replication": ("bulk-standby",),
    "cs": ("oltp-cs",),
    "net": ("oltp-cs",),
}


class CoverageError(RuntimeError):
    """An entry point is gone, or a layer recorded nothing where it
    should."""


def span_name(owner: Optional[str], attr: str) -> str:
    return f"{owner}.{attr}" if owner else attr


def layer_of() -> Dict[str, str]:
    return {span_name(owner, attr): layer
            for layer, _, owner, attrs in ENTRY_POINTS for attr in attrs}


class SpanRecorder:
    """Spans in memory, plus the two counts only a wrapper can see.

    A span is stored when it ends, so every span comes after all of its
    children.  Columns are typed arrays: a traced round records about a
    million spans.
    """

    def __init__(self) -> None:
        self.active = False
        self.fix_hits = 0
        self.scan_records = 0
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = array("q")
        self._parents = array("q")
        self._kinds = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [0]
        self._next_id = 1

    def _note(self, sid: int, name: str, start: float, end: float) -> None:
        kind = self._name_ids.get(name)
        if kind is None:
            kind = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._ids.append(sid)
        self._parents.append(self._stack[-1])
        self._kinds.append(kind)
        self._starts.append(start)
        self._ends.append(end)

    def call(self, name: str, fn: Callable, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            self._note(sid, name, start, end)

    def iterate(self, name: str, gen):
        """Re-yield ``gen``, one span per ``next``."""
        try:
            while True:
                sid = self._next_id
                self._next_id += 1
                self._stack.append(sid)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = clock()
                    self._stack.pop()
                    self._note(sid, name, start, end)
                self.scan_records += 1
                yield item
        finally:
            gen.close()

    def __len__(self) -> int:
        return len(self._ids)

    def spans(self) -> Iterator[Span]:
        names = self._names
        for sid, parent, kind, start, end in zip(
                self._ids, self._parents, self._kinds, self._starts,
                self._ends):
            yield sid, parent, names[kind], start, end

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans():
                out.write(json.dumps(span, separators=(",", ":")))
                out.write("\n")


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per span name: total duration minus the time its child spans
    cover.  ``spans`` must come in the order they ended (children
    before their parent), as :class:`SpanRecorder` stores them."""
    covered: Dict[int, float] = defaultdict(float)
    out: Dict[str, float] = defaultdict(float)
    for sid, parent, name, start, end in spans:
        took = end - start
        out[name] += took - covered.pop(sid, 0.0)
        covered[parent] += took
    return dict(out)


def span_counts(spans: Iterable[Span]) -> Counter:
    return Counter(name for _, _, name, _, _ in spans)


def check_coverage(workload: str, counts: Counter) -> None:
    layers = layer_of()
    seen = Counter()
    for name, n in counts.items():
        seen[layers[name]] += n
    missing = [layer for layer, workloads in SHOULD_MOVE.items()
               if workload in workloads and not seen[layer]]
    if missing:
        raise CoverageError(f"{workload}: no spans recorded for layers "
                            f"{', '.join(missing)}")


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _wrapper(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            gen = fn(*args, **kwargs)
            return rec.iterate(name, gen) if rec.active else gen
        return traced_gen

    if name == "BufferPool.fix":
        @functools.wraps(fn)
        def traced_fix(pool, page_id, *args, **kwargs):
            if not rec.active:
                return fn(pool, page_id, *args, **kwargs)
            rec.fix_hits += pool.contains(page_id)
            return rec.call(name, fn, (pool, page_id) + args, kwargs)
        return traced_fix

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        return rec.call(name, fn, args, kwargs)
    return traced


#: (holder, attribute, original, whether the holder had its own)
Patch = Tuple[object, str, object, bool]


def _resolve(module: str, owner: Optional[str], attr: str):
    try:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        return holder, getattr(holder, attr)
    except (ImportError, AttributeError) as exc:
        raise CoverageError(
            f"entry point {module}:{span_name(owner, attr)} does not "
            f"resolve ({exc}); update spans.ENTRY_POINTS") from exc


def install(rec: SpanRecorder) -> List[Patch]:
    """Wrap every entry point; raises :class:`CoverageError` when one
    no longer exists."""
    resolved = [(module, owner, attr) + _resolve(module, owner, attr)
                for _, module, owner, attrs in ENTRY_POINTS
                for attr in attrs]
    patches: List[Patch] = []
    for _, owner, attr, holder, fn in resolved:
        wrapped = _wrapper(rec, span_name(owner, attr), fn)
        if owner is not None:
            patches.append((holder, attr, fn, attr in vars(holder)))
            setattr(holder, attr, wrapped)
            continue
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(mod, attr, None) is fn:
                patches.append((mod, attr, fn, True))
                setattr(mod, attr, wrapped)
    return patches


def uninstall(patches: List[Patch]) -> None:
    for holder, attr, fn, owned in reversed(patches):
        if owned:
            setattr(holder, attr, fn)
        else:
            delattr(holder, attr)
