"""In-memory spans: one per call into a traced function.

A span is ``(name_id, start, end, parent, size)``: the name (an index into
:attr:`Tracer.names`), host ``perf_counter`` seconds at entry and exit, the
index of the span that was open when this one started (``-1`` for a root),
and a work size the wrapper read from the call (a return value or an
argument length; ``0`` when the function has none).  Spans are appended
in entry order, so a parent's index is always lower than its children's.

A span's self time is its duration minus its child spans.  Each phase of a
traced unit (``setup``, ``run``) sits under one root span named
``unattributed|<phase>``, so the root's self time is the time no
instrumented function accounts for.  Spans stay in memory until the traced
unit ends; :meth:`SpanSet.dump` then writes them out.

Spans recorded in a forked worker process (the shard workers of the
``sharded`` workload) start from an empty list in the worker and are
handed back through a file when the worker exits: see
:meth:`Tracer.capture_forked_workers`.
"""

from __future__ import annotations

import marshal
import multiprocessing.util
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

clock = time.perf_counter

Span = Tuple[int, float, float, int, int]

#: The layer of the phase roots: time inside no instrumented function.
UNATTRIBUTED = "unattributed"


class Tracer:
    """Records the spans of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # Mutated in place only: the wrappers close over these objects.
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        #: Objects whose counters :attr:`counter_reader` sums at snapshot.
        self.watched: Dict[int, Any] = {}
        self.counter_reader: Callable[[Iterable[Any]], Dict[str, int]] = (
            lambda objects: {}
        )
        #: Directory forked workers write their spans to, when capturing.
        self._worker_dir: Optional[Path] = None

    def name_id(self, name: str) -> int:
        """The id of ``name`` (``"<layer>|<function>"``), allocated once."""
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def reset(self) -> None:
        """Forget every span (names are kept)."""
        del self.spans[:]
        del self.stack[:]
        self.watched.clear()

    @contextmanager
    def root(self, phase: str) -> Iterator[None]:
        """The root span around one phase of the unit (``setup``/``run``)."""
        spans, stack = self.spans, self.stack
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            stack.pop()
            spans[index] = (self.name_id(f"{UNATTRIBUTED}|{phase}"), start, end,
                            parent, 0)

    # -- analysis ----------------------------------------------------------

    def snapshot(self) -> "SpanSet":
        """This process's spans as a :class:`SpanSet`; all must be closed."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} spans are still open")
        return SpanSet(list(self.names), list(self.spans),
                       self.counter_reader(self.watched.values()))

    # -- forked workers ----------------------------------------------------

    def capture_forked_workers(self, directory: Path) -> None:
        """Collect spans from ``multiprocessing`` workers forked from now on.

        In each forked worker the inherited spans are dropped, and the
        worker's own spans are written to ``directory`` by a finalizer that
        ``multiprocessing`` runs when the worker's target returns.
        """
        directory.mkdir(parents=True, exist_ok=True)
        self._worker_dir = directory
        multiprocessing.util.register_after_fork(self, Tracer._start_worker)

    def _start_worker(self) -> None:
        if self._worker_dir is None:
            return
        self.reset()
        multiprocessing.util.Finalize(self, self._write_worker, exitpriority=10)

    def _write_worker(self) -> None:
        self.snapshot().dump(self._worker_dir / f"worker-{os.getpid()}.spans")

    def collect_workers(self) -> List["SpanSet"]:
        """Span sets written by forked workers since capture began; clears them."""
        if self._worker_dir is None:
            return []
        sets = []
        for path in sorted(self._worker_dir.glob("worker-*.spans")):
            sets.append(SpanSet.load(path))
            path.unlink()
        return sets

    def stop_capturing_workers(self) -> None:
        self._worker_dir = None


class SpanSet:
    """The closed spans of one process, with self times computed."""

    def __init__(self, names: List[str], spans: List[Span],
                 counters: Dict[str, int]) -> None:
        self.names = names
        self.spans = spans
        self.counters = counters
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        #: Per span: duration minus child spans.
        self.self_s = [
            (end - start) - children[index]
            for index, (_, start, end, _, _) in enumerate(spans)
        ]
        #: Per span: the phase root it ran under (``setup``/``run``), or
        #: ``worker`` in a forked worker, which has no phase root.
        self.phase: List[str] = []
        for name_id, _, _, parent, _ in spans:
            if parent >= 0:
                self.phase.append(self.phase[parent])
            else:
                layer, _, function = names[name_id].partition("|")
                self.phase.append(function if layer == UNATTRIBUTED else "worker")

    def dump(self, path: Path) -> None:
        """Write the spans, names and counters to ``path``.

        ``marshal`` format (a tuple of plain containers), which writes and
        reads a paper pass's ~250k spans in well under a second.
        """
        with open(path, "wb") as handle:
            marshal.dump((self.names, self.spans, self.counters), handle)

    @classmethod
    def load(cls, path: Path) -> "SpanSet":
        with open(path, "rb") as handle:
            return cls(*marshal.load(handle))
