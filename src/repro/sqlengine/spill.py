"""Out-of-core operators: external merge sort and grace-style
partitioned hash join / aggregate.

The vectorized executor (:mod:`repro.sqlengine.vector`) switches a
sort, hash join or hash aggregate to the spilling variant here when
``EngineOptions.memory_budget`` is set and :func:`estimate_bytes` puts
the node's input above it — so the Q0..Q11 preprocessing pipeline can
run on datasets whose working set does not fit the budget.

Every variant is **order-exact** with its in-memory twin:

* the external sort writes sorted runs to disk and k-way merges them
  with the engine's own NULL-largest comparator; ties break on
  ``(run, position)``, which is global input order, so the merge is
  stable exactly like ``list.sort``;
* the partitioned join routes build/probe rows by key hash, so every
  probe row meets all of its matches inside one partition; re-sorting
  the matched pairs by probe position restores the row operator's
  left-major, bucket-ordered emission;
* the partitioned aggregate groups each partition independently
  (records arrive in input order, so the first record of a group is
  its representative) and merges groups by their first-seen input
  position, restoring global first-seen group order.

Spilled records go through :mod:`pickle` into a temporary directory
that is removed in a ``finally`` block; the number of bytes written is
returned to the caller and surfaces as ``spill=<N> B`` in EXPLAIN
ANALYZE.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
from functools import cmp_to_key
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sqlengine.evaluator import reduce_values

#: rough per-value heap cost of a boxed Python object in a row tuple
_BYTES_PER_VALUE = 48
#: per-row tuple overhead
_BYTES_PER_ROW = 32

#: fan-out of the partitioned join/aggregate
_PARTITIONS = 16

#: floor on rows per sort run so tiny budgets still make progress
_MIN_RUN_ROWS = 64


def estimate_bytes(ncols: int, nrows: int) -> int:
    """Rough working-set estimate of *nrows* materialized rows of
    *ncols* columns — deliberately simple and deterministic, so the
    spill decision is reproducible."""
    return nrows * (_BYTES_PER_VALUE * ncols + _BYTES_PER_ROW)


class _SpillDir:
    """A temp directory of pickled record batches, byte-counted."""

    def __init__(self) -> None:
        self.path = tempfile.mkdtemp(prefix="repro-spill-")
        self.bytes_written = 0
        self._counter = 0

    def write(self, name: str, payload: Any) -> str:
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.bytes_written += len(data)
        self._counter += 1
        path = os.path.join(self.path, f"{name}-{self._counter}.bin")
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    @staticmethod
    def read(path: str) -> Any:
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class _Appender:
    """Buffered per-partition record appender (bounded memory: each
    partition flushes to its own file chain)."""

    def __init__(self, spill: _SpillDir, name: str, flush_every: int = 4096):
        self._spill = spill
        self._name = name
        self._flush_every = flush_every
        self._buffers: List[List[Any]] = [[] for _ in range(_PARTITIONS)]
        self.files: List[List[str]] = [[] for _ in range(_PARTITIONS)]

    def add(self, partition: int, record: Any) -> None:
        buffer = self._buffers[partition]
        buffer.append(record)
        if len(buffer) >= self._flush_every:
            self._flush(partition)

    def _flush(self, partition: int) -> None:
        buffer = self._buffers[partition]
        if buffer:
            self.files[partition].append(
                self._spill.write(f"{self._name}-p{partition}", buffer)
            )
            self._buffers[partition] = []

    def records(self, partition: int) -> List[Any]:
        self._flush(partition)
        out: List[Any] = []
        for path in self.files[partition]:
            out.extend(_SpillDir.read(path))
        return out


def _partition_of(key: Tuple[Any, ...]) -> int:
    # hash() is salted per process for strings, but every consumer
    # re-merges by global input position, so partition assignment only
    # affects file layout, never output order
    return hash(key) % _PARTITIONS


# ---------------------------------------------------------------------------
# external merge sort
# ---------------------------------------------------------------------------


def external_sort(
    rows: List[Tuple[Any, ...]],
    keys: List[Tuple[Any, ...]],
    order_by: Sequence[Any],
    budget: int,
) -> Tuple[List[Tuple[Any, ...]], int]:
    """Sort *rows* by *keys* under the engine's ORDER BY comparator
    using sorted runs on disk.  Returns ``(rows, spill_bytes)`` —
    bit-identical to ``engine._sort_rows`` including stability."""
    from repro.sqlengine.engine import compare_order_keys

    if not rows:
        return rows, 0
    width = len(rows[0]) + (len(keys[0]) if keys else 0)
    per_row = _BYTES_PER_VALUE * width + _BYTES_PER_ROW
    run_rows = max(_MIN_RUN_ROWS, budget // max(1, per_row))

    def cmp(a: Tuple[Tuple[Any, ...], int], b) -> int:
        result = compare_order_keys(a[0], b[0], order_by)
        if result:
            return result
        # stable: fall back to global input position
        return -1 if a[1] < b[1] else (1 if a[1] > b[1] else 0)

    sort_key = cmp_to_key(cmp)
    spill = _SpillDir()
    try:
        run_files: List[str] = []
        for start in range(0, len(rows), run_rows):
            chunk = [
                ((keys[i], i), rows[i])
                for i in range(start, min(start + run_rows, len(rows)))
            ]
            chunk.sort(key=lambda item: sort_key(item[0]))
            run_files.append(spill.write("run", chunk))
        streams = [iter(_SpillDir.read(path)) for path in run_files]
        heap: List[Tuple[Any, int, Tuple[Any, ...]]] = []
        for idx, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heap.append((sort_key(first[0]), idx, first[1]))
        heapq.heapify(heap)
        out: List[Tuple[Any, ...]] = []
        while heap:
            _, idx, row = heapq.heappop(heap)
            out.append(row)
            following = next(streams[idx], None)
            if following is not None:
                heapq.heappush(
                    heap, (sort_key(following[0]), idx, following[1])
                )
        return out, spill.bytes_written
    finally:
        spill.cleanup()


# ---------------------------------------------------------------------------
# partitioned (grace) hash join
# ---------------------------------------------------------------------------


def spill_join_pairs(
    left_keys: List[Tuple[Any, ...]],
    right_keys: List[Tuple[Any, ...]],
) -> Tuple[List[Tuple[int, int]], int]:
    """Equi-join positions partition-wise on disk.

    Returns ``(pairs, spill_bytes)`` where *pairs* is exactly what the
    in-memory build/probe produces: probe (left) major, build-insertion
    order within each key.  NULL keys never match on either side."""
    spill = _SpillDir()
    try:
        build = _Appender(spill, "build")
        for j, key in enumerate(right_keys):
            if any(v is None for v in key):
                continue
            build.add(_partition_of(key), (j, key))
        probe = _Appender(spill, "probe")
        for i, key in enumerate(left_keys):
            if any(v is None for v in key):
                continue
            probe.add(_partition_of(key), (i, key))
        pairs: List[Tuple[int, int]] = []
        for partition in range(_PARTITIONS):
            table: Dict[Tuple[Any, ...], List[int]] = {}
            for j, key in build.records(partition):
                table.setdefault(key, []).append(j)
            for i, key in probe.records(partition):
                bucket = table.get(key)
                if not bucket:
                    continue
                for j in bucket:
                    pairs.append((i, j))
        # one left row's matches live in exactly one partition (same
        # key, same hash), already in build order; sorting by probe
        # position restores the global left-major emission
        pairs.sort(key=lambda pair: pair[0])
        return pairs, spill.bytes_written
    finally:
        spill.cleanup()


# ---------------------------------------------------------------------------
# partitioned hash aggregate
# ---------------------------------------------------------------------------


def spill_aggregate(
    n: int,
    keys: List[Tuple[Any, ...]],
    child_cols: List[List[Any]],
    arg_lists: List[Optional[List[Any]]],
    slots: List[Any],
) -> Tuple[List[List[Any]], List[List[Any]], int, int]:
    """Group *n* child rows partition-wise on disk and reduce each
    aggregate slot.

    Returns ``(repcols, slotcols, group_count, spill_bytes)`` with the
    groups in global first-seen order and the representative row being
    each group's first member — identical to the in-memory aggregate.
    (``NULL`` group keys are valid grouping values, matching the row
    operator.)"""
    spill = _SpillDir()
    try:
        appender = _Appender(spill, "agg")
        width = len(child_cols)
        for i in range(n):
            key = keys[i]
            row = tuple(child_cols[c][i] for c in range(width))
            argvals = tuple(
                None if argv is None else argv[i] for argv in arg_lists
            )
            appender.add(_partition_of(key), (i, key, row, argvals))
        merged: List[Tuple[int, Tuple[Any, ...], List[Any]]] = []
        for partition in range(_PARTITIONS):
            groups: Dict[Tuple[Any, ...], List[Any]] = {}
            order: List[Tuple[Any, ...]] = []
            for record in appender.records(partition):
                key = record[1]
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [record]
                    order.append(key)
                else:
                    bucket.append(record)
            for key in order:
                records = groups[key]
                first_pos, _, rep_row, _ = records[0]
                slot_values: List[Any] = []
                for pos, slot in enumerate(slots):
                    if slot.star:
                        slot_values.append(len(records))
                        continue
                    values = [record[3][pos] for record in records]
                    slot_values.append(
                        reduce_values(slot.name, values, slot.distinct)
                    )
                merged.append((first_pos, rep_row, slot_values))
        merged.sort(key=lambda entry: entry[0])
        repcols: List[List[Any]] = [[] for _ in range(width)]
        slotcols: List[List[Any]] = [[] for _ in slots]
        for _, rep_row, slot_values in merged:
            for c in range(width):
                repcols[c].append(rep_row[c])
            for s, value in enumerate(slot_values):
                slotcols[s].append(value)
        return repcols, slotcols, len(merged), spill.bytes_written
    finally:
        spill.cleanup()
