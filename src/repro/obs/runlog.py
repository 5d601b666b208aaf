"""Persistent run history: an append-only NDJSON journal.

Every completed run — MINE RULE, REFRESH RULES, SQL job — appends one
JSON object (trace id, statement fingerprint, stage timings, resource
totals, outcome, optionally the run's trace events) to the journal
file.  Appending a line is the only write the journal ever performs,
so a crash can at worst truncate the final record; replay tolerates a
torn tail by skipping undecodable lines.

On construction the journal is replayed into a bounded in-memory
index (newest ``capacity`` records), which backs the monitoring
server's ``GET /runs`` / ``GET /runs/<id>`` / ``GET /runs/<id>/trace``
endpoints and rehydrates the job table after a restart — the PR8
follow-up ("restart loses history") closed.  Without a path the log
is memory-only (same API, no persistence), which is what tests and
the default serve mode use.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.obs.context import TraceContext, new_trace_id


def statement_fingerprint(statement: str) -> str:
    """Stable 12-hex digest of a whitespace/case-normalized statement,
    so re-submissions of one query group together across runs."""
    normalized = " ".join(statement.split()).lower()
    return hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:12]


class RunLog:
    """Append-only run journal with a bounded in-memory index.

    ``path=None`` keeps the journal memory-only.  ``capacity`` bounds
    the index (the file itself is never truncated); eviction drops the
    oldest record.  All methods are thread-safe — runs, jobs and
    monitoring scrapes touch the log concurrently.
    """

    def __init__(self, path: Optional[str] = None, capacity: int = 512):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.path = os.fspath(path) if path is not None else None
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: records recovered from an existing journal file
        self.replayed = 0
        #: undecodable lines skipped during replay (torn tail, damage)
        self.corrupt_lines = 0
        if self.path is not None and os.path.exists(self.path):
            self._replay()

    def _replay(self) -> None:
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    self.corrupt_lines += 1
                    continue
                if not isinstance(record, dict) or "id" not in record:
                    self.corrupt_lines += 1
                    continue
                self._remember(record)
                self.replayed += 1

    def _remember(self, record: Dict[str, Any]) -> None:
        self._records[str(record["id"])] = record
        self._records.move_to_end(str(record["id"]))
        while len(self._records) > self.capacity:
            self._records.popitem(last=False)

    # -- write side -----------------------------------------------------

    def record(self, **fields: Any) -> Dict[str, Any]:
        """Append one run record; returns it with ``id``/``at`` filled.

        ``id`` defaults to a fresh trace id; a duplicate id (e.g. a
        retried journal write) gets a ``-N`` suffix rather than
        silently overwriting history."""
        record = dict(fields)
        record.setdefault("id", new_trace_id())
        record.setdefault("at", round(time.time(), 6))
        with self._lock:
            base = str(record["id"])
            run_id = base
            suffix = 2
            while run_id in self._records:
                run_id = f"{base}-{suffix}"
                suffix += 1
            record["id"] = run_id
            self._remember(record)
            if self.path is not None:
                line = json.dumps(
                    record, default=repr, separators=(",", ":")
                )
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
        return record

    def record_run(
        self,
        context: TraceContext,
        kind: str,
        statement: str,
        status: str,
        seconds: float,
        **extra: Any,
    ) -> Dict[str, Any]:
        """Append the record of one finished statement — the keys every
        kind (``mine``, ``refresh``, ``sql``) shares, then *extra*
        (``error``, ``cpu_seconds``, ...; entries that are None are
        left out)."""
        record: Dict[str, Any] = {
            "id": context.trace_id,
            "kind": kind,
            **context.fields(),
            "statement": statement[:200],
            "fingerprint": statement_fingerprint(statement),
            "status": status,
            "seconds": round(seconds, 6),
        }
        record.update(
            (key, value) for key, value in extra.items() if value is not None
        )
        return self.record(**record)

    # -- read side ------------------------------------------------------

    def list(
        self,
        limit: Optional[int] = None,
        kind: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Run summaries, oldest first (the trace payload is elided —
        it can dwarf the rest of the record)."""
        with self._lock:
            records = list(self._records.values())
        if kind is not None:
            records = [r for r in records if r.get("kind") == kind]
        if limit is not None:
            records = records[-limit:]
        return [
            {k: v for k, v in record.items() if k != "trace"}
            for record in records
        ]

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The full record (minus the trace payload) of one run."""
        with self._lock:
            record = self._records.get(run_id)
        if record is None:
            return None
        return {k: v for k, v in record.items() if k != "trace"}

    def trace(self, run_id: str) -> Optional[List[Dict[str, Any]]]:
        """The persisted Chrome trace events of one run, if any."""
        with self._lock:
            record = self._records.get(run_id)
        if record is None:
            return None
        return record.get("trace")

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
