"""The in-memory job table: id allocation, lookup, transitions.

One lock serializes every read-modify-write on the table and its jobs,
which closes the classic cancel race: ``request_cancel`` and the
worker's ``queued -> running`` claim both run under it, so a job is
either cancelled before it starts (immediate ``cancelled``) or the
cancel flag is set for the running pipeline to honour — never both,
never neither.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

from repro.jobs.model import (
    CANCELLED,
    QUEUED,
    RUNNING,
    Job,
)


class JobTable:
    """Thread-safe registry of jobs, insertion-ordered, bounded.

    ``capacity`` bounds memory over a long-lived service: once
    exceeded, the oldest *terminal* jobs (and their results) are
    evicted; live jobs are never dropped.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._next_id = 1
        #: terminal jobs evicted to honour the capacity bound
        self.evicted = 0

    # -- registration ---------------------------------------------------

    def new_job(self, statement: str, kind: str) -> Job:
        """Allocate an id, create the record and register it."""
        with self._lock:
            job = Job(id=f"job-{self._next_id}", statement=statement,
                      kind=kind)
            self._next_id += 1
            self._jobs[job.id] = job
            self._evict_terminal()
            return job

    def restore(self, job: Job) -> bool:
        """Register a prefab *terminal* job rehydrated from the run
        history (service restart).  Skips duplicates, and advances the
        id counter past any ``job-N`` id so new submissions never
        collide with restored history."""
        if not job.terminal:
            raise ValueError(
                f"only terminal jobs can be restored, got {job.state!r}"
            )
        with self._lock:
            if job.id in self._jobs:
                return False
            match = re.fullmatch(r"job-(\d+)", job.id)
            if match:
                self._next_id = max(self._next_id, int(match.group(1)) + 1)
            self._jobs[job.id] = job
            self._evict_terminal()
            return True

    def _evict_terminal(self) -> None:
        while len(self._jobs) > self.capacity:
            victim = next(
                (j for j in self._jobs.values() if j.terminal), None
            )
            if victim is None:  # all live: let the table grow
                return
            del self._jobs[victim.id]
            self.evicted += 1

    # -- lookup ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self, state: Optional[str] = None) -> List[Job]:
        with self._lock:
            jobs = list(self._jobs.values())
        if state is not None:
            jobs = [j for j in jobs if j.state == state]
        return jobs

    def counts(self) -> Dict[str, int]:
        """{state: count} over the current table."""
        out: Dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    # -- transitions ----------------------------------------------------

    def transition(
        self,
        job_id: str,
        new_state: str,
        error: Optional[str] = None,
        result: Optional[Dict[str, Any]] = None,
    ) -> Job:
        """Move one job along a legal edge under the table lock."""
        with self._lock:
            job = self._require(job_id)
            job.transition(new_state)
            if error is not None:
                job.error = error
            if result is not None:
                job.result = result
            return job

    def try_start(self, job_id: str) -> Optional[Job]:
        """The worker's claim: ``queued -> running`` if still queued.

        Returns None when the job was cancelled while waiting in the
        queue (the worker just skips it)."""
        with self._lock:
            job = self._require(job_id)
            if job.state != QUEUED:
                return None
            job.transition(RUNNING)
            return job

    def request_cancel(self, job_id: str) -> Job:
        """Cancel: immediate for queued jobs, cooperative for running
        ones, a no-op for terminal ones (idempotent)."""
        with self._lock:
            job = self._require(job_id)
            if job.state == QUEUED:
                job.transition(CANCELLED)
            elif job.state == RUNNING:
                job.cancel_requested = True
            return job

    def cancel_hook(self, job_id: str) -> Callable[[], bool]:
        """The poll the running pipeline calls at stage boundaries."""
        def cancelled() -> bool:
            job = self.get(job_id)
            return job is not None and job.cancel_requested
        return cancelled

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"no such job: {job_id}")
        return job
