"""Bounded worker pool: daemon threads draining one queue.

Deliberately tiny — stdlib ``queue.Queue`` with a maxsize gives the
bounded submission semantics (an overfull queue rejects immediately
instead of buffering without limit), and sentinel items give a clean
join on shutdown.  The pool knows nothing about jobs; it runs whatever
handler the :class:`~repro.jobs.service.JobService` installs.

The pool is the single source of truth for its own load: ``_pending``
(submitted, not yet started) and ``_busy`` (handler running) are
counters mutated only under one lock, and every transition invokes the
optional :attr:`WorkerPool.observer` *while still holding that lock* —
so an observer publishing the values into gauges sees a totally
ordered sequence of snapshots and can never overwrite a newer state
with a stale one (reading ``queue.qsize()`` / ``busy`` from outside,
as the service used to, interleaves reads with other workers'
transitions and publishes garbage under load).
"""

from __future__ import annotations

import logging
import queue
import threading
from typing import Any, Callable, Optional

_STOP = object()
_LOG = logging.getLogger("repro.jobs")


class WorkerPool:
    """``workers`` daemon threads calling ``handler(item)`` per item."""

    def __init__(
        self,
        handler: Callable[[Any], None],
        workers: int = 4,
        queue_size: int = 64,
        name: str = "repro-job",
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if queue_size < 1:
            raise ValueError(
                f"queue_size must be positive, got {queue_size}"
            )
        self.handler = handler
        self.workers = workers
        self.queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._name = name
        self._threads: list = []
        self._pending = 0
        self._busy = 0
        self._state_lock = threading.Lock()
        self._started = False
        #: handler calls that raised (each one logged with its traceback)
        self.handler_errors = 0
        #: ``observer(pending, busy)`` called under the state lock on
        #: every transition (gauge publication hook)
        self.observer: Optional[Callable[[int, int], None]] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._started:
            return self
        self._started = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._run, name=f"{self._name}-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Drain-free shutdown: each worker exits after its current
        item once it sees a sentinel."""
        if not self._started:
            return
        for _ in self._threads:
            self.queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self._started = False

    # -- submission -----------------------------------------------------

    def submit(self, item: Any) -> None:
        """Enqueue without blocking; raises :class:`queue.Full` when
        the bounded queue is at capacity (back-pressure)."""
        # Count before enqueueing (and roll back on rejection) so a
        # worker that picks the item up immediately can never drive
        # the pending counter negative.
        with self._state_lock:
            self._pending += 1
            self._notify_locked()
        try:
            self.queue.put_nowait(item)
        except BaseException:
            with self._state_lock:
                self._pending -= 1
                self._notify_locked()
            raise

    # -- observability --------------------------------------------------

    @property
    def depth(self) -> int:
        """Items submitted but not yet picked up by a worker."""
        with self._state_lock:
            return self._pending

    @property
    def busy(self) -> int:
        """Workers currently executing an item."""
        with self._state_lock:
            return self._busy

    def _notify_locked(self) -> None:
        if self.observer is not None:
            self.observer(self._pending, self._busy)

    # -- worker loop ----------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self.queue.get()
            if item is _STOP:
                # sentinels enter via stop(), not submit(): they are
                # never counted as pending work
                self.queue.task_done()
                return
            with self._state_lock:
                self._pending -= 1
                self._busy += 1
                self._notify_locked()
            try:
                self.handler(item)
            except Exception:
                # The handler owns error recording (a job lands in
                # "failed"), so reaching here is a bug in it: say so,
                # but it must not kill the worker.
                _LOG.exception("job handler raised on item %r", item)
                with self._state_lock:
                    self.handler_errors += 1
            finally:
                with self._state_lock:
                    self._busy -= 1
                    self._notify_locked()
                self.queue.task_done()
