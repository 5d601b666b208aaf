"""Load generation for ``service_mixed``: an open-loop schedule with
lateness accounting, and the HTTP job client both connections use."""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

POLL_INTERVAL_S = 0.005
JOB_TIMEOUT_S = 60.0


class OpenLoop:
    """Sends request *i* at ``start + i / rate`` whatever the earlier
    ones took; with one connection a slow request makes the next ones
    late instead of being skipped.  Latency runs from the time a
    request was due, so the wait a stall imposes on later requests is
    counted; ``late`` is how late the generator itself ran."""

    def __init__(
        self,
        rate: float,
        count: int,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.count = count
        self._clock = clock
        self._sleep = sleep
        self.late: List[float] = []
        self.latency: List[float] = []

    def due(self, start: float, index: int) -> float:
        return start + index / self.rate

    def run(self, operation: Callable[[int], Any]) -> None:
        """Call ``operation(i)`` for every scheduled request."""
        start = self._clock()
        for index in range(self.count):
            due = self.due(start, index)
            now = self._clock()
            if now < due:
                self._sleep(due - now)
                now = self._clock()
            self.late.append(max(0.0, now - due))
            operation(index)
            self.latency.append(self._clock() - due)


# -- the job API client --------------------------------------------------


def http_json(port: int, method: str, path: str,
              body: Optional[str] = None) -> Tuple[int, Dict[str, Any]]:
    """One request on a fresh connection (the server speaks HTTP/1.0);
    the response body is read and parsed before returning."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            method, path, body=body.encode("utf-8") if body else None
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@dataclass
class JobTiming:
    """Client-side times and the job record's public timestamps."""

    ok: bool
    result: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    submit_s: float = 0.0
    result_s: float = 0.0
    total_s: float = 0.0
    polls: int = 0
    queue_wait_s: float = 0.0
    run_s: float = 0.0


def run_job(port: int, statement: str) -> JobTiming:
    """POST /jobs, poll until terminal, GET the result body."""
    started = time.perf_counter()
    code, payload = http_json(
        port, "POST", "/jobs", json.dumps({"statement": statement})
    )
    submitted = time.perf_counter()
    if code != 201:
        return JobTiming(False, error=f"submit answered {code}: {payload}")
    job_id = payload["job"]["id"]
    polls = 0
    deadline = submitted + JOB_TIMEOUT_S
    while True:
        code, payload = http_json(port, "GET", f"/jobs/{job_id}")
        polls += 1
        job = payload.get("job", {})
        if code != 200:
            return JobTiming(False, error=f"poll answered {code}: {payload}")
        if job.get("state") in ("done", "failed", "cancelled"):
            break
        if time.perf_counter() > deadline:
            return JobTiming(False, error=f"{job_id} still {job.get('state')}")
        time.sleep(POLL_INTERVAL_S)
    if job["state"] != "done":
        return JobTiming(
            False, error=f"{job_id} {job['state']}: {job.get('error')}"
        )
    fetch = time.perf_counter()
    code, payload = http_json(port, "GET", f"/jobs/{job_id}/result")
    finished = time.perf_counter()
    if code != 200:
        return JobTiming(False, error=f"result answered {code}: {payload}")
    job = payload["job"]
    return JobTiming(
        True,
        result=job["result"],
        submit_s=submitted - started,
        result_s=finished - fetch,
        total_s=finished - started,
        polls=polls,
        queue_wait_s=job["started_at"] - job["submitted_at"],
        run_s=job["finished_at"] - job["started_at"],
    )
