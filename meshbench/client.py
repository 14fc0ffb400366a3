"""Closed-loop HTTP client of the sweep service (one connection at a time)."""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class ServiceError(RuntimeError):
    """A request got a status other than the one the protocol expects."""


@dataclass
class StudyOutcome:
    job_id: str
    run_ids: List[str]
    latency_s: float          # POST sent -> compare.md received
    queue_wait_s: float       # 202 received -> first SSE event received
    events: List[Dict[str, object]] = field(default_factory=list)
    compare_md: bytes = b""


class Client:
    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 120.0):
        self.host, self.port, self.timeout = host, port, timeout

    def request(self, method: str, path: str, body: Optional[dict] = None,
                expect: int = 200) -> bytes:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != expect:
            raise ServiceError(f"{method} {path}: HTTP {response.status}, expected {expect}")
        return data

    def events(self, job_id: str, first_event: list) -> List[Dict[str, object]]:
        """Read the job's SSE stream until the server closes it."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        events = []
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status != 200:
                raise ServiceError(f"GET /jobs/{job_id}/events: HTTP {response.status}")
            kind = None
            while True:
                line = response.readline()
                if not line:
                    break
                if line.startswith(b"event: "):
                    kind = line[7:].strip().decode()
                elif line.startswith(b"data: ") and kind is not None:
                    if not first_event:
                        first_event.append(time.perf_counter())
                    events.append(json.loads(line[6:]))
                    kind = None
        finally:
            conn.close()
        return events

    def study(self, doc: dict) -> StudyOutcome:
        """POST a study, follow its events to the end, fetch compare.md."""
        started = time.perf_counter()
        job = json.loads(self.request("POST", "/studies", doc, expect=202))
        accepted = time.perf_counter()
        first: list = []
        events = self.events(job["id"], first)
        compare_md = self.request("GET", f"/jobs/{job['id']}/compare.md")
        done = time.perf_counter()
        return StudyOutcome(
            job_id=job["id"],
            run_ids=[run["run_id"] for run in job["runs"]],
            latency_s=done - started,
            queue_wait_s=(first[0] if first else done) - accepted,
            events=events,
            compare_md=compare_md,
        )

    def job(self, job_id: str) -> dict:
        return json.loads(self.request("GET", f"/jobs/{job_id}"))

    def wait_ready(self, deadline_s: float = 60.0) -> None:
        """Poll ``/status`` until it answers (the server is listening)."""
        end = time.perf_counter() + deadline_s
        while True:
            try:
                self.request("GET", "/status")
                return
            except (OSError, ServiceError):
                if time.perf_counter() > end:
                    raise
                time.sleep(0.01)
