"""A thin stdlib client for the compile service (``http.client`` only).

:class:`ServiceClient` wraps the HTTP API of :mod:`repro.service.server`
one method per endpoint, decoding JSON and raising :class:`ServiceError`
with the server's error code on non-2xx answers. It is what the tests
and ``repro-map map --remote`` use; nothing in it depends on the server
being in-process.

A client keeps one persistent HTTP/1.1 connection per calling thread
and reuses it from call to call, so a run of requests pays for one TCP
handshake and one server handler thread. A request that fails on a
*reused* connection before any status line arrives (the server closed
it while it sat idle) is sent once more on a fresh connection; that
resend is not a retry and does not count against ``retries``.
:meth:`ServiceClient.close` -- or leaving a ``with`` block -- drops the
connections; the client stays usable and reconnects on its next call.

Transient failures are retried: connection errors and 5xx answers on
idempotent requests (every GET, plus job submission -- the store is
content-addressed, so re-POSTing a payload lands on the same record)
back off exponentially with jitter, honoring a ``Retry-After`` header
when the server sends one (it does while draining for shutdown). After
the retry budget, or for anything non-retryable, the failure surfaces as
:class:`ServiceError` -- callers never see raw ``http.client`` or socket
exceptions.

Typical round trip::

    with ServiceClient("http://127.0.0.1:8780") as client:
        job = client.submit({"benchmark": "crc32", "approach": "heuristic",
                             "strategy": "refine"})
        for event in client.events(job["id"]):  # live NDJSON stream
            print(event)
        job = client.wait(job["id"])            # terminal job view
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs import trace as obs_trace

#: job statuses after which polling stops (matches jobs.TERMINAL_STATUSES)
TERMINAL = ("done", "failed", "cancelled", "journaled")


class ServiceError(RuntimeError):
    """A failed service interaction, carrying the server's error envelope.

    ``status`` is the HTTP status, or ``0`` when the server could not be
    reached at all (connection refused, reset, DNS failure); ``code`` is
    the server's machine-readable error code (``"unreachable"`` for the
    status-0 case).
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"{code} ({status}): {message}")
        self.status = status
        self.code = code

    @property
    def retryable(self) -> bool:
        """Whether retrying the same request could plausibly succeed."""
        return self.status == 0 or self.status >= 500 or self.status == 503


def _error_from_response(response: http.client.HTTPResponse,
                         body: bytes) -> ServiceError:
    try:
        error = json.loads(body.decode("utf-8")).get("error", {})
        return ServiceError(response.status, str(error.get("code", "unknown")),
                            str(error.get("message", "")))
    except (ValueError, AttributeError):
        return ServiceError(response.status, "unknown",
                            f"HTTP Error {response.status}: {response.reason}")


def _retry_after_seconds(response: http.client.HTTPResponse
                         ) -> Optional[float]:
    value = response.getheader("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


class ServiceClient:
    """One compile-service endpoint, addressed by base URL.

    Args:
        base_url: e.g. ``http://127.0.0.1:8780``.
        timeout: per-request socket timeout in seconds.
        retries: transient-failure retries per idempotent request
            (``0`` disables retrying entirely).
        backoff_seconds: first retry delay; doubles per attempt up to
            ``backoff_cap_seconds``, with up to 50% random jitter added.

    One client may be shared by several threads: each thread gets its own
    connection.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 3, backoff_seconds: float = 0.2,
                 backoff_cap_seconds: float = 2.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_seconds = backoff_seconds
        self.backoff_cap_seconds = backoff_cap_seconds
        parts = urlsplit(self.base_url)
        self._netloc = parts.netloc
        self._path_prefix = parts.path
        self._connection_class = (http.client.HTTPSConnection
                                  if parts.scheme == "https"
                                  else http.client.HTTPConnection)
        #: thread id -> that thread's idle connection; a connection in
        #: use (mid-request or mid-stream) is owned by its caller
        self._idle: Dict[int, http.client.HTTPConnection] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every idle connection; the next call reconnects."""
        with self._lock:
            idle, self._idle = list(self._idle.values()), {}
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _take(self) -> http.client.HTTPConnection:
        with self._lock:
            connection = self._idle.pop(threading.get_ident(), None)
        if connection is None:
            connection = self._connection_class(self._netloc)
        return connection

    def _release(self, connection: http.client.HTTPConnection) -> None:
        """Park a connection whose last response was read to the end."""
        with self._lock:
            spare = self._idle.pop(threading.get_ident(), None)
            self._idle[threading.get_ident()] = connection
        if spare is not None:  # the thread opened a second one meanwhile
            spare.close()

    def _send(self, method: str, path: str, body: Optional[bytes],
              headers: Dict[str, str], timeout: float
              ) -> Tuple[http.client.HTTPConnection,
                         http.client.HTTPResponse]:
        """One request on the thread's connection: ``(connection,
        response)`` once the status line and headers are in."""
        connection = self._take()
        while True:
            reused = connection.sock is not None
            connection.timeout = timeout
            if reused:
                connection.sock.settimeout(timeout)
            try:
                connection.request(method, self._path_prefix + path,
                                   body=body, headers=headers)
                return connection, connection.getresponse()
            except BaseException as exc:
                connection.close()
                # the server closed the idle connection before this
                # request reached it: resend once, on a fresh connection
                if not (reused and isinstance(exc, ConnectionError)):
                    raise

    def _finish(self, connection: http.client.HTTPConnection,
                response: http.client.HTTPResponse) -> bytes:
        """Read the whole body, then park the connection for reuse."""
        try:
            body = response.read()
        except BaseException:
            connection.close()
            raise
        self._release(connection)
        return body

    def _backoff(self, attempt: int, retry_after: Optional[float]) -> None:
        if retry_after is not None:
            time.sleep(min(retry_after, self.backoff_cap_seconds * 4))
            return
        delay = min(self.backoff_seconds * (2 ** attempt),
                    self.backoff_cap_seconds)
        time.sleep(delay + random.uniform(0.0, delay / 2))

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, object]] = None,
                 headers: Optional[Dict[str, str]] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None
                 ) -> Tuple[http.client.HTTPConnection,
                            http.client.HTTPResponse]:
        """Send with retries: ``(connection, response)`` of a 2xx answer.

        The caller reads the body and hands the connection back with
        :meth:`_finish` (or closes it if it stops early).
        """
        data = None
        send_headers = {"Accept": "application/json"}
        if headers:
            send_headers.update(headers)
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            send_headers["Content-Type"] = "application/json"
        # GETs are trivially idempotent; so is job submission, because
        # the request is content-addressed server-side -- a duplicate
        # POST lands on the same job/store record, never a second run
        idempotent = method in ("GET", "HEAD") or (
            method == "POST" and path == "/v1/jobs")
        budget = self.retries if retries is None else max(0, int(retries))
        if not idempotent:
            budget = 0
        attempt = 0
        while True:
            try:
                connection, response = self._send(
                    method, path, data, send_headers,
                    self.timeout if timeout is None else timeout)
                if response.status < 400:
                    return connection, response
                error = _error_from_response(
                    response, self._finish(connection, response))
            except (http.client.HTTPException, OSError) as exc:
                if attempt < budget:
                    self._backoff(attempt, None)
                    attempt += 1
                    continue
                raise ServiceError(
                    0, "unreachable",
                    f"{method} {self.base_url}{path}: {exc}") from exc
            if error.retryable and attempt < budget:
                self._backoff(attempt, _retry_after_seconds(response))
                attempt += 1
                continue
            raise error

    def _body(self, method: str, path: str,
              payload: Optional[Dict[str, object]] = None,
              headers: Optional[Dict[str, str]] = None,
              timeout: Optional[float] = None,
              retries: Optional[int] = None) -> bytes:
        connection, response = self._request(
            method, path, payload, headers=headers, timeout=timeout,
            retries=retries)
        try:
            return self._finish(connection, response)
        except (http.client.HTTPException, OSError) as exc:
            raise ServiceError(
                0, "unreachable",
                f"{method} {self.base_url}{path}: {exc}") from exc

    def _json(self, method: str, path: str,
              payload: Optional[Dict[str, object]] = None,
              headers: Optional[Dict[str, str]] = None,
              timeout: Optional[float] = None,
              retries: Optional[int] = None) -> Dict[str, object]:
        return json.loads(self._body(method, path, payload, headers=headers,
                                     timeout=timeout,
                                     retries=retries).decode("utf-8"))

    # ------------------------------------------------------------------ #
    def health(self) -> Dict[str, object]:
        return self._json("GET", "/healthz")

    def engines(self) -> Dict[str, object]:
        return self._json("GET", "/v1/engines")

    def store_stats(self) -> Dict[str, object]:
        return self._json("GET", "/v1/store/stats")

    def metrics(self) -> str:
        """``GET /metrics`` -- raw Prometheus text exposition."""
        return self._body("GET", "/metrics").decode("utf-8")

    def profile(self, seconds: Optional[float] = None) -> str:
        """``GET /v1/debug/profile`` -- collapsed-stack flame-graph text.

        ``seconds`` samples a live window server-side (the request
        blocks that long); ``None`` returns the cumulative table.
        """
        path = "/v1/debug/profile"
        request_timeout = self.timeout
        if seconds is not None:
            path += f"?seconds={float(seconds)}"
            request_timeout = self.timeout + float(seconds)
        return self._body("GET", path,
                          timeout=request_timeout).decode("utf-8")

    def submit(self, payload: Dict[str, object],
               traceparent: Optional[str] = None) -> Dict[str, object]:
        """POST a mapping request; returns the job view (maybe done).

        Every submission carries a ``traceparent`` header: the given
        one, or one minted from the calling thread's trace context (a
        fresh trace id when there is none).  The server adopts the
        trace id and echoes it back as ``job["trace_id"]``, so client
        spans and the service's spans/events/log records correlate.
        """
        if traceparent is None:
            trace_id = obs_trace.current_trace_id() or \
                obs_trace.new_trace_id()
            traceparent = obs_trace.format_traceparent(
                trace_id, obs_trace.current_span_id())
        return self._json("POST", "/v1/jobs", payload,
                          headers={"traceparent": traceparent})["job"]

    def jobs(self) -> Dict[str, object]:
        return self._json("GET", "/v1/jobs")

    def job(self, job_id: str, timeout: Optional[float] = None,
            retries: Optional[int] = None) -> Dict[str, object]:
        return self._json("GET", f"/v1/jobs/{job_id}", timeout=timeout,
                          retries=retries)["job"]

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._json("DELETE", f"/v1/jobs/{job_id}")["job"]

    def events(self, job_id: str, start: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Stream a job's NDJSON events live; ends at the terminal event.

        Every event carries the server's monotonic-anchored ``ts`` stamp
        (seconds since the Unix epoch, ordered even across clock steps)
        next to its payload fields; the ``--remote`` live printer shows
        it as a per-event offset.

        ``timeout`` bounds the *socket* idle time between lines, not the
        total stream duration -- a long-running job that keeps improving
        keeps the stream alive. Connection failures while opening the
        stream retry like any idempotent request; a drop mid-stream
        surfaces as :class:`ServiceError` (resume with ``start=``).
        Closing the generator before the stream's end drops its
        connection, so no later call can read the unread events.
        """
        path = f"/v1/jobs/{job_id}/events"
        if start:
            path += f"?from={start}"
        connection, response = self._request(
            "GET", path, headers={"Accept": "application/x-ndjson"},
            timeout=timeout)
        ended = False
        try:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
            ended = True
        except (http.client.HTTPException, OSError, ValueError) as exc:
            raise ServiceError(
                0, "stream_interrupted",
                f"event stream for {job_id} dropped: {exc}") from exc
        finally:
            # a stream read to its end leaves the connection clean; one
            # abandoned early still holds unread events, so drop it
            if ended:
                self._release(connection)
            else:
                connection.close()

    def wait(self, job_id: str, timeout: float = 120.0,
             poll_seconds: float = 0.05) -> Dict[str, object]:
        """Poll until the job is terminal; raises TimeoutError otherwise.

        ``timeout`` is a monotonic *overall* deadline: it also caps each
        poll's socket timeout, so a hung server surfaces as
        ``TimeoutError`` when the deadline passes, not after the full
        per-request socket timeout on top of it. Transient poll failures
        (connection refused, 5xx) keep polling until the deadline.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout}s")
            try:
                job = self.job(job_id,
                               timeout=max(min(self.timeout, remaining),
                                           0.05),
                               retries=0)
            except ServiceError as exc:
                if not exc.retryable:
                    raise
                job = None
            if job is not None and job["status"] in TERMINAL:
                return job
            if time.monotonic() + poll_seconds > deadline:
                status = job["status"] if job is not None else "unreachable"
                raise TimeoutError(
                    f"job {job_id} still {status} after {timeout}s")
            time.sleep(poll_seconds)

    def map(self, payload: Dict[str, object],
            timeout: float = 120.0) -> Dict[str, object]:
        """Submit and block until terminal: the one-call remote ``map()``."""
        job = self.submit(payload)
        if job["status"] in TERMINAL:
            return job
        return self.wait(job["id"], timeout=timeout)
