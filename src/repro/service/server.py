"""The HTTP front of the compile service (stdlib ``http.server`` only).

The wire protocol is plain JSON over persistent HTTP/1.1 connections
with one streaming exception: ``GET /v1/jobs/<id>/events`` answers
NDJSON (one JSON event per line, sent as produced) that ends with the
job's terminal event -- one chunk per event on an HTTP/1.1 request, a
body delimited by closing the connection on an HTTP/1.0 one. A
kept-alive connection that stays idle for ``KEEP_ALIVE_IDLE_SECONDS``
is closed. Full endpoint reference, payload schema and error codes live
in ``docs/service.md``; the request/job semantics live in
:mod:`repro.service.jobs`.

Routes::

    GET    /healthz              liveness + counters + store stats
    GET    /metrics              Prometheus text exposition (repro.obs)
    GET    /v1/engines           engine registry (names, aliases, blurbs)
    POST   /v1/jobs              submit; 200 on a store hit, 202 queued
    GET    /v1/jobs              list job summaries
    GET    /v1/jobs/<id>         one job, result included when done
    GET    /v1/jobs/<id>/events  NDJSON event stream (``?from=N`` resumes)
    DELETE /v1/jobs/<id>         request cancellation
    GET    /v1/store/stats       result-store shard statistics
    GET    /v1/debug/profile     collapsed-stack flame-graph text
                                 (``?seconds=N`` samples a live window)

Submissions may carry a W3C-style ``traceparent`` header; its trace id
is adopted as the job's distributed trace id (see docs/observability.md)
and echoed back in the job view.

Errors are always ``{"error": {"code": ..., "message": ...}}`` with the
matching HTTP status (400 ``bad_request``, 404 ``not_found``,
405 ``method_not_allowed``, 500 ``internal``, and -- while the daemon is
draining for shutdown -- 503 ``draining`` with a ``Retry-After`` header
on submissions).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs import logjson, metrics, profiler
from repro.service.jobs import (
    MappingService,
    RequestError,
    ServiceUnavailable,
)

#: bound on accepted request bodies; a kernel or DFG payload is small,
#: anything bigger is a mistake or abuse
MAX_BODY_BYTES = 4 * 1024 * 1024

#: longest live sampling window /v1/debug/profile will hold a handler
#: thread open for
MAX_PROFILE_WINDOW_SECONDS = 30.0

#: a kept-alive connection with no new request for this long is closed,
#: so an abandoned client cannot hold its handler thread forever
KEEP_ALIVE_IDLE_SECONDS = 30.0


def _engine_listing() -> Dict[str, object]:
    from repro.core.engine import (
        ENGINE_ALIASES,
        ENGINE_DESCRIPTIONS,
        ENGINE_NAMES,
    )

    return {
        "engines": [
            {
                "name": name,
                "description": ENGINE_DESCRIPTIONS[name],
                "aliases": sorted(a for a, c in ENGINE_ALIASES.items()
                                  if c == name and a != name),
            }
            for name in ENGINE_NAMES
        ]
    }


class ServiceHandler(BaseHTTPRequestHandler):
    """Dispatches requests onto the handler thread's shared service."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # small answers on a kept-alive connection: without TCP_NODELAY,
    # Nagle's algorithm holds back a response's last segment until the
    # client's delayed ACK of the previous one (tens of ms per request)
    disable_nagle_algorithm = True
    #: the current request carries a body that no route has read yet
    _unread_body = False

    def setup(self) -> None:
        # the socket timeout bounds the wait for the next request; read
        # per connection so the constant can be changed at run time
        self.timeout = KEEP_ALIVE_IDLE_SECONDS
        super().setup()

    def parse_request(self) -> bool:
        self._unread_body = False
        if not super().parse_request():
            return False
        length = self.headers.get("Content-Length", "").strip()
        self._unread_body = (length not in ("", "0")
                             or "Transfer-Encoding" in self.headers)
        return True

    def send_response(self, code: int, message: Optional[str] = None
                      ) -> None:
        super().send_response(code, message)
        if self._unread_body:
            # a request body no route read would be parsed as the next
            # request: answer, then close
            self.send_header("Connection", "close")

    # ------------------------------------------------------------------ #
    @property
    def service(self) -> MappingService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: object) -> None:
        # the structured run log always gets the access record; the
        # ad-hoc stderr line only without --quiet
        logjson.log("http_access", client=self.address_string(),
                    line=format % args)
        if getattr(self.server, "quiet", False):
            return
        BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_body(self, status: int, content_type: str, body: bytes,
                   extra_headers: Optional[Dict[str, object]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, str(value))
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # the blank line and the body join the buffered status line and
        # headers, so the whole answer leaves in one send
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(self, status: int, payload: Dict[str, object],
                   extra_headers: Optional[Dict[str, object]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send_body(status, "application/json", body, extra_headers)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        self._send_json(status, {"error": {"code": code, "message": message}})

    def _read_body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise RequestError("a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise RequestError(
                f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        self._unread_body = False
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        return payload

    def _route(self) -> Tuple[str, Optional[str], Optional[str],
                              Dict[str, list]]:
        """``(collection, job_id, subresource, query)`` for the URL."""
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        segments = [s for s in parts.path.split("/") if s]
        if segments[:1] == ["healthz"]:
            return "healthz", None, None, query
        if segments[:1] == ["metrics"]:
            return "metrics", None, None, query
        if segments[:1] != ["v1"]:
            return "", None, None, query
        rest = segments[1:]
        if not rest:
            return "", None, None, query
        head = rest[0]
        if head == "jobs":
            job_id = rest[1] if len(rest) > 1 else None
            sub = rest[2] if len(rest) > 2 else None
            if len(rest) > 3:
                return "", None, None, query
            return "jobs", job_id, sub, query
        if rest == ["engines"]:
            return "engines", None, None, query
        if rest == ["store", "stats"]:
            return "store_stats", None, None, query
        if rest == ["debug", "profile"]:
            return "debug_profile", None, None, query
        return "", None, None, query

    def _send_metrics(self) -> None:
        """``GET /metrics``: the registry in Prometheus text exposition.

        Gauges that describe *current* state (queue depth, store size)
        are refreshed at scrape time so the exposition is live even when
        nothing recently moved them.
        """
        service = self.service
        metrics.set_gauge("repro_service_queue_depth",
                          service._queue.qsize())
        if service.store is not None:
            stats = service.store.stats()
            metrics.set_gauge("repro_store_records", stats["records"])
            metrics.set_gauge("repro_store_shards", stats["files"])
            metrics.set_gauge("repro_store_size_bytes", stats["size_bytes"])
        self._send_body(200, "text/plain; version=0.0.4; charset=utf-8",
                        metrics.render().encode("utf-8"))

    def _send_profile(self, query: Dict[str, list]) -> None:
        """``GET /v1/debug/profile``: collapsed-stack flame-graph text.

        ``?seconds=N`` samples a live window: the handler thread snapshots
        the merged sample table, sleeps ``N`` seconds (capped), and
        returns only the stacks that accrued in between -- "where is CPU
        time going *right now*".  Without ``seconds`` the cumulative
        table since daemon start is returned.
        """
        seconds = 0.0
        if "seconds" in query:
            try:
                seconds = float(query["seconds"][0])
            except (ValueError, IndexError) as exc:
                raise RequestError("'seconds' must be a number") from exc
            if seconds < 0:
                raise RequestError("'seconds' must be >= 0")
            seconds = min(seconds, MAX_PROFILE_WINDOW_SECONDS)
        if seconds:
            before = profiler.cumulative()
            time.sleep(seconds)
            counts = profiler.window(before, profiler.cumulative())
        else:
            counts = profiler.cumulative()
        self._send_body(200, "text/plain; charset=utf-8",
                        profiler.render(counts).encode("utf-8"),
                        {"X-Profile-Interval-Seconds":
                         repr(profiler.interval())})

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            collection, job_id, sub, query = self._route()
            metrics.inc("repro_http_requests_total", method="GET",
                        route=collection or "unknown")
            if collection == "healthz":
                self._send_json(200, self.service.health())
            elif collection == "metrics":
                self._send_metrics()
            elif collection == "engines":
                self._send_json(200, _engine_listing())
            elif collection == "store_stats":
                store = self.service.store
                self._send_json(200, {
                    "store": store.stats() if store is not None else None})
            elif collection == "debug_profile":
                self._send_profile(query)
            elif collection == "jobs" and job_id is None:
                jobs = [job.view(include_result=False)
                        for job in self.service.jobs.values()]
                self._send_json(200, {"jobs": jobs})
            elif collection == "jobs" and sub is None:
                job = self.service.get(job_id)
                self._send_json(200, {"job": job.view()})
            elif collection == "jobs" and sub == "events":
                self._stream_events(job_id, query)
            else:
                self._send_error_json(404, "not_found",
                                      f"no such resource: {self.path}")
        except KeyError as exc:
            self._send_error_json(404, "not_found", str(exc))
        except RequestError as exc:
            self._send_error_json(400, "bad_request", str(exc))
        except BrokenPipeError:
            pass  # client went away mid-stream; nothing to answer
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, "internal", repr(exc))

    def do_POST(self) -> None:  # noqa: N802
        try:
            collection, job_id, sub, _ = self._route()
            metrics.inc("repro_http_requests_total", method="POST",
                        route=collection or "unknown")
            if collection != "jobs" or job_id is not None or sub is not None:
                self._send_error_json(404, "not_found",
                                      f"no such resource: {self.path}")
                return
            payload = self._read_body()
            job = self.service.submit(
                payload, traceparent=self.headers.get("traceparent"))
            # a store hit completes within the submit: answer 200 with the
            # full result; a miss is queued work, answer 202 Accepted
            if job.status == "done":
                self._send_json(200, {"job": job.view()})
            else:
                self._send_json(202, {"job": job.view(include_result=False)})
        except ServiceUnavailable as exc:
            # draining for shutdown: tell well-behaved clients when to
            # come back (the client's submit retry honors Retry-After)
            self._send_json(
                503,
                {"error": {"code": "draining", "message": str(exc)}},
                extra_headers={"Retry-After": exc.retry_after})
        except RequestError as exc:
            self._send_error_json(400, "bad_request", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, "internal", repr(exc))

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            collection, job_id, sub, _ = self._route()
            metrics.inc("repro_http_requests_total", method="DELETE",
                        route=collection or "unknown")
            if collection != "jobs" or job_id is None or sub is not None:
                self._send_error_json(404, "not_found",
                                      f"no such resource: {self.path}")
                return
            job = self.service.cancel(job_id)
            self._send_json(200, {"job": job.view(include_result=False)})
        except KeyError as exc:
            self._send_error_json(404, "not_found", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._send_error_json(500, "internal", repr(exc))

    def do_PUT(self) -> None:  # noqa: N802
        self._send_error_json(405, "method_not_allowed",
                              "PUT is not supported")

    # ------------------------------------------------------------------ #
    def _stream_events(self, job_id: str, query: Dict[str, list]) -> None:
        """NDJSON event stream; blocks until the job is terminal.

        An HTTP/1.1 request gets one chunk per event and a terminating
        empty chunk, and the connection stays open; HTTP/1.0 has no
        chunked encoding, so there the close delimits the body.
        """
        start = 0
        if "from" in query:
            try:
                start = int(query["from"][0])
            except (ValueError, IndexError) as exc:
                raise RequestError("'from' must be an integer") from exc
            if start < 0:
                raise RequestError("'from' must be >= 0")
        self.service.get(job_id)  # a 404 must go out before the 200
        chunked = self.request_version == "HTTP/1.1"
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        else:
            self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in self.service.stream_events(job_id, start=start):
                line = (json.dumps(event, sort_keys=True) + "\n").encode(
                    "utf-8")
                if chunked:
                    line = b"%x\r\n%s\r\n" % (len(line), line)
                self.wfile.write(line)
            if chunked:
                self.wfile.write(b"0\r\n\r\n")
        except OSError:
            # the client went away or stopped reading mid-stream; the
            # status line is out, so closing is the only answer left
            self.close_connection = True


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP server that closes its open connections on close.

    A kept-alive connection outlives ``shutdown()``: its handler thread
    would keep answering for the old service until the client left or
    the idle timeout passed. ``server_close()`` shuts every open
    connection down, so those threads end and clients reconnect.

    A process forked while the server is bound (a mapping worker) closes
    its copies of the listening socket and the open connections at once,
    so the port is free again as soon as the parent closes it.
    """

    daemon_threads = True

    def __init__(self, *args: object, **kwargs: object) -> None:
        # set before binding: a failed bind calls server_close()
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)
        _OPEN_SERVERS.add(self)

    def close_in_child(self) -> None:
        """Drop a forked child's copies of the server's sockets.

        ``close()`` releases only this process's descriptors; the
        parent's listening socket and connections stay up, which a
        ``shutdown()`` would cut. No lock: the child has one thread.
        """
        self.socket.close()
        for connection in list(self._connections):
            connection.close()

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        _OPEN_SERVERS.discard(self)
        super().server_close()
        with self._connections_lock:
            connections, self._connections = self._connections, set()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already gone


#: every open server of this process, for the fork hook below
_OPEN_SERVERS: "weakref.WeakSet[ServiceHTTPServer]" = weakref.WeakSet()


def _close_servers_in_child() -> None:
    for server in list(_OPEN_SERVERS):
        server.close_in_child()


os.register_at_fork(after_in_child=_close_servers_in_child)


def create_server(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 8780,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a threaded HTTP server around ``service`` (not yet serving).

    The caller owns both lifecycles: ``server.serve_forever()`` /
    ``server.shutdown()`` for the HTTP side, ``service.shutdown()`` for
    the worker pool. Tests run ``serve_forever`` on a daemon thread.
    """
    server = ServiceHTTPServer((host, port), ServiceHandler)
    server.service = service  # type: ignore[attr-defined]
    server.quiet = quiet  # type: ignore[attr-defined]
    return server
