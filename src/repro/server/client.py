"""Blocking HTTP client for the design server.

A deliberately small ``http.client``-based client (no sessions, one
connection per request — mirroring the server's connection-per-request
model) used by the test suite, the CI smoke driver and the benchmark
harness. It speaks exactly the :mod:`repro.server.protocol`
documents and translates HTTP failure statuses into
:class:`~repro.errors.ServerError` carrying the parsed ``Retry-After``.

``sweep_stream`` yields ``(event, doc)`` pairs as the server emits them
— the incremental-delivery property the streaming tests assert is
observable right here, not an implementation detail. A stream that ends
before the terminal ``done`` event raises :class:`ServerError` instead
of returning silently short, and so does a connection that fails
(reset, closed, malformed) while a response is being read: callers see
a complete result or a typed ``ServerError(status=0)``, never a raw
socket error. A fixed-length response without ``Content-Length`` was
cut inside its header block (``http.client`` ends header parsing at EOF
without error, and every fixed-length response the server sends carries
one), so it is truncated too. A 2xx body or stream event that is not
valid JSON raises :class:`~repro.errors.ProtocolError` (a
``ServerError``) carrying the status, never an empty document.

Every request mints a fresh W3C trace context and sends it as a
``traceparent`` header; the server adopts the trace id, threads it
through batching and execution, and echoes it in the response envelope.
``last_trace_id`` holds the id of the most recent request so callers
can correlate client-side observations with server-side telemetry.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from http.client import HTTPConnection, HTTPException, HTTPResponse
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..errors import ProtocolError, ServerError
from ..obs.runtime.tracecontext import TraceContext, new_trace_context
from ..obs.trace import Tracer, active
from .http import parse_sse_stream, split_host_port


@contextmanager
def _truncation_is_server_error(what: str) -> Iterator[None]:
    """Re-raise a transport failure while reading a response as typed."""
    try:
        yield
    except (OSError, HTTPException) as exc:
        raise ServerError(
            f"{what} truncated: connection failed mid-response "
            f"({type(exc).__name__}: {exc})",
            status=0,
        ) from exc


def _read_whole(resp: HTTPResponse, what: str) -> bytes:
    """Read a fixed-length response body; raise if the head was cut."""
    if resp.length is None and not resp.chunked:
        raise ServerError(
            f"{what} truncated: header block ended without Content-Length",
            status=0,
        )
    return resp.read()


class DesignClient:
    """Client for one server base URL, optionally pinned to a tenant."""

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout_s: float = 60.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.netloc:
            raise ProtocolError(
                f"base_url must be http://host:port, got {base_url!r}"
            )
        self.host, self.port = split_host_port(split.netloc)
        self.base_url = f"http://{self.host}:{self.port}"
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.tracer = active(tracer)
        #: Trace id of the most recent request (empty before the first).
        self.last_trace_id: str = ""

    # -- transport ----------------------------------------------------------
    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout_s)

    def _new_context(self) -> TraceContext:
        ctx = new_trace_context()
        self.last_trace_id = ctx.trace_id
        return ctx

    def _headers(self, ctx: Optional[TraceContext] = None) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.tenant is not None:
            headers["X-Tenant"] = self.tenant
        if ctx is not None:
            headers["traceparent"] = ctx.to_traceparent()
        return headers

    @staticmethod
    def _retry_after(resp: HTTPResponse, doc: Mapping[str, Any]) -> float:
        header = resp.getheader("Retry-After")
        if header is not None:
            try:
                return float(header)
            except ValueError:
                pass
        value = doc.get("retry_after_s", 0.0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    def _raise_for_status(
        self, resp: HTTPResponse, raw: bytes
    ) -> Dict[str, Any]:
        ok = 200 <= resp.status < 300
        try:
            doc = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            if ok:
                raise ProtocolError(
                    f"HTTP {resp.status} body is not valid JSON ({exc})",
                    status=resp.status,
                ) from exc
            doc = {}
        if ok:
            if not isinstance(doc, dict):
                raise ProtocolError(
                    f"expected a JSON object body, got {type(doc).__name__}",
                    status=resp.status,
                )
            return doc
        message = doc.get("error") if isinstance(doc, dict) else None
        raise ServerError(
            message or f"HTTP {resp.status}",
            status=resp.status,
            retry_after=self._retry_after(
                resp, doc if isinstance(doc, dict) else {}
            ),
        )

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        ctx = self._new_context()
        conn = self._connect()
        try:
            payload = (
                None if body is None
                else json.dumps(dict(body)).encode("utf-8")
            )
            with self.tracer.span(
                "client_request", category="client",
                method=method, route=path, trace_id=ctx.trace_id,
            ):
                conn.request(
                    method, path, body=payload, headers=self._headers(ctx)
                )
                what = f"{method} {path} response"
                with _truncation_is_server_error(what):
                    resp = conn.getresponse()
                    raw = _read_whole(resp, what)
                return self._raise_for_status(resp, raw)
        finally:
            conn.close()

    # -- endpoints ----------------------------------------------------------
    def design(
        self,
        app: str,
        scale: int = 1,
        seed: int = 2014,
        simulate: bool = True,
        params: Optional[Mapping[str, Any]] = None,
        design: Optional[Mapping[str, Any]] = None,
        graph_source: str = "trace",
    ) -> Dict[str, Any]:
        """``POST /v1/design``; returns the full response document."""
        body: Dict[str, Any] = {
            "app": app, "scale": scale, "seed": seed, "simulate": simulate,
        }
        if params:
            body["params"] = dict(params)
        if design:
            body["design"] = dict(design)
        if graph_source != "trace":
            body["graph_source"] = graph_source
        return self._request("POST", "/v1/design", body)

    def sweep(
        self,
        apps: Sequence[str],
        scales: Sequence[int] = (1,),
        param_grid: Optional[Mapping[str, Sequence[Any]]] = None,
        simulate: bool = False,
        seed: int = 2014,
    ) -> Dict[str, Any]:
        """``POST /v1/sweep``; returns all point records at once."""
        return self._request("POST", "/v1/sweep", {
            "apps": list(apps),
            "scales": list(scales),
            "param_grid": {
                k: list(v) for k, v in (param_grid or {}).items()
            },
            "simulate": simulate,
            "seed": seed,
        })

    def sweep_stream(
        self,
        apps: Sequence[str],
        scales: Sequence[int] = (1,),
        param_grid: Optional[Mapping[str, Sequence[Any]]] = None,
        simulate: bool = False,
        seed: int = 2014,
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """``POST /v1/sweep/stream``; yields events as they arrive.

        The server always terminates a healthy stream with a ``done``
        event; a stream that ends without one (connection dropped, the
        server died mid-sweep) raises :class:`ServerError` so partial
        results can never be mistaken for a complete sweep.
        """
        ctx = self._new_context()
        body = json.dumps({
            "apps": list(apps),
            "scales": list(scales),
            "param_grid": {
                k: list(v) for k, v in (param_grid or {}).items()
            },
            "simulate": simulate,
            "seed": seed,
        }).encode("utf-8")
        conn = self._connect()
        try:
            conn.request(
                "POST", "/v1/sweep/stream", body=body,
                headers=self._headers(ctx),
            )
            with _truncation_is_server_error("sweep stream"):
                resp = conn.getresponse()
                if resp.status != 200:
                    self._raise_for_status(
                        resp, _read_whole(resp, "sweep stream")
                    )

            def _lines() -> Iterator[str]:
                while True:
                    with _truncation_is_server_error("sweep stream"):
                        line = resp.readline()
                    if not line:
                        return
                    yield line.decode("utf-8")

            done = False
            for event, data in parse_sse_stream(_lines()):
                if event == "done":
                    done = True
                try:
                    doc = json.loads(data)
                except ValueError as exc:
                    raise ProtocolError(
                        f"sweep stream {event!r} event data is not valid "
                        f"JSON ({exc})",
                        status=resp.status,
                    ) from exc
                yield event, doc
            if not done:
                raise ServerError(
                    "sweep stream truncated: connection ended before the"
                    " terminal 'done' event",
                    status=0,
                )
        finally:
            conn.close()

    def job(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """``GET /v1/jobs/<fingerprint>``; ``None`` when not cached."""
        try:
            return self._request("GET", f"/v1/jobs/{fingerprint}")
        except ServerError as exc:
            if exc.status == 404:
                return None
            raise

    def debug(self) -> Dict[str, Any]:
        """``GET /v1/debug``; the runtime introspection document."""
        return self._request("GET", "/v1/debug")

    def healthz(self) -> bool:
        return self._probe("/healthz")

    def readyz(self) -> bool:
        return self._probe("/readyz")

    def _probe(self, path: str) -> bool:
        conn = self._connect()
        try:
            conn.request("GET", path, headers=self._headers())
            resp = conn.getresponse()
            resp.read()
            return resp.status == 200
        except OSError:
            return False
        finally:
            conn.close()

    def metrics(self) -> str:
        """``GET /metrics``; the raw Prometheus exposition text."""
        conn = self._connect()
        try:
            conn.request("GET", "/metrics", headers=self._headers())
            what = "GET /metrics response"
            with _truncation_is_server_error(what):
                resp = conn.getresponse()
                raw = _read_whole(resp, what)
            if resp.status != 200:
                self._raise_for_status(resp, raw)
            return raw.decode("utf-8")
        finally:
            conn.close()
