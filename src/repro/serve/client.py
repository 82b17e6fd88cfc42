"""A minimal async HTTP client for the serving daemon.

Tests, the benchmarks, and the CI smoke jobs all need to talk to
``gpu-blob serve`` without adding dependencies; this module is the
client-side twin of :mod:`repro.serve.httpd` — one connection, HTTP/1.1
with Content-Length framing, keep-alive reuse, JSON bodies.

Retries are priced by the sweep layer's :class:`~repro.core.runner
.RetryPolicy` — exponential backoff with a deterministic jitter draw —
honoring the server's ``Retry-After`` hint on 429 (quota) and 503
(queue full, breaker open) and failing fast on every other 4xx — a
config error does not get better by asking again.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.runner import RetryPolicy

__all__ = ["ClientResponse", "ServeClient", "fetch_json"]

#: 429 quota overruns and 503 refusals are worth retrying; every other
#: 4xx is a config error the caller must fix
RETRYABLE_STATUSES = (429, 503)
#: the longest server-sent ``Retry-After`` the client will wait
RETRY_AFTER_CAP_S = 30.0


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return seconds if seconds >= 0 else None


@dataclass
class ClientResponse:
    """One response as seen by the client."""

    status: int
    headers: Dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body.decode("utf-8"))

    @property
    def warning(self) -> Optional[str]:
        """The raw ``Warning`` header, if the server sent one."""
        return self.headers.get("warning")

    @property
    def degraded(self) -> bool:
        """Was this a stale-while-revalidate answer?  True when the
        server stamped ``Warning: 110`` (Response is Stale) — or, for
        transports that drop the header, when the JSON body carries
        ``degraded: true``.  Callers used to have to re-parse the body
        to notice; the daemon's whole point of stamping the header is
        that clients *surface* staleness, not swallow it."""
        if self.warning is not None and self.warning.startswith("110"):
            return True
        try:
            payload = self.json()
        except ValueError:
            return False
        return isinstance(payload, dict) and payload.get("degraded") is True

    @property
    def stale_iterations(self) -> Optional[int]:
        """How stale the degraded answer is: the iteration count of the
        nearest cached series the server substituted (``None`` on a
        fresh answer or an unparseable body)."""
        try:
            payload = self.json()
        except ValueError:
            return None
        if not isinstance(payload, dict):
            return None
        cache = payload.get("cache")
        if not isinstance(cache, dict):
            return None
        value = cache.get("stale_iterations")
        return value if isinstance(value, int) else None


class ServeClient:
    """One keep-alive connection to a running daemon."""

    def __init__(
        self,
        host: str,
        port: int,
        retry: Optional[RetryPolicy] = None,
        sleep=None,
    ) -> None:
        self.host = host
        self.port = port
        self.retry = retry
        #: injectable for tests; the default genuinely waits
        self._sleep = sleep if sleep is not None else asyncio.sleep
        #: every delay the retry policy actually imposed, in order
        self.retry_delays: List[float] = []
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload=None,
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> ClientResponse:
        """Send one request; with a retry policy attached, back off and
        re-send on 429/503 (honoring ``Retry-After``), fail fast on any
        other 4xx by returning it untouched."""
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        attempt = 1
        while True:
            response = await self._send_once(method, path, body, headers)
            if (
                self.retry is None
                or response.status not in RETRYABLE_STATUSES
                or attempt > self.retry.max_retries
            ):
                return response
            retry_after = _parse_retry_after(response.headers.get("retry-after"))
            if retry_after is not None:
                delay = min(retry_after, RETRY_AFTER_CAP_S)
            else:
                delay = self.retry.backoff_s(attempt, (method, path))
            self.retry_delays.append(delay)
            await self._sleep(delay)
            attempt += 1

    async def _send_once(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Tuple[Tuple[str, str], ...],
    ) -> ClientResponse:
        """One wire exchange, reconnecting once if the kept-alive
        connection went stale under us."""
        for attempt in (0, 1):
            await self._connect()
            try:
                return await self._roundtrip(method, path, body, headers)
            except (ConnectionError, asyncio.IncompleteReadError):
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    async def _roundtrip(
        self,
        method: str,
        path: str,
        body: bytes,
        extra_headers: Tuple[Tuple[str, str], ...],
    ) -> ClientResponse:
        assert self._reader is not None and self._writer is not None
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
        ]
        if body:
            lines.append("Content-Type: application/json")
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        head = "\r\n".join(lines) + "\r\n\r\n"
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()

        raw = await self._reader.readuntil(b"\r\n\r\n")
        text = raw.decode("latin-1")
        status_line, _, header_block = text.partition("\r\n")
        status = int(status_line.split(" ")[1])
        headers: Dict[str, str] = {}
        for line in header_block.split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return ClientResponse(status=status, headers=headers, body=payload)

    async def get(self, path: str, **kwargs) -> ClientResponse:
        return await self.request("GET", path, **kwargs)

    async def post(self, path: str, payload, **kwargs) -> ClientResponse:
        return await self.request("POST", path, payload=payload, **kwargs)


async def fetch_json(host: str, port: int, method: str, path: str, payload=None):
    """One-shot convenience: connect, request, decode, disconnect."""
    client = ServeClient(host, port)
    try:
        response = await client.request(method, path, payload=payload)
        return response.status, response.json()
    finally:
        await client.close()
