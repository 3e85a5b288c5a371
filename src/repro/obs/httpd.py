"""The one hardened HTTP server behind the repo's three HTTP surfaces.

``repro broker serve``, ``repro status --serve`` and ``repro stream
serve --metrics-port`` each answer requests with a plain function
``handle(method, path, body) -> (status, content_type, body)``;
:func:`serve_http` binds such a function to a stdlib
``ThreadingHTTPServer``.  Only those three paths import this module,
so ``import repro.campaign`` and ``import repro.obs`` load no HTTP
module.
"""

from __future__ import annotations

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

__all__ = ["PROMETHEUS_TYPE", "HardenedHTTPServer", "serve_http"]

#: Content type of the Prometheus text exposition every surface serves.
PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

Handle = Callable[[str, str, bytes], tuple[int, str, bytes]]


class HardenedHTTPServer(ThreadingHTTPServer):
    """Daemon handler threads: ``ThreadingHTTPServer`` joins non-daemon
    handler threads on ``server_close()``, so one client that connects
    and then goes silent would otherwise hang shutdown forever."""

    daemon_threads = True


def serve_http(handle: Handle, port: int, host: str = "127.0.0.1",
               request_timeout_s: float = 30.0) -> HardenedHTTPServer:
    """Serve ``handle`` over HTTP/1.1 (``port=0`` picks a free port).

    Every ``GET``/``POST`` body is read by its ``Content-Length`` and
    passed to ``handle``; the answer goes back with its own
    ``Content-Length`` (plus ``Retry-After: 1`` on a 503).  A
    per-request socket timeout releases the thread of a stalled client,
    a client that hangs up mid-response is dropped quietly, and request
    logs stay off stderr.  The caller owns the returned server
    (``serve_forever()`` / ``shutdown()`` / ``server_close()``).
    """

    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = request_timeout_s  # stalled sockets release the thread

        def _dispatch(self) -> None:
            try:
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length > 0 else b""
                status, content_type, payload = handle(
                    self.command, self.path, body)
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                if status == 503:
                    self.send_header("Retry-After", "1")
                self.end_headers()
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                # The client gave up mid-response (its own timeout or a
                # fault injector); it will retry — nothing to do here.
                self.close_connection = True

        do_GET = _dispatch
        do_POST = _dispatch

        def log_message(self, format: str, *args: object) -> None:
            pass  # request logs must not spam the command's stderr

    return HardenedHTTPServer((host, port), _Handler)
