"""The one hardened HTTP server behind the broker, status and stream
metrics surfaces: any ``(method, path, body) -> (status, content_type,
body)`` function, served over real sockets."""

import http.client
import threading

from repro.obs.httpd import HardenedHTTPServer, serve_http


def serving(handle, **kwargs):
    server = serve_http(handle, 0, **kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def request(server, method, path, body=None):
    connection = http.client.HTTPConnection(*server.server_address[:2],
                                            timeout=10)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response, response.read()
    finally:
        connection.close()


class TestServeHTTP:
    def test_serves_a_handle_function(self):
        seen = []

        def handle(method, path, body):
            seen.append((method, path, body))
            return 201, "text/x-echo", body[::-1]

        server, thread = serving(handle, request_timeout_s=3.0)
        try:
            assert isinstance(server, HardenedHTTPServer)
            assert server.daemon_threads is True
            assert server.RequestHandlerClass.timeout == 3.0
            response, body = request(server, "POST", "/echo?x=1", b"abc")
            assert (response.status, body) == (201, b"cba")
            assert response.getheader("Content-Type") == "text/x-echo"
            assert response.getheader("Content-Length") == "3"
            assert response.getheader("Retry-After") is None
            response, body = request(server, "GET", "/empty")
            assert (response.status, body) == (201, b"")
            assert seen == [("POST", "/echo?x=1", b"abc"),
                            ("GET", "/empty", b"")]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_503_carries_retry_after(self):
        server, thread = serving(
            lambda method, path, body: (503, "text/plain", b"draining"))
        try:
            response, body = request(server, "GET", "/")
            assert (response.status, body) == (503, b"draining")
            assert response.getheader("Retry-After") == "1"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
