"""The daemon's status endpoint (DESIGN.md §13).

A tiny stdlib HTTP server on its own thread:

* ``GET /healthz``      -- ``200 ok`` while the daemon is running;
* ``GET /metrics.json`` -- the fleet metrics snapshot, a standard
  ``repro.metrics/1`` document (the same schema ``--metrics-out``
  writes and :func:`repro.obs.validate_metrics_doc` checks), with every
  tenant's metrics under ``tenant.<name>.`` keys.

The handler only ever *reads* a snapshot function supplied by the
service -- it never touches live registries, so scraping cannot perturb
an audit (observability neutrality, DESIGN.md §9).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional


class StatusServer:
    """Serves ``/healthz`` and ``/metrics.json`` until :meth:`stop`."""

    def __init__(
        self,
        snapshot_fn: Callable[[], Dict[str, object]],
        port: int = 0,
        host: str = "127.0.0.1",
    ):
        self.snapshot_fn = snapshot_fn
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path == "/healthz":
                    self._send(200, b"ok\n", "text/plain")
                elif self.path == "/metrics.json":
                    try:
                        doc = server.snapshot_fn()
                        body = json.dumps(doc, sort_keys=True).encode("utf-8")
                    except Exception as exc:  # surface, don't crash the thread
                        self._send(
                            500,
                            f"snapshot failed: {exc}\n".encode("utf-8"),
                            "text/plain",
                        )
                        return
                    self._send(200, body, "application/json")
                else:
                    self._send(404, b"not found\n", "text/plain")

            def _send(self, code: int, body: bytes, ctype: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # stay quiet; the daemon owns stdout

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-status",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


__all__ = ["StatusServer"]
