"""Loopback HTTP stub for the annotation endpoints.

Serves the documented JSON contract from cirlite's mock generator and
judges, one request at a time in a single background thread:

    POST /generate  {"prompt": ...}                    -> {"text": ...}
    POST /judge/<i> {"conclusion": ..., "target": ...} -> {"score": 1..5}

Each request is answered on its own HTTP/1.0 connection, which is what the
program's urllib client asks for. Requests are counted per path.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

from cirlite.annotate import MockGenerator, MockJudge

# Judge endpoints served; each triplet costs 1 generate + N_JUDGES judge requests.
N_JUDGES = 3


class StubServer:
    def __init__(self, seed: int):
        self.generator = MockGenerator(seed)
        self.judges = [MockJudge(seed + i) for i in range(N_JUDGES)]
        self.requests: Counter = Counter()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                stub.requests[self.path] += 1
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                if self.path == "/generate":
                    reply = {"text": stub.generator.generate(body["prompt"])}
                elif self.path.startswith("/judge/"):
                    judge = stub.judges[int(self.path[len("/judge/"):])]
                    reply = {"score": judge.score(body["conclusion"], body["target"])}
                else:
                    self.send_error(404)
                    return
                payload = json.dumps(reply).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format, *args):
                pass

        self._httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05},
            name="stub-server",
        )

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def generator_url(self) -> str:
        return self.base_url + "/generate"

    def judge_urls(self) -> list[str]:
        return [f"{self.base_url}/judge/{i}" for i in range(len(self.judges))]

    def start(self) -> None:
        self._thread.start()

    def close(self) -> None:
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=10)
        self._httpd.server_close()
