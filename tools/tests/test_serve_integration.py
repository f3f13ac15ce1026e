#!/usr/bin/env python3
"""End-to-end integration test for the sgl_serve daemon.

Boots the real binary twice on unix-domain sockets -- once with the
default batching width, once with --batch-width 1 (pure serial) -- and
drives the same NDJSON request stream against both:

  * every query response must be BYTE-identical between the two servers
    (the solver's block bit-equality contract surfaced over the wire);
  * malformed requests must come back as typed error envelopes with
    stable ErrorCode names, never free-text to parse;
  * concurrent `solve` requests must coalesce into batches without
    changing a single response byte, and concurrent resistance requests
    (answered inline, outside the combiner) must match as well and add
    no batch;
  * `shutdown` must stop the daemon cleanly (exit code 0).

Usage: test_serve_integration.py /path/to/sgl_serve
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time


def fail(message):
    print("FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)


class ServeDaemon:
    """Context manager owning one sgl_serve process on a temp socket."""

    def __init__(self, binary, extra_args=()):
        self.binary = binary
        self.extra_args = list(extra_args)
        self.tempdir = None
        self.socket_path = None
        self.process = None

    def __enter__(self):
        self.tempdir = tempfile.mkdtemp(prefix="sgl_serve_", dir="/tmp")
        self.socket_path = os.path.join(self.tempdir, "s.sock")
        self.process = subprocess.Popen(
            [self.binary, "--socket", self.socket_path] + self.extra_args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 30.0
        while not os.path.exists(self.socket_path):
            if self.process.poll() is not None:
                out = self.process.stdout.read().decode(errors="replace")
                fail("daemon exited before binding its socket:\n" + out)
            if time.monotonic() > deadline:
                fail("daemon did not bind %s within 30s" % self.socket_path)
            time.sleep(0.01)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.process.poll() is None:
            try:
                self.request({"op": "shutdown"})
            except OSError:
                pass
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            if exc_type is None:
                fail("daemon ignored shutdown; had to kill it")
        self.process.stdout.close()
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        os.rmdir(self.tempdir)
        return False

    def connect(self):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(60.0)
        client.connect(self.socket_path)
        return client

    def request(self, payload):
        """One request on a fresh connection; returns the raw response line."""
        with self.connect() as client:
            return request_on(client, payload)


def recv_line(client):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = client.recv(65536)
        if not chunk:
            fail("connection closed mid-response (got %r)" % buf[:200])
        buf += chunk
    return buf[:-1]


def request_on(client, payload):
    line = json.dumps(payload, separators=(",", ":")) + "\n"
    client.sendall(line.encode())
    return recv_line(client)


def error_code(response_bytes):
    doc = json.loads(response_bytes)
    check(doc.get("ok") is False, "expected an error envelope: %r" % doc)
    check("message" in doc["error"], "error envelope missing message")
    return doc["error"]["code"]


LEARN = {
    "op": "learn_synthetic",
    "graph": "grid2d",
    "nx": 10,
    "ny": 10,
    "measurements": 40,
}


def query_stream():
    requests = []
    for i in range(12):
        requests.append({"op": "resistance", "s": i, "t": 99 - i})
    requests.append(
        {"op": "resistance_batch", "pairs": [[0, 1], [1, 2], [3, 50], [98, 99]]}
    )
    requests.append({"op": "embedding"})
    return requests


def run_stream(daemon):
    """Learn, then run the query stream on one connection; returns responses."""
    responses = []
    with daemon.connect() as client:
        responses.append(request_on(client, LEARN))
        for req in query_stream():
            responses.append(request_on(client, req))
    return responses


def main():
    if len(sys.argv) != 2:
        fail("usage: test_serve_integration.py /path/to/sgl_serve")
    binary = sys.argv[1]
    check(os.access(binary, os.X_OK), "not executable: " + binary)

    # --- Batched vs serial: byte-identical responses -------------------
    with ServeDaemon(binary) as batched, \
            ServeDaemon(binary, ["--batch-width", "1"]) as serial:
        batched_responses = run_stream(batched)
        serial_responses = run_stream(serial)
        check(len(batched_responses) == len(serial_responses), "stream length")
        for i, (a, b) in enumerate(zip(batched_responses, serial_responses)):
            check(a == b, "response %d differs:\n  batched: %r\n  serial:  %r"
                  % (i, a[:400], b[:400]))
        for resp in batched_responses:
            check(json.loads(resp).get("ok") is True,
                  "stream response not ok: %r" % resp[:400])

        # --- Typed errors over the wire --------------------------------
        code = error_code(batched.request({"op": "frobnicate"}))
        check(code == "unknown-operation", "got code %r" % code)
        code = error_code(batched.request({"op": "resistance", "s": 0, "t": 0}))
        check(code == "bad-request", "got code %r" % code)
        code = error_code(batched.request({"op": "resistance"}))
        check(code == "bad-request", "missing field: got code %r" % code)
        with batched.connect() as client:
            client.sendall(b"this is not json\n")
            code = error_code(recv_line(client))
        check(code == "parse-error", "got code %r" % code)

        # --- Concurrent clients still match the serial bytes -----------
        def resistance(i):
            return {"op": "resistance", "s": i, "t": 99 - i, "id": i}

        def solve(i):
            rhs = [0.0] * 100
            rhs[i] = 1.0
            rhs[99 - i] = -1.0
            return {"op": "solve", "rhs": rhs, "id": i}

        def concurrent(make_request):
            expected = {i: serial.request(make_request(i)) for i in range(24)}
            results = {}
            lock = threading.Lock()

            def worker(ids):
                with batched.connect() as client:
                    for i in ids:
                        resp = request_on(client, make_request(i))
                        with lock:
                            results[i] = resp

            threads = [threading.Thread(target=worker,
                                        args=(range(w, 24, 8),))
                       for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i in range(24):
                check(results[i] == expected[i],
                      "concurrent response %d differs:\n  batched: %r\n"
                      "  serial:  %r" % (i, results[i][:400], expected[i][:400]))

        before = json.loads(batched.request({"op": "stats"}))
        concurrent(resistance)
        stats = json.loads(batched.request({"op": "stats"}))
        check(stats["batches"] == before["batches"],
              "resistance requests ran combiner batches: %r" % stats)
        concurrent(solve)
        stats = json.loads(batched.request({"op": "stats"}))
        # The 24 solves are the stream's only combiner traffic.
        check(stats["batched_columns"] == 24, "stats lost columns: %r" % stats)
        # Only engine-level failures count (s == t); parse/protocol errors
        # are rejected before the engine sees them.
        check(stats["errors"] == 1, "typed errors not counted: %r" % stats)

    # Both daemons exited via shutdown inside __exit__.
    print("OK: batched and serial servers byte-identical; typed errors stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
