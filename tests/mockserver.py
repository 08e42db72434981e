"""In-process SPARQL endpoint used by the harvester tests.

Serves one graph through the standard results-JSON shape behind
LIMIT/OFFSET paging, with scriptable failures keyed by offset and a
request log so tests can assert paging and retry behaviour.
"""
from __future__ import annotations

import gzip
import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from rdfval.terms import BlankNode, Iri, Literal, term_text

XSD_STRING_IRI = "http://www.w3.org/2001/XMLSchema#string"

_WINDOW = re.compile(r"LIMIT (\d+) OFFSET (\d+)")


def term_binding(term):
    if isinstance(term, Iri):
        return {"type": "uri", "value": term.text}
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": term.label}
    out = {"type": "literal", "value": term.lexical}
    if term.language is not None:
        out["xml:lang"] = term.language
    elif term.datatype.text != XSD_STRING_IRI:
        out["datatype"] = term.datatype.text
    return out


class MockEndpoint:
    """One graph served in canonical order; close() releases the port."""

    def __init__(self, graph):
        self.rows = sorted(
            graph,
            key=lambda t: (
                term_text(t.subject),
                term_text(t.predicate),
                term_text(t.object),
            ),
        )
        self.fail_offsets: set[int] = set()
        self.malformed_offsets: set[int] = set()
        self.malformed_body = b"{ not json"
        # Opt-in: pages go gzip-encoded to a client that accepts gzip, and
        # their offsets are logged in ``gzipped``.
        self.gzip = False
        self.gzipped: list[int] = []
        self.requests: list[tuple[str, int, int]] = []
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                query = parse_qs(urlsplit(self.path).query).get("query", [""])[0]
                self._answer("GET", query)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = self.rfile.read(length).decode("utf-8")
                query = parse_qs(body).get("query", [""])[0]
                self._answer("POST", query)

            def _answer(self, method, query):
                window = _WINDOW.search(query)
                if window is None:
                    self._send(400, b"no window", "text/plain")
                    return
                limit, offset = int(window.group(1)), int(window.group(2))
                endpoint.requests.append((method, limit, offset))
                if offset in endpoint.fail_offsets:
                    self._send(500, b"boom", "text/plain")
                    return
                if offset in endpoint.malformed_offsets:
                    self._send(200, endpoint.malformed_body, "application/sparql-results+json")
                    return
                page = endpoint.rows[offset : offset + limit]
                doc = {
                    "head": {"vars": ["s", "p", "o"]},
                    "results": {
                        "bindings": [
                            {
                                "s": term_binding(t.subject),
                                "p": term_binding(t.predicate),
                                "o": term_binding(t.object),
                            }
                            for t in page
                        ]
                    },
                }
                body = json.dumps(doc).encode("utf-8")
                encoding = None
                if endpoint.gzip and "gzip" in self.headers.get("Accept-Encoding", ""):
                    body, encoding = gzip.compress(body, mtime=0), "gzip"
                    endpoint.gzipped.append(offset)
                self._send(200, body, "application/sparql-results+json", encoding)

            def _send(self, code, body, content_type, encoding=None):
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                if encoding is not None:
                    self.send_header("Content-Encoding", encoding)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/sparql"

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def closed_port_url() -> str:
    """An endpoint URL nothing is listening on."""
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return f"http://127.0.0.1:{port}/sparql"
