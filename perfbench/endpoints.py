"""Mock SPARQL endpoints for ``campaign-mock``, run as a child process.

    python perfbench/endpoints.py <campaign input dir>

needs ``src`` and ``tests`` on PYTHONPATH. It serves each source file of the
input directory through ``tests/mockserver.MockEndpoint``, plus one endpoint
with an empty graph for the set-up runs, and prints one JSON line:
``{"urls": {source: url}, "empty": url}``. It then reads commands on stdin,
one per line, and answers each with one JSON line on stdout:

- ``reset``: forget the serve times recorded so far;
- ``stats``: ``{"serve_ms": [...]}``, the endpoint's own time per page;
- ``quit`` or end of input: close every endpoint and exit.

The known-fault source serves its blank nodes with Virtuoso-style
``nodeID://`` labels.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mockserver
from mockserver import MockEndpoint
from rdfval.graph import GraphBuilder
from rdfval.ntriples import parse_ntriples
from rdfval.terms import BlankNode

_plain_binding = mockserver.term_binding


def _virtuoso_binding(term):
    if isinstance(term, BlankNode):
        return {"type": "bnode", "value": f"nodeID://{term.label}"}
    return _plain_binding(term)


def _timed(answer, serve_ms: list):
    def wrapper(self, *args):
        start = time.perf_counter()
        try:
            return answer(self, *args)
        finally:
            serve_ms.append((time.perf_counter() - start) * 1000.0)

    return wrapper


def main(argv: list[str]) -> int:
    d = Path(argv[1])
    meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
    # Only the known-fault source has blank nodes, so the relabelling
    # touches no other endpoint.
    mockserver.term_binding = _virtuoso_binding
    serve_ms: list[float] = []
    endpoints = {}
    try:
        for source in meta["sources"]:
            graph = parse_ntriples((d / source["file"]).read_bytes(), name=source["name"])
            endpoints[source["name"]] = MockEndpoint(graph)
        endpoints[""] = MockEndpoint(GraphBuilder().freeze())
        for endpoint in endpoints.values():
            handler = endpoint._server.RequestHandlerClass
            handler._answer = _timed(handler._answer, serve_ms)
        urls = {name: e.url for name, e in endpoints.items() if name}
        print(json.dumps({"urls": urls, "empty": endpoints[""].url}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                serve_ms.clear()
                for endpoint in endpoints.values():
                    endpoint.requests.clear()
                print("{}", flush=True)
            elif command == "stats":
                print(json.dumps({"serve_ms": list(serve_ms)}), flush=True)
            elif command == "quit":
                break
    finally:
        for endpoint in endpoints.values():
            endpoint.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
