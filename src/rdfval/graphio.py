"""Graph file loading.

Format is chosen by extension: ``.nt`` is N-Triples, ``.ttl`` is the Turtle
subset; a trailing ``.gz`` on either means gzip-compressed input.
"""
from __future__ import annotations

import gzip
from pathlib import Path

from .graph import Graph
from .ntriples import parse_ntriples
from .turtle import parse_turtle_subset


def load_graph(path: str | Path) -> Graph:
    p = Path(path)
    suffixes = [s.lower() for s in p.suffixes]
    gz = bool(suffixes) and suffixes[-1] == ".gz"
    if gz:
        suffixes = suffixes[:-1]
    fmt = suffixes[-1] if suffixes else ""
    if fmt == ".ttl":
        parse = parse_turtle_subset
    elif fmt == ".nt":
        parse = parse_ntriples
    else:
        raise ValueError(f"cannot infer RDF format from file name: {p.name}")
    # No local holds the bytes, so the parser can free them once decoded.
    return parse(gzip.decompress(p.read_bytes()) if gz else p.read_bytes())
