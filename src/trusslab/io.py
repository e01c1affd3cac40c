"""Edge-list persistence.

One edge per line as two whitespace-separated node ids, integers in
``[0, graph.NODE_ID_LIMIT)``.  Lines starting with '#' and blank lines are
ignored.  An edge line may carry a trailing ``# spurious`` marker (a
comment that is exactly ``spurious``, spaces aside), which round-trips
through load/save so that gadget-augmented graphs stay inspectable on
disk.  Each line is checked once, as it is read.
"""

from __future__ import annotations

import sys
from array import array
from typing import IO, Iterable, Sequence

from . import graph
from .graph import Graph, build_graph


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_columns(lines: Iterable[str]) -> tuple[array, array, bytearray]:
    """Parse raw lines into two endpoint columns and a column of spurious
    flags (0 or 1), in input order; a line is flagged iff its comment,
    stripped, is exactly ``spurious``.  Each node id is held to
    ``graph.NODE_ID_LIMIT``, read at call time, on the line that holds it,
    so every id that reaches a column fits its ``array('i')``."""
    limit = graph.NODE_ID_LIMIT
    us, vs, flags = array("i"), array("i"), bytearray()
    for line_no, raw in enumerate(lines, start=1):
        body, _, comment = raw.partition("#")
        fields = body.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise EdgeListError(line_no, f"expected two node ids, got {body.strip()!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer node id in {body.strip()!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(line_no, f"negative node id in {body.strip()!r}")
        if u >= limit or v >= limit:
            raise EdgeListError(line_no, f"node id {max(u, v)} not below the node-id limit {limit}")
        us.append(u)
        vs.append(v)
        flags.append(comment.strip() == "spurious")
    return us, vs, flags


def load_graph(source: str | IO[str]) -> tuple[Graph, list[bool]]:
    """Load a graph from a path, ``-`` (stdin), or an open text stream.

    Returns the graph plus per-edge spurious flags aligned with edge ids.
    Flags of dropped duplicate/self-loop lines follow the first surviving
    occurrence of each edge.  The lines are parsed into compact columns
    (4 bytes per endpoint, 1 per flag), not a list of per-edge tuples.  A
    malformed line, such as one with a node id at or above the limit, is an
    ``EdgeListError`` that names it, raised before the graph is built.
    """
    if isinstance(source, str):
        if source == "-":
            return _load_stream(sys.stdin)
        with open(source, "r", encoding="utf-8") as fh:
            return _load_stream(fh)
    return _load_stream(source)


def _load_stream(fh: IO[str]) -> tuple[Graph, list[bool]]:
    us, vs, raw_flags = _parse_columns(fh)
    g = build_graph(zip(us, vs))
    if not any(raw_flags):
        return g, [False] * g.m
    flags = bytearray(g.m)
    # walked backwards, so the first occurrence of each edge writes last
    for u, v, flag in zip(reversed(us), reversed(vs), reversed(raw_flags)):
        if u != v:
            flags[g.edge_id(u, v)] = flag
    return g, list(map(bool, flags))


def write_edge_list(fh: IO[str], g: Graph, spurious: Sequence[bool] | None = None) -> None:
    """Write one ``u v`` line per edge in id order, streamed line by line;
    edges flagged in ``spurious`` carry the ``# spurious`` marker."""
    fh.writelines(
        f"{u} {v} # spurious\n" if spurious is not None and spurious[eid] else f"{u} {v}\n"
        for eid, (u, v) in enumerate(g.edges())
    )

