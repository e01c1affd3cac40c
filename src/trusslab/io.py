"""Edge-list persistence.

One edge per line as two whitespace-separated non-negative integers.  Lines
starting with '#' and blank lines are ignored.  An edge line may carry a
trailing ``# spurious`` marker, which round-trips through load/save so that
gadget-augmented graphs stay inspectable on disk.
"""

from __future__ import annotations

import sys
from array import array
from typing import IO, Iterable, Sequence

from .graph import NODE_ID_LIMIT, Graph, build_graph


class EdgeListError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_edge_lines(lines: Iterable[str]) -> tuple[list[tuple[int, int]], list[bool]]:
    """Parse raw lines into (edges, spurious flags), both in input order."""
    us, vs, flags, _ = _parse_columns(lines)
    return list(zip(us, vs)), list(map(bool, flags))


def _parse_columns(lines: Iterable[str]) -> tuple[array, array, bytearray, list[int]]:
    """Parse raw lines into two endpoint columns and a column of spurious
    flags (0 or 1), in input order, plus the numbers of the lines that hold
    no edge; a node id that a signed 64-bit column cannot hold is
    rejected."""
    us, vs, flags, blank = array("q"), array("q"), bytearray(), []
    for line_no, raw in enumerate(lines, start=1):
        body, _, comment = raw.partition("#")
        fields = body.split()
        if not fields:
            blank.append(line_no)
            continue
        if len(fields) != 2:
            raise EdgeListError(line_no, f"expected two node ids, got {body.strip()!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(line_no, f"non-integer node id in {body.strip()!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(line_no, f"negative node id in {body.strip()!r}")
        try:
            us.append(u)
            vs.append(v)
        except OverflowError:
            raise EdgeListError(line_no, f"node id too large in {body.strip()!r}") from None
        flags.append("spurious" in comment)
    return us, vs, flags, blank


def load_graph(source: str | IO[str]) -> tuple[Graph, list[bool]]:
    """Load a graph from a path, ``-`` (stdin), or an open text stream.

    Returns the graph plus per-edge spurious flags aligned with edge ids.
    Flags of dropped duplicate/self-loop lines follow the first surviving
    occurrence of each edge.  The lines are parsed into compact columns
    (8 bytes per endpoint, 1 per flag), not a list of per-edge tuples.  A
    node id at or above ``NODE_ID_LIMIT`` is an ``EdgeListError``:
    ``build_graph`` stops at it before allocating a map for it, and only
    then is its line located.
    """
    if isinstance(source, str):
        if source == "-":
            return _load_stream(sys.stdin)
        with open(source, "r", encoding="utf-8") as fh:
            return _load_stream(fh)
    return _load_stream(source)


def _load_stream(fh: IO[str]) -> tuple[Graph, list[bool]]:
    us, vs, raw_flags, blank = _parse_columns(fh)
    try:
        g = build_graph(zip(us, vs))
    except ValueError:
        # Parsed ids are non-negative, so the node-id limit is what failed.
        _reject_large_id(us, vs, blank)
        raise
    if not any(raw_flags):
        return g, [False] * g.m
    flags = bytearray(g.m)
    # walked backwards, so the first occurrence of each edge writes last
    for u, v, flag in zip(reversed(us), reversed(vs), reversed(raw_flags)):
        if u != v:
            flags[g.edge_id(u, v)] = flag
    return g, list(map(bool, flags))


def _reject_large_id(us: array, vs: array, blank: list[int]) -> None:
    """Raise the ``EdgeListError`` of the first edge line with a node id at
    or above ``NODE_ID_LIMIT``, if any; ``blank`` numbers the lines without
    an edge."""
    edge = next((k for k, (u, v) in enumerate(zip(us, vs)) if max(u, v) >= NODE_ID_LIMIT), None)
    if edge is None:
        return
    line_no = edge + 1
    for skipped in blank:
        if skipped > line_no:
            break
        line_no += 1
    big = max(us[edge], vs[edge])
    raise EdgeListError(line_no, f"node id {big} not below the node-id limit {NODE_ID_LIMIT}")


def write_edge_list(fh: IO[str], g: Graph, spurious: Sequence[bool] | None = None) -> None:
    """Write one ``u v`` line per edge in id order, streamed line by line;
    edges flagged in ``spurious`` carry the ``# spurious`` marker."""
    fh.writelines(
        f"{u} {v} # spurious\n" if spurious is not None and spurious[eid] else f"{u} {v}\n"
        for eid, (u, v) in enumerate(g.edges())
    )

