"""Triangle counting, listing, and per-edge support.

Triangles are listed by one walk over the forward wedges of the degeneracy
order (Chiba & Nishizeki 1985): a triangle's earliest node sees the other
two among its later neighbors, so it closes exactly one of them.  That
order fixes the listing order and the sampler's wedge serials.  The listing
reads triangles as the triangle hypergraph: one vertex per edge, one
hyperedge per triangle, given as its ascending edge-id triple, three ints
in one flat 4-byte column (``Triples``).  Supports need no order: an edge's
support is the number of common neighbors of its endpoints, one C-level
intersection per edge.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .graph import Graph, degeneracy_order

# (node, its later neighbors ascending by position, ids of the edges to them)
ForwardRow = tuple[int, list[int], list[int]]


@dataclass(frozen=True)
class SupportTable:
    """Per-edge triangle counts.  The supports of all edges sum to 3*T."""

    support: list[int]
    triangle_count: int


class Triples(Sequence):
    """Hyperedges of the triangle hypergraph as one flat ``array('i')``,
    ``ids``: hyperedge i is the ascending edge-id triple ids[3i:3i+3], so
    each costs 12 bytes where a tuple in a list costs ~72.  Its length is
    the hyperedge count; indexing and iteration give the triples as tuples,
    made on demand, and it equals a list holding the same tuples.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: array | None = None):
        self.ids = array("i") if ids is None else ids

    @classmethod
    def of(cls, hyperedges: Sequence[tuple[int, int, int]]) -> Triples:
        """``hyperedges`` itself if it is a ``Triples``, else its triples
        copied into one."""
        if isinstance(hyperedges, Triples):
            return hyperedges
        return cls(array("i", chain.from_iterable(hyperedges)))

    def __len__(self) -> int:
        return len(self.ids) // 3

    def __getitem__(self, i: int | slice) -> tuple[int, int, int] | Triples:
        """Triple i as a tuple; a slice gives a ``Triples``, over a slice of
        the column when its step is 1."""
        rows = range(len(self))
        if isinstance(i, slice):
            rows = rows[i]
            if rows.step == 1:
                return Triples(self.ids[3 * rows.start:3 * rows.stop])
            return Triples.of([self[j] for j in rows])
        try:
            start = 3 * rows[i]
        except IndexError:
            raise IndexError("Triples index out of range") from None
        except TypeError:
            raise TypeError(
                f"Triples indices must be integers or slices, not {type(i).__name__}"
            ) from None
        return tuple(self.ids[start:start + 3])

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        column = iter(self.ids)
        return zip(column, column, column)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Triples):
            return self.ids == other.ids
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Triples({list(self)!r})"


def forward_rows(g: Graph, order: Sequence[int], pos: Sequence[int]) -> Iterator[ForwardRow]:
    """Each node in ``order`` with its later neighbors and their edge ids;
    ``pos[u]`` is the index of u in ``order``.  Nodes with fewer than two
    later neighbors center no wedge and are skipped."""
    for u in order:
        ids = g.neighbors(u)
        pu = pos[u]
        later = [v for v in ids if pos[v] > pu]
        if len(later) > 1:
            later.sort(key=pos.__getitem__)
            yield u, later, [ids[v] for v in later]


def compute_supports(g: Graph) -> SupportTable:
    """Exact support of every edge: the common neighbors of its endpoints,
    counted on the graph's own neighbor maps with nothing copied.  Every
    triangle is counted at each of its three edges.

    Each count is one C-level intersection of the endpoints' ``keys()``
    views, which walks the smaller map.  When n*n <= 64*m, one n-bit mask
    per node takes no more room than the graph's two endpoint columns, and
    a count is the popcount of two masks ANDed instead: a hash probe per
    neighbor becomes a word operation per 30 nodes, and a dense
    G(250, 15 000) counts in 0.004 s rather than ~0.08 s (Python 3.11).
    """
    if g.n * g.n <= 64 * g.m:
        masks = [sum(map((1).__lshift__, nbrs)) for nbrs in map(g.neighbors, g.nodes())]
        support = [(masks[u] & masks[v]).bit_count() for u, v in g.edges()]
    else:
        keys = [nbrs.keys() for nbrs in map(g.neighbors, g.nodes())]
        support = [len(keys[u] & keys[v]) for u, v in g.edges()]
    return SupportTable(support, sum(support) // 3)


def list_triangles(g: Graph, rows: Iterable[ForwardRow] | None = None) -> Triples:
    """Every triangle once, as its ascending edge-id triple: the hyperedges
    of the triangle hypergraph, in the probe order of ``rows`` (by default
    g's forward rows in degeneracy order).

    One loop walks the wedges a-u-b of each row, pairs in index order, and
    keeps the closed ones: the later node's map names the closing edge.
    This is the sampler's pass at p = 1, which a ``sample`` at the default
    zeta runs on any practical graph (README, "A note on zeta").  Each triple is ordered inline and its three ids appended to
    the column, with no tuple kept: ~12.3 bytes per triangle on 64-bit
    CPython 3.11, the column's 12 and its growth slack, as measured with
    tracemalloc.  The 276 267 triangles of ``gnp_random_graph(250, 0.48,
    1)`` hold 3.4 MB.
    """
    if rows is None:
        info = degeneracy_order(g)
        rows = forward_rows(g, info.order, info.positions)
    out = Triples()
    push = out.ids.append
    adj = g.neighbors
    for _, later, ids in rows:
        for i in range(len(later) - 1):
            closing = adj(later[i]).get
            a = ids[i]
            for b, v in zip(ids[i + 1:], later[i + 1:]):
                c = closing(v)
                if c is not None:
                    if a < b:
                        lo, hi = a, b
                    else:
                        lo, hi = b, a
                    if c < lo:
                        lo, hi, c = c, lo, hi
                    elif c < hi:
                        hi, c = c, hi
                    push(lo)
                    push(hi)
                    push(c)
    return out
