"""Graph values, edge-list parsing, BFS distance matrices, and generators.

Graphs are immutable: a vertex count plus a frozenset of (u, v) pairs with
u < v. Vertices are 0-based ints throughout.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .linalg import IntMatrix


class GraphError(Exception):
    """Base class for graph construction and parsing errors."""


class EdgeListParseError(GraphError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DisconnectedGraphError(GraphError):
    """Raised when an operation that needs a connected graph gets one that is not."""


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        """The one structural check of a graph: every edge is a pair u < v of
        vertices in range, so there are no loops."""
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not 0 <= u < v < self.n:
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
                raise ValueError(f"edge ({u}, {v}) must be stored as ({v}, {u})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on n vertices with each edge's endpoints put in order u < v;
        the constructor then rejects loops and out-of-range vertices."""
        return cls(n, frozenset((u, v) if u < v else (v, u) for u, v in edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists, the deterministic iteration order for all traversals."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line is the vertex count, every following line is an
    edge "u v" with 0-based endpoints. Blank lines and '#' comments are
    skipped; CRLF input is fine. Errors carry the offending line number.
    """
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise EdgeListParseError(f"expected vertex count, got {line!r}", line_no) from None
            if n < 1:
                raise EdgeListParseError(f"vertex count must be positive, got {n}", line_no)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"non-integer endpoint in {line!r}", line_no) from None
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", line_no)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"vertex out of range in edge ({u}, {v}), n={n}", line_no)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(f"duplicate edge ({u}, {v})", line_no)
        seen.add(key)
        edges.append(key)
    if n is None:
        raise EdgeListParseError("missing vertex count", last_line or 1)
    return Graph(n, frozenset(edges))


def format_edge_list(g: Graph, comment: str | None = None) -> str:
    """Inverse of parse_edge_list, with edges emitted in sorted order."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(str(g.n))
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def bfs_distances(g: Graph, source: int, adj: list[list[int]] | None = None) -> list[int]:
    """Hop distances from source; unreachable vertices get -1."""
    if adj is None:
        adj = g.adjacency()
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def distance_matrix(g: Graph) -> IntMatrix:
    """All-pairs hop distances via one BFS per vertex."""
    adj = g.adjacency()
    rows = []
    for v in range(g.n):
        dist = bfs_distances(g, v, adj)
        if min(dist, default=0) < 0:
            raise DisconnectedGraphError("distance matrix undefined for disconnected graphs")
        rows.append(dist)
    return rows


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def check_theta_triple(l: int, p: int, q: int) -> tuple[int, int, int]:
    """Sort a theta triple and validate it; at most one path may have length 1."""
    l, p, q = sorted((l, p, q))
    if l < 1 or p < 2:
        raise ValueError(f"invalid theta triple ({l}, {p}, {q}): need lengths >= 1 with at most one equal to 1")
    return l, p, q


def build_theta(l: int, p: int, q: int) -> Graph:
    """Theta graph: two branch vertices 0 and 1 joined by internally disjoint
    paths of lengths l, p, q, interior vertices appended in that order."""
    check_theta_triple(l, p, q)
    n = l + p + q - 1
    edges = []
    nxt = 2
    for length in (l, p, q):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return Graph.from_edges(n, edges)


def labeled_theta(k: int, s: int = 1, pendant: bool = False) -> Graph:
    """theta(1, 2s, 2k) with the vertex order used by the congruence identities.

    Vertices 0 .. 2k+2s-1 form a Hamiltonian cycle in index order and the
    chord (s, s+2k) is the unit path between the two degree-3 vertices, so
    vertices s..s+2k induce the odd cycle and both diagonal quadrants of the
    distance matrix equal the path matrix |i-j|. With s=1 this is the base
    theta(1,2,2k) labeling whose first row is (0, 1, 2, ..., 2, 1).
    pendant=True appends one extra vertex attached to vertex 0.
    """
    if k < 1 or s < 1:
        raise ValueError("need k >= 1 and s >= 1")
    n = 2 * k + 2 * s
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (s, s + 2 * k)]
    if pendant:
        edges.append((0, n))
        n += 1
    return Graph.from_edges(n, edges)


def labeled_theta_shifted(k: int, s: int, pendant: bool = False) -> Graph:
    """theta(1, 2(s-1), 2(k+1)) on the same vertex set as labeled_theta(k, s),
    with the chord moved one step to (s-1, s+2k+1)."""
    if k < 1 or s < 2:
        raise ValueError("need k >= 1 and s >= 2")
    n = 2 * k + 2 * s
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1), (s - 1, s + 2 * k + 1)]
    if pendant:
        edges.append((0, n))
        n += 1
    return Graph.from_edges(n, edges)


def attach_path(g: Graph, v: int, m: int) -> Graph:
    """Glue a path of m new edges to vertex v, new vertices numbered from g.n."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if m < 0:
        raise ValueError("path length must be non-negative")
    edges = list(g.edges)
    prev = v
    nxt = g.n
    for _ in range(m):
        edges.append((prev, nxt))
        prev = nxt
        nxt += 1
    return Graph.from_edges(nxt, edges)


def triangle_chain(n: int) -> Graph:
    """Deterministic benchmark family on exactly n vertices: a row of
    triangles glued at cut vertices, plus one pendant edge when n is even."""
    if n < 1:
        raise ValueError("need n >= 1")
    edges = []
    cut = 0
    nxt = 1
    for _ in range((n - 1) // 2):
        a, b = nxt, nxt + 1
        edges += [(cut, a), (cut, b), (a, b)]
        cut = b
        nxt += 2
    if nxt < n:
        edges.append((cut, nxt))
        nxt += 1
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class BlockRequest:
    """Multiset of blocks to assemble: plain edges, cycle lengths, theta triples."""

    edges: int = 0
    cycles: tuple[int, ...] = ()
    thetas: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.edges < 0:
            raise ValueError("edge block count must be non-negative")
        for length in self.cycles:
            if length < 3:
                raise ValueError(f"cycle length {length} < 3")
        for triple in self.thetas:
            check_theta_triple(*triple)

    def block_count(self) -> int:
        return self.edges + len(self.cycles) + len(self.thetas)

    def vertex_count(self) -> int:
        """Vertices of any graph assembled from this request."""
        extra = self.edges + sum(c - 1 for c in self.cycles) + sum(sum(t) - 2 for t in self.thetas)
        return 1 + extra


def random_block_graph(request: BlockRequest, seed: int) -> Graph:
    """Assemble a connected graph with exactly the requested blocks.

    Deterministic for a fixed seed: the blocks are shuffled, then glued on one
    at a time by identifying a uniformly chosen vertex of the new block with a
    uniformly chosen existing vertex (which becomes a cut vertex).
    """
    if request.block_count() == 0:
        raise ValueError("empty block request")
    rng = random.Random(seed)
    pieces = [path_graph(2) for _ in range(request.edges)]
    pieces += [cycle_graph(length) for length in request.cycles]
    pieces += [build_theta(*triple) for triple in request.thetas]
    rng.shuffle(pieces)

    n = 0
    edges: list[tuple[int, int]] = []
    for piece in pieces:
        if n == 0:
            mapping = list(range(piece.n))
            n = piece.n
        else:
            glue_at = rng.randrange(n)
            glue_local = rng.randrange(piece.n)
            mapping = []
            for w in range(piece.n):
                if w == glue_local:
                    mapping.append(glue_at)
                elif w < glue_local:
                    mapping.append(n + w)
                else:
                    mapping.append(n + w - 1)
            n += piece.n - 1
        for u, v in sorted(piece.edges):
            edges.append((mapping[u], mapping[v]))
    return Graph.from_edges(n, edges)
