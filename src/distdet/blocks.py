"""Biconnected decomposition and block classification.

The blocks (biconnected components) of a connected graph partition its edge
set; cut vertices are exactly the vertices shared by two or more blocks. The
closed forms downstream only cover blocks that are single edges, cycles, or
theta graphs, so classification flags anything else as unsupported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Union

from .graphs import DisconnectedGraphError, Graph, check_theta_triple
from .linalg import DetCof


@dataclass(frozen=True)
class Block:
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Edge:
    pass


@dataclass(frozen=True)
class Cycle:
    length: int


@dataclass(frozen=True)
class Theta:
    l: int
    p: int
    q: int


@dataclass(frozen=True)
class Unsupported:
    reason: str


BlockKind = Union[Edge, Cycle, Theta, Unsupported]


def biconnected_components(g: Graph) -> list[Block]:
    """Blocks of a connected graph, one iterative lowpoint DFS.

    Tree and back edges are pushed on an edge stack; whenever a child's
    lowpoint reaches back no further than the current vertex, the edges from
    that tree edge to the top of the stack are cut off as one block. Iterating
    sorted adjacency from vertex 0 makes the block order deterministic. The
    same DFS decides connectivity: the graph is connected exactly when it
    discovers every vertex. K1 yields no blocks.
    """
    if g.n > g.edge_count + 1:
        # too few edges to span n vertices; refused before anything of size n is allocated
        raise DisconnectedGraphError("block decomposition needs a connected graph")
    if g.n <= 1:
        return []
    adj = g.adjacency()
    disc = [-1] * g.n
    low = [0] * g.n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[Block] = []
    disc[0] = low[0] = 0
    timer = 1
    # one frame per vertex on the DFS path: (v, parent, neighbor iterator,
    # edge-stack index of the tree edge parent-v)
    stack = [(0, -1, iter(adj[0]), 0)]
    while stack:
        v, parent, neighbors, start = stack[-1]
        for w in neighbors:
            if disc[w] < 0:
                stack.append((w, v, iter(adj[w]), len(edge_stack)))
                edge_stack.append((v, w) if v < w else (w, v))
                disc[w] = low[w] = timer
                timer += 1
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w) if v < w else (w, v))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    edges = frozenset(edge_stack[start:])
                    del edge_stack[start:]
                    blocks.append(Block(frozenset(chain.from_iterable(edges)), edges))
    if timer < g.n:
        raise DisconnectedGraphError("block decomposition needs a connected graph")
    assert not edge_stack
    return blocks


def classify_block(b: Block) -> BlockKind:
    """Edge, Cycle, or Theta; anything else is Unsupported.

    Within a block the theta shape is forced by the counts alone: |E|=|V|+1
    with two degree-3 vertices and the rest degree 2.
    """
    nv, ne = b.vertex_count, b.edge_count
    if nv == 2 and ne == 1:
        return Edge()
    deg = Counter(chain.from_iterable(b.edges))
    if ne == nv and nv >= 3 and all(d == 2 for d in deg.values()):
        return Cycle(nv)
    if ne == nv + 1:
        degree_three = sum(1 for d in deg.values() if d == 3)
        if degree_three == 2 and all(d in (2, 3) for d in deg.values()):
            return Theta(*theta_params(b))
    return Unsupported(f"{nv} vertices, {ne} edges, degrees {sorted(deg.values())}")


def theta_params(b: Block) -> tuple[int, int, int]:
    """Path lengths (l, p, q) of a theta block, sorted ascending."""
    adj: dict[int, list[int]] = {v: [] for v in b.vertices}
    for u, v in b.edges:
        adj[u].append(v)
        adj[v].append(u)
    branch = sorted(v for v in adj if len(adj[v]) == 3)
    if len(branch) != 2:
        raise ValueError("block is not a theta graph")
    start, goal = branch
    lengths = []
    for first in sorted(adj[start]):
        prev, cur, steps = start, first, 1
        while cur != goal:
            nbrs = adj[cur]
            if len(nbrs) != 2:
                raise ValueError("block is not a theta graph")
            prev, cur = cur, nbrs[0] if nbrs[1] == prev else nbrs[1]
            steps += 1
        lengths.append(steps)
    triple = check_theta_triple(*lengths)
    assert sum(triple) == b.edge_count
    return triple


def kind_label(kind: BlockKind) -> str:
    if isinstance(kind, Edge):
        return "edge"
    if isinstance(kind, Cycle):
        return f"cycle({kind.length})"
    if isinstance(kind, Theta):
        return f"theta({kind.l},{kind.p},{kind.q})"
    return f"unsupported[{kind.reason}]"


def block_row(kind: BlockKind, value: DetCof | None) -> dict:
    """One row of a block table, as det, classify and verify --report print it;
    value None means the block has no closed form."""
    det, cof = (None, None) if value is None else value
    return {"kind": kind_label(kind), "det": det, "cof": cof}


def classify_graph(g: Graph) -> list[tuple[Block, BlockKind]]:
    """Every block with its classification, unsupported ones included."""
    return [(b, classify_block(b)) for b in biconnected_components(g)]


@dataclass(frozen=True)
class BlockInventory:
    """Counts of the supported block shapes, the input to the census formula."""

    edge_blocks: int
    cycle_lengths: tuple[int, ...]
    theta_triples: tuple[tuple[int, int, int], ...]

    def block_count(self) -> int:
        return self.edge_blocks + len(self.cycle_lengths) + len(self.theta_triples)

    @property
    def even_cycles(self) -> tuple[int, ...]:
        return tuple(c for c in self.cycle_lengths if c % 2 == 0)

    @property
    def theta_one_even_pairs(self) -> tuple[tuple[int, int], ...]:
        """(p, q) of each triple (1, p, q) with p and q even."""
        return tuple((p, q) for l, p, q in self.theta_triples if theta_family(l, p, q) == "one-even-even")

    @property
    def theta_222_count(self) -> int:
        return sum(1 for t in self.theta_triples if theta_family(*t) == "two-two-two")

    @property
    def theta_22q_values(self) -> tuple[int, ...]:
        """q of each triple (2, 2, q) with q odd, q > 1."""
        return tuple(q for l, p, q in self.theta_triples if theta_family(l, p, q) == "two-two-odd")

    @property
    def zero_theta_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(t for t in self.theta_triples if theta_family(*t) == "zero")

    @property
    def has_zero_block(self) -> bool:
        return bool(self.even_cycles) or bool(self.zero_theta_triples)


def theta_family(l: int, p: int, q: int) -> str:
    """Which of the four determinant families a theta triple falls in."""
    l, p, q = check_theta_triple(l, p, q)
    if l == 1 and p % 2 == 0 and q % 2 == 0:
        return "one-even-even"
    if (l, p, q) == (2, 2, 2):
        return "two-two-two"
    if l == 2 and p == 2 and q % 2 == 1:
        return "two-two-odd"
    return "zero"


def census(kinds: Iterable[BlockKind]) -> BlockInventory:
    """Census of the supported block kinds; unsupported ones are left out."""
    edge_blocks = 0
    cycles: list[int] = []
    thetas: list[tuple[int, int, int]] = []
    for kind in kinds:
        if isinstance(kind, Edge):
            edge_blocks += 1
        elif isinstance(kind, Cycle):
            cycles.append(kind.length)
        elif isinstance(kind, Theta):
            thetas.append((kind.l, kind.p, kind.q))
    return BlockInventory(edge_blocks, tuple(sorted(cycles)), tuple(sorted(thetas)))


def block_subgraph(b: Block) -> Graph:
    """A block as a standalone graph, vertices relabeled to 0..k-1 in sorted order."""
    order = {v: i for i, v in enumerate(sorted(b.vertices))}
    return Graph.from_edges(len(order), [(order[u], order[v]) for u, v in b.edges])
