"""Slow, obviously correct references that the tests check the package against.

The package computes determinants and cofactor sums by fraction-free
elimination in integers only. These routines check it from outside: rational
Gaussian elimination and Gauss-Jordan inversion over Fraction, first-row
cofactor expansion, and the cofactor sum both as det(A + J) - det(A) and
straight from its definition.

The package finds and classifies blocks in one lowpoint DFS that also decides
connectivity. The two-pass decomposition here checks it: a BFS connectivity
test first, then the DFS popping one edge at a time, then an explicit degree
count per block.
"""

from collections import Counter
from fractions import Fraction
from typing import Sequence

from distdet.blocks import Block, BlockKind, Cycle, Edge, Theta, Unsupported, theta_params
from distdet.graphs import DisconnectedGraphError, Graph, bfs_distances
from distdet.linalg import bareiss_det

# cost guard for the factorial-time cross-check routines
_MINOR_LIMIT = 8


class SingularMatrixError(ValueError):
    """Raised when an exact inverse of a singular matrix is requested."""


def _square_size(a) -> int:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix not square")
    return n


def rat_det(a) -> Fraction:
    """Determinant by rational Gaussian elimination; accepts int or Fraction entries."""
    n = _square_size(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def rat_inverse(a) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over Fraction."""
    n = _square_size(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        m[k] = [x / pivot for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return [row[n:] for row in m]


def det_cofactor_expansion(a: Sequence[Sequence[int]]) -> int:
    """First-row cofactor expansion, as an independent cross-check oracle."""
    n = _square_size(a)
    if n > _MINOR_LIMIT:
        raise ValueError(f"cofactor expansion limited to n <= {_MINOR_LIMIT}")
    return _det_expand([list(row) for row in a])


def _det_expand(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += sign * m[0][j] * _det_expand(minor)
        sign = -sign
    return total


def cof_sum(a: Sequence[Sequence[int]]) -> int:
    """Sum of all n^2 signed cofactors, via cof(A) = det(A + J) - det(A)."""
    n = _square_size(a)
    if n == 0:
        raise ValueError("cofactor sum needs at least a 1x1 matrix")
    shifted = [[x + 1 for x in row] for row in a]
    return bareiss_det(shifted) - bareiss_det(a)


def cof_sum_minors(a: Sequence[Sequence[int]]) -> int:
    """Cofactor sum straight from the definition, one signed minor per entry."""
    n = _square_size(a)
    if n == 0:
        raise ValueError("cofactor sum needs at least a 1x1 matrix")
    if n > _MINOR_LIMIT:
        raise ValueError(f"minor enumeration limited to n <= {_MINOR_LIMIT}")
    total = 0
    for i in range(n):
        rows = [a[r] for r in range(n) if r != i]
        for j in range(n):
            minor = [[row[c] for c in range(n) if c != j] for row in rows]
            total += (-1) ** (i + j) * _det_expand(minor)
    return total


def is_connected(g: Graph) -> bool:
    """Connectivity by one BFS from vertex 0."""
    if g.n <= 1:
        return True
    if g.n > g.edge_count + 1:
        # too few edges to span n vertices; answered before anything of size n is allocated
        return False
    return min(bfs_distances(g, 0)) >= 0


def biconnected_components(g: Graph) -> list[Block]:
    """Blocks of a connected graph: a BFS connectivity check, then the lowpoint
    DFS with one pop per edge off the edge stack."""
    if not is_connected(g):
        raise DisconnectedGraphError("block decomposition needs a connected graph")
    if g.n <= 1:
        return []
    adj = g.adjacency()
    disc = [-1] * g.n
    low = [0] * g.n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[Block] = []
    timer = 0
    disc[0] = low[0] = timer
    timer += 1
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, neighbors = stack[-1]
        descended = False
        for w in neighbors:
            if disc[w] < 0:
                edge_stack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(adj[w])))
                descended = True
                break
            if w != parent and disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        if descended:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                component = []
                while edge_stack[-1] != (u, v):
                    component.append(edge_stack.pop())
                component.append(edge_stack.pop())
                blocks.append(_make_block(component))
    assert not edge_stack
    return blocks


def _make_block(component: list[tuple[int, int]]) -> Block:
    edges = frozenset((u, v) if u < v else (v, u) for u, v in component)
    vertices = frozenset(v for e in edges for v in e)
    return Block(vertices, edges)


def _block_degrees(b: Block) -> Counter:
    deg: Counter = Counter()
    for u, v in b.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def classify_block(b: Block) -> BlockKind:
    """Edge, Cycle or Theta from the block's counts and explicit degrees."""
    nv, ne = b.vertex_count, b.edge_count
    if nv == 2 and ne == 1:
        return Edge()
    deg = _block_degrees(b)
    if ne == nv and nv >= 3 and all(d == 2 for d in deg.values()):
        return Cycle(nv)
    if ne == nv + 1:
        degree_three = sum(1 for d in deg.values() if d == 3)
        if degree_three == 2 and all(d in (2, 3) for d in deg.values()):
            return Theta(*theta_params(b))
    return Unsupported(f"{nv} vertices, {ne} edges, degrees {sorted(deg.values())}")


def classify_graph(g: Graph) -> list[tuple[Block, BlockKind]]:
    """Every block with its classification, by the two-pass decomposition."""
    return [(b, classify_block(b)) for b in biconnected_components(g)]
