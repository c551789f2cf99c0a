"""Slow, obviously correct references that the tests check the package against.

The package computes determinants and cofactor sums by fraction-free
elimination in integers only. These routines check it from outside: rational
Gaussian elimination and Gauss-Jordan inversion over Fraction, first-row
cofactor expansion, and the cofactor sum both as det(A + J) - det(A) and
straight from its definition. Matrix products are the triple loop of their
definition.

The package writes the theta congruence transport N = [[I, 0], [X, T]] in
closed form and forms its product blockwise. Here N is reconstructed from the
two distance matrices through Graham and Lovasz's path inverse, and the
product is multiplied out densely over the full bordered matrix N'.

The package finds and classifies blocks in one lowpoint DFS that also decides
connectivity, and reads a theta block's path lengths off a walk between its
branch vertices. The two-pass decomposition here checks it: a BFS
connectivity test first, then the DFS popping one edge at a time, then an
explicit degree count per block, and for a theta a BFS from each neighbour of
one branch vertex to the other, with the first branch vertex removed.

The package states the census formula once per distinct block kind. The
per-block census here checks it: sorted cycle lengths and theta triples, each
theta family filtered out of the triples, and one Fraction term per block.

The paper's special-case lemmas live here too, since nothing in the package
needs them: unicyclic_det and cactus_det are the package's own census formula
over cycles and tree edges, so that checking them against the oracle checks
the shipped formula, while theta_prime_det and theta_path_det state the
determinant of a theta with a pendant edge and with an attached path.
"""

from collections import Counter, deque
from fractions import Fraction
from math import prod
from typing import Iterable, Sequence

from distdet.blocks import BlockKind, Cycle, Edge, Theta, Unsupported, census, theta_family
from distdet.formulas import _census_formula
from distdet.graphs import DisconnectedGraphError, Graph, check_theta_triple

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
    return int(rat_det(shifted) - rat_det(a))


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


def mat_mul_naive(a, b):
    """Matrix product by the triple loop of its definition."""
    out = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] += a[i][k] * b[k][j]
    return out


def mat_vec_naive(a, v):
    """Matrix-vector product by the double loop of its definition."""
    out = [0] * len(a)
    for i in range(len(a)):
        for k in range(len(v)):
            out[i] += a[i][k] * v[k]
    return out


def dense_transport_product(xt, d) -> tuple[list[list[int]], Fraction]:
    """(N' d N'^T, det N) with N' = [[I, 0, 0], [X, T, 0], [0, 0, 1]] of order
    2m + 1 built in full from its middle rows xt = [X | T] and multiplied out
    densely. det N' = det N, since the border is 1."""
    m = len(xt)
    top = [[int(i == j) for j in range(2 * m)] for i in range(m)]
    n = [row + [0] for row in top + [list(row) for row in xt]] + [[0] * (2 * m) + [1]]
    return mat_mul_naive(mat_mul_naive(n, d), [list(col) for col in zip(*n)]), rat_det(n)


def path_inverse_scaled(m: int) -> list[list[int]]:
    """Q = 2(m-1) P^{-1} for the path distance matrix P = (|i-j|), m >= 2.

    Graham and Lovasz: D(T)^{-1} = -L/2 + tau tau^T / (2(m-1)) for a tree T
    on m vertices, L its Laplacian and tau = 2 - deg, so
    Q = -(m-1) L + tau tau^T; for the path tau = (1, 0, ..., 0, 1).
    """
    tau = [int(i in (0, m - 1)) for i in range(m)]
    q = [[tau[i] * tau[j] for j in range(m)] for i in range(m)]
    for i in range(m):
        q[i][i] -= (m - 1) * (2 - tau[i])  # the degree is 2 - tau
        if i + 1 < m:
            q[i][i + 1] += m - 1
            q[i + 1][i] += m - 1
    return q


def reconstructed_transport(dg, dh, t):
    """The lower rows [X | T] of the transport N = [[I, 0], [X, T]] of dh to
    dg, reconstructed from the matrices themselves, or None.

    dg and dh split into quadrants [[P, A^T], [A, P]] and [[P, B^T], [B, P]]
    over the same path matrix P = (|i-j|) of order m = len(t). Then
    N dh N^T = dg forces X = (A - T B) P^{-1}, which is formed as
    (A - T B) Q / (2(m-1)) with Q from path_inverse_scaled. None when the
    quadrants are not P or X is not integral.
    """
    m = len(t)
    p = [[abs(i - j) for j in range(m)] for i in range(m)]
    for mat in (dg, dh):
        if [row[:m] for row in mat[:m]] != p or [row[m:] for row in mat[m:]] != p:
            return None
    a = [row[:m] for row in dg[m:]]
    tb = mat_mul_naive(t, [row[:m] for row in dh[m:]])
    scale = 2 * (m - 1)
    x_scaled = mat_mul_naive([[x - y for x, y in zip(r, s)] for r, s in zip(a, tb)], path_inverse_scaled(m))
    if any(entry % scale for row in x_scaled for entry in row):
        return None
    return [[entry // scale for entry in x_scaled[i]] + list(t[i]) for i in range(m)]


def is_connected(g: Graph) -> bool:
    """Connectivity by one BFS from vertex 0."""
    if g.n <= 1:
        return True
    if g.n > g.edge_count + 1:
        # too few edges to span n vertices; answered before anything of size n is allocated
        return False
    adj = g.adjacency()
    seen = {0}
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def biconnected_components(g: Graph) -> list[frozenset[tuple[int, int]]]:
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
    blocks: list[frozenset[tuple[int, int]]] = []
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


def _make_block(component: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u < v else (v, u) for u, v in component)


def _block_degrees(b: frozenset[tuple[int, int]]) -> Counter:
    deg: Counter = Counter()
    for u, v in b:
        deg[u] += 1
        deg[v] += 1
    return deg


def classify_block(b: frozenset[tuple[int, int]]) -> BlockKind:
    """Edge, Cycle or Theta from the block's counts and explicit degrees."""
    nv, ne = len({v for e in b for v in e}), len(b)
    if nv == 2 and ne == 1:
        return Edge()
    deg = _block_degrees(b)
    if ne == nv and nv >= 3 and all(d == 2 for d in deg.values()):
        return Cycle(nv)
    if ne == nv + 1:
        degree_three = sum(1 for d in deg.values() if d == 3)
        if degree_three == 2 and all(d in (2, 3) for d in deg.values()):
            return Theta(*theta_triple(b))
    return Unsupported(f"{nv} vertices, {ne} edges, degrees {sorted(deg.values())}")


def theta_triple(b: frozenset[tuple[int, int]]) -> tuple[int, int, int]:
    """Sorted path lengths of a theta block: with one branch vertex removed,
    each of its three neighbours lies on one path, and a BFS from it to the
    other branch vertex is one step shorter than that path."""
    adj: dict[int, list[int]] = {}
    for u, v in b:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start, goal = (v for v in adj if len(adj[v]) == 3)
    lengths = []
    for first in adj[start]:
        dist = {first: 0}
        queue = deque([first])
        while goal not in dist:
            u = queue.popleft()
            for w in adj[u]:
                if w != start and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        lengths.append(dist[goal] + 1)
    return tuple(sorted(lengths))


def classify_graph(g: Graph) -> list[tuple[frozenset[tuple[int, int]], BlockKind]]:
    """Every block with its classification, by the two-pass decomposition."""
    return [(b, classify_block(b)) for b in biconnected_components(g)]


def census_formula(kinds: Sequence[BlockKind]) -> tuple[int, int]:
    """(det, cof) of a graph with these supported blocks by the census
    formula, one block at a time; (0, 0) if any block is an even cycle or a
    theta outside the three non-zero families."""
    edges = sum(1 for kind in kinds if isinstance(kind, Edge))
    cycles = sorted(kind.length for kind in kinds if isinstance(kind, Cycle))
    thetas = sorted((kind.l, kind.p, kind.q) for kind in kinds if isinstance(kind, Theta))
    pairs = [(p, q) for l, p, q in thetas if l == 1 and p % 2 == 0 and q % 2 == 0]
    s = sum(1 for triple in thetas if triple == (2, 2, 2))
    odd_qs = [q for l, p, q in thetas if l == 2 and p == 2 and q % 2 == 1]
    if any(c % 2 == 0 for c in cycles) or len(pairs) + s + len(odd_qs) < len(thetas):
        return 0, 0
    cof = (
        (-2) ** edges
        * (-1) ** len(pairs)
        * (-16) ** s
        * prod(cycles)
        * prod(p + q for p, q in pairs)
        * prod(4 * q - 8 for q in odd_qs)
    )
    terms = [Fraction(1, 2)] * edges
    terms += [Fraction(l * l - 1, 4 * l) for l in cycles]
    terms += [Fraction(p + q, 4) for p, q in pairs]
    terms += [Fraction(1)] * s
    terms += [Fraction(q * q - 5, 4 * q - 8) for q in odd_qs]
    det = sum(terms, Fraction(0)) * cof
    assert det.denominator == 1
    return int(det), cof


def unicyclic_det(l: int, m: int) -> int:
    """det for one cycle C_l plus m tree edges, any placement: odd l gives
    (-2)^m (l^2 + 2ml - 1)/4, even l gives 0."""
    return cactus_det((l,), m)


def cactus_det(cycle_lengths: Iterable[int], m: int) -> int:
    """det for a cactus of cycles C_{l_1}..C_{l_c} plus m tree edges, by the
    package's census formula."""
    counts = census(map(Cycle, cycle_lengths))
    if m < 0:
        raise ValueError("edge count must be non-negative")
    for cycle in counts:
        if cycle.length < 3:
            raise ValueError(f"cycle length {cycle.length} < 3")
    counts[Edge()] = m
    return _census_formula(counts).det


def theta_prime_det(l: int, p: int, q: int) -> int:
    """det of a theta graph with one pendant edge (any attachment vertex)."""
    l, p, q = check_theta_triple(l, p, q)
    family = theta_family(l, p, q)
    if family == "one-even-even":
        n = p + q
        return ((1 + n) ** 2 - 1) // 2
    if family == "two-two-two":
        # forced by the pendant-edge composition with (det, cof) = (-16, -16)
        # for the 6-vertex block: -2*det - cof = 48
        return 48
    if family == "two-two-odd":
        return -2 * (q * q + 2 * q - 9)
    return 0


def theta_path_det(p: int, q: int, m: int) -> int:
    """det of theta(1, p, q), p and q even, with a path of m edges glued to a
    degree-3 vertex: -n(n+2m)(-2)^(m-2) where n = p + q."""
    if p % 2 or q % 2:
        raise ValueError("p and q must be even")
    check_theta_triple(1, p, q)
    if m < 0:
        raise ValueError("path length must be non-negative")
    n = p + q
    det = Fraction(-n * (n + 2 * m)) * Fraction(-2) ** (m - 2)
    assert det.denominator == 1
    return int(det)
