"""Brute-force oracle and identity checkers backing the closed forms.

Everything here is exact: the oracle runs fraction-free elimination on the
actual distance matrix, the identity checkers compare integer matrices entry
by entry, with closed-form inverses scaled to integers. verify_graph ties the
three computations together (oracle, block composition over per-block
oracles, closed form) for one graph, and fuzz_campaign runs that over a
deterministic stream of random block graphs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .blocks import block_row, block_subgraph, classify_graph
from .formulas import MAX_ORACLE_BLOCK, compose_ghh, det_cof_closed
from .graphs import (
    BlockRequest,
    Graph,
    cycle_graph,
    distance_matrix,
    labeled_theta,
    labeled_theta_shifted,
    random_block_graph,
)
from .linalg import (
    DetCof,
    IntMatrix,
    bareiss_det,
    bareiss_detcof,
    identity,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    transpose,
)


def det_cof_oracle(g: Graph) -> DetCof:
    """(det, cof) straight from the whole graph's distance matrix, no closed
    forms and no block decomposition."""
    return bareiss_detcof(distance_matrix(g))


def _cycle_inverse_scaled(k: int) -> Optional[IntMatrix]:
    """S = k(k+1) D^{-1} for D = D(C_{2k+1}), proved, or None if a check fails.

    The paper's inverse is D^{-1} = -2I - C^k - C^{k+1} + (2k+1)/(k(k+1)) J,
    where C is the cyclic shift, so S = k(k+1)(-2I - C^k - C^{k+1}) + (2k+1)J
    is an integer matrix. It is proved by det D = k(k+1) and D S = k(k+1) I,
    multiplied out and compared entry by entry.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = 2 * k + 1
    scale = k * (k + 1)
    d = distance_matrix(cycle_graph(n))
    if bareiss_det(d) != scale:
        return None
    s = [
        [2 * k + 1 - scale * (2 * int(i == j) + int(j == (i + k) % n) + int(j == (i + k + 1) % n)) for j in range(n)]
        for i in range(n)
    ]
    if mat_mul(d, s) != mat_scale(scale, identity(n)):
        return None
    return s


def cycle_inverse_identity(k: int) -> bool:
    """Check the explicit inverse of the odd cycle distance matrix.

    For C_{2k+1}: det D = k(k+1) and
    D^{-1} = -2I - C^k - C^{k+1} + (2k+1)/(k(k+1)) J
    where C is the cyclic shift. Verified by multiplying out k(k+1) D^{-1}
    exactly in integers.
    """
    return _cycle_inverse_scaled(k) is not None


def scalar_identity_checks(k: int) -> bool:
    """Check the three quadratic-form values used alongside the cycle inverse.

    With v = (1, 2, ..., k, k+1, k, ..., 2, 1) and D = D(C_{2k+1}):
    v D^{-1} v = (k+1)/k, v D^{-1} 1 = (k+1)/k, 1 D^{-1} 1 = (2k+1)/(k(k+1)).
    The forms are evaluated on the proved integer matrix k(k+1) D^{-1}, so
    they must come to (k+1)^2, (k+1)^2 and 2k+1.
    """
    s = _cycle_inverse_scaled(k)
    if s is None:
        return False
    v = list(range(1, k + 2)) + list(range(k, 0, -1))
    one = [1] * (2 * k + 1)
    s_v, s_one = mat_vec(s, v), mat_vec(s, one)

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    return dot(v, s_v) == (k + 1) ** 2 and dot(v, s_one) == (k + 1) ** 2 and dot(one, s_one) == 2 * k + 1


def _transfer_matrix(k: int, s: int) -> list[list[int]]:
    # unit-triangular up to column permutation: subdiagonal shift plus
    # corrections in rows 0 and 1
    m = k + s
    t = [[0] * m for _ in range(m)]
    t[0][0] = 1
    t[1][k] += 1
    t[1][k + s - 1] -= 1
    for i in range(1, m):
        t[i][i - 1] += 1
    return t


def _path_inverse_scaled(m: int) -> IntMatrix:
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


def _build_transport(dg, dh, k: int, s: int) -> Optional[IntMatrix]:
    # Both matrices split into quadrants [[P, X^T], [X, P]] over the same
    # path matrix P[i][j] = |i-j|; N = [[I, 0], [(A - T B) P^{-1}, T]] is the
    # candidate transport of D(H) to D(G). Returns N if that lower-left block
    # is integral, else None; _is_congruence is the check that N transports.
    m = k + s
    p = [[abs(i - j) for j in range(m)] for i in range(m)]
    for mat in (dg, dh):
        if [row[:m] for row in mat[:m]] != p or [row[m:] for row in mat[m:]] != p:
            return None
    a = [row[:m] for row in dg[m:]]
    b = [row[:m] for row in dh[m:]]
    t = _transfer_matrix(k, s)
    scale = 2 * (m - 1)
    x_scaled = mat_mul(mat_sub(a, mat_mul(t, b)), _path_inverse_scaled(m))
    if any(entry % scale for row in x_scaled for entry in row):
        return None
    n_mat = [[int(i == j) for j in range(m)] + [0] * m for i in range(m)]
    n_mat += [[entry // scale for entry in x_scaled[i]] + t[i] for i in range(m)]
    return n_mat


def _is_congruence(n_mat, dh, dg) -> bool:
    """N D(H) N^T = D(G) entry by entry, and det N = +-1 so that the
    congruence preserves the determinant."""
    if mat_mul(mat_mul(n_mat, dh), transpose(n_mat)) != dg:
        return False
    det_n = bareiss_det(n_mat)
    return det_n * det_n == 1


def congruence_check_theta(k: int, s: int) -> bool:
    """Exact congruence between D(theta(1,2s,2k)) and D(theta(1,2s-2,2k+2)).

    Both graphs use the labeled vertex order on 2(k+s) vertices. The check
    reconstructs the transformation N in integers, verifies N D(H) N^T = D(G)
    entry by entry, and that det N * det N^T = 1 (so the congruence preserves
    the determinant).
    """
    if k < 2 or s < 2:
        raise ValueError("need k >= 2 and s >= 2")
    dh = distance_matrix(labeled_theta(k, s))
    dg = distance_matrix(labeled_theta_shifted(k, s))
    n_mat = _build_transport(dg, dh, k, s)
    return n_mat is not None and _is_congruence(n_mat, dh, dg)


def congruence_check_theta_prime(k: int, s: int) -> bool:
    """Same congruence for the pendant-vertex variants, N extended by a 1 block.

    N is built from the 2(k+s)-vertex cores; the bordered product contains
    the core product, so only the bordered one is formed and checked.
    """
    if k < 2 or s < 2:
        raise ValueError("need k >= 2 and s >= 2")
    m = k + s
    dh = distance_matrix(labeled_theta(k, s, pendant=True))
    dg = distance_matrix(labeled_theta_shifted(k, s, pendant=True))
    core_g = [row[: 2 * m] for row in dg[: 2 * m]]
    core_h = [row[: 2 * m] for row in dh[: 2 * m]]
    n_core = _build_transport(core_g, core_h, k, s)
    if n_core is None:
        return False
    bordered = [row + [0] for row in n_core] + [[0] * (2 * m) + [1]]
    return _is_congruence(bordered, dh, dg)


@dataclass
class VerifyReport:
    """Outcome of cross-checking one graph; serializes to one JSON object."""

    n: int
    edge_count: int
    blocks: list[dict]
    oracle: DetCof
    ghh: Optional[DetCof]
    closed: DetCof
    passed: bool
    note: str
    micros: int

    def to_json_dict(self) -> dict:
        def pair(v):
            return None if v is None else {"det": v.det, "cof": v.cof}

        return {
            "n": self.n,
            "edges": self.edge_count,
            "blocks": self.blocks,
            "oracle": pair(self.oracle),
            "ghh": pair(self.ghh),
            "closed": pair(self.closed),
            "pass": self.passed,
            "note": self.note,
            "micros": self.micros,
        }


def verify_graph(g: Graph) -> VerifyReport:
    """Compare oracle, block composition over per-block oracles, and closed form.

    The graph is decomposed once; its blocks feed both the per-block oracles
    and the closed form, and the whole-graph oracle, which never decomposes,
    guards that decomposition. Blocks with no closed form are valued inside
    det_cof_closed by its own block oracle; the composition holds for
    arbitrary blocks. For K1 only the determinant is compared: the literal
    cofactor sum of the 1x1 zero matrix is 1 while the block convention
    assigns 0.
    """
    start = time.perf_counter_ns()
    oracle = det_cof_oracle(g)
    classified = classify_graph(g)
    rows = []
    block_values = []
    for block, kind in classified:
        value = det_cof_oracle(block_subgraph(block))
        rows.append(block_row(kind, value))
        block_values.append(value)
    ghh = compose_ghh(block_values) if block_values else None
    closed = det_cof_closed(g, classified).detcof

    if g.n == 1:
        passed = oracle.det == 0 and closed.det == 0
        note = "single vertex: determinant compared, cofactor convention differs"
    else:
        passed = ghh == oracle == closed
        note = ""
    micros = (time.perf_counter_ns() - start) // 1000
    return VerifyReport(
        n=g.n,
        edge_count=g.edge_count,
        blocks=rows,
        oracle=oracle,
        ghh=ghh,
        closed=closed,
        passed=passed,
        note=note,
        micros=micros,
    )


# all valid sorted triples with l+p+q <= 12, the sampling menu for fuzzing
_THETA_MENU = [
    (l, p, q)
    for total in range(5, 13)
    for l in range(1, total)
    for p in range(max(l, 2), total)
    for q in (total - l - p,)
    if p <= q
]


def random_block_request(max_n: int, rng: random.Random) -> BlockRequest:
    """Sample a block multiset whose assembled graph has at most max_n vertices.

    Every sampled graph also goes through the whole-graph oracle, so max_n is
    held to the block oracle limit, MAX_ORACLE_BLOCK.
    """
    if not 2 <= max_n <= MAX_ORACLE_BLOCK:
        raise ValueError(f"need 2 <= max_n <= {MAX_ORACLE_BLOCK}")
    budget = rng.randint(1, max_n - 1)
    edges = 0
    cycles: list[int] = []
    thetas: list[tuple[int, int, int]] = []
    while budget > 0:
        roll = rng.random()
        if roll < 0.35 or budget < 2:
            edges += 1
            budget -= 1
        elif roll < 0.70:
            length = rng.randint(3, min(9, budget + 1))
            cycles.append(length)
            budget -= length - 1
        else:
            options = [t for t in _THETA_MENU if sum(t) - 2 <= budget]
            if options:
                triple = rng.choice(options)
                thetas.append(triple)
                budget -= sum(triple) - 2
            else:
                edges += 1
                budget -= 1
    return BlockRequest(edges, tuple(cycles), tuple(thetas))


@dataclass
class CampaignSummary:
    count: int
    passed: int
    failed_indices: list[int] = field(default_factory=list)
    reports: list[VerifyReport] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.count


def fuzz_campaign(count: int, max_n: int, seed: int) -> CampaignSummary:
    """Run verify_graph over a deterministic stream of random block graphs."""
    if count < 1:
        raise ValueError("need count >= 1")
    summary = CampaignSummary(count=count, passed=0)
    for index in range(count):
        rng = random.Random(seed * 1_000_000_007 + index)
        request = random_block_request(max_n, rng)
        g = random_block_graph(request, rng.randrange(2**32))
        report = verify_graph(g)
        summary.reports.append(report)
        if report.passed:
            summary.passed += 1
        else:
            summary.failed_indices.append(index)
    return summary
