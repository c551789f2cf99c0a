"""Brute-force oracle and identity checkers backing the closed forms.

Everything here is exact: the oracle runs fraction-free elimination on the
actual distance matrix, and each identity checker writes down a closed-form
integer matrix (an inverse scaled to integers, or a congruence transport),
checks one determinant and compares one product with its target entry by
entry. The theta transport is sparse, so its product is formed blockwise over
its nonzeros; the cycle matrices are circulant, so only the first row of
their product is formed. CLAIMS lists the identities that `verify` proves,
with the parameters and printed labels of each. verify_graph ties the three
computations together (oracle, block composition over per-block oracles,
closed form) for one graph, and fuzz_campaign runs that over a deterministic
stream of random block graphs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .blocks import block_row, classify_graph
from .formulas import MAX_ORACLE_BLOCK, block_oracle, compose_ghh, det_cof_closed
from .graphs import (
    BlockRequest,
    Graph,
    cycle_graph,
    distance_matrix,
    labeled_theta,
    random_block_graph,
)
from .linalg import (
    DetCof,
    IntMatrix,
    bareiss_detcof,
    mat_mul,
    mat_vec,
    transpose,
)


def det_cof_oracle(g: Graph) -> DetCof:
    """(det, cof) straight from the whole graph's distance matrix, no closed
    forms and no block decomposition."""
    return bareiss_detcof(distance_matrix(g))


def _cycle_inverse_formula(k: int) -> IntMatrix:
    # k(k+1) times the paper's D^{-1} = -2I - C^k - C^{k+1} + (2k+1)/(k(k+1)) J, C the cyclic shift
    n, scale = 2 * k + 1, k * (k + 1)
    return [
        [2 * k + 1 - scale * (2 * int(i == j) + int(j == (i + k) % n) + int(j == (i + k + 1) % n)) for j in range(n)]
        for i in range(n)
    ]


def _cycle_inverse_scaled(k: int) -> Optional[IntMatrix]:
    """S = k(k+1) D^{-1} for D = D(C_{2k+1}), proved, or None if a check fails.

    S is the paper's inverse scaled to integers by _cycle_inverse_formula. It
    is proved by det D = k(k+1) and D S = k(k+1) I. D and S are checked entry
    by entry to be circulant, each row its first row rotated, and a product of
    circulant matrices is circulant, so D S = k(k+1) I follows from its first
    row, which is compared with k(k+1) e_0.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = 2 * k + 1
    scale = k * (k + 1)
    d = distance_matrix(cycle_graph(n))
    if bareiss_detcof(d).det != scale:
        return None
    s = _cycle_inverse_formula(k)
    if not all(len(a) == len(a[0]) == n and all(row == a[0][-i:] + a[0][:-i] for i, row in enumerate(a)) for a in (d, s)):
        return None
    return s if mat_vec(transpose(s), d[0]) == [scale] + [0] * (n - 1) else None


def cycle_inverse_checks(k: int) -> tuple[bool, bool]:
    """(inverse_ok, scalars_ok) for the odd cycle C_{2k+1}, from one proof.

    inverse_ok: det D = k(k+1) and the explicit inverse
    D^{-1} = -2I - C^k - C^{k+1} + (2k+1)/(k(k+1)) J, where C is the cyclic
    shift, multiplied out as k(k+1) D^{-1} exactly in integers.

    scalars_ok: with v = (1, 2, ..., k, k+1, k, ..., 2, 1) the three forms
    v D^{-1} v = (k+1)/k, v D^{-1} 1 = (k+1)/k, 1 D^{-1} 1 = (2k+1)/(k(k+1)).
    They are evaluated on the proved integer matrix k(k+1) D^{-1}, so they
    must come to (k+1)^2, (k+1)^2 and 2k+1. Both are False when the proof fails.
    """
    s = _cycle_inverse_scaled(k)
    if s is None:
        return False, False
    v = list(range(1, k + 2)) + list(range(k, 0, -1))
    one = [1] * (2 * k + 1)
    (v_s_v,) = mat_vec([v], mat_vec(s, v))
    v_s_one, one_s_one = mat_vec([v, one], mat_vec(s, one))
    return True, v_s_v == (k + 1) ** 2 and v_s_one == (k + 1) ** 2 and one_s_one == 2 * k + 1


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


def _build_transport(k: int, s: int) -> IntMatrix:
    # The lower rows [X | T] of N = [[I, 0], [X, T]], which transports
    # D(H) to D(G); the top rows [I, 0] are implicit, and
    # theta_congruence_checks checks that N transports. With m = k + s and
    # 0-based columns, row 0 of X is zero, row 1 is e_0 - e_s and rows
    # 2..m-1 are each e_{s-1} - e_s.
    m = k + s
    x = [[0] * m for _ in range(m)]
    x[1][0], x[1][s] = 1, -1
    for row in x[2:]:
        row[s - 1], row[s] = 1, -1
    t = _transfer_matrix(k, s)
    return [x_row + t_row for x_row, t_row in zip(x, t)]


def _transport_product(xt: IntMatrix, d: IntMatrix) -> IntMatrix:
    """N' d N'^T for a square d of order 2m + 1, where
    N' = [[I, 0, 0], [X, T, 0], [0, 0, 1]] is given by its middle rows
    xt = [X | T], m x 2m. N' d keeps the first m rows and the last row of d,
    so the product is formed blockwise as (N' (N' d)^T)^T.
    """
    m = len(xt)
    for _ in range(2):
        d = transpose(d[:m] + mat_mul(xt, d[: 2 * m]) + d[2 * m :])
    return d


def theta_congruence_checks(k: int, s: int) -> tuple[bool, bool]:
    """(plain_ok, pendant_ok): exact congruences between the labeled thetas
    H = theta(1,2s,2k) and G = theta(1,2s-2,2k+2), plain and with the pendant
    vertex H' and G'.

    N = [[I, 0], [X, T]] is the closed-form integer matrix of _build_transport,
    extended by a 1 block for the pendant vertex to N'. N is block lower
    triangular, so det N = det T; with det T = +-1, so that the congruence
    preserves the determinant, one product N' D(H') N'^T is formed blockwise.
    pendant_ok: it equals D(G') entry by entry. plain_ok: the 2(k+s)-vertex
    cores of D(H') and D(G') equal the plain D(H) and D(G), and the product's
    leading core block, which is N core(D(H')) N^T, equals D(G).
    """
    if k < 2 or s < 2:
        raise ValueError("need k >= 2 and s >= 2")
    m = k + s
    size = 2 * m
    dh, dg = distance_matrix(labeled_theta(k, s)), distance_matrix(labeled_theta(k + 1, s - 1))
    dh_p = distance_matrix(labeled_theta(k, s, pendant=True))
    dg_p = distance_matrix(labeled_theta(k + 1, s - 1, pendant=True))
    core_h = [row[:size] for row in dh_p[:size]]
    core_g = [row[:size] for row in dg_p[:size]]
    xt = _build_transport(k, s)
    det_n = bareiss_detcof([row[m:] for row in xt]).det
    if det_n * det_n != 1:
        return False, False
    product = _transport_product(xt, dh_p)
    plain_ok = core_h == dh and core_g == dg and [row[:size] for row in product[:size]] == dg
    return plain_ok, product == dg_p


class Claim(NamedTuple):
    """One identity checker and what `verify` runs it on: labels names each
    verdict its check returns, in order, and params holds one argument tuple
    per run. check is the checker's name in this module, looked up at each
    tally, so that a binding patched from outside is the one that runs."""

    labels: tuple[str, ...]
    check: str
    params: tuple[tuple[int, ...], ...]


CLAIMS = (
    Claim(
        ("cycle inverse identity (k<=12)", "scalar identities (k<=12)"),
        "cycle_inverse_checks",
        tuple((k,) for k in range(1, 13)),
    ),
    Claim(
        ("theta congruence (k,s in 2..6)", "theta pendant congruence (k,s in 2..6)"),
        "theta_congruence_checks",
        tuple((k, s) for k in range(2, 7) for s in range(2, 7)),
    ),
)


def claim_tallies(claim: Claim) -> list[int]:
    """How many of claim.params pass, for each verdict column; the check
    runs once per parameter and feeds every column."""
    check = globals()[claim.check]
    return [sum(column) for column in zip(*(check(*args) for args in claim.params))]


@dataclass
class VerifyReport:
    """Outcome of cross-checking one graph; serializes to one JSON object."""

    n: int
    edge_count: int
    blocks: list[dict]
    oracle: DetCof
    ghh: Optional[DetCof]
    closed: Optional[DetCof]
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

    The graph is decomposed once, and its blocks feed both the closed form
    and block_oracle, the block oracle that det_cof_closed runs on its
    unsupported blocks. Here it values every block, eliminates each distinct
    block once, and raises BlockTooLargeError when the blocks are over its
    budget; that refusal counts distinct blocks, supported ones included.
    The whole-graph oracle, which never decomposes, guards that
    decomposition. Each block's value in the closed form must equal that
    block's own oracle value, and an ArithmeticError from the closed form's
    cross-check fails the graph with closed None; the note names either
    failure. For K1 only the determinant is compared: the literal cofactor
    sum of the 1x1 zero matrix is 1 while the block convention assigns 0.
    """
    start = time.perf_counter_ns()
    oracle = det_cof_oracle(g)
    classified = classify_graph(g)
    block_values = block_oracle(block for block, _ in classified)
    rows = [block_row(kind, value) for (_, kind), value in zip(classified, block_values)]
    ghh = compose_ghh(block_values) if block_values else None
    try:
        result = det_cof_closed(g, classified)
    except ArithmeticError as exc:
        # the census formula and the block composition disagree
        closed, passed, note = None, False, str(exc)
    else:
        closed = result.detcof
        if g.n == 1:
            passed = oracle.det == 0 and closed.det == 0
            note = "single vertex: determinant compared, cofactor convention differs"
        else:
            mismatches = [
                f"block {i} ({row['kind']}): closed form ({value.det}, {value.cof}) != block oracle ({own.det}, {own.cof})"
                for i, ((_, value), own, row) in enumerate(zip(result.blocks, block_values, rows))
                if value != own
            ]
            passed = not mismatches and ghh == oracle == closed
            note = "; ".join(mismatches)
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
