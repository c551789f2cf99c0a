"""Closed-form distance determinants and cofactor sums.

Per-block values for edges, cycles, and theta graphs, composed over the block
tree: for blocks G_1..G_k of a connected graph G,

    cof D(G) = prod_i cof D(G_i)
    det D(G) = sum_i det D(G_i) * prod_{j != i} cof D(G_j)

so the whole-graph values follow from a census of the blocks: with c_k blocks
of each distinct kind k,

    cof D(G) = prod_k cof_k^c_k
    det D(G) = cof D(G) * sum_k c_k det_k / cof_k

and any even cycle or vanishing theta makes both 0. det_cof_closed evaluates
this census formula and the block composition independently and insists they
agree. The composition holds for any block, so a block with no closed form is
valued on its own by one exact elimination pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Optional

from .blocks import (
    BlockKind,
    Cycle,
    Edge,
    Theta,
    Unsupported,
    block_subgraph,
    census,
    classify_block,
    classify_graph,
    theta_family,
)
from .graphs import Graph, check_theta_triple, distance_matrix
from .linalg import DetCof, bareiss_detcof

# The block oracle takes on distinct unsupported blocks of b_i vertices only
# while the sum of b_i^3 stays within MAX_ORACLE_BLOCK^3, so that no accepted
# input runs for much more than 10 s in all. The bordered Bareiss pass grows as
# about b^3.3; at 430 vertices it took 9.8 s on a cycle with two chords and
# 10.7 s on a ladder (shared 2-core x86-64 machine, Python 3.11).
MAX_ORACLE_BLOCK = 430


class BlockTooLargeError(Exception):
    """Blocks over the block oracle budget: computing them would take too
    long, so block_oracle refuses them. It is given the distinct blocks as
    relabelled graphs, in order of first appearance, and vertex_counts holds
    the vertex count of each. The message calls them unsupported only when
    none of them has a closed form."""

    def __init__(self, blocks: tuple[Graph, ...]):
        vertex_counts = tuple(h.n for h in blocks)
        unsupported = all(isinstance(classify_block(h.edges), Unsupported) for h in blocks)
        noun = "unsupported block(s)" if unsupported else "block(s)"
        super().__init__(
            f"{len(vertex_counts)} distinct {noun} of {sum(vertex_counts)} vertices in all are over the block "
            f"oracle budget, the cost of one block at the limit of {MAX_ORACLE_BLOCK} vertices"
        )
        self.vertex_counts = vertex_counts


@dataclass(frozen=True)
class FormulaResult:
    """Whole-graph (det, cof), how it was obtained, and each block's kind and value."""

    det: int
    cof: int
    provenance: str
    blocks: tuple[tuple[BlockKind, DetCof], ...] = ()

    @property
    def detcof(self) -> DetCof:
        return DetCof(self.det, self.cof)


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return x.numerator


def edge_detcof() -> DetCof:
    """Single edge K2: distance matrix [[0,1],[1,0]]."""
    return DetCof(-1, -2)


def cycle_detcof(n: int) -> DetCof:
    """Cycle C_n: ((n^2-1)/4, n) for odd n, (0, 0) for even n."""
    if n < 3:
        raise ValueError(f"cycle length {n} < 3")
    if n % 2 == 0:
        return DetCof(0, 0)
    return DetCof((n * n - 1) // 4, n)


def theta_detcof(l: int, p: int, q: int) -> DetCof:
    """(det, cof) of the theta graph with path lengths l <= p <= q."""
    l, p, q = check_theta_triple(l, p, q)
    family = theta_family(l, p, q)
    if family == "one-even-even":
        n = p + q
        return DetCof(-(n * n // 4), -n)
    if family == "two-two-two":
        return DetCof(-16, -16)
    if family == "two-two-odd":
        return DetCof(q * q - 5, 4 * q - 8)
    return DetCof(0, 0)


def compose_ghh(blocks: Iterable[DetCof]) -> DetCof:
    """Whole-graph (det, cof) from per-block values via the block composition."""
    values = list(blocks)
    if not values:
        raise ValueError("need at least one block")
    cof = prod(b.cof for b in values)
    det = 0
    for i, b in enumerate(values):
        term = b.det
        for j, other in enumerate(values):
            if j != i:
                term *= other.cof
        det += term
    return DetCof(det, cof)


def block_detcof(kind: BlockKind) -> DetCof:
    """Closed-form (det, cof) for one supported block kind."""
    if isinstance(kind, Edge):
        return edge_detcof()
    if isinstance(kind, Cycle):
        return cycle_detcof(kind.length)
    if isinstance(kind, Theta):
        return theta_detcof(kind.l, kind.p, kind.q)
    raise ValueError(f"no closed form for {kind!r}")


def block_oracle(blocks: Iterable[frozenset[tuple[int, int]]]) -> list[DetCof]:
    """(det, cof) of each block in block order, from the block's own distance
    matrix by one bordered Bareiss pass.

    Equal relabelled subgraphs are identical graphs, so each distinct one is
    budgeted and eliminated once, in order of first appearance. Distinct
    blocks of b_i vertices with sum b_i^3 above MAX_ORACLE_BLOCK^3 raise
    BlockTooLargeError before any matrix is built.
    """
    subgraphs = [block_subgraph(block) for block in blocks]
    distinct = dict.fromkeys(subgraphs)
    if sum(h.n**3 for h in distinct) > MAX_ORACLE_BLOCK**3:
        raise BlockTooLargeError(tuple(distinct))
    for h in distinct:
        distinct[h] = bareiss_detcof(distance_matrix(h))
    return [distinct[h] for h in subgraphs]


def det_cof_closed(g: Graph, classified: Optional[list[tuple[frozenset[tuple[int, int]], BlockKind]]] = None) -> FormulaResult:
    """(det, cof) of a connected graph from one block decomposition.

    `classified` is classify_graph(g), for a caller that holds it already;
    without it the graph is decomposed here.

    Edges, cycles and theta blocks take their closed forms; the other blocks
    are valued by block_oracle, which refuses them with BlockTooLargeError
    when they are over its budget. The direct census formula over the
    supported blocks is evaluated independently and must agree with their
    composition; a disagreement would mean a bug and raises ArithmeticError.
    The census value and the oracle values then compose over the block tree.
    """
    if classified is None:
        classified = classify_graph(g)
    if not classified:
        return FormulaResult(0, 0, "single vertex")
    oracle = block_oracle(block for block, kind in classified if isinstance(kind, Unsupported))
    values = iter(oracle)
    blocks = tuple((kind, next(values) if isinstance(kind, Unsupported) else block_detcof(kind)) for _, kind in classified)
    closed = [value for kind, value in blocks if not isinstance(kind, Unsupported)]

    parts = oracle
    if closed:
        whole = _census_formula(census(kind for _, kind in classified))
        cross = compose_ghh(closed)
        if cross != whole:
            raise ArithmeticError(f"census formula {whole} disagrees with block composition {cross}")
        parts = [whole] + oracle
    det, cof = compose_ghh(parts)
    if oracle:
        provenance = f"block oracle on {len(oracle)} unsupported block(s), composed over the block tree"
        if closed:
            provenance = f"block census formula on {len(closed)} supported block(s), " + provenance
    elif cof == 0:
        provenance = "zero block (even cycle or vanishing theta)"
    else:
        provenance = "block census formula, cross-checked by block composition"
    return FormulaResult(det, cof, provenance, blocks)


def _census_term(kind: BlockKind) -> tuple[int, Fraction]:
    """(cof, det / cof) of one supported block kind, with cof 0 for a kind whose
    det and cof both vanish. Stated here apart from block_detcof, so that
    det_cof_closed checks one statement of the closed forms against another."""
    if isinstance(kind, Edge):
        return -2, Fraction(1, 2)
    if isinstance(kind, Cycle):
        l = kind.length
        return (l, Fraction(l * l - 1, 4 * l)) if l % 2 else (0, Fraction(0))
    family = theta_family(kind.l, kind.p, kind.q)
    if family == "one-even-even":
        n = kind.p + kind.q
        return -n, Fraction(n, 4)
    if family == "two-two-two":
        return -16, Fraction(1)
    if family == "two-two-odd":
        factor = 4 * kind.q - 8
        return factor, Fraction(kind.q * kind.q - 5, factor)
    return 0, Fraction(0)


def _census_formula(counts: Mapping[BlockKind, int]) -> DetCof:
    """The census formula, one term per distinct kind; counts is census()."""
    cof = 1
    ratio = Fraction(0)
    for kind, c in counts.items():
        factor, term = _census_term(kind)
        if factor == 0:
            return DetCof(0, 0)
        cof *= factor**c
        ratio += c * term
    return DetCof(_exact_int(ratio * cof), cof)
