"""Seeded inputs and expected answers for the benchmark workloads.

Graphs are assembled here from a chosen multiset of blocks, without calling
into distdet, so a change to the package's own generators cannot change what
the benchmark feeds it. The expected (det, cof) of every graph comes from the
per-block table below, composed over the blocks in this file's own code.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

# Per-block (det, cof) of the distance matrix, the paper's table plus K4
# (D(K4) = J - I: det -3, cof det(2J - I) - det(J - I) = -7 + 3 = -4).
EDGE = ("edge",)
K4 = ("k4",)


def block_value(block: tuple) -> tuple[int, int]:
    kind = block[0]
    if kind == "edge":
        return -1, -2
    if kind == "k4":
        return -3, -4
    if kind == "cycle":
        length = block[1]
        if length % 2 == 0:
            return 0, 0
        return (length * length - 1) // 4, length
    l, p, q = block[1:]
    if l == 1 and p % 2 == 0 and q % 2 == 0:
        return -((p + q) ** 2) // 4, -(p + q)
    if (l, p, q) == (2, 2, 2):
        return -16, -16
    if l == 2 and p == 2 and q % 2 == 1:
        return q * q - 5, 4 * q - 8
    return 0, 0


def compose(blocks: list[tuple]) -> tuple[int, int]:
    """Whole-graph (det, cof): cof is the product of the block cofs and det is
    sum_i det_i * prod_{j != i} cof_j, folded one block at a time."""
    det, cof = 0, 1
    for block in blocks:
        d, c = block_value(block)
        det, cof = det * c + d * cof, cof * c
    return det, cof


def block_edges(block: tuple) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of one block on local vertices 0..n-1."""
    kind = block[0]
    if kind == "edge":
        return 2, [(0, 1)]
    if kind == "k4":
        return 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    if kind == "cycle":
        length = block[1]
        return length, [(i, (i + 1) % length) for i in range(length)]
    edges = []
    nxt = 2
    for length in block[1:]:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return nxt, edges


def assemble(blocks: list[tuple], rng: random.Random) -> str:
    """Edge-list text of a connected graph whose blocks are exactly `blocks`.

    Each block after the first is glued at a uniform existing vertex; vertex
    labels and edge order are shuffled so no traversal sees a convenient order.
    """
    order = list(blocks)
    rng.shuffle(order)
    n = 0
    edges: list[tuple[int, int]] = []
    for block in order:
        size, local = block_edges(block)
        if n == 0:
            mapping = list(range(size))
            n = size
        else:
            glue_at, glue_local = rng.randrange(n), rng.randrange(size)
            mapping = [n + w - (w > glue_local) for w in range(size)]
            mapping[glue_local] = glue_at
            n += size - 1
        edges += [(mapping[u], mapping[v]) for u, v in local]
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(edges)
    lines = [str(n)]
    for u, v in edges:
        a, b = label[u], label[v]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    return "\n".join(lines) + "\n"


def digits_of(bits: int) -> int:
    """Lower bound on the decimal digits of an int with this bit length."""
    return int((bits - 1) * 0.30102999566398) + 1 if bits else 1


def _odd(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo | 1, hi + 1, 2)


def _even(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo + (lo & 1), hi + 1, 2)


def small_block(rng: random.Random) -> tuple:
    roll = rng.random()
    if roll < 0.35:
        return EDGE
    if roll < 0.80:
        return ("cycle", _odd(rng, 3, 31))
    if roll < 0.90:
        return ("theta", 1, *sorted((_even(rng, 2, 16), _even(rng, 2, 16))))
    if roll < 0.95:
        return ("theta", 2, 2, 2)
    return ("theta", 2, 2, _odd(rng, 3, 15))


def heavy_block(rng: random.Random) -> tuple:
    # theta(2, 2, q) carries the most result bits per vertex, so the oversized
    # graphs reach the digit limit with the fewest blocks.
    if rng.random() < 0.15:
        return ("cycle", _odd(rng, 21, 31))
    return ("theta", 2, 2, _odd(rng, 21, 41))


def large_block(rng: random.Random) -> tuple:
    roll = rng.random()
    if roll < 0.5:
        return ("cycle", _odd(rng, 201, 1001))
    if roll < 0.8:
        return ("theta", 1, *sorted((_even(rng, 100, 500), _even(rng, 100, 500))))
    return ("theta", 2, 2, _odd(rng, 201, 1001))


def oracle_blocks(n: int) -> list[tuple]:
    """Two K4 blocks among edges, triangles and theta(1, 2, 2) blocks in fixed
    shares, n vertices in all; the K4s make the closed form refuse the graph."""
    thetas = n // 15
    triangles = (n - 7 - 3 * thetas) // 3
    edges = n - 7 - 3 * thetas - 2 * triangles
    return [K4, K4] + [EDGE] * edges + [("cycle", 3)] * triangles + [("theta", 1, 2, 2)] * thetas


# Result size of a many_blocks op: regular ops stay below the 4300-digit
# int-to-str limit with room to spare, oversized ops exceed it on purpose.
REGULAR_MAX_DIGITS = 4000
OVERSIZED_MIN_DIGITS = 4350


def many_blocks_blocks(rng: random.Random, count: int, oversized: bool) -> list[tuple]:
    make = heavy_block if oversized else small_block
    blocks = [make(rng) for _ in range(count)]
    det, cof = compose(blocks)
    while oversized and digits_of(max(abs(det), abs(cof)).bit_length()) < OVERSIZED_MIN_DIGITS:
        blocks.append(make(rng))
        d, c = block_value(blocks[-1])
        det, cof = det * c + d * cof, cof * c
    digits = digits_of(max(abs(det), abs(cof)).bit_length())
    if not oversized and digits > REGULAR_MAX_DIGITS:
        raise ValueError(f"regular many_blocks graph reached {digits} digits")
    return blocks


def big_blocks_blocks(rng: random.Random, n_target: int) -> list[tuple]:
    blocks = []
    n = 1
    while n < n_target:
        block = large_block(rng)
        blocks.append(block)
        n += block_edges(block)[0] - 1
    return blocks


class Op(NamedTuple):
    """One command of a workload and what its output must say."""

    argv: list[str]
    expect: dict


# Input sizes per workload: one round of slots, repeated to make the stream
# of distinct commands. "full" is what the benchmark measures; "smoke" is a
# tiny variant that runs the same code paths in about a second per workload.
# many_blocks slots are (block count, oversized); big_blocks and
# oracle_fallback slots are vertex counts; verify_campaign slots are --count.
SIZES = {
    "full": {
        "many_blocks": {"slots": ((1000, False),) * 4 + ((1500, True),), "rounds": 1},
        "big_blocks": {"slots": (8_000,), "rounds": 12},
        "oracle_fallback": {"slots": (70,), "rounds": 16},
        "verify_campaign": {"slots": (20,), "rounds": 3},
    },
    "smoke": {
        "many_blocks": {"slots": ((20, False), (40, False)), "rounds": 1},
        "big_blocks": {"slots": (2_000,), "rounds": 1},
        "oracle_fallback": {"slots": (20,), "rounds": 2},
        "verify_campaign": {"slots": (3,), "rounds": 1},
    },
}
VERIFY_MAX_N = 40


def make_ops(workload: str, seed: int, work: Path, size: str = "full") -> list[Op]:
    """Write the workload's input files under `work` and return its command
    stream; the same (workload, seed, size) always gives the same stream.

    The block multiset of the i-th command does not depend on the seed; the
    seed decides how those blocks are glued and labelled. So seeds change the
    graphs but hardly the amount of work, and runs with different seeds can be
    compared."""
    slots, rounds = SIZES[size][workload]["slots"], SIZES[size][workload]["rounds"]
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for index in range(rounds * len(slots)):
        slot = slots[index % len(slots)]
        shapes = random.Random(f"{workload}:{size}:{index}")
        if workload == "verify_campaign":
            argv = ["verify", "--count", str(slot), "--max-n", str(VERIFY_MAX_N), "--seed", str(rng.randrange(10**9))]
            ops.append(Op(argv, {"kind": "verify", "count": slot}))
            continue
        if workload == "many_blocks":
            blocks = many_blocks_blocks(shapes, *slot)
        elif workload == "big_blocks":
            blocks = big_blocks_blocks(shapes, slot)
        elif workload == "oracle_fallback":
            blocks = oracle_blocks(slot)
        else:
            raise ValueError(f"unknown workload {workload!r}")
        path = work / f"g{index:03d}.txt"
        path.write_text(assemble(blocks, rng), encoding="utf-8")
        det, cof = compose(blocks)
        ops.append(Op(["det", str(path), "--format", "json"], {"kind": "det", "det": det, "cof": cof}))
    return ops
