import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdet.blocks import (
    Block,
    Cycle,
    Edge,
    Theta,
    Unsupported,
    biconnected_components,
    census,
    classify_block,
    classify_graph,
    kind_label,
    theta_family,
    theta_params,
)
from distdet.graphs import (
    BlockRequest,
    DisconnectedGraphError,
    Graph,
    attach_path,
    build_theta,
    cycle_graph,
    path_graph,
    random_block_graph,
    triangle_chain,
)
from distdet.verify import random_block_request
import reference
from reference import is_connected


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def census_of(g):
    """The census that det_cof_closed takes of a graph's blocks."""
    return census(kind for _, kind in classify_graph(g))


class TestDecomposition:
    def test_path_splits_into_edges(self):
        blocks = biconnected_components(path_graph(4))
        assert len(blocks) == 3
        assert all(b.vertex_count == 2 and b.edge_count == 1 for b in blocks)

    def test_cycle_is_one_block(self):
        blocks = biconnected_components(cycle_graph(5))
        assert len(blocks) == 1
        assert blocks[0].vertices == frozenset(range(5))

    def test_triangle_with_pendant(self):
        g = attach_path(cycle_graph(3), 0, 1)
        blocks = biconnected_components(g)
        assert sorted(b.edge_count for b in blocks) == [1, 3]

    def test_single_vertex_has_no_blocks(self):
        assert biconnected_components(Graph(1, frozenset())) == []

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            biconnected_components(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_blocks_partition_edges(self):
        for seed in range(8):
            g = random_block_graph(BlockRequest(edges=3, cycles=(3, 6), thetas=((1, 2, 4),)), seed)
            blocks = biconnected_components(g)
            seen = [e for b in blocks for e in b.edges]
            assert len(seen) == len(set(seen)) == g.edge_count
            assert set(seen) == set(g.edges)

    def test_deterministic_order(self):
        g = triangle_chain(9)
        assert biconnected_components(g) == biconnected_components(g)


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1..9 vertices plus any extra edges."""
    n = draw(st.integers(1, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=12))
        edges |= {(min(e), max(e)) for e in extra}
    return Graph.from_edges(n, edges)


def is_cut_vertex(g, v):
    rest = [w for w in range(g.n) if w != v]
    order = {w: i for i, w in enumerate(rest)}
    kept = [(order[a], order[b]) for a, b in g.edges if v not in (a, b)]
    return not is_connected(Graph.from_edges(len(rest), kept))


class TestDecompositionInvariants:
    @settings(deadline=None, max_examples=200)
    @given(connected_graphs())
    def test_blocks_partition_edges_and_share_cut_vertices(self, g):
        blocks = biconnected_components(g)
        assert sum(b.edge_count for b in blocks) == g.edge_count
        assert frozenset().union(*(b.edges for b in blocks)) == g.edges
        shared = {v for v in range(g.n) if sum(v in b.vertices for b in blocks) >= 2}
        assert shared == {v for v in range(g.n) if is_cut_vertex(g, v)}


@st.composite
def any_graphs(draw):
    """Any simple graph on 1..10 vertices, connected or not."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=20))
    return Graph.from_edges(n, {(min(e), max(e)) for e in pairs})


def classified_or_error(classify, g):
    try:
        return classify(g)
    except DisconnectedGraphError as exc:
        return ("disconnected", str(exc))


class TestAgainstTwoPassReference:
    """The one-DFS decomposition against the BFS-then-DFS reference: the same
    blocks in the same order with the same kinds, or the same error."""

    @settings(deadline=None, max_examples=300)
    @given(any_graphs())
    def test_random_graphs(self, g):
        assert classified_or_error(classify_graph, g) == classified_or_error(reference.classify_graph, g)

    @pytest.mark.parametrize(
        "g",
        [
            # enough edges to span every vertex, yet disconnected: only a traversal can tell
            Graph.from_edges(5, complete_graph(4).edges),
            Graph.from_edges(5, [(u + 1, v + 1) for u, v in complete_graph(4).edges]),
            Graph.from_edges(8, list(cycle_graph(4).edges) + [(u + 4, v + 4) for u, v in cycle_graph(4).edges]),
        ],
    )
    def test_disconnected_with_enough_edges(self, g):
        assert g.n <= g.edge_count + 1 and not is_connected(g)
        assert classified_or_error(classify_graph, g) == classified_or_error(reference.classify_graph, g)

    def test_fuzz_stream_and_families(self):
        graphs = [triangle_chain(n) for n in range(1, 30)]
        graphs += [build_theta(*t) for t in [(1, 2, 2), (2, 2, 2), (2, 2, 7), (3, 4, 5), (1, 6, 8)]]
        graphs.append(Graph.from_edges(5, [(0, 1)] + [(u + 1, v + 1) for u, v in complete_graph(4).edges]))
        for index in range(40):
            # the graphs verify's fuzz campaign draws
            rng = random.Random(index)
            graphs.append(random_block_graph(random_block_request(40, rng), rng.randrange(2**32)))
        for g in graphs:
            assert classify_graph(g) == reference.classify_graph(g)


def glued_end_to_end(pieces):
    """The pieces in a row, vertex 0 of each identified with the last vertex of the one before."""
    edges = []
    offset = 0
    for piece in pieces:
        edges += [(u + offset, v + offset) for u, v in piece.edges]
        offset += piece.n - 1
    return Graph.from_edges(offset + 1, edges)


class TestScaling:
    def test_two_hundred_thousand_vertices(self):
        # a quadratic edge-stack scan or a recursive DFS would not finish in time
        g = glued_end_to_end([path_graph(100_001)] + [cycle_graph(251), build_theta(2, 2, 251)] * 200)
        assert g.n > 200_000
        start = time.perf_counter()
        classified = classify_graph(g)
        assert time.perf_counter() - start < 30
        kinds = census(kind for _, kind in classified)
        assert kinds.edge_blocks == 100_000
        assert kinds.cycle_lengths == (251,) * 200
        assert kinds.theta_triples == ((2, 2, 251),) * 200


class TestClassification:
    def test_edge(self):
        (b,) = biconnected_components(path_graph(2))
        assert classify_block(b) == Edge()
        assert kind_label(Edge()) == "edge"

    def test_cycle(self):
        (b,) = biconnected_components(cycle_graph(7))
        assert classify_block(b) == Cycle(7)
        assert kind_label(Cycle(7)) == "cycle(7)"

    def test_theta(self):
        (b,) = biconnected_components(build_theta(2, 3, 4))
        assert classify_block(b) == Theta(2, 3, 4)
        assert kind_label(Theta(2, 3, 4)) == "theta(2,3,4)"

    def test_complete_graph_unsupported(self):
        (b,) = biconnected_components(complete_graph(4))
        kind = classify_block(b)
        assert isinstance(kind, Unsupported)
        assert "unsupported" in kind_label(kind)

    def test_wrong_degree_pattern_unsupported(self):
        # |E| = |V| + 1 with a degree-4 vertex: two triangles sharing a vertex.
        # A real decomposition splits it at the cut vertex, so feed
        # classify_block a hand-made Block to exercise the degree guard.
        bowtie = frozenset({(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)})
        kind = classify_block(Block(frozenset(range(5)), bowtie))
        assert isinstance(kind, Unsupported)
        g = Graph.from_edges(5, list(bowtie))
        assert len(biconnected_components(g)) == 2

    @pytest.mark.parametrize("triple", [(1, 2, 2), (1, 2, 4), (2, 2, 2), (2, 2, 5), (3, 4, 5), (2, 3, 3)])
    def test_theta_params_round_trip(self, triple):
        (b,) = biconnected_components(build_theta(*triple))
        assert theta_params(b) == triple

    def test_theta_params_rejects_cycle(self):
        (b,) = biconnected_components(cycle_graph(4))
        with pytest.raises(ValueError):
            theta_params(b)


class TestThetaFamily:
    @pytest.mark.parametrize(
        "triple, family",
        [
            ((1, 2, 2), "one-even-even"),
            ((1, 4, 6), "one-even-even"),
            ((2, 2, 2), "two-two-two"),
            ((2, 2, 3), "two-two-odd"),
            ((2, 2, 9), "two-two-odd"),
            ((1, 2, 3), "zero"),
            ((2, 2, 4), "zero"),
            ((2, 3, 3), "zero"),
            ((3, 4, 5), "zero"),
        ],
    )
    def test_families(self, triple, family):
        assert theta_family(*triple) == family


class TestInventory:
    def test_worked_composite(self):
        g = random_block_graph(BlockRequest(edges=1, cycles=(3,), thetas=((1, 2, 2),)), seed=7)
        inv = census_of(g)
        assert inv.edge_blocks == 1
        assert inv.cycle_lengths == (3,)
        assert inv.theta_triples == ((1, 2, 2),)
        assert inv.block_count() == 3
        assert not inv.has_zero_block
        assert inv.theta_one_even_pairs == ((2, 2),)
        assert inv.theta_222_count == 0
        assert inv.theta_22q_values == ()

    def test_census_properties(self):
        req = BlockRequest(edges=2, cycles=(3, 5), thetas=((1, 2, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3)))
        inv = census_of(random_block_graph(req, seed=3))
        assert inv.edge_blocks == 2
        assert inv.cycle_lengths == (3, 5)
        assert inv.theta_one_even_pairs == ((2, 2),)
        assert inv.theta_222_count == 1
        assert inv.theta_22q_values == (3,)
        assert inv.zero_theta_triples == ((2, 3, 3),)
        assert inv.has_zero_block

    def test_even_cycle_flags_zero(self):
        inv = census_of(cycle_graph(6))
        assert inv.even_cycles == (6,)
        assert inv.has_zero_block

    def test_single_vertex_inventory(self):
        inv = census_of(Graph(1, frozenset()))
        assert inv.block_count() == 0

    def test_census_leaves_unsupported_out(self):
        # K4 glued to one edge at vertex 1: only the edge block is counted
        merged = Graph.from_edges(5, [(0, 1)] + [(u + 1, v + 1) for u, v in complete_graph(4).edges])
        inv = census_of(merged)
        assert inv.block_count() == inv.edge_blocks == 1

    def test_round_trip_with_generator(self):
        for seed in range(15):
            req = BlockRequest(edges=seed % 4, cycles=(3, 4, 7)[: 1 + seed % 3], thetas=((1, 2, 2), (2, 2, 3))[: 1 + seed % 2])
            inv = census_of(random_block_graph(req, seed))
            assert inv.edge_blocks == req.edges
            assert inv.cycle_lengths == tuple(sorted(req.cycles))
            assert inv.theta_triples == tuple(sorted(req.thetas))

    def test_classify_graph_includes_unsupported(self):
        # K4 glued to one edge at vertex 1
        k4 = complete_graph(4)
        merged = Graph.from_edges(5, [(0, 1)] + [(u + 1, v + 1) for u, v in k4.edges])
        labels = [kind_label(kind) for _, kind in classify_graph(merged)]
        assert "edge" in labels
        assert any(label.startswith("unsupported") for label in labels)
