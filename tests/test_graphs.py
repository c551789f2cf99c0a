import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdet.graphs import (
    BlockRequest,
    DisconnectedGraphError,
    EdgeListParseError,
    Graph,
    attach_path,
    build_theta,
    check_theta_triple,
    cycle_graph,
    distance_matrix,
    format_edge_list,
    labeled_theta,
    parse_edge_list,
    path_graph,
    random_block_graph,
    triangle_chain,
)
from reference import is_connected


def degrees(g: Graph) -> list[int]:
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


class TestGraphValue:
    def test_from_edges_normalizes_order(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError, match="self-loop at vertex 1"):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match=r"edge \(-1, 2\) out of range for n=3"):
            Graph.from_edges(3, [(2, -1)])
        with pytest.raises(ValueError, match="self-loop at vertex 0"):
            Graph(2, frozenset({(0, 0)}))
        with pytest.raises(ValueError, match=r"edge \(1, 0\) must be stored as \(0, 1\)"):
            Graph(2, frozenset({(1, 0)}))

    def test_rejects_empty_graph(self):
        # det_cof_oracle has no 0 x 0 matrix to value, so no graph may lack vertices
        with pytest.raises(ValueError, match="a graph needs at least one vertex"):
            Graph(0, frozenset())
        with pytest.raises(ValueError, match="a graph needs at least one vertex"):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError, match="a graph needs at least one vertex"):
            path_graph(0)

    def test_adjacency_sorted(self):
        g = Graph.from_edges(4, [(0, 3), (0, 1), (1, 3)])
        assert g.adjacency() == [[1, 3], [0, 3], [], [0, 1]]


block_requests = st.builds(
    BlockRequest,
    edges=st.integers(0, 4),
    cycles=st.lists(st.integers(3, 7), max_size=3).map(tuple),
    thetas=st.lists(st.sampled_from([(1, 2, 2), (1, 2, 4), (2, 2, 2), (2, 2, 3), (2, 3, 4)]), max_size=2).map(tuple),
).filter(lambda request: request.block_count() > 0)


@st.composite
def edge_sets(draw):
    """Any simple graph on 1..12 vertices, edges given in either endpoint order, repeats allowed."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=30))
    return n, pairs


# every separator str.splitlines knows, and so every one parse_edge_list splits on
LINE_SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
comment_texts = st.text(st.one_of(st.characters(), st.sampled_from([sep for sep in LINE_SEPARATORS if len(sep) == 1])))


class TestParse:
    def test_round_trip(self):
        g = cycle_graph(5)
        assert parse_edge_list(format_edge_list(g, comment="c5")) == g

    @settings(deadline=None)
    @given(block_requests, st.integers(0, 2**32 - 1))
    def test_round_trip_block_graphs(self, block_request, seed):
        g = random_block_graph(block_request, seed)
        assert parse_edge_list(format_edge_list(g)) == g

    @settings(deadline=None)
    @given(edge_sets())
    def test_round_trip_from_edges(self, n_pairs):
        n, pairs = n_pairs
        g = Graph.from_edges(n, pairs)
        assert g.edges == {(min(u, v), max(u, v)) for u, v in pairs}
        assert parse_edge_list(format_edge_list(g)) == g

    @settings(deadline=None)
    @given(block_requests, st.integers(0, 2**32 - 1), comment_texts)
    def test_round_trip_with_any_comment(self, block_request, seed, comment):
        g = random_block_graph(block_request, seed)
        assert parse_edge_list(format_edge_list(g, comment=comment)) == g

    @pytest.mark.parametrize("separator", LINE_SEPARATORS)
    def test_every_comment_line_is_a_comment(self, separator):
        assert len(f"a{separator}5".splitlines()) == 2
        text = format_edge_list(path_graph(2), comment=f"a{separator}5{separator}")
        assert text == "# a\n# 5\n2\n0 1\n"

    def test_parsed_edges_take_no_more_room_than_built_ones(self):
        # at this size a frozenset copied straight from a set has twice the table
        g = path_graph(75_001)
        assert sys.getsizeof(parse_edge_list(format_edge_list(g)).edges) == sys.getsizeof(g.edges)

    def test_comments_blanks_crlf(self):
        text = "# header\r\n\r\n3\r\n0 1\r\n# middle\r\n1 2\r\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})

    def test_missing_count(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("# nothing here\n")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("x\n0 1\n", 1),
            ("0\n", 1),
            ("3\n0\n", 2),
            ("3\n0 1 2\n", 2),
            ("3\na b\n", 2),
            ("3\n1 1\n", 2),
            ("3\n0 5\n", 2),
            ("3\n0 1\n1 0\n", 3),
            ("", 1),
            ("# a\n\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(EdgeListParseError) as info:
            parse_edge_list(text)
        assert info.value.line_no == line_no
        assert f"line {line_no}:" in str(info.value)


class TestDistances:
    def test_path_distances(self):
        assert distance_matrix(path_graph(3)) == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_cycle_distances(self):
        expected = [[min(abs(i - j), 4 - abs(i - j)) for j in range(4)] for i in range(4)]
        assert distance_matrix(cycle_graph(4)) == expected

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(g)

    def test_single_vertex(self):
        assert is_connected(Graph(1, frozenset()))
        assert distance_matrix(Graph(1, frozenset())) == [[0]]

    def test_matrix_invariants_on_samples(self):
        for seed in range(5):
            g = random_block_graph(BlockRequest(edges=2, cycles=(5,), thetas=((1, 2, 2),)), seed)
            d = distance_matrix(g)
            for i in range(g.n):
                assert d[i][i] == 0
                for j in range(g.n):
                    assert d[i][j] == d[j][i]
                    assert (d[i][j] > 0) == (i != j)
                    assert d[i][j] == 1 or (min(i, j), max(i, j)) not in g.edges


class TestBuilders:
    def test_build_theta_shape(self):
        g = build_theta(1, 2, 2)
        assert g.n == 4 and g.edge_count == 5
        assert sorted(degrees(g)) == [2, 2, 3, 3]
        # branch vertices are 0 and 1, l=1 means they are adjacent
        assert (0, 1) in g.edges

    def test_build_theta_distances(self):
        assert distance_matrix(build_theta(1, 2, 2)) == [
            [0, 1, 1, 1],
            [1, 0, 1, 1],
            [1, 1, 0, 2],
            [1, 1, 2, 0],
        ]

    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(2, 6), st.integers(2, 6))
    def test_build_theta_counts(self, l, p, q):
        g = build_theta(l, p, q)
        assert g.n == l + p + q - 1
        assert g.edge_count == l + p + q
        assert sorted(degrees(g))[-2:] == [3, 3]

    def test_invalid_theta_triples(self):
        for triple in [(1, 1, 5), (0, 2, 2), (1, 2, 1), (-1, 3, 3)]:
            with pytest.raises(ValueError):
                check_theta_triple(*triple)
            with pytest.raises(ValueError):
                build_theta(*triple)

    def test_check_theta_triple_sorts(self):
        assert check_theta_triple(4, 2, 3) == (2, 3, 4)

    def test_attach_path(self):
        g = attach_path(cycle_graph(3), 1, 2)
        assert g.n == 5
        assert (1, 3) in g.edges and (3, 4) in g.edges
        assert attach_path(g, 0, 0) == g
        with pytest.raises(ValueError):
            attach_path(g, 9, 1)
        with pytest.raises(ValueError):
            attach_path(g, 0, -1)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_triangle_chain_sizes(self, n):
        g = triangle_chain(n)
        assert g.n == n
        assert is_connected(g)
        assert g.edge_count == 3 * ((n - 1) // 2) + (1 if n % 2 == 0 else 0)


class TestLabeledFamilies:
    def test_base_labeling_row(self):
        # first row of D(theta(1,2,2k)) reads 0,1,2,...,k+1,...,2,1
        for k in (1, 2, 4):
            d = distance_matrix(labeled_theta(k))
            n = 2 * k + 2
            assert d[0] == [min(i, n - i) for i in range(n)]
            # vertices 1..2k+1 induce the odd cycle in index order
            cyc = [row[1:] for row in d[1:]]
            m = 2 * k + 1
            assert cyc == [[min(abs(i - j), m - abs(i - j)) for j in range(m)] for i in range(m)]

    def test_quadrants_are_path_matrices(self):
        # labeled_theta(k + 1, s - 1) is the shifted-chord partner on the same vertices
        for k, s in [(2, 3), (3, 2), (5, 1)]:
            d = distance_matrix(labeled_theta(k, s))
            m = k + s
            p = [[abs(i - j) for j in range(m)] for i in range(m)]
            assert [row[:m] for row in d[:m]] == p
            assert [row[m:] for row in d[m:]] == p

    def test_labeled_theta_parameters(self):
        g = labeled_theta(3, 2)
        assert g.n == 10 and g.edge_count == 11
        assert (2, 8) in g.edges
        h = labeled_theta(4, 1)
        assert h.n == 10 and (1, 9) in h.edges

    def test_pendant_variants(self):
        g = labeled_theta(2, 2, pendant=True)
        assert g.n == 9
        assert (0, 8) in g.edges
        assert degrees(g)[8] == 1
        h = labeled_theta(3, 1, pendant=True)
        assert h.n == 9 and (0, 8) in h.edges

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            labeled_theta(0, 1)
        with pytest.raises(ValueError):
            labeled_theta(3, 0)


class TestRandomBlockGraph:
    def test_deterministic(self):
        req = BlockRequest(edges=2, cycles=(3, 5), thetas=((1, 2, 2),))
        assert random_block_graph(req, 11) == random_block_graph(req, 11)
        assert random_block_graph(req, 11) != random_block_graph(req, 12)

    def test_vertex_count_and_connectivity(self):
        req = BlockRequest(edges=3, cycles=(4,), thetas=((2, 2, 3),))
        assert req.vertex_count() == 1 + 3 + 3 + 5
        for seed in range(10):
            g = random_block_graph(req, seed)
            assert g.n == req.vertex_count()
            assert is_connected(g)

    def test_two_edges_make_a_path(self):
        g = random_block_graph(BlockRequest(edges=2), seed=0)
        assert g.n == 3 and g.edge_count == 2

    def test_empty_request_rejected(self):
        with pytest.raises(ValueError):
            random_block_graph(BlockRequest(), seed=0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            BlockRequest(edges=-1)
        with pytest.raises(ValueError):
            BlockRequest(cycles=(2,))
        with pytest.raises(ValueError):
            BlockRequest(thetas=((1, 1, 4),))
