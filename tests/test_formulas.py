import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distdet.formulas
from distdet.blocks import Cycle, Edge, Theta, Unsupported, census, classify_graph
from distdet.cli import main
from distdet.formulas import (
    BlockTooLargeError,
    _census_formula,
    block_detcof,
    block_oracle,
    compose_ghh,
    cycle_detcof,
    det_cof_closed,
    edge_detcof,
    theta_detcof,
)
from distdet.graphs import (
    BlockRequest,
    Graph,
    attach_path,
    build_theta,
    cycle_graph,
    format_edge_list,
    path_graph,
    random_block_graph,
    triangle_chain,
)
from distdet.linalg import DetCof
from distdet.verify import det_cof_oracle
import reference
from reference import cactus_det, theta_path_det, theta_prime_det, unicyclic_det


def test_edge_values():
    assert edge_detcof() == DetCof(-1, -2)


class TestCycle:
    @pytest.mark.parametrize("n, expected", [(3, (2, 3)), (5, (6, 5)), (7, (12, 7)), (4, (0, 0)), (6, (0, 0))])
    def test_values(self, n, expected):
        assert cycle_detcof(n) == expected

    def test_against_oracle(self):
        for n in range(3, 15):
            assert cycle_detcof(n) == det_cof_oracle(cycle_graph(n))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            cycle_detcof(2)


class TestUnicyclic:
    @pytest.mark.parametrize("l, m, expected", [(3, 0, 2), (3, 1, -7), (5, 0, 6), (4, 7, 0), (6, 2, 0)])
    def test_values(self, l, m, expected):
        assert unicyclic_det(l, m) == expected

    def test_placement_independence(self):
        for seed in range(6):
            g = random_block_graph(BlockRequest(edges=3, cycles=(5,)), seed)
            assert det_cof_oracle(g).det == unicyclic_det(5, 3)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            unicyclic_det(2, 0)
        with pytest.raises(ValueError):
            unicyclic_det(3, -1)


class TestCactus:
    @pytest.mark.parametrize(
        "lengths, m, expected",
        [((3,), 1, -7), ((3, 5), 0, 28), ((4, 3), 2, 0), ((), 3, -12), ((3, 3, 3), 0, 54)],
    )
    def test_values(self, lengths, m, expected):
        assert cactus_det(lengths, m) == expected

    def test_against_oracle(self):
        for seed in range(6):
            g = random_block_graph(BlockRequest(edges=2, cycles=(3, 7)), seed)
            assert det_cof_oracle(g).det == cactus_det((3, 7), 2)

    def test_rejects_short_cycle(self):
        with pytest.raises(ValueError):
            cactus_det((2, 5), 0)


class TestTheta:
    @pytest.mark.parametrize(
        "triple, expected",
        [
            ((1, 2, 2), (-4, -4)),
            ((1, 2, 4), (-9, -6)),
            ((1, 4, 4), (-16, -8)),
            ((2, 2, 2), (-16, -16)),
            ((2, 2, 3), (4, 4)),
            ((2, 2, 5), (20, 12)),
            ((1, 2, 3), (0, 0)),
            ((2, 3, 3), (0, 0)),
            ((2, 2, 4), (0, 0)),
            ((3, 4, 5), (0, 0)),
        ],
    )
    def test_values(self, triple, expected):
        assert theta_detcof(*triple) == expected

    def test_unsorted_input_is_normalized(self):
        assert theta_detcof(4, 2, 1) == theta_detcof(1, 2, 4)

    def test_against_oracle_sample(self):
        for triple in [(1, 2, 2), (1, 4, 6), (2, 2, 2), (2, 2, 7), (2, 4, 4), (3, 3, 4)]:
            assert theta_detcof(*triple) == det_cof_oracle(build_theta(*triple))

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            theta_detcof(1, 1, 3)


class TestThetaPrime:
    @pytest.mark.parametrize(
        "triple, expected",
        [((1, 2, 2), 12), ((1, 2, 4), 24), ((2, 2, 2), 48), ((2, 2, 3), -12), ((2, 3, 3), 0), ((2, 2, 4), 0)],
    )
    def test_values(self, triple, expected):
        assert theta_prime_det(*triple) == expected

    def test_attachment_independence_sample(self):
        for triple in [(1, 2, 2), (2, 2, 2), (2, 2, 3)]:
            g = build_theta(*triple)
            dets = {det_cof_oracle(attach_path(g, v, 1)).det for v in range(g.n)}
            assert dets == {theta_prime_det(*triple)}

    def test_relation_to_theta(self):
        # cof of the theta block equals -2 det(theta) - det(theta with pendant)
        for triple in [(1, 2, 2), (2, 2, 2), (2, 2, 5), (1, 4, 4), (2, 3, 3)]:
            base = theta_detcof(*triple)
            assert base.cof == -2 * base.det - theta_prime_det(*triple)


class TestThetaPath:
    @pytest.mark.parametrize(
        "p, q, m, expected",
        [(2, 2, 0, -4), (2, 2, 1, 12), (2, 4, 3, 144), (4, 4, 2, -96), (2, 2, 5, 448)],
    )
    def test_values(self, p, q, m, expected):
        assert theta_path_det(p, q, m) == expected

    def test_matches_theta_and_prime(self):
        for p, q in [(2, 2), (2, 4), (4, 6)]:
            assert theta_path_det(p, q, 0) == theta_detcof(1, p, q).det
            assert theta_path_det(p, q, 1) == theta_prime_det(1, p, q)

    def test_against_oracle(self):
        for p, q, m in [(2, 2, 2), (2, 4, 3), (4, 4, 1)]:
            g = attach_path(build_theta(1, p, q), 0, m)
            assert det_cof_oracle(g).det == theta_path_det(p, q, m)

    def test_rejects_odd_lengths(self):
        with pytest.raises(ValueError):
            theta_path_det(2, 3, 1)
        with pytest.raises(ValueError):
            theta_path_det(2, 2, -1)


class TestCompose:
    def test_single_block_identity(self):
        assert compose_ghh([DetCof(5, 7)]) == DetCof(5, 7)

    def test_worked_three_block_example(self):
        parts = [DetCof(-1, -2), DetCof(2, 3), DetCof(-4, -4)]
        assert compose_ghh(parts) == DetCof(52, 24)

    def test_zero_cofactor_block(self):
        assert compose_ghh([DetCof(0, 0), DetCof(2, 3)]) == DetCof(0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose_ghh([])


even = st.integers(1, 10).map(lambda k: 2 * k)
odd = st.integers(1, 20).map(lambda k: 2 * k + 1)
theta_kinds = st.one_of(
    st.tuples(even, even).map(lambda pq: Theta(1, *sorted(pq))),
    st.just(Theta(2, 2, 2)),
    odd.map(lambda q: Theta(2, 2, q)),
    st.tuples(st.integers(1, 9), st.integers(2, 9), st.integers(2, 9)).map(lambda t: Theta(*sorted(t))),
)
block_kinds = st.one_of(st.just(Edge()), st.integers(3, 41).map(Cycle), theta_kinds)


@st.composite
def kind_multisets(draw):
    """A shuffled list of supported block kinds, each distinct kind 0..60 times."""
    multiplicities = draw(st.dictionaries(block_kinds, st.integers(0, 60), max_size=4))
    return draw(st.permutations([kind for kind, c in multiplicities.items() for _ in range(c)]))


class TestCensusFormula:
    @settings(deadline=None, max_examples=150)
    @given(kind_multisets())
    @example([])
    def test_against_per_block_reference_and_composition(self, kinds):
        whole = _census_formula(census(kinds))
        assert whole == reference.census_formula(kinds)
        if kinds:
            assert whole == compose_ghh([block_detcof(kind) for kind in kinds])


class TestClosedForm:
    def test_trees_match_graham_pollack(self):
        rng = random.Random(9)
        for n in range(2, 10):
            g = random_block_graph(BlockRequest(edges=n - 1), rng.randrange(2**30))
            result = det_cof_closed(g)
            assert result.det == (-1) ** (n - 1) * (n - 1) * 2 ** (n - 2)
            assert result.cof == (-2) ** (n - 1)

    def test_worked_composite(self):
        g = random_block_graph(BlockRequest(edges=1, cycles=(3,), thetas=((1, 2, 2),)), seed=7)
        result = det_cof_closed(g)
        assert (result.det, result.cof) == (52, 24)
        assert "census" in result.provenance

    def test_zero_block_short_circuit(self):
        g = random_block_graph(BlockRequest(edges=2, cycles=(4,), thetas=((1, 2, 2),)), seed=1)
        result = det_cof_closed(g)
        assert (result.det, result.cof) == (0, 0)
        assert "zero block" in result.provenance

    def test_single_vertex_convention(self):
        result = det_cof_closed(Graph(1, frozenset()))
        assert (result.det, result.cof) == (0, 0)
        assert result.provenance == "single vertex"

    def test_matches_oracle_on_mixed_graphs(self):
        req = BlockRequest(edges=2, cycles=(3, 5), thetas=((2, 2, 3),))
        for seed in range(5):
            g = random_block_graph(req, seed)
            assert det_cof_closed(g).detcof == det_cof_oracle(g)

    def test_unsupported_block_uses_block_oracle(self):
        k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        result = det_cof_closed(k4)
        assert result.detcof == DetCof(-3, -4) == det_cof_oracle(k4)
        assert result.provenance == "block oracle on 1 unsupported block(s), composed over the block tree"
        assert [value for _, value in result.blocks] == [DetCof(-3, -4)]

    def test_path_golden_values(self):
        assert det_cof_closed(path_graph(4)).detcof == DetCof(-12, -8)


def complete_block(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def chorded_cycle_block(n: int) -> tuple[int, list[tuple[int, int]]]:
    """A cycle with two crossing chords: one block, neither cycle nor theta."""
    return n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (1, n // 2 + 1)]


def glue_blocks(g: Graph, pieces, rng: random.Random) -> Graph:
    """g with each (n, edges) piece glued on at a uniformly chosen existing vertex."""
    n = g.n
    edges = list(g.edges)
    for size, local in pieces:
        glue_at = rng.randrange(n)
        mapping = [glue_at] + list(range(n, n + size - 1))
        edges += [(mapping[u], mapping[v]) for u, v in local]
        n += size - 1
    return Graph.from_edges(n, edges)


def fold(values: list[DetCof]) -> DetCof:
    """Block composition as a left fold, independent of compose_ghh."""
    det, cof = 0, 1
    for d, c in values:
        det, cof = det * c + d * cof, cof * c
    return DetCof(det, cof)


class TestBlockOracle:
    def test_unsupported_blocks_glued_to_supported_ones(self):
        rng = random.Random(41)
        for _ in range(30):
            request = BlockRequest(
                edges=rng.randint(0, 3),
                cycles=tuple(rng.choice([3, 4, 5, 7]) for _ in range(rng.randint(0, 2))),
                thetas=tuple(rng.choice([(1, 2, 2), (2, 2, 2), (2, 2, 3), (1, 2, 3)]) for _ in range(rng.randint(0, 2))),
            )
            base = random_block_graph(request, rng.randrange(2**30)) if request.block_count() else Graph(1, frozenset())
            pieces = [
                complete_block(rng.choice([4, 5])) if rng.random() < 0.5 else chorded_cycle_block(rng.randint(5, 9))
                for _ in range(rng.randint(1, 3))
            ]
            g = glue_blocks(base, pieces, rng)
            result = det_cof_closed(g)
            assert result.detcof == det_cof_oracle(g)
            assert "block oracle" in result.provenance
            assert len(result.blocks) == request.block_count() + len(pieces)

    def test_few_unsupported_blocks_among_thousands_of_vertices(self):
        # the whole-graph oracle would eliminate a 2005 x 2005 matrix here
        g = glue_blocks(triangle_chain(1999), [complete_block(4), complete_block(4)], random.Random(3))
        start = time.perf_counter()
        result = det_cof_closed(g)
        elapsed = time.perf_counter() - start
        assert result.detcof == fold([DetCof(2, 3)] * 999 + [DetCof(-3, -4)] * 2)
        assert elapsed < 20, f"{elapsed:.1f}s"

    def test_size_limit_refuses_before_building_a_matrix(self, monkeypatch):
        def no_matrix(g):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(distdet.formulas, "MAX_ORACLE_BLOCK", 4)
        k4 = glue_blocks(path_graph(2), [complete_block(4)], random.Random(0))
        assert det_cof_closed(k4).detcof == fold([DetCof(-1, -2), DetCof(-3, -4)])
        monkeypatch.setattr(distdet.formulas, "distance_matrix", no_matrix)
        with pytest.raises(BlockTooLargeError) as info:
            det_cof_closed(glue_blocks(k4, [chorded_cycle_block(5)], random.Random(0)))
        assert info.value.vertex_counts == (5, 4)  # in block order: the DFS closes the 5-cycle block first

    def test_one_budget_for_all_unsupported_blocks(self, monkeypatch, tmp_path, capsys):
        # budget 6^3 = 216: two copies of K4 cost one K4 (4^3 = 64) and fit;
        # K5 and K5 minus an edge are two distinct blocks (2 * 5^3 = 250) and
        # do not, though each of them is within 6 vertices
        original = distdet.formulas.bareiss_detcof
        eliminations = []

        def counted(a):
            eliminations.append(len(a))
            return original(a)

        monkeypatch.setattr(distdet.formulas, "MAX_ORACLE_BLOCK", 6)
        monkeypatch.setattr(distdet.formulas, "bareiss_detcof", counted)
        two_k4 = glue_blocks(path_graph(2), [complete_block(4), complete_block(4)], random.Random(1))
        assert det_cof_closed(two_k4).detcof == det_cof_oracle(two_k4)
        assert eliminations == [4]
        eliminations.clear()
        k5_minus_edge = (5, complete_block(5)[1][1:])
        two_k5 = glue_blocks(path_graph(2), [complete_block(5), k5_minus_edge], random.Random(1))
        with pytest.raises(BlockTooLargeError) as info:
            det_cof_closed(two_k5)
        assert info.value.vertex_counts == (5, 5)
        path = tmp_path / "two_k5.txt"
        path.write_text(format_edge_list(two_k5))
        assert main(["det", str(path)]) == 3
        err = capsys.readouterr().err
        assert "2 distinct unsupported block(s) of 10 vertices" in err and "limit of 6 vertices" in err
        assert eliminations == []

    def test_budget_lists_distinct_blocks_in_order_of_first_appearance(self, monkeypatch):
        monkeypatch.setattr(distdet.formulas, "MAX_ORACLE_BLOCK", 6)
        pieces = [complete_block(4), chorded_cycle_block(6), complete_block(4), chorded_cycle_block(6)]
        g = glue_blocks(path_graph(2), pieces, random.Random(2))
        with pytest.raises(BlockTooLargeError) as info:
            det_cof_closed(g)
        order = [len({v for e in block for v in e}) for block, kind in classify_graph(g) if isinstance(kind, Unsupported)]
        assert info.value.vertex_counts == tuple(dict.fromkeys(order)) and len(order) == 4

    def test_copies_of_one_block_take_one_elimination(self, monkeypatch):
        original = distdet.formulas.bareiss_detcof
        eliminations = []

        def counted(a):
            eliminations.append(len(a))
            return original(a)

        monkeypatch.setattr(distdet.formulas, "bareiss_detcof", counted)
        k4_chain = glue_blocks(Graph(1, frozenset()), [complete_block(4)] * 6, random.Random(5))
        result = det_cof_closed(k4_chain)
        assert eliminations == [4]
        assert result.detcof == det_cof_oracle(k4_chain)
        assert [value for _, value in result.blocks] == [DetCof(-3, -4)] * 6
        assert result.provenance == "block oracle on 6 unsupported block(s), composed over the block tree"

    def test_block_oracle_values_blocks_in_order_and_distinct_ones_once(self, monkeypatch):
        original = distdet.formulas.bareiss_detcof
        eliminations = []

        def counted(a):
            eliminations.append(len(a))
            return original(a)

        monkeypatch.setattr(distdet.formulas, "bareiss_detcof", counted)
        k4 = frozenset(complete_block(4)[1])
        relabelled_k4 = frozenset((2 * u + 3, 2 * v + 3) for u, v in k4)
        blocks = [frozenset({(0, 1)}), k4, frozenset({(5, 9)}), relabelled_k4]
        assert block_oracle(blocks) == [DetCof(-1, -2), DetCof(-3, -4), DetCof(-1, -2), DetCof(-3, -4)]
        assert eliminations == [2, 4]
        assert block_oracle([]) == [] and eliminations == [2, 4]
