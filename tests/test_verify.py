import json
import random

import pytest

from distdet.graphs import (
    DisconnectedGraphError,
    Graph,
    attach_path,
    build_theta,
    cycle_graph,
    distance_matrix,
    labeled_theta,
    labeled_theta_shifted,
    path_graph,
    random_block_graph,
)
from distdet.formulas import det_cof_closed
from distdet.linalg import DetCof, bareiss_det
from distdet.verify import (
    block_subgraph,
    congruence_check_theta,
    congruence_check_theta_prime,
    cycle_inverse_identity,
    det_cof_oracle,
    fuzz_campaign,
    random_block_request,
    scalar_identity_checks,
    verify_graph,
)
from distdet.blocks import biconnected_components


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestOracle:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (path_graph(2), (-1, -2)),
            (path_graph(4), (-12, -8)),
            (cycle_graph(5), (6, 5)),
            (build_theta(2, 2, 5), (20, 12)),
        ],
    )
    def test_known_values(self, g, expected):
        assert det_cof_oracle(g) == expected

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            det_cof_oracle(Graph.from_edges(3, [(0, 1)]))

    def test_single_vertex_literal_values(self):
        # the 1x1 zero matrix has determinant 0 and cofactor sum 1
        assert det_cof_oracle(Graph(1, frozenset())) == (0, 1)


def test_block_subgraph_relabels():
    g = attach_path(cycle_graph(3), 2, 2)
    blocks = biconnected_components(g)
    cycle_block = next(b for b in blocks if b.edge_count == 3)
    sub = block_subgraph(cycle_block)
    assert sub == cycle_graph(3)


class TestProofIdentities:
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_cycle_inverse(self, k):
        assert cycle_inverse_identity(k)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_scalar_identities(self, k):
        assert scalar_identity_checks(k)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 2), (2, 4), (4, 3)])
    def test_congruence(self, k, s):
        assert congruence_check_theta(k, s)
        assert congruence_check_theta_prime(k, s)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_congruent_matrices_share_determinant(self, k, s):
        dh = distance_matrix(labeled_theta(k, s))
        dg = distance_matrix(labeled_theta_shifted(k, s))
        assert bareiss_det(dh) == bareiss_det(dg) == -((k + s) ** 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cycle_inverse_identity(0)
        with pytest.raises(ValueError):
            scalar_identity_checks(0)
        with pytest.raises(ValueError):
            congruence_check_theta(1, 2)
        with pytest.raises(ValueError):
            congruence_check_theta_prime(2, 1)


class TestVerifyGraph:
    def test_supported_graph_passes(self):
        report = verify_graph(cycle_graph(5))
        assert report.passed
        assert report.oracle == report.ghh == report.closed == DetCof(6, 5)
        assert report.blocks == [{"kind": "cycle(5)", "det": 6, "cof": 5}]

    def test_unsupported_block_still_composes(self):
        g = Graph.from_edges(5, [(0, 1)] + [(u + 1, v + 1) for u, v in complete_graph(4).edges])
        report = verify_graph(g)
        assert report.passed
        assert report.closed == report.ghh == report.oracle == DetCof(10, 8)
        assert [(row["det"], row["cof"]) for row in report.blocks if row["kind"].startswith("unsupported")] == [(-3, -4)]
        assert "block oracle on 1 unsupported block(s)" in det_cof_closed(g).provenance

    def test_single_vertex_convention(self):
        report = verify_graph(Graph(1, frozenset()))
        assert report.passed
        assert report.oracle == (0, 1)
        assert "convention" in report.note

    def test_fault_injection_fails(self):
        assert not verify_graph(cycle_graph(5), fault=True).passed

    def test_json_dict_schema(self):
        report = verify_graph(path_graph(3))
        payload = report.to_json_dict()
        assert set(payload) == {"n", "edges", "blocks", "oracle", "ghh", "closed", "pass", "micros", "note"}
        text = json.dumps(payload)
        assert json.loads(text)["oracle"] == {"det": 4, "cof": 4}


class TestFuzzCampaign:
    def test_small_campaign_passes(self):
        summary = fuzz_campaign(count=30, max_n=25, seed=5)
        assert summary.all_passed
        assert summary.passed == summary.count == 30
        assert summary.failed_indices == []
        assert len(summary.reports) == 30

    def test_deterministic(self):
        a = fuzz_campaign(count=10, max_n=20, seed=13)
        b = fuzz_campaign(count=10, max_n=20, seed=13)
        assert [r.oracle for r in a.reports] == [r.oracle for r in b.reports]
        assert [r.n for r in a.reports] == [r.n for r in b.reports]

    def test_fault_injection_detected(self):
        summary = fuzz_campaign(count=20, max_n=20, seed=5, fault=True)
        assert not summary.all_passed

    def test_respects_max_n(self):
        summary = fuzz_campaign(count=25, max_n=12, seed=2)
        assert all(r.n <= 12 for r in summary.reports)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            fuzz_campaign(count=0, max_n=10, seed=0)


def test_random_block_request_budget():
    rng = random.Random(0)
    for _ in range(50):
        request = random_block_request(30, rng)
        assert request.block_count() >= 1
        assert 2 <= request.vertex_count() <= 30
        g = random_block_graph(request, rng.randrange(2**32))
        assert g.n == request.vertex_count()
