import json
import random
import time

import pytest

import distdet.verify
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
from distdet.cli import CONGRUENCE_RANGE, INVERSE_K_MAX
from distdet.verify import (
    _build_transport,
    _cycle_inverse_scaled,
    _is_congruence,
    _path_inverse_scaled,
    _transfer_matrix,
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
from rational_reference import rat_inverse


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


@pytest.mark.parametrize(
    "family, size",
    [("path", m) for m in range(2, 31)] + [("cycle", k) for k in range(1, INVERSE_K_MAX + 1)],
)
def test_scaled_inverses_match_rational_reference(family, size):
    # the integer closed forms against Fraction Gauss-Jordan on the matrix itself
    if family == "path":
        scale, scaled = 2 * (size - 1), _path_inverse_scaled(size)
        matrix = [[abs(i - j) for j in range(size)] for i in range(size)]
    else:
        scale, scaled = size * (size + 1), _cycle_inverse_scaled(size)
        matrix = distance_matrix(cycle_graph(2 * size + 1))
    assert scaled == [[scale * x for x in row] for row in rat_inverse(matrix)]
    assert all(type(x) is int for row in scaled for x in row)


def _perturb(matrix, i, j):
    out = [list(row) for row in matrix]
    out[i][j] += 1
    return out


class TestProofChecksRejectBadInput:
    """Each check is fed a corrupted input from outside and must say False."""

    @pytest.mark.parametrize("k, entry", [(1, (0, 1)), (3, (2, 2)), (5, (0, 7)), (6, (12, 3))])
    def test_perturbed_cycle_matrix(self, monkeypatch, k, entry):
        monkeypatch.setattr(distdet.verify, "distance_matrix", lambda g: _perturb(distance_matrix(g), *entry))
        assert not cycle_inverse_identity(k)
        assert not scalar_identity_checks(k)

    @pytest.mark.parametrize("k, entry", [(2, (0, 1)), (4, (3, 8))])
    def test_perturbed_cycle_matrix_caught_by_the_product(self, monkeypatch, k, entry):
        # with the determinant check blinded, D S = k(k+1) I alone must reject
        monkeypatch.setattr(distdet.verify, "distance_matrix", lambda g: _perturb(distance_matrix(g), *entry))
        monkeypatch.setattr(distdet.verify, "bareiss_det", lambda d: k * (k + 1))
        assert _cycle_inverse_scaled(k) is None
        assert not cycle_inverse_identity(k)
        assert not scalar_identity_checks(k)

    @pytest.mark.parametrize("k, s, entry", [(2, 2, (0, 0)), (3, 2, (1, 3)), (4, 3, (5, 0)), (2, 4, (2, 1))])
    def test_perturbed_transfer_matrix(self, monkeypatch, k, s, entry):
        monkeypatch.setattr(distdet.verify, "_transfer_matrix", lambda k, s: _perturb(_transfer_matrix(k, s), *entry))
        assert not congruence_check_theta(k, s)
        assert not congruence_check_theta_prime(k, s)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_product_check_rejects_perturbed_target(self, k, s):
        dh = distance_matrix(labeled_theta(k, s))
        dg = distance_matrix(labeled_theta_shifted(k, s))
        n_mat = _build_transport(dg, dh, k, s)
        assert _is_congruence(n_mat, dh, dg)
        size = len(dg)
        for i, j in [(0, 1), (size - 1, 0), (k + s, k + s - 1), (1, size - 2)]:
            assert not _is_congruence(n_mat, dh, _perturb(dg, i, j))

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_pendant_check_rejects_perturbed_pendant_row(self, monkeypatch, k, s):
        # the pendant row lies outside the cores that N is built from, so only
        # the bordered product N D(H) N^T = D(G) can catch it
        shifted = labeled_theta_shifted(k, s, pendant=True)
        last = 2 * (k + s)

        def perturbed_distances(g):
            d = distance_matrix(g)
            return _perturb(d, last, 0) if g == shifted else d

        monkeypatch.setattr(distdet.verify, "distance_matrix", perturbed_distances)
        assert congruence_check_theta(k, s)
        assert not congruence_check_theta_prime(k, s)


def test_identity_families_stay_fast():
    # every identity family over the ranges `verify` runs; the integer forms
    # take about 0.15 s on a shared 2-core x86-64 machine, rational
    # Gauss-Jordan inverses took 1.2-1.5 s there, so the bound catches their return
    pairs = [(k, s) for k in CONGRUENCE_RANGE for s in CONGRUENCE_RANGE]
    start = time.perf_counter()
    assert all(cycle_inverse_identity(k) for k in range(1, INVERSE_K_MAX + 1))
    assert all(scalar_identity_checks(k) for k in range(1, INVERSE_K_MAX + 1))
    assert all(congruence_check_theta(k, s) for k, s in pairs)
    assert all(congruence_check_theta_prime(k, s) for k, s in pairs)
    assert time.perf_counter() - start < 1.0


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

    def test_fault_injection_fails(self, flipped_closed_form):
        assert not verify_graph(cycle_graph(5)).passed

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

    def test_fault_injection_detected(self, flipped_closed_form):
        summary = fuzz_campaign(count=20, max_n=20, seed=5)
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
