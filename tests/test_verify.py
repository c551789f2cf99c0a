import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distdet.formulas
import distdet.verify
from distdet.graphs import (
    BlockRequest,
    DisconnectedGraphError,
    Graph,
    attach_path,
    build_theta,
    cycle_graph,
    distance_matrix,
    format_edge_list,
    labeled_theta,
    path_graph,
    random_block_graph,
)
from distdet.blocks import theta_family
from distdet.formulas import BlockTooLargeError, det_cof_closed
from distdet.linalg import DetCof, bareiss_detcof
from distdet.cli import main
from distdet.verify import (
    CLAIMS,
    _build_transport,
    _cycle_inverse_formula,
    _cycle_inverse_scaled,
    _transfer_matrix,
    _transport_product,
    cycle_inverse_checks,
    det_cof_oracle,
    fuzz_campaign,
    random_block_request,
    theta_congruence_checks,
    verify_graph,
)
from distdet.blocks import biconnected_components, block_subgraph
from reference import (
    dense_transport_product,
    identity,
    mat_mul_naive,
    path_inverse_scaled,
    rat_inverse,
    reconstructed_transport,
)


# each claim's argument tuples, by the name of its check
CLAIM_PARAMS = {claim.check: claim.params for claim in CLAIMS}


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
    cycle_block = next(b for b in blocks if len(b) == 3)
    sub = block_subgraph(cycle_block)
    assert sub == cycle_graph(3)


class TestProofIdentities:
    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_cycle_inverse(self, k):
        inverse_ok, _ = cycle_inverse_checks(k)
        assert inverse_ok

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_scalar_identities(self, k):
        _, scalars_ok = cycle_inverse_checks(k)
        assert scalars_ok

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 2), (2, 4), (4, 3)])
    def test_congruence(self, k, s):
        plain_ok, pendant_ok = theta_congruence_checks(k, s)
        assert plain_ok
        assert pendant_ok

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_congruent_matrices_share_determinant(self, k, s):
        dh = distance_matrix(labeled_theta(k, s))
        dg = distance_matrix(labeled_theta(k + 1, s - 1))
        assert bareiss_detcof(dh).det == bareiss_detcof(dg).det == -((k + s) ** 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cycle_inverse_checks(0)
        with pytest.raises(ValueError):
            theta_congruence_checks(1, 2)
        with pytest.raises(ValueError):
            theta_congruence_checks(2, 1)


def test_verify_runs_each_proof_once(monkeypatch, capsys):
    # one cycle proof per k <= 12 and one transport per (k, s) pair, shared by
    # the two verdicts each proof feeds
    calls = {"_cycle_inverse_scaled": 0, "_build_transport": 0}
    for name in calls:
        original = getattr(distdet.verify, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(distdet.verify, name, counted)
    assert main(["verify", "--count", "1", "--max-n", "10"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert calls == {"_cycle_inverse_scaled": 12, "_build_transport": 25}


# by printed label: the check behind it, the one parameter at which its
# verdict is flipped, and the verdict's column in the check's result
FLIPS = {
    "cycle inverse identity (k<=12)": ("cycle_inverse_checks", (5,), 0),
    "scalar identities (k<=12)": ("cycle_inverse_checks", (5,), 1),
    "theta congruence (k,s in 2..6)": ("theta_congruence_checks", (3, 4), 0),
    "theta pendant congruence (k,s in 2..6)": ("theta_congruence_checks", (3, 4), 1),
}


@pytest.mark.parametrize("label", list(FLIPS))
def test_each_verdict_column_fails_on_its_own(label, monkeypatch, capsys):
    # the check is patched where distdet.verify binds it, so this also shows
    # that verify looks each check up when it runs
    name, at, column = FLIPS[label]
    original = getattr(distdet.verify, name)

    def flipped(*args):
        verdicts = list(original(*args))
        if args == at:
            verdicts[column] = not verdicts[column]
        return tuple(verdicts)

    monkeypatch.setattr(distdet.verify, name, flipped)
    assert main(["verify", "--count", "2", "--max-n", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    totals = {"cycle_inverse_checks": 12, "theta_congruence_checks": 25}
    expected = [
        f"{other}: {totals[check] - (other == label)}/{totals[check]}" for other, (check, _, _) in FLIPS.items()
    ]
    assert lines == ["graphs: 2/2 passed"] + expected + ["FAIL"]


@pytest.mark.parametrize(
    "family, size",
    [("path", m) for m in range(2, 31)] + [("cycle", k) for (k,) in CLAIM_PARAMS["cycle_inverse_checks"]],
)
def test_scaled_inverses_match_rational_reference(family, size):
    # the integer closed forms against Fraction Gauss-Jordan on the matrix itself
    if family == "path":
        scale, scaled = 2 * (size - 1), path_inverse_scaled(size)
        matrix = [[abs(i - j) for j in range(size)] for i in range(size)]
    else:
        scale, scaled = size * (size + 1), _cycle_inverse_scaled(size)
        matrix = distance_matrix(cycle_graph(2 * size + 1))
    assert scaled == [[scale * x for x in row] for row in rat_inverse(matrix)]
    assert all(type(x) is int for row in scaled for x in row)


@pytest.mark.parametrize("k", [k for (k,) in CLAIM_PARAMS["cycle_inverse_checks"]])
def test_circulant_proof_agrees_with_the_dense_product(k):
    # the first row of D S and two circulant checks against all of D S multiplied out
    d = distance_matrix(cycle_graph(2 * k + 1))
    s = _cycle_inverse_scaled(k)
    assert s is not None and s == _cycle_inverse_formula(k)
    assert mat_mul_naive(d, s) == [[k * (k + 1) * x for x in row] for row in identity(2 * k + 1)]


def _transport_rows(k, s):
    """[X | T] for the pair (k, s)."""
    return _build_transport(k, s)


@pytest.mark.parametrize("k, s", [(k, s) for k in range(2, 11) for s in range(2, 11)])
def test_closed_form_transport_matches_reconstruction(k, s):
    # the closed form against X = (A - T B) P^{-1}, reconstructed from the
    # cores of D(H') and D(G') through Graham and Lovasz's path inverse
    size = 2 * (k + s)
    core_h, core_g = (
        [row[:size] for row in distance_matrix(labeled_theta(a, b, pendant=True))[:size]]
        for a, b in ((k, s), (k + 1, s - 1))
    )
    assert _build_transport(k, s) == reconstructed_transport(core_g, core_h, _transfer_matrix(k, s))


@pytest.mark.parametrize("k, s", CLAIM_PARAMS["theta_congruence_checks"])
def test_blockwise_transport_matches_dense_reference(k, s):
    # the blockwise N' D(H') N'^T and det T against the full N' multiplied out
    xt = _transport_rows(k, s)
    dh_p = distance_matrix(labeled_theta(k, s, pendant=True))
    product, det_n = dense_transport_product(xt, dh_p)
    assert _transport_product(xt, dh_p) == product == distance_matrix(labeled_theta(k + 1, s - 1, pendant=True))
    assert bareiss_detcof([row[k + s :] for row in xt]).det == det_n


@st.composite
def transport_operands(draw):
    """Random integer rows [X | T], m x 2m, and a square d of order 2m + 1,
    not necessarily symmetric."""
    m = draw(st.integers(1, 4))
    entries = st.integers(-9, 9)
    xt = draw(st.lists(st.lists(entries, min_size=2 * m, max_size=2 * m), min_size=m, max_size=m))
    d = draw(st.lists(st.lists(entries, min_size=2 * m + 1, max_size=2 * m + 1), min_size=2 * m + 1, max_size=2 * m + 1))
    return xt, d


@settings(deadline=None)
@given(transport_operands())
def test_blockwise_transport_matches_dense_reference_on_random_input(operands):
    xt, d = operands
    m = len(xt)
    product, det_n = dense_transport_product(xt, d)
    assert _transport_product(xt, d) == product
    assert bareiss_detcof([row[m:] for row in xt]).det == det_n


def _perturb(matrix, i, j):
    out = [list(row) for row in matrix]
    out[i][j] += 1
    return out


def _perturb_graph(monkeypatch, target, i, j):
    """Make verify see D(target) with entry (i, j) raised by one."""

    def perturbed_distances(g):
        d = distance_matrix(g)
        return _perturb(d, i, j) if g == target else d

    monkeypatch.setattr(distdet.verify, "distance_matrix", perturbed_distances)


class TestProofChecksRejectBadInput:
    """Each check is fed a corrupted input from outside and must say False."""

    @pytest.mark.parametrize("k, entry", [(1, (0, 1)), (3, (2, 2)), (5, (0, 7)), (6, (12, 3))])
    def test_perturbed_cycle_matrix(self, monkeypatch, k, entry):
        monkeypatch.setattr(distdet.verify, "distance_matrix", lambda g: _perturb(distance_matrix(g), *entry))
        assert cycle_inverse_checks(k) == (False, False)

    @pytest.mark.parametrize("k, entry", [(2, (0, 1)), (4, (3, 8))])
    def test_perturbed_cycle_matrix_caught_by_the_product(self, monkeypatch, k, entry):
        # with the determinant check blinded, D S = k(k+1) I alone must reject
        monkeypatch.setattr(distdet.verify, "distance_matrix", lambda g: _perturb(distance_matrix(g), *entry))
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda d: DetCof(k * (k + 1), 0))
        assert _cycle_inverse_scaled(k) is None
        assert cycle_inverse_checks(k) == (False, False)

    @pytest.mark.parametrize("k, entry", [(1, (1, 2)), (2, (4, 0)), (3, (2, 2)), (6, (12, 5)), (12, (24, 24))])
    def test_perturbed_inverse_outside_its_first_row(self, monkeypatch, k, entry):
        # D is untouched and its determinant blinded
        original = distdet.verify._cycle_inverse_formula
        monkeypatch.setattr(distdet.verify, "_cycle_inverse_formula", lambda k: _perturb(original(k), *entry))
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda d: DetCof(k * (k + 1), 0))
        assert entry[0] > 0
        assert _cycle_inverse_scaled(k) is None
        assert cycle_inverse_checks(k) == (False, False)

    @pytest.mark.parametrize("k, column", [(1, 0), (2, 3), (5, 10), (12, 7)])
    def test_inverse_perturbed_off_circulant_caught_by_the_circulant_check(self, monkeypatch, k, column):
        # rows 1 and 2 of one column of S moved by d_02 and -d_01 leave the
        # first row of D S at k(k+1) e_0, so only the circulant check on S can
        # reject
        original = distdet.verify._cycle_inverse_formula
        first = distance_matrix(cycle_graph(2 * k + 1))[0]

        def perturbed(k):
            s = original(k)
            s[1][column] += first[2]
            s[2][column] -= first[1]
            return s

        monkeypatch.setattr(distdet.verify, "_cycle_inverse_formula", perturbed)
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda d: DetCof(k * (k + 1), 0))
        assert mat_mul_naive([first], perturbed(k)) == [[k * (k + 1)] + [0] * (2 * k)]
        assert _cycle_inverse_scaled(k) is None
        assert cycle_inverse_checks(k) == (False, False)

    @pytest.mark.parametrize("k, entry", [(1, (2, 0)), (3, (1, 1)), (5, (7, 10)), (12, (24, 0))])
    def test_perturbed_cycle_matrix_outside_its_first_row(self, monkeypatch, k, entry):
        # the first row of D S is still k(k+1) e_0, so only the circulant check on D can reject
        monkeypatch.setattr(distdet.verify, "distance_matrix", lambda g: _perturb(distance_matrix(g), *entry))
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda d: DetCof(k * (k + 1), 0))
        assert entry[0] > 0
        assert _cycle_inverse_scaled(k) is None
        assert cycle_inverse_checks(k) == (False, False)

    @pytest.mark.parametrize("k", [1, 4])
    def test_cycle_matrix_with_an_extra_row_rejected(self, monkeypatch, k):
        # D's first row repeated below it: every row is a rotation of the
        # first and the first row of D S is right, but D is not square
        monkeypatch.setattr(distdet.verify, "distance_matrix", lambda g: (lambda d: d + [d[0]])(distance_matrix(g)))
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda d: DetCof(k * (k + 1), 0))
        assert _cycle_inverse_scaled(k) is None

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_circulant_but_wrong_matrices_caught_by_the_first_row(self, monkeypatch, k):
        # D + I and S + J stay circulant, so only the first row of D S can reject them
        original = distdet.verify._cycle_inverse_formula
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda d: DetCof(k * (k + 1), 0))
        with monkeypatch.context() as patch:
            patch.setattr(distdet.verify, "_cycle_inverse_formula", lambda k: [[x + 1 for x in row] for row in original(k)])
            assert _cycle_inverse_scaled(k) is None
        with monkeypatch.context() as patch:
            patch.setattr(
                distdet.verify,
                "distance_matrix",
                lambda g: [[x + int(i == j) for j, x in enumerate(row)] for i, row in enumerate(distance_matrix(g))],
            )
            assert _cycle_inverse_scaled(k) is None

    @pytest.mark.parametrize("k, s, entry", [(2, 2, (0, 0)), (3, 2, (1, 3)), (4, 3, (5, 0)), (2, 4, (2, 1))])
    def test_perturbed_transfer_matrix(self, monkeypatch, k, s, entry):
        monkeypatch.setattr(distdet.verify, "_transfer_matrix", lambda k, s: _perturb(_transfer_matrix(k, s), *entry))
        assert theta_congruence_checks(k, s) == (False, False)

    @pytest.mark.parametrize("k, s, entry", [(2, 2, (0, 0)), (3, 2, (4, 1)), (4, 3, (6, 6)), (2, 4, (1, 5))])
    def test_perturbed_transport_lower_left_block(self, monkeypatch, k, s, entry):
        # one entry of X raised by one leaves det N = det T, so only the
        # product can reject it
        original = distdet.verify._build_transport
        monkeypatch.setattr(distdet.verify, "_build_transport", lambda *args: _perturb(original(*args), *entry))
        assert entry[1] < k + s
        assert theta_congruence_checks(k, s) == (False, False)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_transport_determinant_checked(self, monkeypatch, k, s):
        # N D(H) N^T = D(G) with det D(H) = det D(G) != 0 already forces
        # det N = +-1, so only a kernel that reports det N = 2 can show that
        # the determinant is checked and not taken on trust
        monkeypatch.setattr(distdet.verify, "bareiss_detcof", lambda m: DetCof(2 * bareiss_detcof(m).det, 0))
        assert theta_congruence_checks(k, s) == (False, False)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_unimodular_wrong_transport_rejected(self, monkeypatch, k, s):
        # det N = 1 but N = I, given by its lower rows X = 0 and T = I, does
        # not transport D(H) to D(G): both products reject
        monkeypatch.setattr(
            distdet.verify, "_build_transport", lambda k, s: [[0] * (k + s) + row for row in identity(k + s)]
        )
        assert theta_congruence_checks(k, s) == (False, False)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_product_check_rejects_perturbed_target(self, monkeypatch, k, s):
        # a corrupted target D(G') inside the core from which N is built
        target = labeled_theta(k + 1, s - 1, pendant=True)
        size = 2 * (k + s)
        assert theta_congruence_checks(k, s) == (True, True)
        for i, j in [(0, 1), (size - 1, 0), (k + s, k + s - 1), (1, size - 2)]:
            _perturb_graph(monkeypatch, target, i, j)
            assert theta_congruence_checks(k, s) == (False, False), (i, j)

    @pytest.mark.parametrize(
        "which, k, s, entry",
        [("H", 2, 2, (0, 1)), ("H", 3, 4, (9, 2)), ("G", 2, 2, (0, 1)), ("G", 3, 4, (7, 6)), ("G", 4, 3, (13, 0))],
    )
    def test_plain_matrix_perturbed_alone(self, monkeypatch, which, k, s, entry):
        # the plain matrices are compared with the pendant cores and with the
        # product's core block; the pendant verdict does not read them
        target = labeled_theta(k, s) if which == "H" else labeled_theta(k + 1, s - 1)
        _perturb_graph(monkeypatch, target, *entry)
        assert theta_congruence_checks(k, s) == (False, True)

    @pytest.mark.parametrize("k, s", [(2, 2), (3, 4)])
    def test_pendant_check_rejects_perturbed_pendant_row(self, monkeypatch, k, s):
        # the pendant row lies outside the cores that N is built from, so only
        # the bordered product N D(H') N^T = D(G') can catch it
        _perturb_graph(monkeypatch, labeled_theta(k + 1, s - 1, pendant=True), 2 * (k + s), 0)
        assert theta_congruence_checks(k, s) == (True, False)


def test_identity_families_stay_fast():
    # every identity family over the ranges `verify` runs; the integer forms,
    # each proved once from a closed-form matrix, take about 0.015 s (fastest
    # of 9) on a shared 2-core x86-64 machine with CPython 3.11; rational
    # Gauss-Jordan inverses took 1.2-1.5 s there, so the bound catches their
    # return
    start = time.perf_counter()
    assert all(cycle_inverse_checks(*args) == (True, True) for args in CLAIM_PARAMS["cycle_inverse_checks"])
    assert all(theta_congruence_checks(*args) == (True, True) for args in CLAIM_PARAMS["theta_congruence_checks"])
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

    def test_wrong_block_row_fails_even_when_the_totals_agree(self, monkeypatch):
        # with two even cycles every total is (0, 0) whatever their rows say,
        # so only the per-block check sees a wrong even-cycle row
        original = distdet.formulas.cycle_detcof
        monkeypatch.setattr(distdet.formulas, "cycle_detcof", lambda n: DetCof(1, 0) if n % 2 == 0 else original(n))
        g = random_block_graph(BlockRequest(edges=1, cycles=(4, 6)), seed=2)
        report = verify_graph(g)
        assert report.oracle == report.ghh == report.closed == DetCof(0, 0)
        assert not report.passed
        assert "closed form (1, 0) != block oracle (0, 0)" in report.note
        assert "cycle(4)" in report.note and "cycle(6)" in report.note

    def test_internal_inconsistency_is_a_failure_not_an_error(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(distdet.formulas, "compose_ghh", lambda blocks: DetCof(1, 1))
        report = verify_graph(cycle_graph(5))
        assert not report.passed and report.closed is None
        assert report.note.startswith("census formula") and "disagrees with block composition" in report.note
        assert report.to_json_dict()["closed"] is None
        path = tmp_path / "report.jsonl"
        assert main(["verify", "--count", "3", "--max-n", "12", "--report", str(path)]) == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 3 and not any(row["pass"] for row in rows)

    def test_each_distinct_block_eliminated_once(self, monkeypatch):
        # the whole-graph oracle eliminates through distdet.verify's binding,
        # the block oracle through distdet.formulas'
        original = distdet.formulas.bareiss_detcof
        eliminations = []

        def counted(a):
            eliminations.append(len(a))
            return original(a)

        monkeypatch.setattr(distdet.formulas, "bareiss_detcof", counted)
        report = verify_graph(path_graph(6))
        assert report.passed and len(report.blocks) == 5
        assert eliminations == [2]

    def test_blocks_over_budget_refused_before_a_block_matrix(self, monkeypatch):
        def no_matrix(g):
            raise AssertionError("block distance matrix built")

        monkeypatch.setattr(distdet.formulas, "MAX_ORACLE_BLOCK", 4)
        monkeypatch.setattr(distdet.formulas, "distance_matrix", no_matrix)
        g = Graph.from_edges(6, [(0, 1)] + [(u + 1, v + 1) for u, v in complete_graph(5).edges])
        with pytest.raises(BlockTooLargeError) as info:
            verify_graph(g)
        assert info.value.vertex_counts == (5, 2)
        # the pendant edge is a supported block, so the refusal does not call both unsupported
        assert str(info.value).startswith("2 distinct block(s) of 7 vertices in all are over the block oracle budget")

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


def _wrong_on(original, row):
    """original with its determinant off by one exactly where row(*args) holds."""

    def wrapped(*args):
        value = original(*args)
        return DetCof(value.det + 1, value.cof) if row(*args) else value

    return wrapped


# each row of README's closed-form table: the function that gives it, and
# which of that function's arguments fall in the row
CLOSED_FORM_ROWS = {
    "edge": ("edge_detcof", lambda: True),
    "odd cycle": ("cycle_detcof", lambda n: n % 2 == 1),
    "even cycle": ("cycle_detcof", lambda n: n % 2 == 0),
    "theta(1, p, q), p and q even": ("theta_detcof", lambda *t: theta_family(*t) == "one-even-even"),
    "theta(2, 2, 2)": ("theta_detcof", lambda *t: theta_family(*t) == "two-two-two"),
    "theta(2, 2, q), q odd": ("theta_detcof", lambda *t: theta_family(*t) == "two-two-odd"),
    "any other theta": ("theta_detcof", lambda *t: theta_family(*t) == "zero"),
}


@pytest.mark.parametrize("row", list(CLOSED_FORM_ROWS))
def test_default_verify_fails_on_any_wrong_table_row(row, monkeypatch, capsys):
    name, in_row = CLOSED_FORM_ROWS[row]
    monkeypatch.setattr(distdet.formulas, name, _wrong_on(getattr(distdet.formulas, name), in_row))
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert out.strip().endswith("FAIL") and "graphs: 200/200 passed" not in out


# a small graph holding a block of each non-zero row of the table
NONZERO_ROW_GRAPHS = {
    "edge": path_graph(3),
    "odd cycle": cycle_graph(5),
    "theta(1, p, q), p and q even": build_theta(1, 2, 4),
    "theta(2, 2, 2)": build_theta(2, 2, 2),
    "theta(2, 2, q), q odd": build_theta(2, 2, 5),
}


@pytest.mark.parametrize("row", list(NONZERO_ROW_GRAPHS))
def test_census_does_not_follow_a_wrong_table_row(row, monkeypatch, tmp_path, capsys):
    # the census states every row on its own, so a wrong row reaches only the
    # block composition and the two disagree; a census derived from the
    # table would follow the wrong row and agree
    name, in_row = CLOSED_FORM_ROWS[row]
    monkeypatch.setattr(distdet.formulas, name, _wrong_on(getattr(distdet.formulas, name), in_row))
    g = NONZERO_ROW_GRAPHS[row]
    with pytest.raises(ArithmeticError):
        det_cof_closed(g)
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    assert main(["det", str(path)]) == 4
    assert "internal inconsistency" in capsys.readouterr().err
