import io
import json
import sys
import time

import pytest

import distdet.cli
from distdet.cli import main
from distdet.formulas import MAX_ORACLE_BLOCK
from distdet.graphs import BlockRequest, Graph, cycle_graph, format_edge_list, parse_edge_list, random_block_graph
from distdet.linalg import DetCof


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(format_edge_list(cycle_graph(5)))
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    lines = ["5", "0 1", "1 2", "1 3", "1 4", "2 3", "2 4", "3 4"]
    path = tmp_path / "k4.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDet:
    def test_text_output(self, c5_file, capsys):
        assert main(["det", c5_file]) == 0
        out = capsys.readouterr().out
        assert "det=6 cof=5" in out
        assert "cycle(5)" in out

    def test_json_output(self, c5_file, capsys):
        assert main(["det", c5_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 5
        assert payload["det"] == 6 and payload["cof"] == 5
        assert payload["blocks"] == [{"kind": "cycle(5)", "det": 6, "cof": 5}]
        assert "provenance" in payload

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(cycle_graph(3))))
        assert main(["det", "-"]) == 0
        assert "det=2 cof=3" in capsys.readouterr().out

    def test_unsupported_block_uses_block_oracle(self, k4_file, capsys):
        assert main(["det", k4_file]) == 0
        out = capsys.readouterr().out
        assert "det=10 cof=8" in out
        assert "block oracle on 1 unsupported block(s)" in out
        assert "unsupported[4 vertices, 6 edges, degrees [3, 3, 3, 3]]: det=-3 cof=-4" in out
        assert main(["det", k4_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["det"], payload["cof"]) == (10, 8)
        assert "block oracle" in payload["provenance"]
        assert {"kind": "edge", "det": -1, "cof": -2} in payload["blocks"]
        assert [(row["det"], row["cof"]) for row in payload["blocks"] if row["kind"].startswith("unsupported")] == [(-3, -4)]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3\n0 1\n0 1\n")
        assert main(["det", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_disconnected_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "disc.txt"
        bad.write_text("4\n0 1\n2 3\n")
        assert main(["det", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("command", ["det", "classify"])
    def test_disconnected_with_enough_edges(self, tmp_path, capsys, command, shift):
        # K4 and one isolated vertex: 6 edges could span 5 vertices, so only the
        # traversal sees the disconnection, whether vertex 4 or vertex 0 is isolated
        k4 = [(u + shift, v + shift) for u in range(4) for v in range(u + 1, 4)]
        path = tmp_path / "k4_and_isolated.txt"
        path.write_text(format_edge_list(Graph.from_edges(5, k4)))
        assert main([command, str(path)]) == 2
        assert "connected" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["det", "/nonexistent/graph.txt"]) == 2
        assert "error" in capsys.readouterr().err


    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit before Python 3.11")
    def test_results_beyond_the_digit_limit(self, tmp_path, capsys):
        # theta(2,2,41) has (det, cof) = (1676, 156), so 300 of them give a 658-digit cof
        path = tmp_path / "thetas.txt"
        path.write_text(format_edge_list(random_block_graph(BlockRequest(thetas=((2, 2, 41),) * 300), seed=3)))
        det, cof = str(300 * 1676 * 156**299), str(156**300)
        huge_count = tmp_path / "huge_count.txt"
        huge_count.write_text("9" * 700 + "\n0 1\n")
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(["det", str(path)]) == 0
            text = capsys.readouterr().out
            assert main(["det", str(path), "--format", "json"]) == 0
            payload = capsys.readouterr().out
            assert sys.get_int_max_str_digits() == 640
            # the limit stays in force while input is parsed
            assert main(["det", str(huge_count)]) == 2
            assert "line 1" in capsys.readouterr().err
        finally:
            sys.set_int_max_str_digits(previous)
        assert len(cof) > 640
        assert text.startswith(f"det={det} cof={cof}\n")
        assert payload.startswith(f'{{"n": 12901, "det": {det}, "cof": {cof}, ')

    def test_huge_vertex_count_rejected_before_allocation(self, tmp_path, capsys, monkeypatch):
        def no_adjacency(self):
            raise AssertionError("adjacency lists built")

        monkeypatch.setattr(Graph, "adjacency", no_adjacency)
        path = tmp_path / "sparse.txt"
        path.write_text("1000000\n0 1\n")
        assert main(["det", str(path)]) == 2
        assert "connected" in capsys.readouterr().err

    def test_block_too_large_refused(self, tmp_path, capsys):
        n = MAX_ORACLE_BLOCK + 1
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (1, n // 2 + 1)]
        path = tmp_path / "big_block.txt"
        path.write_text(format_edge_list(Graph.from_edges(n, edges)))
        start = time.perf_counter()
        assert main(["det", str(path)]) == 3
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and f"limit of {MAX_ORACLE_BLOCK} vertices" in err

    def test_internal_inconsistency_exit_code(self, c5_file, capsys, monkeypatch):
        monkeypatch.setattr("distdet.formulas.compose_ghh", lambda blocks: DetCof(1, 1))
        assert main(["det", c5_file]) == 4
        assert "internal inconsistency, please report" in capsys.readouterr().err


class TestClassify:
    def test_text(self, k4_file, capsys):
        assert main(["classify", k4_file]) == 0
        out = capsys.readouterr().out
        assert "n=5 edges=7 blocks=2" in out
        assert "edge: det=-1 cof=-2" in out
        assert "unsupported" in out and "no closed form" in out

    def test_json(self, c5_file, capsys):
        assert main(["classify", c5_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 5, "edges": 5, "blocks": [{"kind": "cycle(5)", "det": 6, "cof": 5}]}


class TestGen:
    def test_round_trip(self, capsys):
        assert main(["gen", "edges=2,cycles=3;5,thetas=1-2-2", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        g = parse_edge_list(text)
        assert g.n == 1 + 2 + 2 + 4 + 3

    def test_deterministic(self, capsys):
        main(["gen", "edges=1,cycles=4", "--seed", "9"])
        first = capsys.readouterr().out
        main(["gen", "edges=1,cycles=4", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_output_file(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "thetas=2-2-3", "-o", str(out)]) == 0
        assert parse_edge_list(out.read_text()).n == 6

    @pytest.mark.parametrize("spec", ["cycles=2", "thetas=1-1-4", "thetas=1-2", "nope=3", "edges"])
    def test_invalid_spec(self, spec, capsys):
        assert main(["gen", spec]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--count", "5", "--max-n", "15", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "graphs: 5/5 passed" in out
        assert out.strip().endswith("PASS")

    def test_fault_injection_fails(self, flipped_closed_form, capsys):
        assert main(["verify", "--count", "8", "--max-n", "15", "--seed", "1"]) == 1
        assert capsys.readouterr().out.strip().endswith("FAIL")

    def test_max_n_above_oracle_limit_rejected(self, capsys, monkeypatch):
        def no_oracle(g):
            raise AssertionError("oracle run")

        monkeypatch.setattr("distdet.verify.det_cof_oracle", no_oracle)
        start = time.perf_counter()
        assert main(["verify", "--count", "1", "--max-n", str(MAX_ORACLE_BLOCK + 1)]) == 2
        assert time.perf_counter() - start < 1
        assert f"max_n <= {MAX_ORACLE_BLOCK}" in capsys.readouterr().err

    def test_report_file(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        assert main(["verify", "--count", "4", "--max-n", "12", "--seed", "2", "--report", str(report)]) == 0
        capsys.readouterr()
        lines = report.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            payload = json.loads(line)
            assert payload["pass"] is True
            assert {"n", "blocks", "oracle", "micros"} <= set(payload)


class TestBench:
    def test_csv_shape(self, capsys):
        assert main(["bench", "--max-n", "12", "--reps", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,closed_micros,oracle_micros,match"
        assert len(lines) == 3  # sizes 10 and 12
        for line in lines[1:]:
            n, closed, oracle, match = line.split(",")
            assert int(n) in (10, 12)
            assert int(closed) >= 0 and int(oracle) >= 0
            assert match == "true"

    def test_oracle_runs_once_per_rep(self, capsys, monkeypatch):
        calls = []
        original = distdet.cli.det_cof_oracle

        def counted(g):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(distdet.cli, "det_cof_oracle", counted)
        assert main(["bench", "--max-n", "20", "--reps", "3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(n, match) for n, _, _, match in rows] == [("10", "true"), ("20", "true")]
        # the match column comes from the timed runs, not from one more oracle pass
        assert calls == [10] * 3 + [20] * 3

    def test_output_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--max-n", "10", "--reps", "2", "-o", str(out)]) == 0
        assert out.read_text().startswith("n,closed_micros,oracle_micros,match\n")

    def test_zero_reps_rejected(self, capsys):
        assert main(["bench", "--reps", "0", "--max-n", "20"]) == 2
        assert "reps" in capsys.readouterr().err

    def test_small_max_n_rejected(self, capsys):
        assert main(["bench", "--max-n", "5"]) == 2
        assert "max-n" in capsys.readouterr().err

    def test_max_n_above_oracle_limit_rejected(self, capsys, monkeypatch):
        def no_oracle(g):
            raise AssertionError("oracle run")

        monkeypatch.setattr("distdet.cli.det_cof_oracle", no_oracle)
        start = time.perf_counter()
        assert main(["bench", "--max-n", str(MAX_ORACLE_BLOCK + 1), "--reps", "1"]) == 2
        assert time.perf_counter() - start < 1
        assert f"--max-n <= {MAX_ORACLE_BLOCK}" in capsys.readouterr().err
