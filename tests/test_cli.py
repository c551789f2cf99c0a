import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distdet.cli
import distdet.formulas
from distdet.blocks import Cycle, Edge, Theta, census, classify_graph
from distdet.cli import EXIT_BROKEN_PIPE, main
from distdet.formulas import MAX_ORACLE_BLOCK, compose_ghh
from distdet.graphs import BlockRequest, Graph, cycle_graph, format_edge_list, parse_edge_list, random_block_graph
from distdet.linalg import DetCof
from distdet.verify import det_cof_oracle


def ladder(n):
    """Two rails of n / 2 vertices (the even and the odd ones) and their rungs."""
    return [(i, i + 1) for i in range(0, n, 2)] + [(i, i + 2) for i in range(n - 2)]


def chorded_cycle(n):
    """A cycle with two crossing chords: one block, neither cycle nor theta."""
    return [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (1, n // 2 + 1)]


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

    def test_unsupported_blocks_over_budget_refused(self, tmp_path, capsys):
        # four distinct blocks, cycles of 300 to 303 vertices with two chords,
        # joined by bridges: each is within the limit, but the sum of their
        # b^3 is over the budget of 430^3
        edges, offset = [], 0
        for size in range(300, 304):
            edges += [(offset + u, offset + v) for u, v in chorded_cycle(size)]
            if offset:
                edges.append((offset - 1, offset))
            offset += size
        path = tmp_path / "chorded_cycles.txt"
        path.write_text(format_edge_list(Graph.from_edges(offset, edges)))
        start = time.perf_counter()
        assert main(["det", str(path)]) == 3
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert err.startswith("refused: 4 distinct unsupported block(s) of 1206 vertices")
        assert f"limit of {MAX_ORACLE_BLOCK} vertices" in err

    def test_copies_of_one_unsupported_block_take_one_elimination(self, tmp_path, capsys, monkeypatch):
        # four copies of one 300-vertex ladder joined by bridges: the budget
        # counts the ladder once, and the block oracle eliminates it once
        original = distdet.formulas.bareiss_detcof
        eliminations = []

        def counted(a):
            eliminations.append(len(a))
            return original(a)

        monkeypatch.setattr(distdet.formulas, "bareiss_detcof", counted)
        edges = []
        for offset in range(0, 1200, 300):
            edges += [(offset + u, offset + v) for u, v in ladder(300)]
            if offset:
                edges.append((offset - 1, offset))
        path = tmp_path / "ladders.txt"
        path.write_text(format_edge_list(Graph.from_edges(1200, edges)))
        assert main(["det", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert eliminations == [300]
        one = det_cof_oracle(Graph.from_edges(300, ladder(300)))
        assert (payload["det"], payload["cof"]) == compose_ghh([one] * 4 + [DetCof(-1, -2)] * 3)
        assert "block oracle on 4 unsupported block(s)" in payload["provenance"]

    def test_internal_inconsistency_exit_code(self, c5_file, capsys, monkeypatch):
        monkeypatch.setattr("distdet.formulas.compose_ghh", lambda blocks: DetCof(1, 1))
        assert main(["det", c5_file]) == 4
        assert "internal inconsistency, please report" in capsys.readouterr().err


K4_COPIES = 1200


@pytest.fixture
def k4_chain_file(tmp_path):
    """A chain of K4 blocks whose det and classify JSON answers are far larger
    than a pipe's 64 KiB buffer."""
    edges = [(3 * i + a, 3 * i + b) for i in range(K4_COPIES) for a in range(4) for b in range(a + 1, 4)]
    path = tmp_path / "k4_chain.txt"
    path.write_text(format_edge_list(Graph.from_edges(3 * K4_COPIES + 1, edges)))
    return str(path)


@pytest.mark.parametrize("command", ["det", "classify"])
def test_closed_stdout_exits_quietly(command, k4_chain_file, capsys):
    argv = [command, k4_chain_file, "--format", "json"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out) > 96 * 1024
    env = dict(os.environ, PYTHONPATH=str(Path(distdet.cli.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "distdet.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0
    )
    try:
        assert child.stdout.read(1) == b"{"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=60), err) == (EXIT_BROKEN_PIPE, b"")
    finally:
        child.kill()
        child.wait()


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

    @pytest.mark.parametrize("spec", ["cycles=2", "thetas=1-1-4", "thetas=1-2", "nope=3", "edges", "edges=5,edges=-2"])
    def test_invalid_spec(self, spec, capsys):
        assert main(["gen", spec]) == 2
        assert "error" in capsys.readouterr().err

    def test_repeated_keys_add_up(self, capsys):
        assert main(["gen", "edges=2,cycles=3,edges=3,cycles=5"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert census(kind for _, kind in classify_graph(g)) == Counter({Edge(): 5, Cycle(3): 1, Cycle(5): 1})


    @pytest.mark.parametrize("separator", ["\n", "\r\n", "\x85", "\u2028"])
    def test_spec_with_a_line_separator_stays_a_comment(self, separator, tmp_path, capsys):
        path = tmp_path / "g.txt"
        assert main(["gen", f"edges=1,{separator}cycles=3", "-o", str(path)]) == 0
        assert main(["det", str(path)]) == 0
        assert capsys.readouterr().out.startswith("det=-7 cof=-6\n")


spec_chunks = st.one_of(
    st.integers(-2, 4).map(lambda k: ("edges", k)),
    st.lists(st.integers(2, 9), max_size=3).map(lambda lengths: ("cycles", lengths)),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5), st.integers(1, 5)), max_size=2).map(lambda ts: ("thetas", ts)),
)


def spec_text(key, value):
    if key == "edges":
        return f"edges={value}"
    return f"{key}=" + ";".join("-".join(map(str, item)) if key == "thetas" else str(item) for item in value)


@settings(deadline=None, max_examples=100)
@given(st.lists(spec_chunks, max_size=5), st.integers(0, 2**16))
def test_gen_spec_round_trip(chunks, seed):
    """gen ends in exit 0 or 2 and never raises; a graph it emits has exactly
    the blocks its spec asks for, with repeated keys adding up."""
    spec = ",".join(spec_text(key, value) for key, value in chunks)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen", spec, "--seed", str(seed)])
    assert code in (0, 2), (spec, code, err.getvalue())
    if any(key == "edges" and value < 0 for key, value in chunks):
        assert code == 2, spec
    if code == 0:
        expected = Counter()
        for key, value in chunks:
            if key == "edges":
                expected[Edge()] += value
            elif key == "cycles":
                expected.update(map(Cycle, value))
            else:
                expected.update(Theta(*sorted(t)) for t in value)
        assert census(kind for _, kind in classify_graph(parse_edge_list(out.getvalue()))) == expected


VERIFY_GOLDEN = """\
graphs: 20/20 passed
cycle inverse identity (k<=12): 12/12
scalar identities (k<=12): 12/12
theta congruence (k,s in 2..6): 25/25
theta pendant congruence (k,s in 2..6): 25/25
PASS
"""


class TestVerify:
    @pytest.mark.parametrize("seed", ["0", "3", "7"])
    def test_output_is_golden(self, seed, capsys):
        # the whole text, every identity line included, not a substring of it
        assert main(["verify", "--count", "20", "--max-n", "40", "--seed", seed]) == 0
        assert capsys.readouterr().out == VERIFY_GOLDEN

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


class TestParser:
    def test_built_once_per_process(self, c5_file, k4_file, capsys):
        distdet.cli._build_parser.cache_clear()
        assert main(["det", c5_file]) == 0
        assert main(["classify", k4_file]) == 0
        assert main(["det", k4_file]) == 0
        info = distdet.cli._build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_options_do_not_carry_over(self, c5_file, capsys):
        assert main(["det", c5_file, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["det"] == 6
        assert main(["det", c5_file]) == 0
        assert capsys.readouterr().out == "det=6 cof=5\nprovenance: block census formula, cross-checked by block composition\nblocks:\n  cycle(5): det=6 cof=5\n"

    def test_usage_error_leaves_the_parser_working(self, c5_file, capsys):
        with pytest.raises(SystemExit) as info:
            main(["det", "--bogus"])
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: distdet det ")
        assert main(["det", c5_file]) == 0
        assert capsys.readouterr().out.startswith("det=6 cof=5\n")

    def test_import_builds_no_parser(self):
        code = "import distdet.cli; print(distdet.cli._build_parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(Path(distdet.cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


def _edge_list_line():
    number = st.integers(-1, 7).map(str)
    return st.one_of(
        number,
        st.tuples(number, number).map(" ".join),
        st.sampled_from(["", "# comment", "  ", "0 1 2", "x y", "\ufeff3", "\x00"]),
        st.text(max_size=6),
    )


@st.composite
def _connected_edge_list(draw):
    """A spanning tree on up to 7 vertices plus any further edges, in any order."""
    n = draw(st.integers(2, 7))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.sets(st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda e: e[0] < e[1])))
    edges = draw(st.permutations(sorted(tree | extra)))
    return "\n".join([str(n)] + [f"{v} {u}" if draw(st.booleans()) else f"{u} {v}" for u, v in edges]) + "\n"


edge_list_texts = st.one_of(
    _connected_edge_list(),
    st.tuples(st.integers(1, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14)).map(
        lambda t: "\n".join([str(t[0])] + [f"{u} {v}" for u, v in t[1]])
    ),
    st.tuples(st.lists(_edge_list_line(), max_size=10), st.sampled_from(["\n", "\r\n"])).map(lambda t: t[1].join(t[0])),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(edge_list_texts)
def test_exit_contract_on_arbitrary_edge_lists(text):
    """det and classify end in exit 0, 2 or 3 and never raise; an answer is the
    whole-graph oracle's (only det for one vertex, by the block convention)."""
    codes = []
    for argv in (["det", "-", "--format", "json"], ["det", "-"], ["classify", "-"], ["classify", "-", "--format", "json"]):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        codes.append(code)
        if argv[-1] == "json" and argv[0] == "det" and code == 0:
            payload = json.loads(out.getvalue())
            g = parse_edge_list(text)
            oracle = det_cof_oracle(g)
            assert payload["det"] == oracle.det
            if g.n > 1:
                assert payload["cof"] == oracle.cof
    assert codes[0] == codes[1]
