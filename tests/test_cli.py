import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toughlab.cli import main
from toughlab.errors import GraphTooLarge
from toughlab.families import complete, kneser, petersen, random_regular
from toughlab.graph import VertexSet, emit_edge_list, emit_graph6, from_edge_list
from toughlab.toughness import toughness_of_cut


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.g6"
    path.write_text(emit_graph6(petersen()) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_kneser_graph6(self, capsys):
        code, out, _ = run(capsys, "gen", "kneser", "5", "2")
        assert code == 0
        assert out.strip() == emit_graph6(petersen())

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "2")
        assert code == 2
        assert "cycle" in err

    @pytest.mark.parametrize("params, message", [
        ("kneser 22 10", "n=646646 outside 0..64"),
        ("random_regular 2000000 3 1", "n=2000000 outside 0..64"),
        ("random_regular 4 1 0",
         "no connected 1-regular graph on n=4 vertices (d <= 1 needs n = d + 1)"),
        ("random_regular 10 6 1", "no valid (10,6)-regular graph in 1000 attempts"),
        ("random_regular 12 3 -7", "random_regular needs seed >= 0, got -7"),
        ("complete_bipartite 0 0", "complete_bipartite needs a >= 1, got 0"),
        ("circulant 2 1", "circulant needs n >= 3, got 2"),
        ("random_regular 4 4 1", "need 0 <= d < n, got d=4, n=4"),
    ])
    def test_family_error_exit_2(self, capsys, params, message):
        code, out, err = run(capsys, "gen", *params.split())
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("spec", [
        "cycle 3 4", "complete", "complete_bipartite 3", "hypercube", "kneser 7",
        "petersen 1", "circulant 8", "random_regular 10 3",
    ])
    def test_wrong_parameter_count_exit_2(self, capsys, spec):
        code, out, err = run(capsys, "gen", *spec.split())
        assert code == 2 and out == ""
        assert spec in err

    def test_complete4_edgelist(self, capsys):
        code, out, _ = run(capsys, "gen", "complete", "4", "--format", "edgelist")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "4 6"
        assert len(lines) == 7

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "c5.g6"
        code, out, _ = run(capsys, "gen", "cycle", "5", "--out", str(target))
        assert code == 0 and out == ""
        from toughlab.families import cycle
        assert target.read_text().strip() == emit_graph6(cycle(5))


class TestAnalyze:
    def test_meta_only(self, capsys, petersen_file):
        code, out, _ = run(capsys, "analyze", petersen_file)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "toughlab-report/1"
        assert report["graph_meta"] == {"n": 10, "m": 15, "d": 3, "connected": True}
        for key in ("spectral", "bounds", "toughness", "mixing",
                    "component_bound", "partition"):
            assert report[key] is None

    def test_bounds_and_toughness(self, capsys, petersen_file):
        code, out, _ = run(capsys, "analyze", petersen_file,
                           "--bounds", "--toughness")
        assert code == 0
        report = json.loads(out)
        assert report["bounds"]["theorem"] == pytest.approx(0.5, abs=1e-9)
        assert report["bounds"]["exact_t"] == {"num": 4, "den": 3}
        assert report["toughness"]["t"] == {"num": 4, "den": 3}
        assert report["toughness"]["components"] == 3

    def test_full_pipeline(self, capsys, petersen_file):
        code, out, _ = run(capsys, "analyze", petersen_file, "--toughness",
                           "--bounds", "--mixing", "exhaustive",
                           "--component-bound", "--partition")
        assert code == 0
        report = json.loads(out)
        assert report["mixing"]["mode"] == "exhaustive"
        assert report["mixing"]["worst"]["slack"] >= -1e-9
        assert report["component_bound"]["verified"] is True
        assert report["component_bound"]["value"] == pytest.approx(4, abs=1e-8)
        part = report["partition"]
        if "precondition_failed" not in part:
            assert part["cross_edges"] == 0

    def test_sampled_mixing(self, capsys, tmp_path):
        path = tmp_path / "c12.g6"
        from toughlab.families import cycle
        path.write_text(emit_graph6(cycle(12)) + "\n")
        code, out, _ = run(capsys, "analyze", str(path), "--mixing", "sampled",
                           "--samples", "500", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["mixing"] == json.loads(out)["mixing"]
        assert report["mixing"]["samples"] == 500

    def test_sampled_mixing_hypercube6(self, capsys, tmp_path):
        path = tmp_path / "q6.g6"
        from toughlab.families import hypercube
        path.write_text(emit_graph6(hypercube(6)) + "\n")
        code, out, _ = run(capsys, "analyze", str(path), "--bounds", "--mixing",
                           "sampled", "--component-bound", "--samples", "2000")
        assert code == 0
        report = json.loads(out)
        assert report["mixing"]["worst"]["slack"] >= -1e-9
        assert report["component_bound"]["verified"] is None  # n = 64 > cap

    def test_disconnected_bounds_exit_2(self, capsys, tmp_path):
        path = tmp_path / "disc.txt"
        path.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, "analyze", str(path), "--bounds")
        assert code == 2
        assert "connected" in err

    def test_edge_list_autodetect(self, capsys, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("3 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run(capsys, "analyze", str(path))
        assert code == 0
        assert json.loads(out)["graph_meta"]["m"] == 3

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("!!!\n")
        code, _, _ = run(capsys, "analyze", str(path))
        assert code == 2

    def test_multi_graph_graph6_rejected(self, capsys, tmp_path):
        from toughlab.families import cycle
        path = tmp_path / "two.g6"
        path.write_text(emit_graph6(petersen()) + "\n\n" + emit_graph6(cycle(5)) + "\n")
        code, out, err = run(capsys, "analyze", str(path))
        assert code == 2 and out == ""
        assert "2 graph6 lines" in err

    @pytest.mark.parametrize("edges, flags", [
        ("1 0", ["--bounds"]),
        ("1 0", ["--mixing", "sampled"]),
        ("1 0", ["--component-bound"]),
        ("2 0", ["--component-bound"]),
        ("2 0", ["--mixing", "exhaustive"]),
    ], ids=["n1-bounds", "n1-sampled", "n1-component", "n2-component", "n2-exhaustive"])
    def test_edgeless_spectral_checks_exit_2(self, capsys, tmp_path, edges, flags):
        # lambda is None at n = 1 and 0 without edges; every spectral check
        # needs lambda > 0, so the run stops before the first one.
        path = tmp_path / "edgeless.txt"
        path.write_text(edges + "\n")
        code, out, err = run(capsys, "analyze", str(path), *flags)
        assert code == 2 and out == ""
        assert err.startswith("error: lambda must be positive")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("make_input", [
        lambda g: emit_graph6(g) + "\n", emit_edge_list], ids=["graph6", "edgelist"])
    def test_reads_stdin(self, capsys, monkeypatch, make_input):
        monkeypatch.setattr("sys.stdin", io.StringIO(make_input(petersen())))
        code, out, _ = run(capsys, "analyze", "-", "--toughness")
        assert code == 0
        report = json.loads(out)
        assert (report["graph_meta"]["n"], report["graph_meta"]["m"]) == (10, 15)
        assert report["toughness"]["t"] == {"num": 4, "den": 3}

    def test_partition_of_complete_graph_records_undefined_toughness(self, capsys,
                                                                     tmp_path):
        path = tmp_path / "k5.g6"
        path.write_text(emit_graph6(complete(5)) + "\n")
        code, out, _ = run(capsys, "analyze", str(path), "--toughness", "--partition")
        assert code == 0
        report = json.loads(out)
        assert report["toughness"] == {"undefined": True}
        assert report["partition"] == {"precondition_failed": "toughness undefined"}

    def test_single_vertex_toughness_undefined(self, capsys, tmp_path):
        # K1 is connected and no proper cut disconnects it, as for every
        # complete graph.
        path = tmp_path / "k1.txt"
        path.write_text("1 0\n")
        code, out, _ = run(capsys, "analyze", str(path), "--toughness")
        assert code == 0
        assert json.loads(out)["toughness"] == {"undefined": True}

    def test_partition_without_toughness_checked_first(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.g6")
        code, out, err = run(capsys, "analyze", missing, "--partition")
        assert code == 2 and out == ""
        assert err == "error: --partition requires --toughness\n"

    def test_partition_reports_only_a_failed_precondition(self, capsys,
                                                          petersen_file, monkeypatch):
        # Any other fault in the construction stops the run instead of being
        # printed as a failed precondition.
        def broken(g, cut):
            raise GraphTooLarge("not a precondition")

        monkeypatch.setattr("toughlab.cli.claim2_partition", broken)
        code, out, err = run(capsys, "analyze", petersen_file, "--toughness",
                             "--partition")
        assert code == 2 and out == ""
        assert err == "error: not a precondition\n"

    def test_toughness_cap_exit_2(self, capsys, tmp_path):
        # The star K_1,24 has n = 25, one above the cap; --force runs the
        # exact search on it.
        star = from_edge_list(25, [(0, v) for v in range(1, 25)])
        path = tmp_path / "star.txt"
        path.write_text(emit_edge_list(star))
        code, out, err = run(capsys, "analyze", str(path), "--toughness")
        assert code == 2 and out == ""
        assert "exceeds the cap 24" in err and "--force" in err
        code, out, _ = run(capsys, "analyze", str(path), "--toughness", "--force")
        assert code == 0
        tough = json.loads(out)["toughness"]
        assert tough["t"] == {"num": 1, "den": 24}
        assert tough["witness"] == [0] and tough["components"] == 24
        witness = VertexSet.of(25, tough["witness"])
        assert toughness_of_cut(star, witness) == Fraction(1, 24)


class TestVerifyCorpus:
    def test_small_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("cycle 5\npetersen\ncomplete 4\n")
        code, out, _ = run(capsys, "verify-corpus", str(manifest),
                           "--samples", "100")
        assert code == 0
        assert "0 violation(s)" in out
        assert "petersen" in out

    def test_empty_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("")
        code, out, _ = run(capsys, "verify-corpus", str(manifest))
        assert code == 0
        assert "0 graphs checked" in out

    def test_toughness_cap_leaves_exact_t_blank(self, capsys, tmp_path):
        # The cap is 24: C_25 gets no exact t.
        manifest = tmp_path / "m.txt"
        manifest.write_text("cycle 5\ncycle 25\n")
        code, out, _ = run(capsys, "verify-corpus", str(manifest), "--samples", "100")
        assert code == 0
        rows = {line.rsplit(None, 8)[0]: line.split()[-4]
                for line in out.splitlines()[2:4]}
        assert rows == {"cycle 5": "1", "cycle 25": "-"}

    @pytest.mark.parametrize("bad, message", [
        ("circulant 8 4", "connected graphs only"),
        ("complete 1", "needs n >= 2"),
    ], ids=["disconnected", "one-vertex"])
    def test_refused_graph_after_good_line_prints_nothing(self, capsys, tmp_path,
                                                          bad, message):
        # C_8(4) is a perfect matching and K_1 has no lambda: both build, but
        # the checks refuse them, so the run stops before the header.
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"cycle 5\n{bad}\n")
        code, out, err = run(capsys, "verify-corpus", str(manifest), "--samples", "100")
        assert code == 2 and out == ""
        assert f"'{bad}'" in err and message in err

    def test_bad_manifest_line(self, capsys, tmp_path):
        manifest = tmp_path / "bad.txt"
        manifest.write_text("cycle five\n")
        code, _, _ = run(capsys, "verify-corpus", str(manifest))
        assert code == 2

    @pytest.mark.parametrize("bad", ["bogus 3", "cycle 2", "random_regular 5 3 1",
                                     "random_regular 12 3 -7"])
    def test_unbuildable_spec_after_good_line_prints_nothing(self, capsys,
                                                             tmp_path, bad):
        # Every graph is built before the header, so no partial table.
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"cycle 5\n{bad}\n")
        code, out, err = run(capsys, "verify-corpus", str(manifest))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["0", "-1", "10000000000000"])
@pytest.mark.parametrize("command", ["analyze", "verify-corpus"])
def test_samples_out_of_range_exit_2(capsys, petersen_file, command, samples):
    # Checked while the arguments are parsed: no header row, no traceback.
    argv = [petersen_file, "--mixing", "sampled"] if command == "analyze" else []
    code, out, err = run(capsys, command, *argv, "--samples", samples)
    assert code == 2 and out == ""
    assert f"--samples: {samples} is outside 1..10000000" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "verify-corpus"])
def test_non_integer_samples_exit_2(capsys, petersen_file, command):
    argv = [petersen_file, "--mixing", "sampled"] if command == "analyze" else []
    code, out, err = run(capsys, command, *argv, "--samples", "abc")
    assert code == 2 and out == ""
    assert "--samples: 'abc' is not an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "verify-corpus"])
def test_negative_seed_exit_2(capsys, petersen_file, command):
    # A negative seed replays its absolute value's pairs; it is refused while
    # the arguments are parsed.
    argv = [petersen_file, "--mixing", "sampled"] if command == "analyze" else []
    code, out, err = run(capsys, command, *argv, "--seed", "-1")
    assert code == 2 and out == ""
    assert "--seed: -1 is outside 0.." in err
    assert "Traceback" not in err


def test_analyze_byte_identical_across_runs(petersen_file):
    cmd = [sys.executable, "-m", "toughlab.cli", "analyze", petersen_file,
           "--bounds", "--toughness", "--mixing", "sampled",
           "--samples", "200", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def _relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("make_input, flags, digest", [
    (lambda: emit_graph6(petersen()) + "\n",
     "--toughness --bounds --mixing exhaustive --component-bound --partition",
     "0bc9a4c4e896b2a6132621d642d61060818204991da7780a37314fc73a4ba057"),
    (lambda: emit_edge_list(_relabelled(random_regular(18, 3, 1), 42)),
     "--toughness --bounds --partition",
     "d6e642ffb412b1f9686735d9470cf93b9c5debf012a8dd0034170ab261ce3fa3"),
    (lambda: emit_graph6(kneser(7, 3)) + "\n",
     "--bounds --mixing sampled --samples 1000 --component-bound",
     "c4d1c190c402c9931c9913dcd14e03f7a3ab8ffabc0728e7aa03d8c12f4d60e2"),
    # The one case whose partition section succeeds, so it pins the X, Y,
    # size_x, size_y and cross_edges keys.
    (lambda: emit_graph6(random_regular(12, 3, 7)) + "\n",
     "--toughness --bounds --partition",
     "428b7cd1415c513d8f15417f0f68337f4f2cad14069b325de0963278e09cd037"),
], ids=["petersen-all", "rr18-relabelled", "kneser73-sampled", "rr12-partition"])
def test_analyze_matches_pinned_digest(capsys, tmp_path, make_input, flags, digest):
    # Like the verify-corpus digest below: a change to any printed digit,
    # sign, key or section of the report breaks it.
    path = tmp_path / "graph"
    path.write_text(make_input())
    code, out, _ = run(capsys, "analyze", str(path), *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_corpus_matches_pinned_digest(capsys):
    # The benchmark pins this table's sha256; a change to any printed digit,
    # sign or column breaks it here as well as in the benchmark.
    golden = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
    assert main(["verify-corpus", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == golden["corpus_sha256"]


def test_closed_stdout_exits_141_quietly(tmp_path):
    # Unbuffered, so the header reaches the pipe at once and the pipe is
    # closed while the slow second graph is still being checked.
    manifest = tmp_path / "m.txt"
    manifest.write_text("cycle 5\nrandom_regular 16 3 1\n")
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "toughlab.cli", "verify-corpus", str(manifest)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"graph")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_stdout_closed_before_buffered_report_exits_141(petersen_file):
    # Block-buffered stdout: the report only meets the closed pipe when main
    # flushes it, which must happen inside main, not at interpreter exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "toughlab.cli", "analyze", petersen_file],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
