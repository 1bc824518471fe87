"""CLI tests: file formats, subcommands, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import clifton_realization

from kshg import FAMILIES, HyperEdge, ValidationError, cli, random_hypergraph
from kshg.cli import main, parse_hypergraph, parse_rays, serialize_hypergraph, serialize_rays

RT3 = 1.0 / math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRaysFormat:
    def test_basis_vector(self):
        rays = parse_rays("1 0 0 0 0 0\n")
        assert len(rays) == 1
        assert rays[0].amplitudes[0] == 1.0

    def test_rounded_uniform_ray_normalizes(self):
        rays = parse_rays("0.57735 0 0.57735 0 0.57735 0\n")
        assert rays[0].amplitudes[0].real == pytest.approx(RT3, abs=1e-5)
        assert abs(sum(abs(a) ** 2 for a in rays[0].amplitudes) - 1.0) < 1e-12

    def test_wrong_arity_names_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_rays("1 0 1 0\n")

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\n1 0 0 0 0 0  # inline\n0 0 1 0 0 0\n"
        assert len(parse_rays(text)) == 2

    def test_norm_gate_without_normalize(self):
        with pytest.raises(ValidationError, match="line 1"):
            parse_rays("2 0 0 0 0 0\n")
        rays = parse_rays("2 0 0 0 0 0\n", normalize=True)
        assert rays[0].amplitudes[0] == 1.0

    def test_malformed_number(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_rays("1 0 0 0 0 0\n1 0 x 0 0 0\n")

    def test_round_trip(self):
        rays = parse_rays(serialize_rays(clifton_realization()))
        for original, parsed in zip(clifton_realization(), rays):
            assert all(
                abs(a - b) < 1e-15
                for a, b in zip(original.amplitudes, parsed.amplitudes)
            )


class TestHyperGraphFormat:
    def test_single_edge(self):
        h = parse_hypergraph("vertices 2\nedge 1 2 1\n")
        assert h.vertex_count == 2
        assert h.edges == (HyperEdge(0, 1, 1),)

    def test_isolated_vertices(self):
        h = parse_hypergraph("vertices 3\n")
        assert h.vertex_count == 3 and h.edges == ()

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_hypergraph("vertices 2\nedge 1 2 1\nedge 1 2 2\n")

    def test_duplicate_detected_after_normalization(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_hypergraph("vertices 2\nedge 1 2 1\nedge 2 1 2\n")

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError, match="out of range"):
            parse_hypergraph("vertices 2\nedge 1 3 1\n")

    def test_negative_weight(self):
        with pytest.raises(ValidationError, match="negative"):
            parse_hypergraph("vertices 2\nedge 1 2 -1\n")

    def test_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            parse_hypergraph("vertices 2\nedge 1 1 0\n")

    def test_edge_before_vertices(self):
        with pytest.raises(ValidationError, match="before"):
            parse_hypergraph("edge 1 2 1\nvertices 2\n")

    def test_missing_vertices_directive(self):
        with pytest.raises(ValidationError, match="vertices"):
            parse_hypergraph("# nothing here\n")

    def test_generate_serialization_deterministic(self):
        from kshg import FamilySpec, generate

        spec = FamilySpec("torus-lattice", mx=3, my=4, weights=2)
        assert serialize_hypergraph(generate(spec)) == serialize_hypergraph(generate(spec))

    def test_round_trip_500_random(self):
        rng = random.Random(2024)
        for _ in range(500):
            h = random_hypergraph(rng, rng.randint(1, 9), max_weight=4)
            back = parse_hypergraph(serialize_hypergraph(h))
            assert back.vertex_count == h.vertex_count
            assert back.edges == h.edges


class TestPipeline:
    def test_gen_bound(self, capsys, tmp_path):
        out_file = tmp_path / "g.hg"
        code, out, _ = run(capsys, "gen", "linear", "--k", "3", "--weight", "1", "-o", str(out_file))
        assert code == 0
        assert "output = " in out
        code, out, _ = run(capsys, "bound", str(out_file))
        assert code == 0
        assert "classical_bound = 6" in out
        assert "independence = 2" in out
        assert "witness = 1 3" in out

    @pytest.mark.parametrize(
        "argv,vertices",
        [
            (("gen", "complete", "--k", "4"), 4),
            (("gen", "linear", "--k", "5"), 5),
            (("gen", "cyclic", "--k", "6"), 6),
            (("gen", "fractal-tree", "--k", "2"), 7),
            (("gen", "fractal-cyclic", "--k", "2"), 9),
            (("gen", "square-lattice", "--mx", "2", "--my", "3"), 6),
            (("gen", "torus-lattice", "--mx", "3", "--my", "3"), 9),
            (("gen", "wheel7"), 7),
        ],
    )
    def test_gen_all_families(self, capsys, tmp_path, argv, vertices):
        out_file = tmp_path / "out.hg"
        code, out, _ = run(capsys, *argv, "-o", str(out_file))
        assert code == 0
        assert f"vertices = {vertices}" in out
        assert parse_hypergraph(out_file.read_text()).vertex_count == vertices

    def test_demo_clifton(self, capsys):
        code, out, _ = run(capsys, "demo", "clifton", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "CONTRADICTION"
        steps = [ln for ln in lines if ln.startswith("step ")]
        assert len(steps) >= 6
        assert "e0:p0" in lines[-2] and "e0:q0" in lines[-2]

    def test_wheel7_quantum(self, capsys, tmp_path):
        graph = tmp_path / "w7.hg"
        rays = tmp_path / "w7.rays"
        code, _, _ = run(capsys, "gen", "wheel7", "--rays-out", str(rays), "-o", str(graph))
        assert code == 0
        code, out, _ = run(capsys, "quantum", str(graph), "--rays", str(rays))
        assert code == 0
        assert "classification = state-independent" in out
        assert "classical_bound = 58" in out

    def test_weights_command_with_cap(self, capsys, tmp_path):
        # overlap 0.5 needs weight 2, above the cap, so no edge survives
        rays = tmp_path / "pair.rays"
        rays.write_text(f"1 0 0 0 0 0\n0.5 0 {math.sqrt(0.75)} 0 0 0\n")
        out_file = tmp_path / "pair.hg"
        code, out, _ = run(capsys, "weights", str(rays), "--cap", "1", "-o", str(out_file))
        assert code == 0
        assert "edges = 0" in out
        h = parse_hypergraph(out_file.read_text())
        assert h.vertex_count == 2 and h.edges == ()
        code, out, _ = run(capsys, "weights", str(rays), "-o", str(out_file))
        assert code == 0
        assert "edges = 1" in out
        assert parse_hypergraph(out_file.read_text()).edges == (HyperEdge(0, 1, 2),)

    def test_brute_and_mis_agree(self, capsys, tmp_path):
        graph = tmp_path / "c3.hg"
        run(capsys, "gen", "complete", "--k", "3", "--weight", "1", "-o", str(graph))
        code, out, _ = run(capsys, "brute", str(graph))
        assert code == 0
        brute_line = next(ln for ln in out.splitlines() if ln.startswith("brute_force_max"))
        code, out, _ = run(capsys, "mis", str(graph))
        assert code == 0
        mis_line = next(ln for ln in out.splitlines() if ln.startswith("mis_oracle"))
        assert brute_line.split("=")[1] == mis_line.split("=")[1]

    def test_expand_dot(self, capsys, tmp_path):
        graph = tmp_path / "l2.hg"
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", str(graph))
        dot = tmp_path / "l2.dot"
        code, out, _ = run(capsys, "expand", str(graph), "--dot", str(dot))
        assert code == 0
        content = dot.read_text()
        assert content.startswith("graph expansion {")
        assert '[label="P1"]' in content
        assert "// basis 0:" in content

    def test_check_decomposition(self, capsys):
        code, out, _ = run(capsys, "check", "decomposition", "--trials", "25", "--seed", "5")
        assert code == 0
        assert "failures = 0" in out
        assert "status = ok" in out

    def test_verify_clifton(self, capsys, tmp_path):
        graph = tmp_path / "l2.hg"
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", str(graph))
        coords = clifton_realization()
        core_file = tmp_path / "core.rays"
        aux_file = tmp_path / "aux.rays"
        core_file.write_text(serialize_rays(coords[:2]))
        aux_file.write_text(serialize_rays(coords[2:]))
        code, out, _ = run(
            capsys, "verify", str(graph),
            "--rays", str(core_file), "--aux", str(aux_file), "--tol", "1e-9",
        )
        assert code == 0
        assert "overall = pass" in out

    def test_verify_failure_exits_nonzero(self, capsys, tmp_path):
        graph = tmp_path / "l2.hg"
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", str(graph))
        coords = clifton_realization()
        coords[4] = coords[6]  # clobber one auxiliary ray
        core_file = tmp_path / "core.rays"
        aux_file = tmp_path / "aux.rays"
        core_file.write_text(serialize_rays(coords[:2]))
        aux_file.write_text(serialize_rays(coords[2:]))
        code, out, _ = run(
            capsys, "verify", str(graph),
            "--rays", str(core_file), "--aux", str(aux_file), "--tol", "1e-9",
        )
        assert code == 1
        assert "overall = fail" in out


class TestReports:
    def test_json_matches_text_keys(self, capsys, tmp_path):
        graph = tmp_path / "g.hg"
        run(capsys, "gen", "cyclic", "--k", "4", "--weight", "1", "-o", str(graph))
        _, text_out, _ = run(capsys, "bound", str(graph))
        _, json_out, _ = run(capsys, "bound", str(graph), "--json")
        payload = json.loads(json_out)
        text_keys = [ln.split(" = ")[0] for ln in text_out.strip().splitlines()]
        assert list(payload.keys()) == text_keys
        assert payload["classical_bound"] == 10

    def test_reports_byte_identical(self, capsys, tmp_path):
        graph = tmp_path / "w7.hg"
        rays = tmp_path / "w7.rays"
        outputs = []
        for _ in range(2):
            run(capsys, "gen", "wheel7", "--rays-out", str(rays), "-o", str(graph))
            _, bound_out, _ = run(capsys, "bound", str(graph))
            _, quantum_out, _ = run(capsys, "quantum", str(graph), "--rays", str(rays))
            outputs.append(bound_out + quantum_out)
        assert outputs[0] == outputs[1]

    def test_check_deterministic_with_seed(self, capsys):
        _, first, _ = run(capsys, "check", "decomposition", "--trials", "10", "--seed", "3")
        _, second, _ = run(capsys, "check", "decomposition", "--trials", "10", "--seed", "3")
        assert first == second

    @pytest.mark.parametrize("argv,params", [
        (("linear", "--k", "3", "--mx", "2"), ["k"]),
        (("square-lattice", "--mx", "2", "--my", "2", "--k", "9"), ["mx", "my"]),
        (("wheel7", "--k", "5"), []),
    ])
    def test_gen_reports_only_family_parameters(self, capsys, tmp_path, argv, params):
        graph = str(tmp_path / "g.hg")
        keys = ["command", "family", *params, "vertices", "edges", "weight_sum", "output"]
        code, text_out, _ = run(capsys, "gen", *argv, "-o", graph)
        assert code == 0
        assert [ln.split(" = ")[0] for ln in text_out.strip().splitlines()] == keys
        assert "None" not in text_out
        code, json_out, _ = run(capsys, "gen", *argv, "-o", graph, "--json")
        assert code == 0
        payload = json.loads(json_out)
        assert list(payload) == keys
        assert None not in payload.values()

    def test_quantum_underweight_warns_once_per_edge_every_call(self, capsys, tmp_path):
        # both edges carry weight 0 where their overlap of 1/2 needs weight 2
        graph = tmp_path / "path.hg"
        graph.write_text("vertices 3\nedge 1 2 0\nedge 2 3 0\n")
        rays = tmp_path / "path.rays"
        rays.write_text("1 0 0 0 0 0\n1 0 1.7320508075688772 0 0 0\n0 0 1 0 1.4142135623730951 0\n")
        argv = ("quantum", str(graph), "--rays", str(rays), "--normalize", "--underweight", "warn")
        expected = "".join(
            f"warning: edge ({pair}) has weight 0 but its ray overlap requires at least 2; "
            "the model is unrealizable\n"
            for pair in ("p1, p2", "p2, p3")
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        code, out, err = first
        assert code == 0
        assert err == expected
        assert "classical_bound = 2" in out


class TestExitCodes:
    def test_validation_error_is_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("vertices 2\nedge 1 2 1\nedge 1 2 1\n")
        code, _, err = run(capsys, "bound", str(bad))
        assert code == 1
        assert "line 3" in err

    def test_missing_file_is_1(self, capsys):
        code, _, err = run(capsys, "bound", "/nonexistent/path.hg")
        assert code == 1
        assert "path.hg" in err

    def test_capacity_error_is_2(self, capsys, tmp_path):
        graph = tmp_path / "big.hg"
        run(capsys, "gen", "complete", "--k", "4", "--weight", "2", "-o", str(graph))
        code, _, err = run(capsys, "brute", str(graph))
        assert code == 2
        assert "mis_oracle" in err

    @pytest.mark.parametrize("command, limit", [
        ("brute", "the 30-bit enumeration limit; use mis_oracle instead"),
        ("mis", "the exact-search limit of 64"),
    ])
    def test_capacity_checked_before_expansion(self, capsys, tmp_path, monkeypatch, command, limit):
        graph = tmp_path / "heavy.hg"
        graph.write_text("vertices 2\nedge 1 2 1000000\n")

        def refuse(h):
            raise AssertionError("expand ran before the capacity check")

        monkeypatch.setattr("kshg.cli.expand", refuse)
        code, out, err = run(capsys, command, str(graph))
        assert (code, out) == (2, "")
        assert err == f"capacity error: 6000002 vertices exceed {limit}\n"

    def test_verify_counts_rays_before_expansion(self, capsys, tmp_path, monkeypatch):
        graph = tmp_path / "heavy.hg"
        graph.write_text("vertices 2\nedge 1 2 1000000\n")
        core_file = tmp_path / "core.rays"
        core_file.write_text(serialize_rays(clifton_realization()[:2]))

        def refuse(h):
            raise AssertionError("expand ran before the ray counts were checked")

        monkeypatch.setattr("kshg.cli.expand", refuse)
        code, out, err = run(capsys, "verify", str(graph), "--rays", str(core_file))
        assert (code, out) == (1, "")
        assert err == (
            "error: the expansion has 6000000 auxiliary vertices; supply their rays with --aux\n"
        )

    def test_bound_on_long_path(self, capsys, tmp_path):
        graph = tmp_path / "path.hg"
        run(capsys, "gen", "linear", "--k", "2000", "--weight", "0", "-o", str(graph))
        code, out, _ = run(capsys, "bound", str(graph), "--max-vertices", "5000")
        assert code == 0
        assert "classical_bound = 1000\n" in out

    def test_negative_trials_is_1(self, capsys):
        code, out, err = run(capsys, "check", "decomposition", "--trials", "-5")
        assert (code, out, err) == (1, "", "error: --trials must be non-negative, got -5\n")

    @pytest.mark.parametrize("argv, message", [
        (["bound", "g.hg", "--max-vertices", "0"], "argument --max-vertices: must be positive, got 0"),
        (["bound", "g.hg", "--max-vertices", "-5"], "argument --max-vertices: must be positive, got -5"),
        (["mis", "g.hg", "--max-vertices", "0"], "argument --max-vertices: must be positive, got 0"),
        (["quantum", "g.hg", "--rays", "g.rays", "--max-vertices", "0"],
         "argument --max-vertices: must be positive, got 0"),
        (["brute", "g.hg", "--max-bits", "0"], "argument --max-bits: must be positive, got 0"),
        (["brute", "g.hg", "--max-bits", "-3"], "argument --max-bits: must be positive, got -3"),
        (["verify", "g.hg", "--rays", "g.rays", "--tol", "-1"],
         "argument --tol: must be finite and non-negative, got -1.0"),
        (["verify", "g.hg", "--rays", "g.rays", "--tol", "nan"],
         "argument --tol: must be finite and non-negative, got nan"),
    ])
    def test_bad_limit_or_tolerance_is_1(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "linear", "--k", "3", "-o", "g.hg")
        (tmp_path / "g.rays").write_text(serialize_rays(clifton_realization()[:3]))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("value, message", [
        ("0", "must be positive, got 0"),
        ("junk", "invalid int value: 'junk'"),
    ])
    def test_bad_env_max_bits_is_1(self, capsys, tmp_path, monkeypatch, value, message):
        graph = tmp_path / "l2.hg"
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", str(graph))
        monkeypatch.setenv("KSHG_MAX_BITS", value)
        code, out, err = run(capsys, "brute", str(graph))
        assert (code, out, err) == (1, "", f"error: KSHG_MAX_BITS: {message}\n")

    def test_usage_error_is_1(self, capsys):
        code, _, _ = run(capsys, "gen", "linear", "--k", "3")  # missing -o
        assert code == 1

    def test_env_override_max_bits(self, capsys, tmp_path, monkeypatch):
        graph = tmp_path / "l2.hg"
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", str(graph))
        monkeypatch.setenv("KSHG_MAX_BITS", "4")
        code, _, _ = run(capsys, "brute", str(graph))
        assert code == 2
        monkeypatch.setenv("KSHG_MAX_BITS", "12")
        code, out, _ = run(capsys, "brute", str(graph))
        assert code == 0
        assert "brute_force_max = 3" in out
        monkeypatch.setenv("KSHG_MAX_BITS", "junk")
        code, _, _ = run(capsys, "brute", str(graph))
        assert code == 1

    @pytest.mark.parametrize("use_env", [False, True])
    def test_max_bits_above_ceiling_refuses(self, capsys, tmp_path, monkeypatch, use_env):
        graph = tmp_path / "k5.hg"
        run(capsys, "gen", "complete", "--k", "5", "--weight", "2", "-o", str(graph))
        if use_env:
            monkeypatch.setenv("KSHG_MAX_BITS", "200")
            code, out, err = run(capsys, "brute", str(graph))
        else:
            code, out, err = run(capsys, "brute", str(graph), "--max-bits", "200")
        assert (code, out) == (2, "")
        assert err == (
            "capacity error: 125 vertices exceed the 62-bit enumeration limit; "
            "use mis_oracle instead\n"
        )

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        graph = tmp_path / "l2.hg"
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", str(graph))
        monkeypatch.setenv("KSHG_MAX_BITS", "4")
        code, _, _ = run(capsys, "brute", str(graph), "--max-bits", "12")
        assert code == 0

    def test_rays_out_limited_to_wheel7(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "linear", "--k", "3",
            "--rays-out", str(tmp_path / "r.rays"), "-o", str(tmp_path / "g.hg"),
        )
        assert code == 1
        assert "wheel7" in err

    def test_demo_needs_positive_weight(self, capsys):
        code, _, err = run(capsys, "demo", "clifton", "--n", "0")
        assert code == 1
        assert "n >= 1" in err

    def test_quantum_ray_count_mismatch(self, capsys, tmp_path):
        graph = tmp_path / "w7.hg"
        rays = tmp_path / "short.rays"
        run(capsys, "gen", "wheel7", "-o", str(graph))
        rays.write_text("1 0 0 0 0 0\n")
        code, _, err = run(capsys, "quantum", str(graph), "--rays", str(rays))
        assert code == 1
        assert "7 vertices" in err


class TestRepeatedCalls:
    """`main` reuses one parser per process; no call may leave state for the next."""

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_each_call_answers_like_the_first_of_its_kind(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run(capsys, "gen", "linear", "--k", "2", "--weight", "1", "-o", "g.hg")
        cli._parser.cache_clear()

        def bits(value):
            def call():
                monkeypatch.setenv("KSHG_MAX_BITS", value)
                return run(capsys, "brute", "g.hg")
            return call

        def helped():
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        kinds = {
            "usage error": lambda: run(capsys, "bound", "g.hg", "--max-vertices", "0"),
            "bound": lambda: run(capsys, "bound", "g.hg"),
            "bound json": lambda: run(capsys, "bound", "g.hg", "--json"),
            "brute at 4 bits": bits("4"),
            "brute at 12 bits": bits("12"),
            "help": helped,
        }
        first = {}
        for kind in [*kinds, *kinds, *reversed(kinds)]:
            result = kinds[kind]()
            assert first.setdefault(kind, result) == result, kind
        assert cli._parser.cache_info().misses == 1
        assert first["usage error"] == (1, "", "error: argument --max-vertices: must be positive, got 0\n")
        assert first["bound"][0] == 0 and first["bound"][1].startswith("command = bound\n")
        assert json.loads(first["bound json"][1])["classical_bound"] == 3
        assert first["brute at 4 bits"] == (
            2, "", "capacity error: 8 vertices exceed the 4-bit enumeration limit; use mis_oracle instead\n"
        )
        assert first["brute at 12 bits"][0] == 0 and "brute_force_max = 3\n" in first["brute at 12 bits"][1]
        assert first["help"][0] == 0 and first["help"][1].startswith("usage: kshg")


_JUNK_HG = [
    "", "# note", "vertices 0", "vertices 3", "edge 1 2", "edge 1 x 1", "edge 1 1 1", "edge 1 9 1",
    "edge 1 2 -1", "vertices two", "loop 1 2 3",
]
_RAYS = [
    "1 0 0 0 0 0", "0 0 1 0 0 0", "0 0 0 0 0 1", "0.7071067811865476 0 0.7071067811865476 0 0 0",
    "0.5773502691896258 0 -0.5773502691896258 0 0 0.5773502691896258",
]
_JUNK_RAYS = ["", "2 0 0 0 0 0", "1 0 0", "1 0 x 0 0 0", "nan 0 0 0 0 0", "inf 0 0 0 0 0", "0 0 0 0 0 0"]
_LIMITS = ["1", "40", "64", "500", "0", "x"]
# Per subcommand: the positional choices, then (option, values, always) triples, where
# values None is a flag. Options marked always are on every command line: brute's
# --max-bits and check's --trials keep every run to milliseconds.
_COMMANDS = {
    "gen": ([*FAMILIES, "bogus"], [
        ("--k", ["1", "2", "3", "5", "-1", "x"], False), ("--mx", ["1", "3", "0"], False),
        ("--my", ["2", "3", "0"], False), ("--weight", ["0", "1", "2", "-1"], False),
        ("--weights", ["1", "0,1", "2,1,0", "1,x", "", "-1,2"], False),
        ("--delta", ["0.005", "0", "0.3", "-1", "nan", "x"], False),
        ("--rays-out", ["@out.rays"], False), ("-o", ["@out.hg"], True)]),
    "weights": (["@g.rays"], [("--cap", ["0", "1", "3", "-1", "x"], False), ("--normalize", None, False),
                             ("-o", ["@out.hg"], True)]),
    "bound": (["@g.hg"], [("--max-vertices", _LIMITS, False)]),
    "brute": (["@g.hg"], [("--max-bits", ["12", "20", "1", "0", "x"], True)]),
    "mis": (["@g.hg"], [("--max-vertices", _LIMITS, False)]),
    "expand": (["@g.hg"], [("--dot", ["@out.dot"], False)]),
    "quantum": (["@g.hg"], [("--rays", ["@g.rays"], True), ("--normalize", None, False),
                            ("--underweight", ["error", "warn", "bogus"], False),
                            ("--max-vertices", _LIMITS, False)]),
    "demo": (["clifton", "other"], [("--n", ["1", "2", "3", "0", "x"], False)]),
    "check": (["decomposition", "other"], [("--trials", ["0", "2", "-1", "x"], True),
                                          ("--seed", ["0", "7", "x"], False)]),
    "verify": (["@g.hg"], [("--rays", ["@g.rays"], True),
                           ("--aux", ["@aux.rays", "", "@missing.rays"], False),
                           ("--tol", ["1e-9", "0.5", "0", "-1", "nan", "x"], False),
                           ("--normalize", None, False)]),
}


def command_line(rng: random.Random, command: str) -> tuple[list[str], dict[str, str]]:
    """`command` with random options and small work files, mostly valid, some
    with one junk line; '@name' stands for a file in the work directory."""
    positionals, options = _COMMANDS[command]
    argv = [command, rng.choice(positionals)]
    for option, values, always in options:
        if always or rng.random() < 0.5:
            argv += [option] if values is None else [option, rng.choice(values)]
    if rng.random() < 0.5:
        argv.append("--json")

    def lines(pool: list[str], count: int, junk: list[str]) -> str:
        out = [rng.choice(pool) for _ in range(count)]
        if rng.random() < 0.25:
            out.insert(rng.randint(0, count), rng.choice(junk))
        return "\n".join(out) + "\n"

    k = rng.randint(1, 5)
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    weights = {pair: rng.randint(0, 2) for pair in rng.sample(pairs, min(rng.randint(0, 4), len(pairs)))}
    edges = "".join(f"edge {i} {j} {w}\n" for (i, j), w in weights.items())
    files = {
        "g.hg": lines([f"vertices {k}"], 1, _JUNK_HG) + edges,
        "g.rays": lines(_RAYS, rng.choice([k, k, k, 2]), _JUNK_RAYS),
        "aux.rays": lines(_RAYS, rng.choice([6 * sum(weights.values()), 1]), _JUNK_RAYS),
    }
    return argv, files


class TestFuzz:
    # Uniform choices from a seeded generator: hypothesis's own draws favour the
    # ends of each list, which left some error paths of a subcommand unvisited.
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=100, deadline=None)
    @given(rng=st.randoms(use_true_random=True))
    def test_exit_contract(self, command, rng):
        argv, files = command_line(rng, command)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as work:
            for name, text in files.items():
                with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = [os.path.join(work, a[1:]) if a.startswith("@") else a for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        if code and lines:
            prefix = "error: " if code == 1 else "capacity error: "
            assert lines[-1].startswith(prefix)
            assert sum(line.startswith(("error: ", "capacity error: ")) for line in lines) == 1
        elif code:  # a failed verification reports itself and exits 1 with a quiet stderr
            assert (code, argv[0]) == (1, "verify")
            assert out.getvalue().endswith(("overall = fail\n", '"overall": "fail"\n}\n'))
