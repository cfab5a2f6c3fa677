"""CLI behavior: outputs, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from cohomix import cli, gotzmann
from cohomix.cli import main

from oracles import goettsche_betti


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "cohomix.cli"] + args,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestGrass:
    def test_poincare_cells(self, capsys):
        assert main(["grass", "poincare", "--n", "4", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "[1, 1, 2, 1, 1]"

    def test_poincare_regular_sequence(self, capsys):
        code = main(["grass", "poincare", "--n", "4", "--k", "2",
                     "--method", "regular-sequence"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[1, 1, 2, 1, 1]"

    def test_poincare_k_zero(self, capsys):
        assert main(["grass", "poincare", "--n", "4", "--k", "0"]) == 0
        assert capsys.readouterr().out.strip() == "[1]"

    def test_methods_agree_up_to_n10(self):
        import io
        from contextlib import redirect_stdout

        for n in range(2, 11):
            for k in range(n + 1):
                outs = []
                for method in ("cells", "regular-sequence"):
                    buf = io.StringIO()
                    with redirect_stdout(buf):
                        code = main(["grass", "poincare", "--n", str(n),
                                     "--k", str(k), "--method", method])
                    assert code == 0
                    outs.append(buf.getvalue())
                assert outs[0] == outs[1]

    def test_poincare_invalid_sizes_exit_2(self):
        for n, k in ((3, 5), (0, 0), (4, -1)):
            for method in ("cells", "regular-sequence"):
                assert main(["grass", "poincare", "--n", str(n), "--k", str(k),
                             "--method", method]) == 2, (n, k, method)

    def test_presentation_text(self, capsys):
        assert main(["grass", "presentation", "--n", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "variables: w_1_1 w_1_2 w_2_1 w_2_2" in out
        assert "degrees: 2 3 1 2" in out
        assert "relation w_1_1: -1*w_1_1*w_2_1 + 1*w_1_2" in out

    def test_presentation_json_round_trip(self, capsys):
        code = main(["grass", "presentation", "--n", "4", "--k", "2",
                     "--equivariant", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["variables"][-1] == "v"
        assert doc["degrees"][-1] == 1
        assert len(doc["relations"]) == 4

    def test_invalid_dims_exit_2(self):
        code, _out, err = run_cli(["grass", "presentation", "--n", "2", "--k", "5"])
        assert code == 2
        assert "error" in err


class TestHilb:
    def test_fixed_points_count(self, capsys):
        assert main(["hilb", "fixed-points", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("count: 22\n")
        assert len(out.strip().splitlines()) == 23

    def test_embed(self, capsys):
        assert main(["hilb", "embed", "--k", "2", "--triple", "1;1;"]) == 0
        assert capsys.readouterr().out.strip() == "[1, 2, 4, 5]"

    def test_embed_malformed_triple(self):
        code, _out, err = run_cli(["hilb", "embed", "--k", "2", "--triple", "1;1"])
        assert code == 2

    def test_embed_size_mismatch(self):
        code, _out, _err = run_cli(["hilb", "embed", "--k", "3", "--triple", "1;1;"])
        assert code == 2

    def test_betti_text(self, capsys):
        assert main(["hilb", "betti", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "betti: [1, 2, 5, 6, 5, 2, 1]" in out
        assert "fixed_points: 22" in out

    def test_betti_json_schema(self, capsys):
        assert main(["hilb", "betti", "--k", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc.keys()) == ["betti", "poincare_t", "fixed_points"]
        assert doc["betti"] == [1, 2, 3, 2, 1]
        assert doc["poincare_t"] == [1, 0, 2, 0, 3, 0, 2, 0, 1]
        assert doc["fixed_points"] == 9

    def test_betti_k8_matches_goettsche(self, capsys):
        expected = goettsche_betti(8, 16)
        assert main(["hilb", "betti", "--k", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "betti: %s" % (expected,)
        assert main(["hilb", "betti", "--k", "8", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == expected

    def test_betti_never_selects_a_schur_basis(self, monkeypatch):
        calls = []
        real = cli.select_schur_basis

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "select_schur_basis", counting)
        for fmt in ("text", "json"):
            assert main(["hilb", "betti", "--k", "3", "--format", fmt]) == 0
        assert len(calls) == 0
        assert main(["hilb", "schur-basis", "--k", "3"]) == 0
        assert len(calls) == 1

    def test_unchecked_gotzmann_image_exit_3(self, capsys, monkeypatch):
        real = gotzmann._chart_positions
        monkeypatch.setattr(
            gotzmann, "_chart_positions", lambda *args: real(*args)[:-1]
        )
        for command in ("betti", "poincare"):
            assert main(["hilb", command, "--k", "3"]) == 3, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "internal invariant violation" in captured.err

    def test_overlapping_gotzmann_charts_exit_3(self, capsys, monkeypatch):
        # every chart keeps |mu| distinct outside positions, but X_1 reuses
        # X_0's, so a triple with boxes at both points has too few outside
        real = gotzmann._chart_positions
        monkeypatch.setattr(
            gotzmann,
            "_chart_positions",
            lambda chart, parts, k: real(0 if chart == 1 else chart, parts, k),
        )
        for command in ("betti", "poincare"):
            assert main(["hilb", command, "--k", "3"]) == 3, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "internal invariant violation" in captured.err

    def test_betti_matches_goettsche_through_k20(self, capsys):
        for k in range(1, 21):
            assert main(["hilb", "betti", "--k", str(k)]) == 0
            lines = capsys.readouterr().out.splitlines()
            expected = goettsche_betti(k, 2 * k)
            assert lines == ["betti: %s" % (expected,), "fixed_points: %d" % sum(expected)]

    def test_schur_basis_reports_deficiency(self, capsys):
        assert main(["hilb", "schur-basis", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "deficiency at p=1: pure Schur rows give 1 of 2" in out

    def test_schur_basis_json(self, capsys):
        assert main(["hilb", "schur-basis", "--k", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["betti"] == [1, 2, 3, 2, 1]
        assert doc["basis"]["1"] == ["1"]

    def test_poincare(self, capsys):
        assert main(["hilb", "poincare", "--k", "3"]) == 0
        assert capsys.readouterr().out.strip() == \
            "[1, 0, 2, 0, 5, 0, 6, 0, 5, 0, 2, 0, 1]"


class TestB2:
    def test_check_not_regular(self, capsys):
        code = main(["b2", "check", "--poincare", "1,0,2,0,5,0,6,0,5,0,2,0,1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "NOT_REGULAR"

    def test_check_inconclusive(self, capsys):
        assert main(["b2", "check", "--poincare", "1,1,2,1,1"]) == 0
        assert capsys.readouterr().out.strip() == "INCONCLUSIVE"

    def test_check_empty_exit_2(self):
        code, _out, _err = run_cli(["b2", "check", "--poincare", ""])
        assert code == 2

    def test_check_garbage_exit_2(self):
        for text in ("1,x,3", "1,,1", "1,1,", "0", "0,0"):
            code, _out, _err = run_cli(["b2", "check", "--poincare", text])
            assert code == 2, text

    def test_jordan(self, capsys):
        assert main(["b2", "jordan", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "5,1 regular=false"
        assert main(["b2", "jordan", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "3 regular=true"

    def test_jordan_json(self, capsys):
        assert main(["b2", "jordan", "--k", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"k": 2, "jordan_type": "5,1", "regular": False}


class TestEq:
    def test_localization(self, capsys):
        assert main(["eq", "localization", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "rank=9 full=true"

    def test_localization_json(self, capsys):
        assert main(["eq", "localization", "--k", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"k": 1, "points": 3, "rank": 3, "full": True}


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["grass", "presentation", "--n", "6", "--k", "2", "--format", "json"],
            ["hilb", "betti", "--k", "2", "--format", "json"],
            ["hilb", "fixed-points", "--k", "3"],
            ["eq", "localization", "--k", "2", "--format", "json"],
        ],
    )
    def test_byte_identical_reruns(self, args):
        first = run_cli(args)
        second = run_cli(args)
        assert first == second
        assert first[0] == 0

    def test_json_round_trip_parses(self):
        _code, out, _err = run_cli(["hilb", "betti", "--k", "1", "--format", "json"])
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc
