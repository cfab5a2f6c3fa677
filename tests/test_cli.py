"""CLI behavior: outputs, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import subprocess
import sys

import pytest

from cohomix import cli, filtration, gotzmann
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
        for n, k in ((0, 0), (4, -1)):
            assert main(["grass", "presentation", "--n", str(n), "--k", str(k)]) == 2

    def test_presentation_of_a_point(self, capsys):
        # Gr(4, 4) (k = 0) is a point, as grass poincare already said: no
        # generator and no relation, in both formats; the equivariant ring
        # of the point Gr(0, 4) (k = 4) is v alone
        assert main(["grass", "presentation", "--n", "4", "--k", "0"]) == 0
        assert capsys.readouterr().out == "variables:\ndegrees:\n"
        assert main(["grass", "presentation", "--n", "4", "--k", "0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"variables": [], "degrees": [], "relations": []}
        assert main(["grass", "presentation", "--n", "4", "--k", "4", "--equivariant"]) == 0
        assert capsys.readouterr().out == "variables: v\ndegrees: 1\n"


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

    @pytest.mark.parametrize("triple, message", [
        ("1;x;", "error: part 1 of partition 'x' is not an integer: 'x'"),
        ("2,1,;;", "error: part 3 of partition '2,1,' is not an integer: ''"),
        # int() would read these as (10) and (1, 1)
        ("1_0;;", "error: part 1 of partition '1_0' is not an integer: '1_0'"),
        ("١,١;;", "error: part 1 of partition '١,١' is not an integer: '١'"),
    ])
    def test_embed_non_integer_part_named(self, triple, message, capsys):
        assert main(["hilb", "embed", "--k", "2", "--triple", triple]) == 2
        assert capsys.readouterr().err.strip() == message

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
        real = filtration.select_schur_basis

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # the handler imports it from filtration when it runs
        monkeypatch.setattr(filtration, "select_schur_basis", counting)
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

    def test_fault_in_the_last_triples_exit_3(self, capsys, monkeypatch):
        # only chart X_0's k-box diagrams lose a position, so only the
        # last triples in enumeration order fail
        real = gotzmann._chart_positions

        def dropping(chart, parts, k):
            positions = real(chart, parts, k)
            return positions[:-1] if chart == 0 and sum(parts) == k else positions

        monkeypatch.setattr(gotzmann, "_chart_positions", dropping)
        assert main(["hilb", "betti", "--k", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal invariant violation" in captured.err
        assert "4;;:" in captured.err

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

    def test_schur_basis_help_says_it_is_not_a_basis(self, capsys):
        with pytest.raises(SystemExit):
            main(["hilb", "--help"])
        assert "not a basis of H*(Hilb_k)" in " ".join(capsys.readouterr().out.split())
        # at k = 2, p = 4 the rank jump is two, where b_4 = 1
        assert main(["hilb", "schur-basis", "--k", "2"]) == 0
        assert "p=4: (2,2) (2,1,1)" in capsys.readouterr().out.splitlines()

    def test_betti_help_names_the_cell_route(self, capsys):
        # hilb betti counts attracting cells (hilb_betti); the fixed-point
        # filtration is the Grassmannian route
        with pytest.raises(SystemExit):
            main(["hilb", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "betti Betti numbers from the attracting cells" in out
        assert "filtration" not in out

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

    @pytest.mark.parametrize("text, token", [
        ("1_0,1", "1_0"), ("1,١", "١"), ("1,²", "²"), ("1,0x1", "0x1"),
    ])
    def test_check_only_ascii_integers(self, text, token, capsys):
        # int() would read 1_0 as 10, and the Arabic-Indic one as 1
        assert main(["b2", "check", "--poincare", text]) == 2
        message = "error: --poincare expects comma-separated integers, got %r" % token
        assert capsys.readouterr().err.strip() == message

    def test_check_signs_and_spaces_still_read(self, capsys):
        assert main(["b2", "check", "--poincare", " 1, +1,2 ,1,1\n"]) == 0
        assert capsys.readouterr().out.strip() == "INCONCLUSIVE"

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


class TestIntegerOptions:
    @pytest.mark.parametrize("argv, token", [
        (["hilb", "fixed-points", "--k", "1_0"], "1_0"),
        (["hilb", "fixed-points", "--k", "٣"], "٣"),
        (["b2", "jordan", "--k", "²"], "²"),
        (["grass", "poincare", "--n", "١٠", "--k", "2"], "١٠"),
        (["grass", "presentation", "--n", "4", "--k", "0_2"], "0_2"),
    ])
    def test_only_ascii_integers(self, argv, token, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid int value: %r" % token in capsys.readouterr().err

    def test_signs_and_spaces_still_read(self, capsys):
        assert main(["hilb", "fixed-points", "--k", " +3 "]) == 0
        assert capsys.readouterr().out.startswith("count: 22\n")


def _command_paths(parser, path=()):
    # every leaf command of the parser, as its argv prefix
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _command_paths(child, path + (name,))


COMMANDS = list(_command_paths(cli.build_parser()))


class TestHelp:
    def test_every_command_listed(self):
        assert len(COMMANDS) == 10

    def test_top_level(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: cohomix ")
        assert all(group in out for group in ("grass", "hilb", "b2", "eq"))

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_command(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(command) + ["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: cohomix %s " % " ".join(command))
        assert "--format {text,json}" in out


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


# The t-polynomial of Gr(10, 5), [10, 5]_q at q = t^2: degree 50 like the
# benchmark's b2 check inputs, and a product of cyclotomics, so INCONCLUSIVE
T_GR_10_5 = (
    "1,0,1,0,2,0,3,0,5,0,7,0,9,0,11,0,14,0,16,0,18,0,19,0,20,0,"
    "20,0,19,0,18,0,16,0,14,0,11,0,9,0,7,0,5,0,3,0,2,0,1,0,1"
)

# sha256 of stdout, text (the default) then json, for every subcommand at
# the sizes of the benchmark's cli workload.  A change that alters a byte
# of it updates the digest here and says what changed and why in
# CHANGES.md.
STDOUT_SHA256 = {
    "grass presentation --n 6 --k 3 --equivariant": (
        "a9cd39d1b36e8a6e82ba299986abdc39e3dd8df7d240e5593fa5120e6391470b",
        "b641e754c6c0379ba090be3175eb7f06ccddee90c8e64e1508ed649cc7011c65",
    ),
    "grass poincare --n 12 --k 5 --method cells": (
        "a20117ebc257d28e1bd55c1e8357b9ad0f983bb9a316fd6e7d123413ddaa7358",
        "3216559721100f260c2bc3938b078b43e2de5f3afbabfcf5e2cc0d8273cb715c",
    ),
    "grass poincare --n 12 --k 5 --method regular-sequence": (
        "a20117ebc257d28e1bd55c1e8357b9ad0f983bb9a316fd6e7d123413ddaa7358",
        "a7d52191edd4e5f209921c7d30fdd227c51cbf2e6b7c80393d652e53f5035799",
    ),
    "hilb fixed-points --k 8": (
        "138bdc489564f711c10f50b02d765c7dc080ccedb913c8015cee46ee0ce08bc8",
        "f76e42bbc853d9d5238f1220eaffe558539ad158a5f323c9638c9d2d33cea9cc",
    ),
    "hilb embed --k 6 --triple 2,1;1;1,1": (
        "2115c695b655725e341f68b910ae1c2d314cbb345f105d511bc30fa6d0573a4d",
        "02d8f39b26bf07f223dbc83dd3f9c96d2a76127d6ffa62be0dc37244615c5584",
    ),
    "hilb betti --k 3": (
        "b1c52346f729220c4dfd07209951d7498fbdf761efee0d3fbda84cfc1e66fd1f",
        "d34dfed2121a828687483b0d8ffdaeeb0a29beb6b2fdd3edad69ac0bdd391d05",
    ),
    "hilb schur-basis --k 3": (
        "2f81b37b88d83d03bc9eb0ec3037c2581ac13380122bae8be7ef7b5f8e75990d",
        "8d2960983a4e640c067e2b80440ee6523fe56960815db7c4a66183eba5dbbd1c",
    ),
    "hilb poincare --k 8": (
        "73c9e5d3050f9988e61a77f888ef2f343c80b9b7b025f9e2011f52849b1dc6fe",
        "32df89328905b6620d8c8cafa5e57a8a21b1a0f4cdca96c812fd5d71c520734d",
    ),
    "b2 check --poincare=1,0,2,0,5,0,6,0,5,0,2,0,1": (
        "cba0fbfa2769ab6bfffc7def4773a512df8d640da503638f8a78954a388d7f29",
        "a7e973b5c6b586faa7c54f1c03aa523fa6a082f174286978a9e5ce751df7fb5c",
    ),
    "b2 check --poincare=" + T_GR_10_5: (
        "7aba665076e98d0937499081a49d508b1454b8637d55294c65fedc60a7c11674",
        "71cdf408be8721989dad013d3f68d819eeef766e7b420f4990aa3e7214ca642e",
    ),
    "b2 jordan --k 4": (
        "cf2ad120d75abba82763f3097e8ba773e3b6fe7df8594254ec9959dd334be98f",
        "bd8b303d8946c51797c76107d72961ae7218e047eabea9ecacbe0acb689ddbd8",
    ),
    "eq localization --k 3": (
        "fdd0875841dc783e6605eb92be218b073d72a64d2d37b987e5a2658b7822d844",
        "9cca594cdf90e3f2729d9f8bd68f9269b8a6ce48e59c1926b647688a1603ad11",
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestPinnedStdout:
    def test_every_subcommand_pinned(self):
        pinned = {tuple(command.split()[:2]) for command in STDOUT_SHA256}
        assert pinned == set(COMMANDS)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "command", STDOUT_SHA256, ids=lambda c: c.replace(T_GR_10_5, "T_GR_10_5")
    )
    def test_stdout_digest(self, command, fmt, capsys):
        argv = command.split() + (["--format", "json"] if fmt == "json" else [])
        assert main(argv) == 0
        assert _sha256(capsys.readouterr().out) == STDOUT_SHA256[command][fmt == "json"]

    def test_module_entry_point_prints_the_same_bytes(self):
        # the entry point of every cli benchmark child, in its own interpreter
        code, out, _err = run_cli(["b2", "jordan", "--k", "4"])
        assert code == 0
        assert _sha256(out) == STDOUT_SHA256["b2 jordan --k 4"][0]
