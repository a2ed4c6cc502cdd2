import os
import subprocess
import sys
from pathlib import Path

import pytest

from esequiv.algebra import from_expr
from esequiv.cli import run
from esequiv.equivalences import Relation, check


def out_of(capsys):
    return capsys.readouterr().out


class TestCheck:
    def test_related_exits_zero(self, capsys):
        assert run(["check", "hhb", "--expr", "a", "--expr", "a+a"]) == 0
        assert "related" in out_of(capsys)

    def test_unrelated_exits_one(self, capsys):
        assert run(["check", "iso", "--expr", "a", "--expr", "a+a"]) == 1
        assert "not related" in out_of(capsys)

    def test_witness_flag(self, capsys):
        assert run(["check", "st", "--expr", "a;a", "--expr", "a||a", "--witness"]) == 1
        assert "witness:" in out_of(capsys)

    def test_pomset_witness_labels_are_printed_as_text(self, capsys):
        # the library's labels stay codes; the command prints each as text
        ok, wit = check(Relation.PB, from_expr("a;b"), from_expr("a||b"), witness=True)
        assert not ok and isinstance(wit.stuck_label, bytes)
        assert run(["check", "pb", "--expr", "a;b", "--expr", "a||b", "--witness"]) == 1
        assert out_of(capsys) == (
            "pb: not related\n"
            "witness: GameWitness(moves=(('left', '2: a b 0<1'),), stuck_side='right', "
            "stuck_label='2: a b 0<1', position=(0, 0))\n"
        )

    def test_bad_expression_exits_two(self, capsys):
        assert run(["check", "iso", "--expr", "a +", "--expr", "a"]) == 2

    def test_non_prime_exits_two(self):
        assert run(["check", "iso", "--expr", "(a+b);c", "--expr", "a"]) == 2

    def test_missing_input_exits_two(self):
        assert run(["check", "iso", "--expr", "a"]) == 2

    def test_missing_file_exits_two(self):
        assert run(["check", "iso", "--file", "/nonexistent.es", "--expr", "a"]) == 2

    def test_too_many_events_for_iso_exits_two(self, capsys):
        wide = "||".join(["a"] * 256)
        assert run(["check", "iso", "--expr", wide, "--expr", wide]) == 2
        assert capsys.readouterr().err == "error: term has at least 256 events; limit is 255\n"

    @pytest.mark.parametrize("first_file, side", [(True, "left"), (False, "right")])
    def test_inputs_keep_their_order(self, tmp_path, capsys, first_file, side):
        path = tmp_path / "aa.es"
        path.write_text("es v1\nevent 0 a\nevent 1 a\ncause 0 1\n")
        inputs = ["--file", str(path), "--expr", "a"]
        if not first_file:
            inputs = inputs[2:] + inputs[:2]
        assert run(["check", "it", "--witness"] + inputs) == 1
        assert f"TraceWitness(side='{side}', sequence=('a', 'a'))" in out_of(capsys)


@pytest.mark.parametrize("module", ["esequiv", "esequiv.cli"])
def test_python_dash_m_runs_the_command_line(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def check_it(right):
        argv = [sys.executable, "-m", module, "check", "it", "--expr", "a", "--expr", right]
        return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)

    apart, same = check_it("b"), check_it("a")
    assert (apart.returncode, apart.stdout) == (1, "it: not related\n"), apart.stderr
    assert (same.returncode, same.stdout) == (0, "it: related\n"), same.stderr


class TestMatrix:
    def test_seq_vs_par(self, capsys):
        assert run(["matrix", "--expr", "a;a", "--expr", "a||a"]) == 0
        out = out_of(capsys)
        assert "bits: 1010000000" in out

    def test_mixed_expr_and_file(self, tmp_path, capsys):
        path = tmp_path / "x.es"
        path.write_text("es v1\nevent 0 a\nevent 1 a\ncause 0 1\n")
        assert run(["matrix", "--file", str(path), "--expr", "a;a"]) == 0
        assert "bits: 1111111111" in out_of(capsys)


class TestStructureCommands:
    def test_validate(self, capsys):
        assert run(["validate", "--expr", "(a||b)+(a;b)"]) == 0
        out = out_of(capsys)
        assert "events: 4" in out and "configurations: 6" in out

    def test_validate_bounds_configurations(self, capsys):
        assert run(["validate", "--expr", "||".join(["a"] * 25)]) == 2
        out, err = capsys.readouterr()
        assert "configurations; limit is 65536" in err
        assert out == ""  # no half report

    def test_file_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.es"
        path.write_bytes(b"es v1\nevent 0 \xff\n")
        assert run(["validate", "--file", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: ")

    def test_show_roundtrips(self, tmp_path, capsys):
        assert run(["show", "--expr", "a;b"]) == 0
        text = out_of(capsys)
        path = tmp_path / "roundtrip.es"
        path.write_text(text)
        assert run(["validate", "--file", str(path)]) == 0

    def test_show_dot(self, capsys):
        assert run(["show", "--expr", "a;b", "--dot"]) == 0
        assert "digraph es" in out_of(capsys)

    def test_lts_dot(self, capsys):
        assert run(["lts", "--expr", "(a||b)+(a;b)", "--mode", "i", "--dot"]) == 0
        assert out_of(capsys).count("->") == 6

    def test_lts_modes(self, capsys):
        for mode in ("i", "s", "p"):
            assert run(["lts", "--expr", "a||b", "--mode", mode]) == 0

    @pytest.mark.parametrize("mode", ["i", "s", "p"])
    @pytest.mark.parametrize("dot", [False, True])
    def test_lts_output_is_pinned(self, capsys, mode, dot):
        # states in (size, mask) order, each state's moves in (label, target) order
        argv = ["lts", "--expr", "(a||b)+(a;b)", "--mode", mode] + (["--dot"] if dot else [])
        assert run(argv) == 0
        got = out_of(capsys)
        if dot:
            edges = "\n".join(f"  n{a} -> n{b} [label=\"{lab}\"];" for a, lab, b in LTS_MOVES[mode])
            assert got == LTS_DOT_HEAD + edges + "\n}\n"
        else:
            lines = [f"{CONFIGS[a]} --{lab}--> {CONFIGS[b]}" for a, lab, b in LTS_MOVES[mode]]
            head = f"mode: {LTS_MODE_NAMES[mode]}\nstates: 6\ntransitions: {len(lines)}\n"
            assert got == head + "\n".join(lines) + "\n"


#: terms past Python's recursion limit: a chain and a sum over the event
#: bound, and deep parentheses around a small term
LONG_TERMS = {
    "chain": ";".join(["a"] * 1000),
    "sum": "+".join(["a"] * 1000),
    "nested": "(" * 300 + "a;b" + ")" * 300,
}
STRUCTURE_COMMANDS = {
    "validate": ["validate"],
    "show": ["show"],
    "show-dot": ["show", "--dot"],
    "lts": ["lts", "--mode", "i"],
    "check-it": ["check", "it"],
    "check-iso": ["check", "iso"],
    "matrix": ["matrix"],
}


class TestLongTerms:
    @pytest.mark.parametrize("term", sorted(LONG_TERMS))
    @pytest.mark.parametrize("command", sorted(STRUCTURE_COMMANDS))
    def test_exit_without_traceback(self, capsys, command, term):
        argv = STRUCTURE_COMMANDS[command]
        inputs = ["--expr", LONG_TERMS[term]] * (2 if argv[0] in ("check", "matrix") else 1)
        rc = run(argv + inputs)
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        if term == "nested":
            assert rc == 0
        else:
            assert rc == 2
            assert err == "error: term has at least 256 events; limit is 255\n"


CONFIGS = ("{}", "{e0}", "{e1}", "{e2}", "{e0,e1}", "{e2,e3}")
LTS_MODE_NAMES = {"i": "interleaving", "s": "step", "p": "pomset"}
LTS_DOT_HEAD = "digraph lts {\n  rankdir=BT;\n" + "".join(
    f'  n{i} [label="{text}"];\n' for i, text in enumerate(CONFIGS)
)
#: the moves of (a||b)+(a;b) as (source index, label text, target index)
LTS_MOVES = {
    "i": [(0, "a", 1), (0, "a", 3), (0, "b", 2), (1, "b", 4), (2, "a", 4), (3, "b", 5)],
    "s": [
        (0, "{a}", 1), (0, "{a}", 3), (0, "{a,b}", 4), (0, "{b}", 2),
        (1, "{b}", 4), (2, "{a}", 4), (3, "{b}", 5),
    ],
    "p": [
        (0, "1: a", 1), (0, "1: a", 3), (0, "1: b", 2),
        (0, "2: a b", 4), (0, "2: a b 0<1", 5),
        (1, "1: b", 4), (2, "1: a", 4), (3, "1: b", 5),
    ],
}


class TestFixturesCommand:
    def test_all_green(self, capsys):
        assert run(["fixtures"]) == 0
        assert "0 mismatched" in out_of(capsys)


class TestSpectrumCommand:
    def test_small_run_deterministic(self, capsys):
        args = [
            "spectrum", "--class", "cs", "--pairs", "6", "--seed", "5",
            "--max-size", "6", "--alphabet", "1", "--table",
        ]
        assert run(args) == 0
        first = out_of(capsys)
        assert run(args) == 0
        assert out_of(capsys) == first
        assert "violations: 0" in first

    @pytest.mark.parametrize(
        "flags, bound",
        [
            (["--alphabet", "0"], "alphabet 0 is outside 1..10"),
            (["--alphabet", "11"], "alphabet 11 is outside 1..10"),
            (["--max-size", "0"], "min_events 1 exceeds max_events 0"),
            (["--pairs", "-1"], "count -1 is negative"),
        ],
    )
    def test_out_of_range_corpus_exits_two(self, capsys, flags, bound):
        assert run(["spectrum", "--class", "cs"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {bound}\n"


class TestSearchCommand:
    def test_writes_pairs_and_certificate(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        rc = run([
            "search", "--coarse", "it", "--fine", "st", "--max-n", "3",
            "--labels", "1", "--out", out_dir,
        ])
        assert rc == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["certificate.txt", "pair_000_left.es", "pair_000_right.es"]
        assert run(["validate", "--file", os.path.join(out_dir, "pair_000_left.es")]) == 0

    def test_exhausted_search_writes_its_certificate(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        rc = run([
            "search", "--coarse", "sb", "--fine", "iso", "--max-n", "3",
            "--out", str(out_dir),
        ])
        assert rc == 1
        out = out_of(capsys)
        assert out.endswith("exhausted all sizes up to 3: no pair\n")
        assert os.listdir(out_dir) == ["certificate.txt"]
        assert (out_dir / "certificate.txt").read_text(encoding="utf-8") == out

    def test_rerun_removes_only_stale_pairs(self, tmp_path, capsys):
        out_dir = tmp_path / "reuse"
        search = ["search", "--max-n", "3", "--out", str(out_dir)]
        assert run(search + ["--coarse", "it", "--fine", "st"]) == 0
        kept = ["notes.txt", "pair_000.dot", "pair_000_left.es.bak"]
        for name in kept:
            (out_dir / name).write_text("kept\n", encoding="utf-8")
        (out_dir / "pair_x_left.es").mkdir()  # not a file: left alone
        assert run(search + ["--coarse", "sb", "--fine", "iso"]) == 1
        out = out_of(capsys)
        assert out.endswith("exhausted all sizes up to 3: no pair\n")
        names = sorted(os.listdir(out_dir))
        assert names == sorted(["certificate.txt", "pair_x_left.es"] + kept)
        assert (out_dir / "certificate.txt").read_text(encoding="utf-8") in out

    @pytest.mark.parametrize("bound", ["0", "-2", "10"])
    def test_out_of_range_bound_exits_two(self, tmp_path, capsys, bound):
        # a bound outside 1..9 searches nothing, so it certifies nothing
        out_dir = tmp_path / "none"
        rc = run([
            "search", "--coarse", "sb", "--fine", "iso", "--max-n", bound,
            "--out", str(out_dir),
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: search supports 1..9 events, got {bound}\n"
        assert not out_dir.exists()

    def test_empty_search_exits_one(self, tmp_path, capsys):
        rc = run([
            "search", "--coarse", "iso", "--fine", "it", "--max-n", "3",
            "--out", str(tmp_path / "none"),
        ])
        assert rc == 1
        assert "no pair" in out_of(capsys)
