"""Command line behaviour: output shapes, input handling, exit codes."""

from __future__ import annotations

import errno
import io
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

import helpers
from vlgmatch.automaton import Automaton
from vlgmatch.bitvec import BitPlan
from vlgmatch import automaton, bitvec, cli, oracle
from vlgmatch.cli import InputDocument, ingest_fasta, run
from vlgmatch.gapgraph import build_implicit_gap_graph
from vlgmatch.oracle import (brute_force_combinations, brute_force_endpoints,
                             occurrences_by_layer)
from vlgmatch.pattern import parse_pattern
from vlgmatch.reporter import report_chunked, report_on_the_fly

EXAMPLE = helpers.EXAMPLE_TEXT.decode()


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "text.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT + b"\n")
    return str(path)


@pytest.fixture
def built(monkeypatch):
    """Per class, the arguments of every Automaton and BitPlan built."""
    made = {Automaton: [], BitPlan: []}
    for cls, calls in made.items():
        def counting_init(self, arg, _init=cls.__init__, _calls=calls):
            _calls.append(arg)
            _init(self, arg)
        monkeypatch.setattr(cls, "__init__", counting_init)
    return made


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_golden_output(capsys, example_file):
    code, out, err = _run(capsys, [
        "match", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file])
    assert (code, err) == (0, "")
    assert out == "17\n28\n31\n"


@pytest.mark.parametrize("tail", [b"", b"\n", b"\r\n"])
def test_trailing_newline_stripped_once(capsys, tmp_path, tail):
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT + tail)
    code, out, _ = _run(capsys, [
        "match", "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)])
    assert code == 0
    assert out == "17\n28\n31\n"


@pytest.mark.parametrize("tail", [b"", b"\n", b"\r\n"])
def test_load_documents_holds_one_copy_of_a_file(tmp_path, tail):
    text = b"ACGT" * (1 << 18)
    path = tmp_path / "t.txt"
    path.write_bytes(text + tail)
    args = SimpleNamespace(text=str(path), fasta=False)
    tracemalloc.start()
    try:
        docs = cli._load_documents(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert docs == [InputDocument(None, text)]
    assert peak < 1.1 * len(text)


@pytest.mark.parametrize("content, text", [
    (b"\n", b""), (b"\r\n", b""), (b"", b""), (b"\r", b"\r"), (b"\n\n", b"\n"),
    (b"A\r\r\n", b"A\r")])
def test_load_documents_short_files(tmp_path, content, text):
    path = tmp_path / "t.txt"
    path.write_bytes(content)
    docs = cli._load_documents(SimpleNamespace(text=str(path), fasta=False))
    assert docs == [InputDocument(None, text)]


@pytest.mark.skipif(not os.path.isfile("/proc/self/status"), reason="no procfs")
def test_load_documents_procfs_file():
    # procfs gives its files length 0; the text is what reading gives
    docs = cli._load_documents(SimpleNamespace(text="/proc/self/status", fasta=False))
    (doc,) = docs
    assert doc.sequence.startswith(b"Name:") and not doc.sequence.endswith(b"\n")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
@pytest.mark.parametrize("tail", [b"", b"\n", b"\r\n", b"\r"])
def test_dev_stdin_pipe_strips_one_newline(tail):
    data = helpers.EXAMPLE_TEXT + tail
    result = subprocess.run(
        [sys.executable, "-m", "vlgmatch", "stats", "-p", helpers.EXAMPLE_PATTERN,
         "-t", "/dev/stdin"],
        input=data, capture_output=True, env=helpers.module_cli_env(), timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    n = len(data) - {b"\n": 1, b"\r\n": 2}.get(tail, 0)
    assert result.stdout.startswith(b"n %d\nm " % n)


def test_inner_newlines_are_text_characters(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"GT\nGT\n")
    code, out, _ = _run(capsys, ["match", "-p", "GT", "-t", str(path)])
    assert code == 0
    assert out == "2\n5\n"


def test_match_json_output(capsys, example_file):
    code, out, _ = _run(capsys, [
        "match", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file,
        "--format", "json"])
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"end": 17}, {"end": 28}, {"end": 31}]


def test_match_nothing_is_success(capsys, example_file):
    code, out, err = _run(capsys, ["match", "-p", "AAAA", "-t", example_file])
    assert (code, out, err) == (0, "", "")


def test_unbounded_pattern_can_match(capsys, example_file):
    code, out, _ = _run(capsys, [
        "match", "-p", "A.{2,*}GT", "-t", example_file])
    assert code == 0
    assert out == "17\n23\n28\n31\n"


def test_combos_both_engines_agree_with_oracle(capsys, example_file, tmp_path):
    """Every engine and the oracle print the same bytes: plain and FASTA
    input, text and JSON lines."""
    fasta = tmp_path / "two.fa"
    fasta.write_bytes(b">r1\n" + helpers.EXAMPLE_TEXT + b"\n>r2 x\n"
                      + helpers.EXAMPLE_TEXT[5:] + b"\n")
    for path in (example_file, str(fasta)):
        for fmt in ("text", "json"):
            outputs = {}
            for label, argv in (
                ("default", ["combos"]),
                ("onthefly", ["combos", "--engine", "onthefly"]),
                ("chunked", ["combos", "--engine", "chunked"]),
                ("oracle", ["oracle", "combos"]),
            ):
                code, out, err = _run(capsys, argv + [
                    "-p", helpers.COMBO_PATTERN, "-t", path, "--format", fmt])
                assert (code, err) == (0, "")
                outputs[label] = out
            for label, out in outputs.items():
                assert out == outputs["oracle"], (path, fmt, label)
    code, out, _ = _run(capsys, [
        "combos", "-p", helpers.COMBO_PATTERN, "-t", example_file])
    combos = [tuple(map(int, line.split(","))) for line in out.splitlines()]
    assert len(combos) == 17 and (5, 9, 12, 17) in combos
    # by last end, then by the earlier ends from the last
    assert combos == sorted(combos, key=lambda combo: combo[::-1])


def test_combos_json_round_trip(capsys, example_file):
    code, out, _ = _run(capsys, [
        "combos", "-p", helpers.COMBO_PATTERN, "-t", example_file,
        "--format", "json"])
    assert code == 0
    combos = {tuple(json.loads(line)["ends"]) for line in out.splitlines()}
    assert helpers.COMBO_FIVE <= combos and len(combos) == 17


def test_match_ends_are_distinct_combo_finals(capsys, example_file):
    _, match_out, _ = _run(capsys, [
        "match", "-p", helpers.COMBO_PATTERN, "-t", example_file])
    _, combos_out, _ = _run(capsys, [
        "combos", "-p", helpers.COMBO_PATTERN, "-t", example_file])
    finals = {line.rsplit(",", 1)[1] for line in combos_out.splitlines()}
    assert sorted(finals, key=int) == match_out.split()


def test_oracle_match_mirrors_match(capsys, example_file):
    _, fast, _ = _run(capsys, [
        "match", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file])
    _, slow, _ = _run(capsys, [
        "oracle", "match", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file])
    assert fast == slow == "17\n28\n31\n"


def test_graph_golden_dump(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"AB")
    code, out, _ = _run(capsys, ["graph", "-p", "A.{0,0}B", "-t", str(path)])
    assert code == 0
    assert out == "N 1 1\nN 2 2\nE 2 2 1 1\n"
    code, out, _ = _run(capsys, [
        "graph", "-p", "A.{0,0}B", "-t", str(path), "--format", "json"])
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"type": "node", "layer": 1, "end": 1},
        {"type": "node", "layer": 2, "end": 2},
        {"type": "edge", "layer": 2, "end": 2, "pred_layer": 1, "pred_end": 1},
    ]


def test_stats_golden_output(capsys, example_file):
    code, out, _ = _run(capsys, [
        "stats", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file])
    assert code == 0
    assert out == (
        "n 31\nm 5\nk 3\nA 8\nB 13\nalpha 14\n"
        "layer_occurrences 5,5,4\nmatches 3\nbeta 4\npeak_ranges 3,1\n")


def test_stats_one_piece_text(capsys, example_file):
    code, out, _ = _run(capsys, ["stats", "-p", "GT", "-t", example_file])
    assert code == 0
    assert out == (
        "n 31\nm 2\nk 1\nA 0\nB 0\nalpha 4\n"
        "layer_occurrences 4\nmatches 4\nbeta 4\npeak_ranges -\n")


def test_stats_json_types(capsys, example_file):
    code, out, _ = _run(capsys, [
        "stats", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file,
        "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 31, "m": 5, "k": 3, "A": 8, "B": 13, "alpha": 14,
        "layer_occurrences": [5, 5, 4], "matches": 3, "beta": 4,
        "peak_ranges": [3, 1]}


def test_stats_unbounded_fields(capsys, example_file):
    code, out, _ = _run(capsys, [
        "stats", "-p", "A.{2,*}GT", "-t", example_file])
    assert code == 0
    lines = out.splitlines()
    assert "B unbounded" in lines
    assert "beta unavailable" in lines
    code, out, _ = _run(capsys, [
        "stats", "-p", "A.{2,*}GT", "-t", example_file, "--format", "json"])
    payload = json.loads(out)
    assert payload["B"] is None and payload["beta"] is None


@pytest.mark.parametrize("expr, text", [
    ("A.{0,5}ABC", b"AB"),
    ("ACGT.{0,2}ACGT", b"ACGT"),
    ("GT.{1,3}GT.{0,9}GT", b"GTAGT"),
    ("GT", b""),
])
def test_stats_counts_occurrences_in_text_shorter_than_pattern(
        capsys, tmp_path, expr, text):
    path = tmp_path / "t.txt"
    path.write_bytes(text)
    code, out, _ = _run(capsys, [
        "stats", "-p", expr, "-t", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    expected = [len(ends) for ends in
                occurrences_by_layer(parse_pattern(expr), text)]
    assert payload["layer_occurrences"] == expected
    assert payload["alpha"] == sum(expected)
    assert (payload["matches"], payload["beta"]) == (0, 0)


def test_bad_pattern_exits_2(capsys, example_file):
    code, out, err = _run(capsys, [
        "match", "-p", "A.{5,2}B", "-t", example_file])
    assert code == 2
    assert out == ""
    assert err.startswith("vlgmatch: ")


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, [
        "match", "-p", "A", "-t", str(tmp_path / "nope.txt")])
    assert code == 2
    assert err.startswith("vlgmatch: ")


def test_unbounded_gaps_rejected_for_combos_and_graph(capsys, example_file, tmp_path):
    for argv in (["combos", "-p", "A.{2,*}GT", "-t", example_file],
                 ["graph", "-p", "A.{2,*}GT", "-t", example_file],
                 ["oracle", "combos", "-p", "A.{2,*}GT", "-t", example_file]):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert "bounded" in err
    # rejected before the first record, so also when there is none
    empty = tmp_path / "empty.fa"
    empty.write_bytes(b"")
    for argv, what in ((["combos"], "combination reporting"),
                       (["graph"], "the predecessor graph"),
                       (["oracle", "combos"], "combination reporting")):
        code, out, err = _run(capsys, [
            *argv, "-p", "A.{2,*}GT", "-t", str(empty), "--fasta"])
        assert (code, out) == (2, ""), argv
        assert err == f"vlgmatch: {what} requires bounded gap upper bounds\n"


def test_usage_errors_exit_2(capsys):
    assert run(["bogus"]) == 2
    assert run(["match", "-p", "A"]) == 2  # missing -t
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "variable-length gaps" in capsys.readouterr().out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", SimpleNamespace(buffer=io.BytesIO(helpers.EXAMPLE_TEXT)))
    code, out, _ = _run(capsys, [
        "match", "-p", helpers.EXAMPLE_PATTERN, "-t", "-"])
    assert code == 0
    assert out == "17\n28\n31\n"


FASTA_SAMPLE = (b">seq1 first record\n"
                b"ATCGGCTCCA\n"
                b"GACCAGTACC CGTTCCGTGGT\n"
                b">hollow\n"
                b"\n"
                b">seq2\nGTGT\n")


FASTA_GT_ENDS = "seq1:17\nseq1:23\nseq1:28\nseq1:31\nseq2:2\nseq2:4\n"
FASTA_GT_STATS = ("n {n}\nm 2\nk 1\nA 0\nB 0\nalpha {a}\nlayer_occurrences {a}\n"
                  "matches {a}\nbeta {a}\npeak_ranges -\n")


@pytest.mark.parametrize("argv, expected", [
    (["match"], FASTA_GT_ENDS),
    (["combos"], FASTA_GT_ENDS),
    (["combos", "--engine", "onthefly"], FASTA_GT_ENDS),
    (["combos", "--engine", "chunked"], FASTA_GT_ENDS),
    (["graph"], "seq1:N 1 17\nseq1:N 1 23\nseq1:N 1 28\nseq1:N 1 31\n"
                "seq2:N 1 2\nseq2:N 1 4\n"),
    (["stats"], "record seq1\n" + FASTA_GT_STATS.format(n=31, a=4)
                + "record seq2\n" + FASTA_GT_STATS.format(n=4, a=2)),
], ids=["match", "combos", "combos-onthefly", "combos-chunked", "graph", "stats"])
def test_fasta_records_searched_independently(capsys, tmp_path, argv, expected):
    """Every engine skips the empty ``hollow`` record with one warning."""
    path = tmp_path / "r.fa"
    path.write_bytes(FASTA_SAMPLE)
    code, out, err = _run(capsys, [*argv, "-p", "GT", "-t", str(path)])
    assert code == 0
    assert out == expected
    assert "hollow" in err and "empty sequence" in err
    assert err.count("hollow") == 1


def test_fasta_json_carries_record_ids(capsys, tmp_path):
    path = tmp_path / "r.fa"
    path.write_bytes(FASTA_SAMPLE)
    code, out, _ = _run(capsys, [
        "match", "-p", helpers.EXAMPLE_PATTERN, "-t", str(path),
        "--format", "json"])
    assert code == 0
    assert [json.loads(line) for line in out.splitlines()] == [
        {"record": "seq1", "end": 17}, {"record": "seq1", "end": 28},
        {"record": "seq1", "end": 31}]


def test_fasta_flag_forces_parsing(capsys, tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes(b"ACGT\n")  # no header but --fasta demands one
    code, _, err = _run(capsys, ["match", "-p", "A", "-t", str(path), "--fasta"])
    assert code == 2
    assert "before the first FASTA header" in err


def test_fasta_stats_names_record(capsys, tmp_path):
    path = tmp_path / "r.fa"
    path.write_bytes(b">only\n" + helpers.EXAMPLE_TEXT + b"\n")
    code, out, _ = _run(capsys, [
        "stats", "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)])
    assert code == 0
    assert out.startswith("record only\nn 31\n")


TWO_RECORDS = b">r1 first\nCAAGTAGT\n>r2\nACGGT\n"


@pytest.mark.parametrize("argv, expected", [
    (["stats", "--format", "json"],
     '{"n": 8, "m": 3, "k": 2, "A": 0, "B": 2, "alpha": 5, '
     '"layer_occurrences": [3, 2], "matches": 2, "beta": 3, '
     '"peak_ranges": [1], "record": "r1"}\n'
     '{"n": 5, "m": 3, "k": 2, "A": 0, "B": 2, "alpha": 2, '
     '"layer_occurrences": [1, 1], "matches": 1, "beta": 1, '
     '"peak_ranges": [1], "record": "r2"}\n'),
    (["graph"],
     "r1:N 1 2\nr1:N 1 3\nr1:N 1 6\nr1:N 2 5\nr1:N 2 8\n"
     "r1:E 2 5 1 2\nr1:E 2 5 1 3\nr1:E 2 8 1 6\n"
     "r2:N 1 1\nr2:N 2 5\nr2:E 2 5 1 1\n"),
    (["graph", "--format", "json"],
     '{"type": "node", "layer": 1, "end": 2, "record": "r1"}\n'
     '{"type": "node", "layer": 1, "end": 3, "record": "r1"}\n'
     '{"type": "node", "layer": 1, "end": 6, "record": "r1"}\n'
     '{"type": "node", "layer": 2, "end": 5, "record": "r1"}\n'
     '{"type": "node", "layer": 2, "end": 8, "record": "r1"}\n'
     '{"type": "edge", "layer": 2, "end": 5, "pred_layer": 1, "pred_end": 2, '
     '"record": "r1"}\n'
     '{"type": "edge", "layer": 2, "end": 5, "pred_layer": 1, "pred_end": 3, '
     '"record": "r1"}\n'
     '{"type": "edge", "layer": 2, "end": 8, "pred_layer": 1, "pred_end": 6, '
     '"record": "r1"}\n'
     '{"type": "node", "layer": 1, "end": 1, "record": "r2"}\n'
     '{"type": "node", "layer": 2, "end": 5, "record": "r2"}\n'
     '{"type": "edge", "layer": 2, "end": 5, "pred_layer": 1, "pred_end": 1, '
     '"record": "r2"}\n'),
    (["oracle", "match", "--format", "json"],
     '{"record": "r1", "end": 5}\n{"record": "r1", "end": 8}\n'
     '{"record": "r2", "end": 5}\n'),
    (["oracle", "combos"], "r1:2,5\nr1:3,5\nr1:6,8\nr2:1,5\n"),
])
def test_fasta_output_shapes(capsys, tmp_path, argv, expected):
    path = tmp_path / "two.fa"
    path.write_bytes(TWO_RECORDS)
    code, out, err = _run(capsys, [*argv, "-p", "A.{0,2}GT", "-t", str(path)])
    assert (code, err) == (0, "")
    assert out == expected


@pytest.mark.parametrize("argv", [
    ["match"], ["combos"], ["combos", "--engine", "chunked"], ["graph"],
    ["stats"], ["combos", "--engine", "onthefly"]])
def test_one_automaton_per_command(capsys, built, monkeypatch, tmp_path, argv):
    suited = []
    real_suits = bitvec.suits
    monkeypatch.setattr(bitvec, "suits",
                        lambda pattern: suited.append(pattern) or real_suits(pattern))
    rng = random.Random(3)
    path = tmp_path / "records.fa"
    path.write_text("".join(
        f">r{i}\n" + "".join(rng.choice("ACGT") for _ in range(40)) + "\n"
        for i in range(200)))
    code, out, err = _run(capsys, [
        *argv, "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)])
    assert (code, err, bool(out)) == (0, "", True)
    if argv in (["match"], ["combos"], ["stats"]):  # the bit engine's choice
        assert (len(built[Automaton]), len(built[BitPlan])) == (0, 1)
        assert len(suited) == 1  # chosen once per command, not per record
    else:
        assert (len(built[Automaton]), len(built[BitPlan])) == (1, 0)
        assert suited == []


def test_fasta_records_parsed_one_at_a_time(capsys, monkeypatch, tmp_path):
    path = tmp_path / "r.fa"
    path.write_bytes(b"".join(b">r%d\n%s\n" % (i, helpers.EXAMPLE_TEXT)
                              for i in range(30)))
    real = cli.ingest_fasta
    alive: list[weakref.ref] = []
    most = 0

    def watched(stream):
        nonlocal most
        for doc in real(stream):
            alive.append(weakref.ref(doc))
            most = max(most, sum(ref() is not None for ref in alive))
            yield doc

    monkeypatch.setattr(cli, "ingest_fasta", watched)
    for command in ("match", "combos", "stats"):
        alive.clear()
        code, out, err = _run(capsys, [
            command, "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)])
        assert (code, err) == (0, "")
        assert len(alive) == 30 and out.count("r29") == out.count("r0") > 0
        # the record being handed over, and the one just written
        assert most <= 2, command


@pytest.mark.parametrize("argv", [
    ["match"], ["combos"], ["combos", "--engine", "onthefly"],
    ["combos", "--engine", "chunked"]])
def test_json_lines_equal_json_dumps(capsys, tmp_path, argv):
    idents = ['quo"te', "back\\slash", "n\u00efve\u2603", "\ufffd"]
    path = tmp_path / "r.fa"
    path.write_bytes(b"".join(
        b">" + ident.encode() + b" description\n" + helpers.EXAMPLE_TEXT + b"\n"
        for ident in idents[:3]) + b">\xff\n" + helpers.EXAMPLE_TEXT + b"\n")
    code, out, _ = _run(capsys, [
        *argv, "-p", helpers.EXAMPLE_PATTERN, "-t", str(path), "--format", "json"])
    assert code == 0
    if argv == ["match"]:
        rows = [{"record": ident, "end": end}
                for ident in idents for end in (17, 28, 31)]
    else:
        combos = [(1, 9, 17), (12, 20, 28), (12, 21, 28), (18, 26, 31)]
        rows = [{"record": ident, "ends": list(combo)}
                for ident in idents for combo in combos]
    assert out == "".join(json.dumps(row) + "\n" for row in rows)
    plain = tmp_path / "t.txt"
    plain.write_bytes(helpers.EXAMPLE_TEXT)
    code, out, _ = _run(capsys, [
        *argv, "-p", helpers.EXAMPLE_PATTERN, "-t", str(plain), "--format", "json"])
    assert out == "".join(json.dumps({key: value for key, value in row.items()
                                      if key != "record"}) + "\n"
                          for row in rows[:len(rows) // 4])


def _cycle(alphabet: bytes, size: int) -> bytes:
    return bytes(alphabet[i % len(alphabet)] for i in range(size))


@pytest.mark.parametrize("literal, bits", [
    (_cycle(bytes(range(65, 65 + bitvec.MAX_SIGMA)), bitvec.MAX_LITERAL), True),
    (_cycle(bytes(range(65, 66 + bitvec.MAX_SIGMA)), 30), False),
    (_cycle(b"ACGT", bitvec.MAX_LITERAL + 1), False),
    (bytes(random.Random(4).choices(b"ACGT", k=20_000)), False),
])
def test_engine_choice_at_the_limits(capsys, built, tmp_path, literal, bits):
    text = b"GA" + literal + b"TTC" + literal[:-1] + b"!" + literal
    path = tmp_path / "t.txt"
    path.write_bytes(text)
    for command in ("match", "combos", "stats"):
        built[Automaton].clear()
        code, out, err = _run(capsys, [
            command, "-p", literal.decode(), "-t", str(path)])
        assert (code, err) == (0, "")
        if command == "stats":
            assert {"alpha 2", "matches 2", "beta 2"} <= set(out.splitlines())
        else:
            assert out.split() == [str(2 + len(literal)), str(len(text))]
        assert len(built[Automaton]) == (0 if bits else 1), command


@pytest.mark.parametrize("expr, bits", [
    # a match's span less one is the carry: 2 + upper + 2 - 1
    (f"AC.{{0,{bitvec.MAX_CARRY - 3}}}GT", True),
    (f"AC.{{0,{bitvec.MAX_CARRY - 2}}}GT", False),
    # an upper bound far beyond the text would make one block of it all
    ("AC.{0,200000000}GT", False),
    # with an unbounded gap, match carries the widest bounded upper bound
    # plus the piece after it
    (f"AC.{{1,*}}GT.{{0,{bitvec.MAX_CARRY - 2}}}TT", True),
    (f"AC.{{1,*}}GT.{{0,{bitvec.MAX_CARRY - 1}}}TT", False),
])
def test_engine_choice_at_the_carry_limit(capsys, built, tmp_path, expr, bits):
    text = b"ACAGTATT" + b"C" * 3 * bitvec.MIN_BLOCK + b"GTATT"
    path = tmp_path / "t.txt"
    path.write_bytes(text)
    pattern = parse_pattern(expr)
    expected = {"match": [f"{end}\n" for end in brute_force_endpoints(pattern, text)]}
    if pattern.max_match_span is not None:
        combos: list[tuple[int, ...]] = []
        report_on_the_fly(pattern, text, combos.append)
        expected["combos"] = [",".join(map(str, combo)) + "\n" for combo in combos]
    assert expected["match"]
    expected["stats"] = f"matches {len(expected['match'])}\n"
    for command, lines in expected.items():
        built[Automaton].clear()
        built[BitPlan].clear()
        code, out, err = _run(capsys, [command, "-p", expr, "-t", str(path)])
        assert (code, err) == (0, "")
        if command == "stats":
            assert lines in out.splitlines(keepends=True)
        else:
            assert out.splitlines(keepends=True) == lines, command
        assert (len(built[BitPlan]), len(built[Automaton])) == (
            (1, 0) if bits else (0, 1)), command


LIBRARY_COMBOS = {
    "bits": lambda pattern, text: _collect(helpers.report_bits, pattern, text),
    "onthefly": lambda pattern, text: _collect(report_on_the_fly, pattern, text),
    "chunked": lambda pattern, text: _collect(report_chunked, pattern, text),
    "oracle": lambda pattern, text: sorted(brute_force_combinations(pattern, text),
                                           key=lambda combo: combo[::-1]),
}
COMBOS_ARGV = {"bits": ["combos"], "onthefly": ["combos", "--engine", "onthefly"],
               "chunked": ["combos", "--engine", "chunked"],
               "oracle": ["oracle", "combos"]}
# record ids that a "%" or str.format template would misread
AWKWARD_IDS = ("50%", 'r%d{}"\\\u00e9')


def _collect(report, pattern, text):
    out: list[tuple[int, ...]] = []
    report(pattern, text, out.append)
    return out


def _write_records(path, fasta: bool, seed: int, sizes) -> dict[str, bytes]:
    """Random DNA records named by AWKWARD_IDS, or the first alone as plain
    text (id ""), written to ``path``."""
    rng = random.Random(seed)
    records = {ident: bytes(rng.choices(b"ACGT", k=size))
               for ident, size in zip(AWKWARD_IDS, sizes)}
    if not fasta:
        records = {"": records[AWKWARD_IDS[0]]}
    path.write_bytes(b"".join((f">{ident} x\n".encode() if fasta else b"") + seq + b"\n"
                              for ident, seq in records.items()))
    return records


def _expected_lines(rows: dict[str, list], key: str, fmt: str, fasta: bool) -> str:
    """The CLI lines for each record's values, by ``json.dumps`` or ``str``."""
    lines = []
    for ident, values in rows.items():
        for value in values:
            if fmt == "json":
                record = {"record": ident} if fasta else {}
                lines.append(json.dumps(record | {key: value}) + "\n")
            else:
                shown = ",".join(map(str, value)) if key == "ends" else str(value)
                lines.append((f"{ident}:" if fasta else "") + shown + "\n")
    return "".join(lines)


@pytest.mark.parametrize("fasta", [False, True], ids=["plain", "fasta"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("engine", list(LIBRARY_COMBOS))
def test_combos_lines_are_the_library_combinations(capsys, tmp_path, engine,
                                                   fmt, fasta):
    """The run writer prints each engine's tuples, in order, in every format."""
    path = tmp_path / "in.txt"
    records = _write_records(path, fasta, 5, (700, 500))
    expr = "A.{0,4}G.{0,6}T"
    code, out, err = _run(capsys, [*COMBOS_ARGV[engine], "-p", expr, "-t", str(path),
                                   "--format", fmt])
    assert (code, err) == (0, "")
    rows = {}
    for ident, seq in records.items():
        rows[ident] = LIBRARY_COMBOS[engine](parse_pattern(expr), seq)
        assert len(rows[ident]) > len(set(c[1:] for c in rows[ident])) > 1
    assert out == _expected_lines(rows, "ends", fmt, fasta)


@pytest.mark.parametrize("fasta", [False, True], ids=["plain", "fasta"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [["match"], ["oracle", "match"]])
def test_match_lines_are_the_library_ends(capsys, tmp_path, argv, fmt, fasta):
    """Ends are written in batches; every line is still the oracle's end."""
    path = tmp_path / "in.txt"
    records = _write_records(path, fasta, 6, (25_000, 300))
    expr = "A.{0,4}G.{0,6}T"
    code, out, err = _run(capsys, [*argv, "-p", expr, "-t", str(path), "--format", fmt])
    assert (code, err) == (0, "")
    rows = {ident: brute_force_endpoints(parse_pattern(expr), seq)
            for ident, seq in records.items()}
    assert len(rows[AWKWARD_IDS[0] if fasta else ""]) > 2 * cli._ENDS_PER_WRITE
    assert out == _expected_lines(rows, "end", fmt, fasta)


@pytest.mark.parametrize("fasta", [False, True], ids=["plain", "fasta"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_graph_lines_are_the_library_graph(capsys, tmp_path, fmt, fasta):
    """Each kind of line is one ``%`` template, so an id's "%" is escaped."""
    path = tmp_path / "in.txt"
    records = _write_records(path, fasta, 7, (400, 300))
    expr = "A.{0,4}G.{0,6}T"
    code, out, err = _run(capsys, ["graph", "-p", expr, "-t", str(path), "--format", fmt])
    assert (code, err) == (0, "")
    lines = []
    for ident, seq in records.items():
        graph = build_implicit_gap_graph(parse_pattern(expr), seq)
        rows = [("N", {"type": "node", "layer": layer, "end": end})
                for layer, end in graph.nodes()]
        rows += [("E", {"type": "edge", "layer": layer, "end": end,
                        "pred_layer": layer - 1, "pred_end": pred})
                 for layer, end, pred in graph.edges()]
        assert len(rows) > 20
        for kind, row in rows:
            if fmt == "json":
                lines.append(json.dumps(row | ({"record": ident} if fasta else {})))
            else:
                values = " ".join(map(str, list(row.values())[1:]))
                lines.append((f"{ident}:" if fasta else "") + f"{kind} {values}")
    assert out == "".join(line + "\n" for line in lines)


def test_ingest_fasta_basics():
    docs = list(ingest_fasta(io.BytesIO(FASTA_SAMPLE)))
    assert docs == [
        InputDocument("seq1", helpers.EXAMPLE_TEXT),
        InputDocument("seq2", b"GTGT"),
    ]
    assert list(ingest_fasta(io.BytesIO(b""))) == []
    assert list(ingest_fasta(io.BytesIO(b">lonely header\n"))) == []
    with pytest.raises(ValueError):
        list(ingest_fasta(io.BytesIO(b"ACGT\n>late\nACGT\n")))


def test_ingest_fasta_headerless_id():
    docs = list(ingest_fasta(io.BytesIO(b">\nAC\n")))
    assert docs == [InputDocument("", b"AC")]


@pytest.mark.parametrize("command", ["match", "combos", "stats", "graph"])
def test_empty_fasta_id_is_still_a_record(capsys, tmp_path, command):
    """A record named by ``>`` alone keeps its empty ``:`` prefix and
    ``"record": ""``; only plain input has no record."""
    path = tmp_path / "r.fa"
    path.write_bytes(b">\n" + helpers.EXAMPLE_TEXT + b"\n")
    code, out, err = _run(capsys, [command, "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if command == "stats":
        assert lines[0] == "record "
    else:
        assert lines and all(line.startswith(":") for line in lines)
    code, out, _ = _run(capsys, [command, "-p", helpers.EXAMPLE_PATTERN,
                                 "-t", str(path), "--format", "json"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and rows and all(row["record"] == "" for row in rows)


@pytest.mark.skipif(shutil.which("vlgmatch") is None,
                    reason="vlgmatch console script not installed")
def test_console_script_entry_point(tmp_path):
    exe = shutil.which("vlgmatch")
    assert exe is not None, "console script not installed"
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT)
    result = subprocess.run(
        [exe, "match", "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout == "17\n28\n31\n"


def test_module_entry_point(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT)
    result = helpers.run_module_cli(
        ["match", "-p", helpers.EXAMPLE_PATTERN, "-t", str(path)])
    assert result.returncode == 0
    assert result.stdout == "17\n28\n31\n"


def test_module_entry_point_exit_status_on_usage_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT)
    result = helpers.run_module_cli(["match", "-p", "A.{3", "-t", str(path)])
    assert result.returncode == 2
    assert result.stderr.startswith("vlgmatch: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv, loaded", [
    (["match"], True), (["stats"], True), (["graph"], False),
    (["combos", "--engine", "chunked"], False)])
def test_bitvec_imported_only_where_it_runs(tmp_path, argv, loaded):
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT)
    probe = ("import sys; from vlgmatch.cli import run; code = run(sys.argv[1:]); "
             "print('vlgmatch.bitvec' in sys.modules, code, file=sys.stderr)")
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv, "-p", helpers.EXAMPLE_PATTERN,
         "-t", str(path)],
        capture_output=True, text=True, env=helpers.module_cli_env(), timeout=60)
    assert result.stdout
    assert result.stderr == f"{loaded} 0\n"


@pytest.mark.parametrize("command, graph", [
    ("match", False), ("combos", True), ("stats", True)])
def test_bit_engine_commands_import_only_what_they_run(tmp_path, command, graph):
    """Each module a start imports is compiled when no bytecode is cached."""
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT)
    probe = ("import sys; before = set(sys.modules); from vlgmatch.cli import run; "
             "code = run(sys.argv[1:]); "
             "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)")
    result = subprocess.run(
        [sys.executable, "-c", probe, command, "-p", helpers.EXAMPLE_PATTERN,
         "-t", str(path)],
        capture_output=True, text=True, env=helpers.module_cli_env(), timeout=60)
    assert result.stdout
    code, *loaded = result.stderr.split()
    assert code == "0"
    assert {name for name in loaded if "vlgmatch" in name} == {
        "vlgmatch", "vlgmatch.cli", "vlgmatch.pattern", "vlgmatch.bitvec",
        *["vlgmatch.gapgraph"] * graph}
    assert not {"dataclasses", "inspect", "json"} & set(loaded)


@pytest.mark.skipif(os.name != "posix", reason="argv bytes are POSIX")
def test_pattern_argument_bytes_outside_utf8(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"GA\xffC")
    result = subprocess.run(
        [sys.executable, "-m", "vlgmatch", "match", "-p", b"A\xffC",
         "-t", str(path)],
        capture_output=True, env=helpers.module_cli_env(), timeout=60)
    assert result.stderr == b""
    assert result.returncode == 0
    assert result.stdout == b"4\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_pipe_ends_quietly(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"AC" * 50_000)  # 100,000 output lines, far over a pipe
    child = subprocess.Popen(
        [sys.executable, "-m", "vlgmatch", "combos", "-p", "A.{0,3}C",
         "-t", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=helpers.module_cli_env())
    try:
        assert child.stdout.readline() == b"1,2\n"
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert err == b""
    assert status == -signal.SIGPIPE


def test_output_through_a_pipe_is_the_in_process_output(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"A" * 3000)
    argv = ["combos", "-p", "A.{0,3}A.{0,3}A", "-t", str(path)]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert len(out) > 10 * (1 << 16)
    child = subprocess.run([sys.executable, "-m", "vlgmatch", *argv],
                           capture_output=True, env=helpers.module_cli_env(), timeout=60)
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == out.encode()


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_closed_stdout_exits_2(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(helpers.EXAMPLE_TEXT)
    result = subprocess.run(
        [sys.executable, "-m", "vlgmatch", "match", "-p", helpers.EXAMPLE_PATTERN,
         "-t", str(path)],
        stderr=subprocess.PIPE, text=True, env=helpers.module_cli_env(),
        preexec_fn=lambda: os.close(1), timeout=60)
    assert (result.returncode, result.stderr) == (2, "vlgmatch: standard output is closed\n")


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_closed_stdin_exits_2():
    result = subprocess.run(
        [sys.executable, "-m", "vlgmatch", "match", "-p", helpers.EXAMPLE_PATTERN,
         "-t", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=helpers.module_cli_env(), preexec_fn=lambda: os.close(0), timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "vlgmatch: standard input is closed\n")


def _read_only_stderr() -> None:
    """Descriptor 2 reused by a file open for reading, as a shell wrapper
    that runs the interpreter with stderr closed can leave it."""
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("close", [lambda: os.close(2), _read_only_stderr],
                         ids=["closed", "read-only"])
@pytest.mark.parametrize("expr, name", [("A.{3", "t.txt"), ("A.{3}C", "missing.txt")],
                         ids=["bad-pattern", "missing-file"])
def test_closed_stderr_exits_2(tmp_path, unbuffered, close, expr, name):
    (tmp_path / "t.txt").write_bytes(helpers.EXAMPLE_TEXT)
    env = helpers.module_cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    result = subprocess.run(
        [sys.executable, "-m", "vlgmatch", "match", "-p", expr,
         "-t", str(tmp_path / name)],
        stdout=subprocess.PIPE, env=env, preexec_fn=close, timeout=60)
    assert (result.returncode, result.stdout) == (2, b"")


class _ReaderGone(io.RawIOBase):
    """A pipe whose reader has left: every write fails."""

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_broken_pipe_at_the_final_flush_exits_2(capsys, monkeypatch, example_file):
    # the whole output fits in the buffer, so only run()'s flush writes
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        io.BufferedWriter(_ReaderGone(), 1 << 16), encoding="utf-8"))
    code = run(["match", "-p", helpers.EXAMPLE_PATTERN, "-t", example_file])
    assert code == 2
    assert capsys.readouterr().err.startswith("vlgmatch: ")


_NO_SIGPIPE_MAIN = """
import signal, sys
del signal.SIGPIPE  # as on a platform without it
from vlgmatch.cli import main
sys.argv[0] = "vlgmatch"
main()
"""


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX pipe")
def test_closed_pipe_without_sigpipe_exits_2(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"AC" * 50_000)
    child = subprocess.Popen(
        [sys.executable, "-c", _NO_SIGPIPE_MAIN, "combos", "-p", "A.{0,3}C",
         "-t", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=helpers.module_cli_env())
    try:
        assert child.stdout.readline() == b"1,2\n"
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert (status, err) == (2, b"vlgmatch: [Errno 32] Broken pipe\n")


_TERMINAL_PROBE = """
import sys
from vlgmatch import cli
def probe():
    print("line", sys.stdout is not sys.__stdout__)
    sys.stdin.readline()  # the line must arrive while the process still runs
    return 0
cli.run = probe
cli.main()
"""


@pytest.mark.skipif(os.name != "posix", reason="needs a pseudo-terminal")
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_terminal_stays_line_buffered(unbuffered):
    pty = pytest.importorskip("pty")
    env = helpers.module_cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    leader, follower = pty.openpty()
    child = subprocess.Popen([sys.executable, "-c", _TERMINAL_PROBE],
                             stdin=subprocess.PIPE, stdout=follower, env=env)
    os.close(follower)
    try:
        ready, _, _ = select.select([leader], [], [], 30)
        assert ready, "no line before the process ended"
        assert os.read(leader, 100) == b"line True\r\n"
        child.stdin.close()
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        os.close(leader)


@pytest.mark.parametrize("block", [1, 7, automaton._BLOCK])
def test_grid_slice_prints_the_oracle_bytes(capsys, monkeypatch, tmp_path, block):
    """A seeded slice of ``scripts/diff_ab.py``'s grid, whose inputs are all
    within the oracle's cap, in text and JSON: every ``combos`` form prints
    ``oracle combos``' bytes and ``match`` prints ``oracle match``'s, with
    scan blocks that split the matches."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    import diff_ab
    monkeypatch.chdir(tmp_path)
    inputs = diff_ab.inputs(tmp_path).values()
    cells = random.Random(26).sample(
        [(expr, *names) for expr in diff_ab.PATTERNS.values() for names in inputs], 24)
    monkeypatch.setattr(automaton, "_BLOCK", block)
    printed = 0
    for expr, name, extra in cells:
        assert not os.path.exists(name) or os.path.getsize(name) <= oracle.MAX_TEXT
        for fmt in ("text", "json"):
            tail = ["-p", expr, "-t", name, *extra, "--format", fmt]
            want = _run(capsys, ["oracle", "combos", *tail])
            printed += bool(want[1])
            for engine in ([], ["--engine", "onthefly"], ["--engine", "chunked"]):
                assert _run(capsys, ["combos", *engine, *tail]) == want, (engine, tail)
            assert (_run(capsys, ["match", *tail])
                    == _run(capsys, ["oracle", "match", *tail])), tail
    assert printed >= 10


def test_deep_pattern_through_every_command(capsys, tmp_path):
    """1,500 concatenated pieces cycling through 20 letters, over the text
    they spell: one combination, deeper than the recursion limit."""
    pieces = [chr(65 + i % 20) for i in range(1500)]
    path = tmp_path / "t.txt"
    path.write_text("".join(pieces))
    tail = ["-p", ".{0,0}".join(pieces), "-t", str(path)]
    want = _run(capsys, ["oracle", "combos", *tail])
    assert want == (0, ",".join(map(str, range(1, 1501))) + "\n", "")
    for engine in ([], ["--engine", "onthefly"], ["--engine", "chunked"]):
        assert _run(capsys, ["combos", *engine, *tail]) == want, engine
    assert _run(capsys, ["match", *tail]) == _run(capsys, ["oracle", "match", *tail])
    for command in ("stats", "graph"):
        code, _, err = _run(capsys, [command, *tail])
        assert (code, err) == (0, ""), command
