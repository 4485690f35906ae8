from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference
import starspec.cli as cli

GOLDENS = Path(__file__).parent / "goldens"

# SHA-256 of `starspec spectrum --n N --format json`, frozen from the tables
# of the earlier route over shapes of n and their removable corners.
SPECTRUM_JSON_SHA256 = {
    40: "b98f33a8319801d85099b3874a91c615092ba50c28cd5f35cddef6474e3f449d",
    50: "588531be0aa3e6eb9514fcc535d9016e52bb572434c30f25cef63dcccb7502c9",
}


# SHA-256 of the bytes each argv writes to stdout, or to the file it names,
# frozen on the commit before the five subcommands shared one renderer and one
# writer. MISMATCH runs verify against a table whose multiplicity at 0 is wrong
# (5 in place of 4 at n = 4).
MISMATCH = "stdout, broken table"
OUTPUT_SHA256 = [
    (["spectrum", "--n", "7", "--format", "csv"], "stdout",
     "59c9f03c020b74bc74d6f59cf8f7de2457536bf5e251ea02f5c243786355b5c4"),
    (["spectrum", "--n", "7", "--format", "json"], "stdout",
     "26d48dd58be17865bfddee9562c91283860f69c6323068f321625a4283bee3db"),
    (["spectrum", "--n", "3", "--include-zeros"], "stdout",
     "fd281d3d281276b1dc2df769ea7e25aaf338caa78affe8113f7e8e9fa8de4475"),
    (["spectrum", "--n", "3", "--include-zeros", "--format", "csv"], "stdout",
     "fde6576a181342c434ccbb4d9ca36c259400e6fadf5857afb751ae042acf3472"),
    (["spectrum", "--n", "3", "--include-zeros", "--format", "json"], "stdout",
     "7bfba238001778b9a351067a9318d69ed35bc72c1d42132e144527db3f4a02e9"),
    (["verify", "--n", "5"], "stdout",
     "585cb9bf6cc9103f60345d6aa84c255bd8361c2983da8a3bf523780ba8f9715b"),
    (["verify", "--n", "5", "--format", "csv"], "stdout",
     "2888974a57a991b8b789dbeaa19d94837933962a23fd58c2cbb602a0aa61e197"),
    (["verify", "--n", "5", "--format", "json"], "stdout",
     "29e65ded9b0ac14ef78b2320b83cfaf120ab7ac4ff41cc5abfef3f0d9f15cb31"),
    (["verify", "--n", "4"], MISMATCH,
     "dd922b53e6e67fc05b2b529407d9b74b14278523dec6116162c1b3d33eba6d8c"),
    (["verify", "--n", "4", "--format", "csv"], MISMATCH,
     "34277d06ed77a20d2f53a41e795deeddd30ba8e107473df3c4ac369eee6e3b90"),
    (["verify", "--n", "4", "--format", "json"], MISMATCH,
     "f7cee7a1d849d82400af8c135b2e48b78ae38693543dd84da15f7cff14c91373"),
    (["bound", "--n", "6", "--format", "csv"], "stdout",
     "53063d71edd789254ed1b83b0655c298c62d4b3fc2aaa70c6cce25f42f226c4c"),
    (["bound", "--n", "6", "--format", "json"], "stdout",
     "cc2695f903834a25488e6c47f897e5800c33a676ad4b1fc7cbbcb39475ca9b22"),
    (["bound", "--n", "50", "--format", "json"], "stdout",
     "d67faff0d66761ab9d297c5c4e59bd705dff42e3dda709acee2d5a8d86284314"),
    (["moments", "--n", "4", "--k-max", "6", "--format", "csv"], "stdout",
     "07f5ddf75b8b54c552ced150416e7d336e745a7722b43f03cb3d18d21c4f9c41"),
    (["moments", "--n", "4", "--k-max", "6", "--format", "json"], "stdout",
     "61965b62df8351b92f5e57c1f46e609f71d8e85bfa179b01a79d137cf9a61de7"),
    (["moments", "--n", "4", "--k-max", "6", "--source", "table"], "stdout",
     "ce49acb16143597a5ff0b05c361fbe1ac0eec8e48524f01acc49ac2e5f7cc8a8"),
    (["moments", "--n", "4", "--k-max", "6", "--source", "table", "--format", "csv"], "stdout",
     "07f5ddf75b8b54c552ced150416e7d336e745a7722b43f03cb3d18d21c4f9c41"),
    (["moments", "--n", "4", "--k-max", "6", "--source", "table", "--format", "json"], "stdout",
     "cbc2cb2c688eb70b8aa1d9b823c713e6d41a5a980ee53dd5a22e628befea75fe"),
    (["semicircle", "--n", "4", "--n", "9", "--bins", "5"], "stdout",
     "c12fdf5a494d9f131f6d701c00cbf8248c1e95ea1a15d902de682954fd3a868d"),
    (["semicircle", "--n", "4", "--n", "9", "--bins", "5", "--format", "csv"], "stdout",
     "9482d7bbc4f60b309314734993861f3399b62990226ed05726333e4f7cef48df"),
    (["semicircle", "--n", "4", "--n", "9", "--bins", "5", "--format", "json"], "stdout",
     "7fffecc0841d26b281b5980c73ad6973e74c32b654d293031047ce9f0bca9c62"),
    (["semicircle", "--n", "4", "--n", "9", "--bins", "5"], "semicircle_n9.csv",
     "a7d766ed9755468c00c0b08e31cc9706a8236c07c95818e1c798dab524458607"),
    (["semicircle", "--n", "4", "--n", "9", "--bins", "5"], "semicircle_n4.csv",
     "26e9db26c8db224422887d32b98ada8b5e043f700b5d3537613293ae5cddd82b"),
    (["semicircle", "--n", "50", "--p-max", "300", "--format", "csv"], "stdout",
     "ef9dd442496ca595b7e7ab88e8eac97bb5e49d39391b7750c2010dc42b64d19e"),
    (["semicircle", "--n", "50", "--bins", "60"], "semicircle_n50.csv",
     "2a69ca4d7511cb02708e8bd724f836563b7b2d30603fe73e830d1131a92e1985"),
    # The atom 0 (mass 1/6) sits on the float edge between bins 6 and 7 of 14
    # and lands in bin 6, [-0.157, 0]; exact edges would put it in bin 7.
    (["semicircle", "--n", "4", "--bins", "14"], "semicircle_n4.csv",
     "43f84d0b5c348738ee2149d412e666f5a54a1c236bf5c4e7a6777b12201415ad"),
    # The atoms +-11 sit on the range ends +-1.1 (11 / (2 * 5) == 1.1 in floats):
    # both end bins count them, the last one by the clamp to bins - 1.
    (["semicircle", "--n", "25", "--bins", "40"], "semicircle_n25.csv",
     "11b20647caba05aaa1465cac61b14e261fbd2b6972a3470d213c85fcebe97b8e"),
]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr()


def run_case(capsys, monkeypatch, cwd, argv, source):
    """Run one OUTPUT_SHA256 case in cwd; return its exit code and output digest."""
    with monkeypatch.context() as patch:
        patch.chdir(cwd)  # semicircle writes its histograms here
        if source == MISMATCH:
            broken = {**cli.multiplicity_table(4), 0: 5}
            patch.setattr(cli, "multiplicity_table", lambda n: broken)
        code, captured = run(capsys, argv)
    text = captured.out if source in ("stdout", MISMATCH) else (cwd / source).read_text()
    return code, hashlib.sha256(text.encode()).hexdigest()


def test_spectrum_table_golden(capsys):
    code, captured = run(capsys, ["spectrum", "--n", "4"])
    assert code == 0
    assert captured.out == (GOLDENS / "spectrum_n4.txt").read_text()
    assert captured.err == ""


def test_bound_table_golden(capsys):
    code, captured = run(capsys, ["bound", "--n", "4"])
    assert code == 0
    assert captured.out == (GOLDENS / "bound_n4.txt").read_text()


def test_moments_table_golden(capsys):
    code, captured = run(capsys, ["moments", "--n", "3", "--k-max", "4"])
    assert code == 0
    assert captured.out == (GOLDENS / "moments_n3_kmax4.txt").read_text()


def test_output_is_deterministic(capsys):
    argvs = [
        ["spectrum", "--n", "6", "--format", "csv"],
        ["spectrum", "--n", "6", "--format", "json"],
        ["bound", "--n", "5", "--format", "table"],
    ]
    for argv in argvs:
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first.out == second.out


@pytest.mark.parametrize(
    "argv, source, digest", OUTPUT_SHA256,
    ids=[f"{' '.join(argv)} > {source}" for argv, source, _ in OUTPUT_SHA256],
)
def test_output_digest(capsys, monkeypatch, tmp_path, argv, source, digest):
    code, sha256 = run_case(capsys, monkeypatch, tmp_path, argv, source)
    assert code == (1 if source == MISMATCH else 0)
    assert sha256 == digest


# Plain argv of each command: every option in full, each value the next word,
# among them values that int() reads ("+5", "1_0", " 3", "\u0663"), an empty
# value and repeated options, which the plain reader must read as argparse does.
PLAIN_ARGV = [
    ["spectrum", "--n", "+5", "--n", "1_0", "--include-zeros", "--include-zeros", "--format", "csv"],
    ["verify", "--out", "", "--out", "verify.txt", "--n", " 3"],
    ["moments", "--n", "\u0663", "--k-max", "2", "--source", "walk", "--source", "table"],
    ["semicircle", "--n", "4", "--n", "9", "--bins", "3", "--p-max", "2"],
    ["semicircle", "--n", "4", "--out", "h.csv"],
    ["bound", "--format", "json", "--n", "3"],
]


def test_a_plain_command_line_builds_no_parser(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in PLAIN_ARGV:
        assert run(capsys, argv)[0] == 0
    assert built == []
    # Each argv that is not plain builds the full parser anew: the top one and
    # one subparser per command.
    full = ["starspec", *(f"starspec {name}" for name in cli._COMMANDS)]
    assert run(capsys, ["spectrum", "--n=3"])[0] == 0
    assert built == full
    assert run(capsys, ["bound", "--n=3"])[0] == 0
    assert built == full + full


# Every kind of command line the full parser handles: help, usage errors
# before, in and after the command, abbreviations, "--", and argv that parse.
FULL_PARSER_ARGV = [
    [],
    ["-h"],
    ["nosuch"],
    ["SPECTRUM"],
    *([name, "--help"] for name in ("spectrum", "verify", "moments", "semicircle", "bound")),
    ["spectrum", "--n", "x"],
    ["spectrum", "--n=3"],
    ["spectrum", "--n", "3", "--inc"],
    ["spectrum", "--n", "3", "--form", "csv"],
    ["semicircle", "--n", "4", "--bins", "2"],
    ["spectrum", "--n", "3", "--bogus"],
    ["spectrum", "--n", "3", "extra"],
    ["spectrum", "--n", "3", "-h"],
    ["--", "spectrum", "--n", "3"],
    ["spectrum", "--", "--n", "3"],
    ["moments", "--n", "3"],
    ["moments", "--n", "3", "--k-max", "2", "--source", "bad"],
    ["semicircle", "--out"],
]


def outcome(capsys, call):
    """What call returns, or the code it exits with; then its stdout and stderr."""
    try:
        value = call()
    except SystemExit as exc:
        value = f"exit {exc.code}"
    return value, *capsys.readouterr()


def without_command(namespace) -> dict:
    return {key: value for key, value in vars(namespace).items() if key != "command"}


@pytest.mark.parametrize(
    "argv", FULL_PARSER_ARGV + PLAIN_ARGV, ids=lambda argv: " ".join(argv) or "(none)"
)
def test_one_command_path_reports_what_the_full_parser_reports(
    capsys, monkeypatch, tmp_path, argv
):
    monkeypatch.chdir(tmp_path)
    ran = []
    # Each command records the namespace main runs it with; the full parser is
    # built from the recording commands.
    for name, (line, func, options) in list(cli._COMMANDS.items()):
        def record(args, func=func):
            ran.append(args)
            return func(args)

        monkeypatch.setitem(cli._COMMANDS, name, (line, record, options))
    expected = outcome(capsys, lambda: cli._parser().parse_args(argv))
    actual = outcome(capsys, lambda: cli.main(argv))
    if isinstance(expected[0], argparse.Namespace):
        assert actual[0] == 0
        assert expected[0].command == argv[0]
        assert [without_command(args) for args in ran] == [without_command(expected[0])]
    else:
        assert actual == expected
        assert ran == []


# SHA-256 of the stdout and the stderr of each argv, and its exit code, at 80
# columns, frozen on Python 3.11 before the options moved into one table, when
# each command had its own parser; argparse words help and errors differently
# on other versions.
EMPTY = hashlib.sha256(b"").hexdigest()
HELP_AND_USAGE_SHA256 = [
    (["--help"], 0,
     "b951362ab44c04506b475f5ad1e96df90f7946a93884eec1e69837100fa7e089", EMPTY),
    (["spectrum", "--help"], 0,
     "9e058ea993c02718498419ded77485a722938e3151e8da7d101e77fe613c1a27", EMPTY),
    (["verify", "--help"], 0,
     "25028adb77b35f9fa7d844ebfffbc6ee2e40feb25e8f6a2ce50df17dbd375729", EMPTY),
    (["moments", "--help"], 0,
     "bcb1a27d6a6ca9584fd1afad2a3a42b5b10d1d9a6edafd3d68c377b819aca8fd", EMPTY),
    (["semicircle", "--help"], 0,
     "e215aed11c94e57ee956915419e1e0cdb0ac5dcc50c2cda1f54691944b513942", EMPTY),
    (["bound", "--help"], 0,
     "a9a7ecddb079f91587ce486c259f0b9d580ac1053989e96a860d5fcde46ed0e0", EMPTY),
    ([], 2, EMPTY,
     "8ca510cf5bd42395c448fdf8d7aa0f0cc82eb2df9e3ea46d8c558206c5418297"),
    (["nosuch"], 2, EMPTY,
     "15e677d3b2008d3f7c55a64215bebb855eb402cc85c936bcd136e897b12e37d9"),
    (["moments", "--n", "3"], 2, EMPTY,
     "06a6d144924533c07221b5312da77914392298a1e3ae523a9c6f1d1a2006c79a"),
    (["spectrum", "--n", "3", "extra"], 2, EMPTY,
     "601a8e05c060e3d527de7b1fd948a4a2f871dbf60ba49e8ff9ad090558d56338"),
    (["semicircle", "--out"], 2, EMPTY,
     "b820a5efd0a8128b5eee8b647ce31e47f37a849e493ad2796141372e55bfafe1"),
    (["spectrum", "--format", "xml", "--n", "3"], 2, EMPTY,
     "3bf35940240de3b8470b40d45ffc9607122f8f9e4ecd79f5754cb7fe55452782"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests frozen on Python 3.11")
@pytest.mark.parametrize(
    "argv, code, out, err", HELP_AND_USAGE_SHA256,
    ids=[" ".join(argv) or "(none)" for argv, *_ in HELP_AND_USAGE_SHA256],
)
def test_help_and_usage_bytes(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    value, stdout, stderr = outcome(capsys, lambda: cli.main(argv))
    assert value == f"exit {code}"
    assert hashlib.sha256(stdout.encode()).hexdigest() == out
    assert hashlib.sha256(stderr.encode()).hexdigest() == err


def first_words(text: str, indent: str) -> set[str]:
    return {line.split()[0] for line in text.splitlines() if line.startswith(indent)}


def test_help_names_every_command_and_option(capsys, monkeypatch):
    # Holds on every Python; the digests above pin the help bytes on 3.11 only.
    monkeypatch.setenv("COLUMNS", "80")
    top = outcome(capsys, lambda: cli.main(["--help"]))
    assert top[0] == "exit 0" and top[2] == ""
    assert set(cli._COMMANDS) <= first_words(top[1], "    ")
    assert outcome(capsys, lambda: cli.main(["--help"])) == top
    for name, (_, _, options) in cli._COMMANDS.items():
        value, out, err = outcome(capsys, lambda: cli.main([name, "--help"]))
        assert (value, err) == ("exit 0", ""), name
        assert {flag for flag, _ in options} <= first_words(out, "  --"), name


HOSTILE_WORDS = ["-1", "", "--", "-h", "--n=3", "--inc", "\u0663", " 4", "+5", "1_0", "3.0"]


def value_words(settings: dict) -> st.SearchStrategy[str]:
    """Words that argparse reads as a valid value of an option with these settings."""
    if "choices" in settings:
        return st.sampled_from(settings["choices"])
    if "type" in settings:
        return st.integers(0, 60).map(str)
    return st.sampled_from(["out.txt", "a b", "x=y"])


@st.composite
def command_lines(draw) -> list[str]:
    """A command, then its options with valid or hostile values, flags with no
    value or repeated, and hostile words, in any order; most often with every
    required option."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    option = st.sampled_from(options)
    hostile = st.sampled_from(HOSTILE_WORDS)
    valid = option.flatmap(lambda option: st.tuples(st.just(option[0]), value_words(option[1])))
    piece = st.one_of(
        valid, valid, valid,
        option.flatmap(lambda option: st.tuples(st.just(option[0]), hostile)),
        option.map(lambda option: (option[0],)),
        hostile.map(lambda word: (word,)),
    )
    pieces = draw(st.lists(piece, max_size=6))
    if draw(st.integers(0, 3)):
        pieces += [(flag, draw(value_words(s))) for flag, s in options if s.get("required")]
    return [command, *(word for words in draw(st.permutations(pieces)) for word in words)]


def test_plain_reader_agrees_with_the_full_parser():
    parser = cli._parser()  # parse_args leaves it as it was, so every example shares it

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def check(argv):
        plain = cli._plain(argv[0], argv[1:])
        if plain is not None:
            assert vars(plain) == without_command(parser.parse_args(argv))

    check()


# --out targets of the contract test, in a directory that holds old.txt and
# file (both "old bytes\n") and the directory dir.
OUT_TARGETS = ["new.txt", "old.txt", "missing/out.txt", "dir", "file/out.txt"]
OLD_BYTES = b"old bytes\n"


def mostly(valid, *invalid):
    """A valid value three times in four, else one of invalid."""
    return st.one_of(valid, valid, valid, st.sampled_from(invalid))


# What the contract test gives each option: a valid value, one at a limit or
# one past it. The walk of verify and moments stays at n <= 9 and k-max <= 40;
# 51 and 1001 exit 3 before any work. --bins and --p-max stay far below their
# caps but for cap + 1.
CONTRACT_VALUES = {
    "--format": st.sampled_from(["table", "csv", "json"]),
    "--out": st.sampled_from(OUT_TARGETS),
    "--n": mostly(st.integers(1, 50), 0, 51),
    "--k-max": mostly(st.integers(0, 40), 1001),
    "--source": st.sampled_from(["walk", "table"]),
    "--p-max": mostly(st.integers(1, 12), 301),
    "--bins": mostly(st.integers(1, 60), 10001),
}
WALK_DEGREES = mostly(st.integers(1, 9), 0, 51, 1001)


@st.composite
def contract_lines(draw) -> list[str]:
    """A command with each required option and some others, valid values
    mostly; one time in eight a hostile word goes in at a random place."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = []
    for flag, settings in cli._COMMANDS[command][2]:
        if not settings.get("required") and draw(st.booleans()):
            continue
        if settings.get("action") == "store_true":
            pieces.append([flag])
            continue
        values = WALK_DEGREES if flag == "--n" and command in ("verify", "moments") else (
            CONTRACT_VALUES[flag]
        )
        repeats = draw(st.integers(1, 2)) if settings.get("action") == "append" else 1
        pieces += [[flag, str(draw(values))] for _ in range(repeats)]
    argv = [command, *(word for words in draw(st.permutations(pieces)) for word in words)]
    if not draw(st.integers(0, 7)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(HOSTILE_WORDS)))
    return argv


def contract_outcome(capsys, argv):
    """Exit status of main(argv), returned or raised, then its stdout and stderr."""
    try:
        status, returned = cli.main(argv), True
    except SystemExit as exc:
        status, returned = exc.code, False
    return status, returned, *capsys.readouterr()


def test_every_command_line_keeps_the_cli_contract(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    reached = []

    @settings(max_examples=250, deadline=None, database=None)
    @given(contract_lines())
    def check(argv):
        for entry in tmp_path.iterdir():
            if entry.is_dir():
                shutil.rmtree(entry)
            else:
                entry.unlink()
        (tmp_path / "old.txt").write_bytes(OLD_BYTES)
        (tmp_path / "file").write_bytes(OLD_BYTES)
        (tmp_path / "dir").mkdir()
        status, returned, out, err = contract_outcome(capsys, argv)
        event("reached a command" if returned else "stopped by the parser")
        reached.append(returned)
        assert (status in range(5)) if returned else (status in (0, 2))
        assert not out or status in (0, 1)
        assert not err or status != 0
        assert not list(tmp_path.rglob(".starspec.*.tmp"))
        assert (tmp_path / "file").read_bytes() == OLD_BYTES
        old = (tmp_path / "old.txt").read_bytes()
        if old != OLD_BYTES:
            # Rewritten whole: the same bytes as the same argv writes to a new file.
            assert status == 0
            again = ["again.txt" if word == "old.txt" else word for word in argv]
            assert contract_outcome(capsys, again)[0] == 0
            assert old == (tmp_path / "again.txt").read_bytes()

    check()
    assert sum(reached) > len(reached) / 2


def test_one_process_repeats_every_digest(capsys, monkeypatch, tmp_path):
    # Every case twice in one process, the second time in reverse order.
    for argv, source, digest in OUTPUT_SHA256 + OUTPUT_SHA256[::-1]:
        code, sha256 = run_case(capsys, monkeypatch, tmp_path, argv, source)
        assert (code, sha256) == (1 if source == MISMATCH else 0, digest), argv


def test_options_do_not_carry_over(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    golden = (GOLDENS / "spectrum_n4.txt").read_text()
    run(capsys, ["spectrum", "--n", "4", "--include-zeros"])
    assert run(capsys, ["spectrum", "--n", "4"]) == (0, (golden, ""))
    # --n appends to a list, which must start empty on every call.
    run(capsys, ["semicircle", "--n", "4", "--n", "9", "--bins", "5"])
    code, captured = run(capsys, ["semicircle", "--n", "4", "--bins", "5", "--format", "json"])
    assert code == 0
    assert [r["n"] for r in json.loads(captured.out)["reports"]] == [4]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["spectrum", "--n", "not-a-number"], 2),
        (["--help"], 0),
        (["spectrum", "--help"], 0),
    ],
)
def test_exit_from_parsing_leaves_the_next_call_alone(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    capsys.readouterr()
    golden = (GOLDENS / "spectrum_n4.txt").read_text()
    assert run(capsys, ["spectrum", "--n", "4"]) == (0, (golden, ""))


def test_spectrum_json_exact_bytes(capsys):
    code, captured = run(capsys, ["spectrum", "--n", "2", "--format", "json"])
    assert code == 0
    assert captured.out == '{"n":2,"multiplicities":{"-1":"1","1":"1"}}\n'


@pytest.mark.parametrize("n", [40, 50])
def test_spectrum_json_digest(capsys, n):
    code, captured = run(capsys, ["spectrum", "--n", str(n), "--format", "json"])
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == SPECTRUM_JSON_SHA256[n]


def test_json_round_trips(capsys):
    for argv in (
        ["spectrum", "--n", "6", "--format", "json"],
        ["bound", "--n", "6", "--format", "json"],
        ["moments", "--n", "4", "--k-max", "6", "--format", "json"],
        ["verify", "--n", "4", "--format", "json"],
    ):
        code, captured = run(capsys, argv)
        assert code == 0
        text = captured.out
        assert json.dumps(json.loads(text), separators=(",", ":")) + "\n" == text


def test_spectrum_csv_rows(capsys):
    code, captured = run(capsys, ["spectrum", "--n", "4", "--format", "csv"])
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert len(lines) == 8
    assert [row.split(",")[1] for row in lines[1:]] == ["1", "6", "3", "4", "3", "6", "1"]


def test_spectrum_include_zeros(capsys):
    code, captured = run(capsys, ["spectrum", "--n", "2", "--format", "csv"])
    assert captured.out.splitlines()[1:] == ["-1,1", "1,1"]
    code, captured = run(capsys, ["spectrum", "--n", "2", "--include-zeros", "--format", "csv"])
    assert captured.out.splitlines()[1:] == ["-1,1", "0,0", "1,1"]


def test_spectrum_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, captured = run(capsys, ["spectrum", "--n", "3", "--format", "csv", "--out", str(target)])
    assert code == 0
    assert captured.out == ""
    assert target.read_text() == "eigenvalue,multiplicity\n-2,1\n-1,2\n1,2\n2,1\n"


def test_replaced_out_file_keeps_its_mode(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    code, _ = run(capsys, ["spectrum", "--n", "3", "--format", "csv", "--out", str(target)])
    assert code == 0
    assert target.read_text().startswith("eigenvalue,multiplicity\n")
    assert target.stat().st_mode & 0o7777 == 0o640


# Modules that no command needs when a process starts: numpy is no runtime
# dependency, the records are no dataclasses (which load inspect) and no
# typing.NamedTuple, JSON output loads json itself, no code path loads
# fractions (nor with it decimal and numbers), annotations are evaluated
# without __future__, only the full parser loads argparse (and with it
# gettext), and partitions and tableaux are test references in
# tests/reference.py, not package modules.
NOT_LOADED_AT_IMPORT = {
    "numpy", "dataclasses", "inspect", "json", "starspec.partitions", "starspec.tableaux",
    "fractions", "decimal", "numbers", "typing", "__future__", "argparse", "gettext",
}


def fresh_python(code: str) -> str:
    """Stdout of a new interpreter that runs code with this starspec on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout


def test_import_loads_only_what_a_command_runs():
    # Compared with what the interpreter had loaded before the import (what
    # `python -c pass` loads), so a module that a site hook preloads is no failure.
    added = fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import starspec, starspec.cli\n"
        "print(*set(sys.modules) - before)\n"
    ).split()
    assert not NOT_LOADED_AT_IMPORT.intersection(added)


def test_semicircle_report_loads_no_fractions(tmp_path):
    # The report divides the ratio's two integers; no exact fraction is built.
    out = tmp_path / "semicircle.csv"
    printed = fresh_python(
        "import sys\n"
        "import starspec.cli\n"
        "from starspec import convergence_report\n"
        "convergence_report(4, 8), convergence_report(50, 8)\n"
        f"assert starspec.cli.main(['semicircle', '--n', '4', '--out', {str(out)!r}]) == 0\n"
        "print('fractions' in sys.modules, 'argparse' in sys.modules)\n"
    )
    assert printed.splitlines()[-1] == "False False"
    assert out.read_text().startswith("bin_left,bin_right,empirical_mass,semicircle_mass\n")


def test_records_are_named_tuples():
    result = cli.Result(["h"], [["r"]], {"k": 1})
    assert cli.Result._fields == ("header", "rows", "payload", "code", "summary")
    assert result.code == cli.EXIT_OK == 0 and result.summary is None
    assert result == (["h"], [["r"]], {"k": 1}, 0, None)
    assert repr(result) == (
        "Result(header=['h'], rows=[['r']], payload={'k': 1}, code=0, summary=None)"
    )
    assert pickle.loads(pickle.dumps(result)) == result


def test_json_output_from_a_fresh_process(capsys):
    # The first JSON render in a process imports json.
    out = fresh_python(
        "import starspec.cli\n"
        "starspec.cli.main(['spectrum', '--n', '4', '--format', 'json'])\n"
    )
    assert out == run(capsys, ["spectrum", "--n", "4", "--format", "json"])[1].out


def test_plain_request_loads_no_argparse(tmp_path):
    # Only the full parser imports argparse, and with it gettext; its first
    # message lookup imports locale, about 1 ms of a cold request. A plain
    # command line builds no parser, so it loads none of them.
    out = tmp_path / "spectrum.txt"
    added = fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import starspec.cli\n"
        f"assert starspec.cli.main(['spectrum', '--n', '4', '--out', {str(out)!r}]) == 0\n"
        "print(*set(sys.modules) - before)\n"
    ).split()
    assert "starspec.cli" in added
    assert not {"argparse", "gettext", "locale"}.intersection(added)
    assert out.read_text() == (GOLDENS / "spectrum_n4.txt").read_text()


def test_usage_errors_exit_2(capsys):
    code, captured = run(capsys, ["spectrum", "--n", "0"])
    assert code == 2
    assert "error" in captured.err
    assert captured.out == ""
    code, _ = run(capsys, ["bound", "--n", "1"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--n", "not-a-number"])
    assert exc.value.code == 2


BAD_DEGREE = "degree must be a positive integer, got 0"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--n", "0"], BAD_DEGREE),
        (["verify", "--n", "0"], BAD_DEGREE),
        (["moments", "--n", "0", "--k-max", "2"], BAD_DEGREE),
        (["moments", "--n", "0", "--k-max", "2", "--source", "table"], BAD_DEGREE),
        (["semicircle", "--n", "4", "--n", "0"], BAD_DEGREE),
        (["bound", "--n", "0"], "bound requires n >= 2, got 0"),
        (["moments", "--n", "4", "--k-max", "-1"], "k-max must be a non-negative integer, got -1"),
        (
            ["moments", "--n", "4", "--k-max", "-1", "--source", "table"],
            "k-max must be a non-negative integer, got -1",
        ),
        (["semicircle", "--n", "4", "--bins", "0"], "bins must be a positive integer, got 0"),
        (["semicircle", "--n", "4", "--p-max", "0"], "p-max must be a positive integer, got 0"),
    ],
)
def test_bad_degree_exits_2_before_writing(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, argv)
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []  # semicircle wrote no histogram for n = 4


def test_size_limit_exits_3(capsys):
    code, captured = run(capsys, ["verify", "--n", "51"])
    assert code == 3
    assert "error" in captured.err
    code, _ = run(capsys, ["spectrum", "--n", "99"])
    assert code == 3


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["moments", "--n", "4", "--k-max", "1000", "--format", "csv"], 1002),
        (["moments", "--n", "4", "--k-max", "1000", "--source", "table", "--format", "csv"], 1002),
        (["semicircle", "--n", "4", "--bins", "10000", "--format", "csv"], 5),
        (["semicircle", "--n", "30", "--p-max", "300", "--format", "csv"], 302),
        (["semicircle", "--n", "50", "--p-max", "300", "--format", "csv"], 302),
    ],
)
def test_value_at_a_limit_is_accepted(capsys, monkeypatch, tmp_path, argv, rows):
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, argv)
    assert code == 0
    assert captured.err == ""
    assert len(captured.out.splitlines()) == rows
    if "--bins" in argv:
        assert len((tmp_path / "semicircle_n4.csv").read_text().splitlines()) == 10001


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectrum", "--n", "51", "--out", "out.txt"], "degree must be at most 50, got 51"),
        (["verify", "--n", "51", "--out", "out.txt"], "degree must be at most 50, got 51"),
        (["moments", "--n", "51", "--k-max", "2"], "degree must be at most 50, got 51"),
        (["semicircle", "--n", "4", "--n", "51"], "degree must be at most 50, got 51"),
        (["moments", "--n", "4", "--k-max", "1001"], "k-max must be at most 1000, got 1001"),
        (
            ["moments", "--n", "4", "--k-max", "1001", "--source", "table", "--out", "out.txt"],
            "k-max must be at most 1000, got 1001",
        ),
        (["semicircle", "--n", "4", "--bins", "10001"], "bins must be at most 10000, got 10001"),
        (["semicircle", "--n", "4", "--p-max", "301"], "p-max must be at most 300, got 301"),
    ],
)
def test_value_past_a_limit_exits_3_before_writing(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, argv)
    assert code == 3
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_verify_ok(capsys):
    code, captured = run(capsys, ["verify", "--n", "5"])
    assert code == 0
    assert captured.out == "identical, 9 eigenvalues, total 120\n"
    code, captured = run(capsys, ["verify", "--n", "3"])
    assert code == 0


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    broken = {**cli.multiplicity_table(4), 0: 5}
    monkeypatch.setattr(cli, "multiplicity_table", lambda n: broken)
    code, captured = run(capsys, ["verify", "--n", "4"])
    assert code == 1
    assert "0" in captured.out
    code, captured = run(capsys, ["verify", "--n", "4", "--format", "json"])
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["match"] is False
    assert payload["differences"]["0"] == {"formula": "5", "oracle": "4"}


@pytest.mark.parametrize("k, formula, oracle", [(3, 2, 1), (4, 1, 0)])
def test_verify_compares_every_key(capsys, monkeypatch, k, formula, oracle):
    # n - 1 = 3 is the range's last key; 4 lies outside it, in one table only.
    broken = {**cli.multiplicity_table(4), k: formula}
    monkeypatch.setattr(cli, "multiplicity_table", lambda n: broken)
    code, captured = run(capsys, ["verify", "--n", "4", "--format", "csv"])
    assert code == 1
    assert captured.out == f"eigenvalue,formula,oracle\n{k},{formula},{oracle}\n"


def test_bound_n2_single_row(capsys):
    code, captured = run(capsys, ["bound", "--n", "2", "--format", "csv"])
    assert code == 0
    assert captured.out.splitlines()[1:] == ["1,1,1,true"]


def test_bound_column_counts_the_hook(capsys):
    for n in range(2, 13):
        code, captured = run(capsys, ["bound", "--n", str(n), "--format", "json"])
        assert code == 0
        bounds = [row["bound"] for row in json.loads(captured.out)["rows"]]
        assert bounds == [str(reference.hook_bound(n, l)) for l in range(1, n)], n


def test_moments_walk_vs_table_sources(capsys):
    code, walk = run(capsys, ["moments", "--n", "5", "--k-max", "6", "--format", "csv"])
    assert code == 0
    code, table = run(
        capsys, ["moments", "--n", "5", "--k-max", "6", "--source", "table", "--format", "csv"]
    )
    assert code == 0
    assert walk.out == table.out


def test_moments_table_source_checks_traces(capsys, monkeypatch):
    # A table whose traces are not multiples of n! must raise, also under -O.
    monkeypatch.setattr(cli, "multiplicity_table", lambda n: {1: 5})
    with pytest.raises(ArithmeticError, match=r"n! \* integer"):
        cli.main(["moments", "--n", "3", "--k-max", "2", "--source", "table"])


def test_moments_w2_is_degree_minus_one(capsys):
    code, captured = run(capsys, ["moments", "--n", "6", "--k-max", "2", "--format", "csv"])
    assert code == 0
    assert captured.out.splitlines()[-1] == "2,5,3600"


def test_semicircle_writes_histogram(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, ["semicircle", "--n", "16", "--bins", "8", "--p-max", "2"])
    assert code == 0
    hist = (tmp_path / "semicircle_n16.csv").read_text()
    lines = hist.splitlines()
    assert lines[0] == "bin_left,bin_right,empirical_mass,semicircle_mass"
    assert len(lines) == 9
    # Semicircle column always sums to 1; the empirical column sums to the
    # mass the measure puts on the fixed window [-1.1, 1.1] (atoms at
    # |k| > 2.2*sqrt(n) fall outside it for n >= 14).
    emp = sum(float(row.split(",")[2]) for row in lines[1:])
    semi = sum(float(row.split(",")[3]) for row in lines[1:])
    assert abs(semi - 1.0) < 1e-9
    assert 0.999 < emp < 1.0
    assert "moment_ratio_p1" in captured.out
    assert "kolmogorov_distance" in captured.out


def test_semicircle_small_degree_mass_sums_to_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["semicircle", "--n", "4", "--bins", "4"])
    assert code == 0
    lines = (tmp_path / "semicircle_n4.csv").read_text().splitlines()[1:]
    emp = [float(row.split(",")[2]) for row in lines]
    assert abs(sum(emp) - 1.0) < 1e-12
    # The atom at 3/(2*sqrt(4)) = 0.75 lands in the bin covering [0.55, 1.1).
    assert emp[-1] >= 1 / 24


def test_semicircle_report_values(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run(
        capsys, ["semicircle", "--n", "36", "--p-max", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["reports"][0]["moment_ratios"]["1"] == "0.972222222222"


def test_semicircle_multiple_degrees(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["semicircle", "--n", "4", "--n", "9", "--bins", "5"])
    assert code == 0
    assert (tmp_path / "semicircle_n4.csv").exists()
    assert (tmp_path / "semicircle_n9.csv").exists()
    code, captured = run(
        capsys, ["semicircle", "--n", "4", "--n", "9", "--out", "single.csv"]
    )
    assert code == 2


def test_semicircle_unwritable_out_exits_4(capsys):
    code, captured = run(
        capsys, ["semicircle", "--n", "4", "--out", "/nonexistent-dir/h.csv"]
    )
    assert code == 4
    # The message names the path asked for, not a temporary file beside it.
    assert captured.err == "error: [Errno 2] No such file or directory: '/nonexistent-dir/h.csv'\n"
    assert captured.out == ""


def test_semicircle_out_names_the_histogram(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, default = run(capsys, ["semicircle", "--n", "4"])
    assert code == 0
    code, named = run(capsys, ["semicircle", "--n", "4", "--out", "h.csv"])
    assert code == 0
    # --out moves the histogram; the report still goes to stdout.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "semicircle_n4.csv"]
    assert (tmp_path / "h.csv").read_text() == (tmp_path / "semicircle_n4.csv").read_text()
    assert named.out == default.out
    assert "kolmogorov_distance" in named.out


class FailingHandle:
    """A file handle whose write fails as on a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--n", "4", "--format", "csv"], ["semicircle", "--n", "4"]],
)
def test_failed_write_keeps_the_old_file(tmp_path, capsys, monkeypatch, argv):
    target = tmp_path / "old.csv"
    target.write_text("old bytes\n")
    monkeypatch.setattr(cli, "open", lambda *a, **kw: FailingHandle(open(*a, **kw)), raising=False)
    code, captured = run(capsys, argv + ["--out", str(target)])
    assert code == 4
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert target.read_text() == "old bytes\n"
    assert list(tmp_path.iterdir()) == [target]  # no temporary file left behind


def test_out_name_near_the_length_limit_is_written(tmp_path, capsys):
    # The temporary file's name does not grow with the target's.
    target = tmp_path / ("t" * 250)
    code, captured = run(capsys, ["spectrum", "--n", "4", "--format", "csv", "--out", str(target)])
    assert (code, captured.out, captured.err) == (0, "", "")
    assert target.read_text() == "eigenvalue,multiplicity\n-3,1\n-2,6\n-1,3\n0,4\n1,3\n2,6\n3,1\n"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write any file")
def test_out_to_a_write_protected_file_exits_4(tmp_path, capsys):
    target = tmp_path / "prot.txt"
    target.write_text("old bytes\n")
    target.chmod(0o444)
    code, captured = run(capsys, ["spectrum", "--n", "3", "--out", str(target)])
    assert code == 4
    assert captured.err == f"error: [Errno 13] Permission denied: '{target}'\n"
    assert target.read_text() == "old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_out_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "table.csv"
    target.write_text("old bytes\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    code, _ = run(capsys, ["spectrum", "--n", "4", "--format", "csv", "--out", str(link)])
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "eigenvalue,multiplicity\n-3,1\n-2,6\n-1,3\n0,4\n1,3\n2,6\n3,1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "table.csv"]


def test_out_to_a_fifo_writes_through_it(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
    try:
        code, _ = run(capsys, ["spectrum", "--n", "4", "--format", "csv", "--out", str(fifo)])
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert code == 0
    assert data.startswith(b"eigenvalue,multiplicity\n")
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_out_under_a_regular_file_exits_4(tmp_path, capsys):
    # Also a symlink loop: os.stat reports either path as open() would.
    parent = tmp_path / "file"
    parent.write_text("old bytes\n")
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    for path, error in [
        (parent / "out.txt", "[Errno 20] Not a directory"),
        (loop, "[Errno 40] Too many levels of symbolic links"),
    ]:
        code, captured = run(capsys, ["spectrum", "--n", "4", "--out", str(path)])
        assert code == 4
        assert captured.err == f"error: {error}: '{path}'\n"
        assert captured.out == ""
    assert parent.read_text() == "old bytes\n"
    assert sorted(tmp_path.iterdir()) == [parent, loop]


def test_out_to_a_directory_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, ["spectrum", "--n", "4", "--out", "."])
    assert code == 4
    assert captured.err == "error: [Errno 21] Is a directory: '.'\n"
    assert list(tmp_path.iterdir()) == []
