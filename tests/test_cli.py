from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import starspec.cli as cli
from starspec import SemicircleReport, SpectrumTable, WalkCounts, closed_walk_counts, convergence_report

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
    # The atom 0 (mass 1/6) sits on the float edge between bins 6 and 7 of 14
    # and lands in bin 6, [-0.157, 0]; exact edges would put it in bin 7.
    (["semicircle", "--n", "4", "--bins", "14"], "semicircle_n4.csv",
     "43f84d0b5c348738ee2149d412e666f5a54a1c236bf5c4e7a6777b12201415ad"),
]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr()


def run_case(capsys, monkeypatch, cwd, argv, source):
    """Run one OUTPUT_SHA256 case in cwd; return its exit code and output digest."""
    with monkeypatch.context() as patch:
        patch.chdir(cwd)  # semicircle writes its histograms here
        if source == MISMATCH:
            broken = SpectrumTable(4, {**cli.multiplicity_table(4).mul, 0: 5})
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


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._parser.cache_clear()
    assert run(capsys, ["spectrum", "--n", "3"])[0] == 0
    first = len(built)
    assert run(capsys, ["bound", "--n", "3"])[0] == 0
    assert first > 0
    assert len(built) == first


def test_reused_parser_repeats_every_digest(capsys, monkeypatch, tmp_path):
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


@pytest.mark.parametrize("n", [40, pytest.param(50, marks=pytest.mark.slow)])
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
# typing.NamedTuple, JSON output loads json itself, only moment_ratio loads
# fractions (and with it decimal and numbers), annotations are evaluated
# without __future__, and partitions and tableaux are test references in
# tests/reference.py, not package modules.
NOT_LOADED_AT_IMPORT = {
    "numpy", "dataclasses", "inspect", "json", "starspec.partitions", "starspec.tableaux",
    "fractions", "decimal", "numbers", "typing", "__future__",
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


def test_moment_ratio_loads_fractions_on_its_first_call():
    out = fresh_python(
        "import sys\n"
        "from starspec import convergence_report, moment_ratio, multiplicity_table\n"
        "convergence_report([4], 2)\n"
        "print('fractions' in sys.modules)\n"
        "print(repr(moment_ratio(multiplicity_table(4), 1)))\n"
        "print('fractions' in sys.modules)\n"
    )
    assert out.split("\n") == ["False", "Fraction(3, 4)", "True", ""]


def test_records_are_named_tuples():
    counts = closed_walk_counts(4, 6)
    assert WalkCounts._fields == ("n", "counts")
    assert repr(counts) == "WalkCounts(n=4, counts=(1, 0, 3, 0, 15, 0, 93))"
    assert counts == (4, (1, 0, 3, 0, 15, 0, 93))
    clone = pickle.loads(pickle.dumps(counts))
    assert type(clone) is WalkCounts and clone == counts
    result = cli.Result(["h"], [["r"]], {"k": 1})
    assert cli.Result._fields == ("header", "rows", "payload", "code", "summary")
    assert result.code == cli.EXIT_OK == 0 and result.summary is None
    assert result == (["h"], [["r"]], {"k": 1}, 0, None)
    assert repr(result) == (
        "Result(header=['h'], rows=[['r']], payload={'k': 1}, code=0, summary=None)"
    )
    assert pickle.loads(pickle.dumps(result)) == result
    (report,) = convergence_report([4], 1)
    assert SemicircleReport._fields == ("n", "moment_ratios", "kolmogorov_distance")
    assert report == (4, {1: 0.75}, report.kolmogorov_distance)
    clone = pickle.loads(pickle.dumps(report))
    assert type(clone) is SemicircleReport and clone == report


def test_json_output_from_a_fresh_process(capsys):
    # The first JSON render in a process imports json.
    out = fresh_python(
        "import starspec.cli\n"
        "starspec.cli.main(['spectrum', '--n', '4', '--format', 'json'])\n"
    )
    assert out == run(capsys, ["spectrum", "--n", "4", "--format", "json"])[1].out


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
        pytest.param(
            ["semicircle", "--n", "50", "--p-max", "300", "--format", "csv"], 302,
            marks=pytest.mark.slow,
        ),
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
    broken = SpectrumTable(4, {**cli.multiplicity_table(4).mul, 0: 5})
    monkeypatch.setattr(cli, "multiplicity_table", lambda n: broken)
    code, captured = run(capsys, ["verify", "--n", "4"])
    assert code == 1
    assert "0" in captured.out
    code, captured = run(capsys, ["verify", "--n", "4", "--format", "json"])
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["match"] is False
    assert payload["differences"]["0"] == {"formula": "5", "oracle": "4"}


def test_bound_n2_single_row(capsys):
    code, captured = run(capsys, ["bound", "--n", "2", "--format", "csv"])
    assert code == 0
    assert captured.out.splitlines()[1:] == ["1,1,1,true"]


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
    monkeypatch.setattr(cli, "multiplicity_table", lambda n: SpectrumTable(3, {1: 5}))
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
    parent = tmp_path / "file"
    parent.write_text("old bytes\n")
    path = parent / "out.txt"
    code, captured = run(capsys, ["spectrum", "--n", "4", "--out", str(path)])
    assert code == 4
    assert captured.err == f"error: [Errno 20] Not a directory: '{path}'\n"
    assert captured.out == ""
    assert parent.read_text() == "old bytes\n"
    assert list(tmp_path.iterdir()) == [parent]


def test_out_to_a_directory_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, ["spectrum", "--n", "4", "--out", "."])
    assert code == 4
    assert captured.err == "error: [Errno 21] Is a directory: '.'\n"
    assert list(tmp_path.iterdir()) == []
