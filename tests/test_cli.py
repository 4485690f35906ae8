from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import starspec.cli as cli
from starspec import SpectrumTable

GOLDENS = Path(__file__).parent / "goldens"

# SHA-256 of `starspec spectrum --n N --format json`, frozen from the tables
# of the earlier route over shapes of n and their removable corners.
SPECTRUM_JSON_SHA256 = {
    40: "b98f33a8319801d85099b3874a91c615092ba50c28cd5f35cddef6474e3f449d",
    50: "588531be0aa3e6eb9514fcc535d9016e52bb572434c30f25cef63dcccb7502c9",
}


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr()


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
    code, captured = run(capsys, ["verify", "--n", "30"])
    assert code == 3
    assert "error" in captured.err
    code, _ = run(capsys, ["spectrum", "--n", "99"])
    assert code == 3


def test_verify_ok(capsys):
    code, captured = run(capsys, ["verify", "--n", "5"])
    assert code == 0
    assert captured.out == "identical, 9 eigenvalues, total 120\n"
    code, captured = run(capsys, ["verify", "--n", "3", "--oracle", "walk"])
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
    assert "error" in captured.err
