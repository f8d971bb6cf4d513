import json

import pytest

from qmodw import cli
from qmodw.algebra import ONE
from qmodw.cli import main
from qmodw.subroutines import gram_matrix


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------
# run
# ---------------------------------------------------------

def test_run_six_ones_mod_six(capsys):
    code, out, _ = run_cli(capsys, "run", "--x", "111111", "--m", "6")
    assert code == 0
    report = json.loads(out)
    assert report["residue"] == 0
    assert report["queries"] == 5
    assert report["bound"] == 5
    assert report["blocks"] == [[1, 2, 3, 4, 5, 6]]
    assert report["s2"] == []


def test_run_nonconstant_triple(capsys):
    code, out, _ = run_cli(capsys, "run", "--x", "110", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["residue"] == 2
    assert report["queries"] == 2
    assert report["bound"] == 2


def test_run_unsupported_modulus_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", "--x", "101", "--m", "5")
    assert code == 2
    assert "prime factor" in err


def test_run_malformed_bits_exits_1(capsys):
    code, _, _ = run_cli(capsys, "run", "--x", "10a1", "--m", "2")
    assert code == 1


def test_run_trace_attaches_transcript(capsys):
    code, out, _ = run_cli(capsys, "run", "--x", "011", "--m", "3", "--trace")
    assert code == 0
    report = json.loads(out)
    assert [ev["kind"] for ev in report["transcript"]] == ["phase", "phase"]
    assert report["transcript"][-1]["count"] == report["queries"]


def test_run_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "run", "--x", "10110", "--m", "4")
    _, second, _ = run_cli(capsys, "run", "--x", "10110", "--m", "4")
    assert first == second


# ---------------------------------------------------------
# sweep
# ---------------------------------------------------------

def test_sweep_small(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-max", "5",
                           "--moduli", "2,3,4,6", "--threads", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("n,m,inputs,failures,max_queries,bound,all_correct,"
                        "tight")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5 * 4
    assert all(r[3] == "0" and r[6] == "True" and r[7] == "True"
               for r in rows)
    # row (5, 3): bound = 4
    row = next(r for r in rows if r[0] == "5" and r[1] == "3")
    assert row[4] == "4" and row[5] == "4"


def test_sweep_rejects_zero_n_max(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--n-max", "0")
    assert code == 1


def test_sweep_unsupported_modulus(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--n-max", "3", "--moduli", "2,5")
    assert code == 2


def test_sweep_bad_moduli_list(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--n-max", "3", "--moduli", "2,x")
    assert code == 1


@pytest.mark.parametrize("value", ["two", "0", "-3"])
def test_sweep_bad_threads_env_exits_1(capsys, monkeypatch, value):
    monkeypatch.setenv("QMODW_THREADS", value)
    code, out, err = run_cli(capsys, "sweep", "--n-max", "2")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: QMODW_THREADS must be a positive integer, got {value!r}"]


@pytest.mark.parametrize("value", ["two", "0", "1.5"])
def test_sweep_bad_threads_flag_exits_1(capsys, value):
    code, out, err = run_cli(capsys, "sweep", "--n-max", "2",
                             "--threads", value)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: --threads must be a positive integer, got {value!r}"]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("modulus", ["1", "0", "-6"])
def test_sweep_modulus_below_two_exits_1(capsys, modulus, threads):
    code, out, err = run_cli(capsys, "sweep", "--n-max", "3",
                             "--moduli", modulus, "--threads", threads)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"error: modulus must be at least 2, got {modulus}"]


# ---------------------------------------------------------
# verify-states / gram
# ---------------------------------------------------------

def test_verify_states(capsys):
    code, out, _ = run_cli(capsys, "verify-states")
    assert code == 0
    assert "all 32 states match" in out


def test_verify_states_json(capsys):
    code, out, _ = run_cli(capsys, "verify-states", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    # psi4(100) second amplitude is -sqrt2/2: basis coord idx 1 = -1/2
    entry = payload["psi4"]["100"][1]
    assert entry[1] == [-1, 2]


def test_gram_grid_matches_displayed_matrix(capsys):
    code, out, _ = run_cli(capsys, "gram")
    assert code == 0
    rows = [[int(tok) for tok in line.split()]
            for line in out.strip().splitlines()]
    assert rows[0] == [2, 0, 0, 0, 0, 0, 0, 2]
    assert rows[1] == [0, 2, -1, 0, -1, 0, 0, 0]
    assert rows[7] == [2, 0, 0, 0, 0, 0, 0, 2]


def test_gram_closed_form_agreement(capsys):
    code, out, _ = run_cli(capsys, "gram", "--closed-form")
    assert code == 0
    assert "all 64 pairs" in out


def test_gram_closed_form_check_bites(capsys, monkeypatch):
    # Corrupt G[001][010] in both the computed and the frozen matrix, so
    # only the closed-form check can notice.
    gram = [list(row) for row in gram_matrix()]
    gram[1][2] = gram[1][2] + ONE
    monkeypatch.setattr(cli, "gram_matrix", lambda: gram)
    monkeypatch.setattr(cli, "load_gram", lambda: gram)
    code, _, err = run_cli(capsys, "gram")
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "gram", "--closed-form")
    assert code == 3
    assert "all 64 pairs" not in out
    assert err.splitlines() == [
        "MISMATCH: closed form 48 differs at (001, 010)",
        "MISMATCH: closed form 16 differs at (001, 010)"]


def test_gram_json(capsys):
    code, out, _ = run_cli(capsys, "gram", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert len(payload["entries"]) == 8


# ---------------------------------------------------------
# lower-bound
# ---------------------------------------------------------

def test_lower_bound_single(capsys):
    code, out, _ = run_cli(capsys, "lower-bound", "--n", "6", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 6, "m": 3, "zero_weights": 4, "bound": 4,
                       "matches_upper_bound": True}


def test_lower_bound_domain_error(capsys):
    code, _, _ = run_cli(capsys, "lower-bound", "--n", "4", "--m", "5")
    assert code == 1


def test_lower_bound_sweep(capsys):
    code, out, _ = run_cli(capsys, "lower-bound", "--sweep", "--n-max", "20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,zero_weights,bound,equal"
    assert all(line.endswith("True") for line in lines[1:])
    assert len(lines) - 1 == sum(n - 1 for n in range(2, 21))


def test_lower_bound_missing_args(capsys):
    code, _, _ = run_cli(capsys, "lower-bound")
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
