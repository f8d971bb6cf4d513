import json

import pytest

from qmodw import cli, hamming_mod, subroutines
from qmodw.algebra import ONE
from qmodw.cli import main
from qmodw.linalg import SquareMatrix
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


def test_run_exits_3_on_a_wrong_answer(capsys, monkeypatch):
    # A Deutsch step that makes its query but always reports a constant
    # pair: the run stays within its budget, so only the residue check
    # can tell.
    def constant(o, group):
        o.query_bit(group[0])
        return 0
    monkeypatch.setattr(hamming_mod, "deutsch", constant)
    code, out, err = run_cli(capsys, "run", "--x", "10", "--m", "2")
    assert code == 3
    assert out == ""
    assert "error: residue 0 but |x| mod 2 = 1" in err


def test_run_exits_3_on_an_exception_in_the_run(capsys, monkeypatch):
    # A 4 x 4 middle matrix of the mod-3 circuit: the run raises, and
    # the CLI reports it as the sweep does, without a traceback.
    monkeypatch.setattr(subroutines, "_MID", SquareMatrix.identity(4))
    code, out, err = run_cli(capsys, "run", "--x", "101", "--m", "3")
    assert code == 3
    assert out == ""
    assert err == "error: ValueError: dimension mismatch: 4 != 5\n"


def test_run_exits_3_when_the_audit_fails(capsys, monkeypatch):
    # The last leftover bit is read and counted in w2 but left out of
    # s2: residue and budget are right, only the audit sees it.
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        blocks, s2, w2 = real(o, indices, m)
        return blocks, s2[:-1] if len(indices) % m else s2, w2
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)
    code, out, err = run_cli(capsys, "run", "--x", "101", "--m", "2")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: blocks and s2 do not partition the queried indices",
        "error: w2=2 but |x_S2|=1"]


def test_run_modulus_below_two_exits_1(capsys):
    code, out, err = run_cli(capsys, "run", "--x", "101", "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: modulus must be at least 2, got 1\n"


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


def test_sweep_empty_moduli_list_exits_1(capsys):
    code, out, err = run_cli(capsys, "sweep", "--n-max", "3", "--moduli", ",")
    assert (code, out, err) == (1, "", "error: empty moduli list\n")


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


def test_verify_states_reports_a_changed_entry(capsys, monkeypatch):
    frozen = cli.load_state_table()
    changed = {stage: dict(column) for stage, column in frozen.items()}
    changed["psi3"]["101"] = frozen["psi3"]["011"]
    assert changed["psi3"]["101"] is not frozen["psi3"]["101"]
    monkeypatch.setattr(cli, "load_state_table", lambda: changed)
    code, out, _ = run_cli(capsys, "verify-states")
    assert code == 3
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        "MISMATCH: psi3(101)"]
    assert "states match" not in out
    code, out, _ = run_cli(capsys, "verify-states", "--format", "json")
    assert code == 3 and json.loads(out)["match"] is False


def test_gram_reports_a_changed_entry(capsys, monkeypatch):
    frozen = [list(row) for row in cli.load_gram()]
    frozen[2][5] += 1
    monkeypatch.setattr(cli, "load_gram", lambda: frozen)
    for argv in (["gram"], ["gram", "--format", "json"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == "MISMATCH: G[2][5] differs from frozen matrix\n"


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


def test_lower_bound_sweep_rejects_n_max_below_two(capsys):
    code, out, err = run_cli(capsys, "lower-bound", "--sweep", "--n-max", "1")
    assert (code, out, err) == (1, "", "error: --n-max must be at least 2\n")


def test_lower_bound_missing_args(capsys):
    code, _, _ = run_cli(capsys, "lower-bound")
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
