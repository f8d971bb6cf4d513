import json

import pytest

from qmodw import cli, hamming_mod, subroutines
from qmodw.algebra import ONE
from qmodw.cli import main
from qmodw.fixtures import STAGES, STATE_TABLE_ORDER
from qmodw.linalg import SquareMatrix
from qmodw.subroutines import gram_matrix, trace_mod3


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
        o.query_bit(group.map[0])
        return 0
    monkeypatch.setattr(hamming_mod, "deutsch", constant)
    code, out, err = run_cli(capsys, "run", "--x", "10", "--m", "2")
    assert code == 3
    assert out == ""
    assert "error: residue 0 but |x| mod 2 = 1" in err


def test_run_exits_3_on_an_exception_in_the_run(capsys, monkeypatch):
    # A 4 x 4 middle matrix of the mod-3 circuit: the run raises, and
    # the CLI reports it as the sweep does, without a traceback.  Once
    # the matrix is restored the same run passes: the failed run stored
    # nothing.
    monkeypatch.setattr(subroutines, "_MID", SquareMatrix.identity(4))
    code, out, err = run_cli(capsys, "run", "--x", "101", "--m", "3")
    assert code == 3
    assert out == ""
    assert err == "error: ValueError: dimension mismatch: 4 != 5\n"
    monkeypatch.undo()
    assert run_cli(capsys, "run", "--x", "101", "--m", "3")[0] == 0


def test_run_exits_3_when_the_audit_fails(capsys, monkeypatch):
    # The first group of each level is reported constant, its outcome
    # still counted in w: the pair (1, 2) of 101 becomes a block and its
    # weight stays in w2.  Residue and budget are right, only the audit
    # sees it.
    real = hamming_mod._measure_level

    def measure_level(o, groups, rest, p):
        mask, w = real(o, groups, rest, p)
        return mask | 1 if groups else mask, w
    monkeypatch.setattr(hamming_mod, "_measure_level", measure_level)
    code, out, err = run_cli(capsys, "run", "--x", "101", "--m", "2")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: block (1, 2) not constant on input 101",
        "error: w2=2 but |x_S2|=1"]


@pytest.mark.parametrize("bits, blocks, s2", [
    ("0001", [[1, 2, 3]], [4]),
    ("1000", [], [1, 2, 3, 4]),
])
def test_run_reads_x_1_as_the_first_character(capsys, bits, blocks, s2):
    # At m = 3 the first triple is measured and the fourth bit is read:
    # with x_1 first, 0001 has a constant first triple and 1000 does not,
    # so a run that reversed the bit order would swap the two reports.
    code, out, _ = run_cli(capsys, "run", "--x", bits, "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert (report["blocks"], report["s2"]) == (blocks, s2)


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
    assert payload["match"] is True and payload["mismatches"] == []
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
    payload = json.loads(out)
    assert code == 3 and payload["match"] is False
    # The payload holds the computed states, and names the changed one.
    assert payload["mismatches"] == ["psi3(101)"]
    assert payload["psi3"]["101"] == trace_mod3("101").psi3.to_json()


def test_verify_states_reports_a_non_unitary_matrix(capsys, monkeypatch):
    # U[1][3] = 1 in place of 3/4: the states that reach U have zero
    # amplitude on dimensions 3 and 4, so all 32 states still match the
    # frozen table, and only the unitarity check sees the fault.
    rows = [list(r) for r in subroutines.U.entries]
    rows[1][3] = ONE
    monkeypatch.setattr(subroutines, "U", SquareMatrix(rows))
    code, out, _ = run_cli(capsys, "verify-states")
    assert code == 3
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        "MISMATCH: U not unitary"]
    code, out, _ = run_cli(capsys, "verify-states", "--format", "json")
    payload = json.loads(out)
    assert code == 3 and payload["match"] is False
    assert payload["mismatches"] == ["U not unitary"]
    frozen = cli.load_state_table()
    assert all(payload[stage][bits] == frozen[stage][bits].to_json()
               for stage in STAGES for bits in STATE_TABLE_ORDER)


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
            for line in out.splitlines()[:8]]
    assert rows[0] == [2, 0, 0, 0, 0, 0, 0, 2]
    assert rows[1] == [0, 2, -1, 0, -1, 0, 0, 0]
    assert rows[7] == [2, 0, 0, 0, 0, 0, 0, 2]


def test_gram_closed_form_agreement(capsys):
    code, out, _ = run_cli(capsys, "gram")
    assert code == 0
    assert out.splitlines()[8:] == [
        "closed forms agree with the state Gram matrix on all 64 pairs"]


def test_gram_closed_form_check_bites(capsys, monkeypatch):
    # Corrupt G[001][010] in both the computed and the frozen matrix, so
    # only the closed-form check, which both formats make, can notice.
    gram = [list(row) for row in gram_matrix()]
    gram[1][2] = gram[1][2] + ONE
    monkeypatch.setattr(cli, "gram_matrix", lambda: gram)
    monkeypatch.setattr(cli, "load_gram", lambda: gram)
    for argv in (["gram"], ["gram", "--format", "json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert "all 64 pairs" not in out
        assert err.splitlines() == [
            "MISMATCH: closed form 48 differs at (001, 010)",
            "MISMATCH: closed form 16 differs at (001, 010)"]


def test_gram_exits_3_on_a_corrupted_circuit(capsys, monkeypatch):
    # With U[1][1] negated the Gram entries leave the half-integer grid
    # and some are not rational: the grid prints them exactly, every
    # mismatch is reported, and each format exits 3 without raising.
    rows = [list(r) for r in subroutines.U.entries]
    rows[1][1] = -rows[1][1]
    monkeypatch.setattr(subroutines, "U", SquareMatrix(rows))
    code, _, _ = run_cli(capsys, "verify-states")
    assert code == 3
    code, out, _ = run_cli(capsys, "verify-states", "--format", "json")
    payload = json.loads(out)
    assert code == 3 and payload["mismatches"]
    frozen = cli.load_state_table()
    assert [f"{stage}({bits})" for stage in STAGES for bits in STATE_TABLE_ORDER
            if payload[stage][bits] != frozen[stage][bits].to_json()
            ] + ["U not unitary"] == payload["mismatches"]
    for argv in (["gram"], ["gram", "--format", "json"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err and all(line.startswith("MISMATCH: ")
                           for line in err.splitlines())
        assert "all 64 pairs" not in out
    _, out, _ = run_cli(capsys, "gram")
    assert "1/9 - 1/3·i√3" in out.splitlines()[0]


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


@pytest.mark.parametrize("m", [5, 7, 10])
def test_lower_bound_claims_no_upper_bound_without_an_algorithm(capsys, m):
    # The zero-weight count still equals n - floor(n/m), so the exit code
    # is 0, but no algorithm here meets the bound for this m.
    code, out, _ = run_cli(capsys, "lower-bound", "--n", "12", "--m", str(m))
    assert code == 0
    bound = 12 - 12 // m
    assert json.loads(out) == {
        "n": 12, "m": m, "zero_weights": bound, "bound": bound,
        "upper_bound": None,
        "note": "the upper bound is shown only for m = 2^a * 3^b"}


def test_lower_bound_matches_the_upper_bound_for_a_supported_modulus(capsys):
    code, out, _ = run_cli(capsys, "lower-bound", "--n", "12", "--m", "6")
    assert code == 0
    assert json.loads(out) == {"n": 12, "m": 6, "zero_weights": 10,
                               "bound": 10, "matches_upper_bound": True}


def test_lower_bound_exits_3_when_the_bound_differs(capsys, monkeypatch):
    # A query bound off by one: both forms print the disagreement and
    # exit 3.
    real = cli.query_bound
    monkeypatch.setattr(cli, "query_bound", lambda n, m: real(n, m) + 1)
    code, out, _ = run_cli(capsys, "lower-bound", "--n", "6", "--m", "3")
    assert code == 3
    assert json.loads(out)["matches_upper_bound"] is False
    code, out, _ = run_cli(capsys, "lower-bound", "--sweep", "--n-max", "3")
    assert code == 3
    assert out.splitlines()[1:] == ["2,2,1,2,False", "3,2,2,3,False",
                                    "3,3,2,3,False"]


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


@pytest.mark.parametrize("argv, error", [
    (["--sweep", "--n", "40", "--m", "3", "--n-max", "3"],
     "--sweep takes --n-max, not --n or --m"),
    (["--sweep", "--n", "5"], "--sweep takes --n-max, not --n or --m"),
    (["--sweep", "--m", "3"], "--sweep takes --n-max, not --n or --m"),
    (["--n", "5", "--m", "3", "--n-max", "9"], "--n-max needs --sweep"),
    (["--n-max", "9"], "--n-max needs --sweep"),
], ids=["sweep-n-m-n-max", "sweep-n", "sweep-m", "single-n-max", "n-max"])
def test_lower_bound_rejects_mixed_modes(capsys, argv, error):
    # A flag of the other mode is an error, not silently ignored.
    code, out, err = run_cli(capsys, "lower-bound", *argv)
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_lower_bound_sweep_defaults_to_n_max_20(capsys):
    _, out, _ = run_cli(capsys, "lower-bound", "--sweep")
    assert out.strip().splitlines()[-1] == "20,20,19,19,True"


def test_lower_bound_missing_args(capsys):
    code, _, _ = run_cli(capsys, "lower-bound")
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
