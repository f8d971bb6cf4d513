"""Every memo is transparent: results do not depend on the memo cap.

Each ``functools.lru_cache`` memo of the package is bounded by
``linalg._APPLY_MEMO_CAP``.  The test copies ``src/`` to a temporary
directory, sets the cap there to 0 (nothing is stored) and to 1 (every
other entry is dropped), and computes in a fresh interpreter what the
package gives: a digest of every partition result with n <= 8, the rows
of the n <= 8 sweep and the ``qmodw run --trace`` output of a few inputs.
Each must equal what this process computes at the real cap, so a memo
whose key misses an argument of its value is caught here, a memo added
later included.  The package gains no option for this.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qmodw import linalg

SRC = Path(__file__).resolve().parents[1] / "src"
CAP_LINE = "_APPLY_MEMO_CAP = {}\n"

OBSERVE = '''
import contextlib
import hashlib
import io

from qmodw import cli
from qmodw.hamming_mod import partition_weight
from qmodw.oracle import CountingOracle
from qmodw.sweep import DEFAULT_MODULI, run_sweep

RUNS = [("1011", "2"), ("110101", "6"), ("000000000000", "12"),
        ("10110111010", "9"), ("0110", "3"), ("111111111", "4")]


def observe():
    """The n <= 8 partition digest, the n <= 8 sweep rows and the output
    and exit code of ``qmodw run --trace`` on each of RUNS."""
    digest = hashlib.sha256()
    for n in range(1, 9):
        for m in DEFAULT_MODULI:
            for hidden in range(2 ** n):
                result = partition_weight(
                    CountingOracle(hidden, n), m)
                digest.update(repr(tuple(result)).encode())
    runs = []
    for x, m in RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--x", x, "--m", m, "--trace"])
        runs.append([x, m, code, out.getvalue(), err.getvalue()])
    return {"digest": digest.hexdigest(),
            "rows": [repr(row) for row in run_sweep(8, threads=1)],
            "runs": runs}
'''


def observe_here():
    namespace = {}
    exec(OBSERVE, namespace)
    return namespace["observe"]()


def observe_with_cap(tmp_path, cap):
    """``observe()`` in a fresh interpreter on a copy of src/ whose memo
    cap is ``cap``."""
    copy = tmp_path / f"cap{cap}"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    path = copy / "qmodw" / "linalg.py"
    text = path.read_text()
    real = CAP_LINE.format(linalg._APPLY_MEMO_CAP)
    assert text.count(real) == 1
    path.write_text(text.replace(real, CAP_LINE.format(cap)))
    check = (OBSERVE + "import json\n"
             "from qmodw import linalg\n"
             f"assert linalg._APPLY_MEMO_CAP == {cap}\n"
             "print(json.dumps(observe()))\n")
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("cap", [0, 1])
def test_results_do_not_depend_on_the_memo_cap(tmp_path, cap):
    at_real_cap = observe_here()
    assert len(at_real_cap["rows"]) == 56
    assert all(code == 0 for _, _, code, _, _ in at_real_cap["runs"])
    assert observe_with_cap(tmp_path, cap) == at_real_cap
