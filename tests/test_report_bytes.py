"""The bytes of the JSON reports on the default grids, pinned by sha256.

A refactoring must leave every character, verdict and report byte as it
was; these digests were taken from ``verify --family X --json`` (default
grid) and ``selftest --json`` before the refactorings they now guard.  A
change that alters a report on purpose updates the digest here and says
why.  Wide windows are pinned too: A and D, where most torus blocks are
proved from their chamber's rather than built (their digests were taken
when every window point was still built on its own), and B, whose
parity classes and Laurent module state a character by ranges (its
digest was taken when both were still written point by point).
"""

import hashlib
from collections import Counter
from itertools import product

import pytest

from locind.gkmod import Window
from locind.harness import VerificationCase, main, run_case

REPORT_SHA256 = {
    "A": "df096044458f05072ed0fc7d575d2a13ef5602e6a9fdd8671db632dd68108b84",
    "B": "60e335bf6028f964e886f417824f94abf223f8084df7f0fd37b6a99c6d7c3480",
    "C": "7ff5df44849461c4bd9a92267f27f9093c7494e79c70c767caeffae31dc8f5d4",
    "D": "e387659388bd95e0ea54be310c3c7225effd9a3d6fbbb9d7952189d267efb4fc",
    "selftest": "f755edc616dcdf9d80fa30e3f6c917d04df2313b385aab5902bdc63fb509575d",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(name, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = (["selftest"] if name == "selftest" else ["verify", "--family", name])
    assert main(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[name]


WIDE_SHA256 = {
    ("A", "-1000:1000"): "405fba2457ef9f83e5c66ad833cbca9d0f76fd59372e7b81085543a2915319ce",
    ("B", "-120:120"): "2647957267d2bc0d328d16a687b9218a1e2e28d1383aded07dedbfda64a06dbe",
    ("D", "-64:64"): "b1e517ed6232a96c214e9df5b40f6e07d2d205aac1cfa785912dd4bc0aace086",
}


@pytest.mark.parametrize("family, window", sorted(WIDE_SHA256))
def test_wide_window_report_bytes_are_pinned(family, window, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "--family", family, "--window", window, "--json", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_SHA256[(family, window)]


# Every twist in a range, in one process: A and both B parities for each
# lambda in [-60, 60] on the window -40:40, and D for each pair in
# [-8, 8]^2 on the box -8:8.  The digest is of the concatenated report
# bytes, taken when no torus block was shared between twists.
SWEEP_SHA256 = "fec1d9db3f90e48105cb6945a30383035c12a4e0250b6d565b1bca787c47ca0e"


def _sweep_cases():
    line = Window.segment(-40, 40)
    for lam in range(-60, 61):
        yield VerificationCase("A", lam, window=line)
        for parity in (0, 1):
            yield VerificationCase("B", lam, window=line, parity=parity)
    box = Window.box((-8, -8), (8, 8))
    for lam in product(range(-8, 9), repeat=2):
        yield VerificationCase("D", lam, window=box)


def test_a_twist_sweep_matches_and_its_report_bytes_are_pinned():
    digest, verdicts = hashlib.sha256(), Counter()
    for case in _sweep_cases():
        report = run_case(case)
        verdicts[report.verdict] += 1
        digest.update(report.to_json_bytes())
    assert verdicts == {"exact-match": 121 * 3 + 17 * 17}
    assert digest.hexdigest() == SWEEP_SHA256
