"""The bytes of the JSON reports on the default grids, pinned by sha256.

A refactoring must leave every character, verdict and report byte as it
was; these digests were taken from ``verify --family X --json`` (default
grid) and ``selftest --json`` before the refactorings they now guard.  A
change that alters a report on purpose updates the digest here and says
why.  Two wide windows are pinned too, where most torus blocks are
proved from their chamber's rather than built (their digests were taken
when every window point was still built on its own).
"""

import hashlib

import pytest

from locind.harness import main

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
    ("D", "-64:64"): "b1e517ed6232a96c214e9df5b40f6e07d2d205aac1cfa785912dd4bc0aace086",
}


@pytest.mark.parametrize("family, window", sorted(WIDE_SHA256))
def test_wide_window_report_bytes_are_pinned(family, window, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["verify", "--family", family, "--window", window, "--json", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_SHA256[(family, window)]
