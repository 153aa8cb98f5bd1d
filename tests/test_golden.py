"""Golden outputs of the README commands.

Each case runs one README command in-process through ``cli.main`` at seed
0 and compares its ``--out`` CSV and its stdout byte for byte with the
files under ``tests/golden/``. A change that is meant to keep every
result bit-identical must leave these files alone; a change that alters
an output on purpose re-records them with

    PYTHONPATH=src python tests/test_golden.py

and shows the difference in its diff. ``verify`` is compared in
``test_cli.py::test_verify_full_catalog_passes``, which already runs it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from orliczlat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

NORM_CONFIG = {
    "young": {"family": "power", "p": 2},
    "kind": "luxemburg",
    "f": {"dim": 1, "entries": [[[0], [3.0, 0.0]], [[1], [4.0, 0.0]]]},
}

CASES = {
    "classify": ["classify", "--p", "1.5,3", "--weight",
                 '{"family":"polynomial","beta":0.4}', "--dim", "1"],
    "conjugate": ["conjugate", "--young", '{"family":"power","p":2}', "--points", "40"],
    "norm": ["norm", "{config}"],
    "certify-algebra": ["certify-algebra", "--young", '{"family":"power","p":1.5}',
                        "--weight", '{"family":"polynomial","beta":0.7}',
                        "--radius", "64", "--trials", "60"],
    "derivation-scan": ["derivation-scan", "--young", '{"family":"power","p":1.5}',
                        "--weight", '{"family":"polynomial","beta":0.4}',
                        "--radii", "16,64,256", "--trials", "200"],
}


def run_case(name: str, workdir: Path) -> tuple[bytes, bytes]:
    """(``--out`` CSV, stdout) of one README command at seed 0."""
    config = workdir / "norm.json"
    config.write_text(json.dumps(NORM_CONFIG))
    out = workdir / f"{name}.csv"
    argv = [str(config) if a == "{config}" else a for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--seed", "0", "--out", str(out)])
    assert code == 0, buf.getvalue()
    return out.read_bytes(), buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_matches_golden(name, tmp_path):
    csv_bytes, stdout = run_case(name, tmp_path)
    assert csv_bytes == (GOLDEN / f"{name}.csv").read_bytes()
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()


def record(workdir: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        csv_bytes, stdout = run_case(name, workdir)
        (GOLDEN / f"{name}.csv").write_bytes(csv_bytes)
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
    out = workdir / "verify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify", "--out", str(out), "--format", "json"])
    (GOLDEN / "verify.json").write_bytes(out.read_bytes())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"re-recorded {len(CASES) * 2 + 1} files under {GOLDEN}", file=sys.stderr)
