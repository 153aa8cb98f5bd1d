from __future__ import annotations

import json
import math
import subprocess
import sys

import pytest

from orliczlat.cli import main
from orliczlat.verify import young_inequality_margin
from orliczlat.young import ComplementaryPair, YoungFunction, pair_from_spec


def run_cli(*args: str, inp: str | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "orliczlat.cli", *args],
        capture_output=True,
        text=True,
        input=inp,
        timeout=600,
    )


def test_classify_grid_reproduces_thresholds(tmp_path):
    cfg = {
        "p": [1.5, 3.0],
        "weights": [
            {"family": "polynomial", "beta": 0.2},
            {"family": "polynomial", "beta": 0.4},
            {"family": "polynomial", "beta": 0.8},
        ],
        "dim": [1],
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "table.csv"
    r = run_cli("classify", str(cfg_path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 rows
    verdicts = [line.split(",")[3] for line in lines[1:]]
    assert verdicts == [
        "NotBanachAlgebra",
        "WeaklyAmenable",
        "NotWeaklyAmenable",
        "NotBanachAlgebra",
        "NotBanachAlgebra",
        "NotWeaklyAmenable",
    ]


def test_classify_empty_grid_exit_zero(tmp_path):
    out = tmp_path / "empty.csv"
    r = run_cli("classify", "--out", str(out))
    assert r.returncode == 0
    assert out.read_text().strip().splitlines()[0].startswith("p,weight,dim,verdict")
    assert len(out.read_text().strip().splitlines()) == 1


def test_classify_subexponential_rows():
    r = run_cli(
        "classify",
        "--p",
        "1.5,3",
        "--weight",
        '{"family":"subexp_alpha","alpha":0.5,"C":1.0}',
        "--dim",
        "1",
    )
    assert r.returncode == 0
    for line in r.stdout.splitlines():
        if line.startswith("p="):
            assert "NotWeaklyAmenable" in line


def test_conjugate_power_table(tmp_path):
    out = tmp_path / "conj.csv"
    r = run_cli(
        "conjugate",
        "--young",
        '{"family":"power","p":2}',
        "--points",
        "20",
        "--out",
        str(out),
        "--format",
        "csv",
    )
    assert r.returncode == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 20
    for row in rows:
        cells = row.split(",")
        assert float(cells[3]) <= 1e-6 * max(1.0, float(cells[2]))


def test_conjugate_entropy_and_explicit_grid_with_zero(tmp_path):
    cfg = {"young": {"family": "entropy"}, "y": [0.0, 0.5, 1.0, 2.0]}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "c.csv"
    r = run_cli("conjugate", str(cfg_path), "--out", str(out))
    assert r.returncode == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [float(c[0]) for c in rows] == [0.0, 0.5, 1.0, 2.0]
    assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0 and float(rows[0][3]) == 0.0
    assert float(rows[2][2]) == pytest.approx(math.e - 2.0, rel=1e-9)


def test_conjugate_unknown_family_exit_2():
    r = run_cli("conjugate", "--young", '{"family":"mystery"}')
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_norm_command_stdin():
    cfg = {
        "young": {"family": "power", "p": 2},
        "kind": "luxemburg",
        "f": {"dim": 1, "entries": [[[0], [3.0, 0.0]], [[1], [4.0, 0.0]]]},
    }
    r = run_cli("norm", "-", inp=json.dumps(cfg))
    assert r.returncode == 0
    assert "luxemburg norm" in r.stdout
    value = float(r.stdout.split("=")[-1])
    assert value == pytest.approx(5.0 / math.sqrt(2.0), rel=1e-9)


def test_certify_algebra_runs():
    r = run_cli(
        "certify-algebra",
        "--young",
        '{"family":"power","p":1.5}',
        "--weight",
        '{"family":"polynomial","beta":0.7}',
        "--radius",
        "32",
        "--trials",
        "20",
    )
    assert r.returncode == 0
    assert "trend: plateau" in r.stdout


def test_derivation_scan_trials_zero_exit_2():
    r = run_cli(
        "derivation-scan",
        "--young",
        '{"family":"power","p":1.5}',
        "--weight",
        '{"family":"polynomial","beta":0.6}',
        "--trials",
        "0",
    )
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("classify", "--p", "abc", "--weight", '{"family":"polynomial","beta":0.5}'),
        ("classify", "--p", "1.5", "--weight", '{"family":"polynomial","beta":"x"}'),
        ("conjugate", "--young", '{"family":"power","p":"two"}'),
        ("derivation-scan", "--young", '{"family":"power","p":1.5}',
         "--weight", '{"family":"polynomial","beta":0.6}', "--radii", "0"),
    ],
    ids=["p-not-a-number", "weight-param-not-a-number", "young-param-not-a-number",
         "radius-zero"],
)
def test_bad_values_exit_2_without_traceback(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "config error" in r.stderr
    assert "Traceback" not in r.stderr


def test_config_radius_below_one_exit_2(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "young": {"family": "power", "p": 1.5},
        "weight": {"family": "polynomial", "beta": 0.6},
        "radii": [4, 0],
    }))
    assert main(["derivation-scan", str(cfg)]) == 2


def test_cli_import_leaves_scipy_unloaded():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, orliczlat.cli; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_budget_exceeded_exit_3():
    # radius 4000 keeps the ball indicator in the adversarial pool (8001
    # points) whose self-convolution blows the product budget
    r = run_cli(
        "certify-algebra",
        "--young",
        '{"family":"power","p":2}',
        "--weight",
        '{"family":"polynomial","beta":0.0}',
        "--radius",
        "4000",
        "--trials",
        "1",
    )
    assert r.returncode == 3
    assert "budget" in r.stderr


def test_verify_full_catalog_passes(tmp_path):
    out = tmp_path / "verify.json"
    r = run_cli("verify", "--out", str(out), "--format", "json")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(out.read_text())
    assert payload["metadata"]["command"] == "verify"
    assert all(row["passed"] for row in payload["rows"])


def test_verify_family_filter_and_empty(tmp_path):
    out = tmp_path / "verify.csv"
    r = run_cli("verify", "--families", "entropy", "--out", str(out))
    assert r.returncode == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert rows and all("entropy" in row for row in rows)
    r = run_cli("verify", "--families", "", "--out", str(out))
    assert r.returncode == 0
    assert len(out.read_text().strip().splitlines()) == 1  # header only


def test_battery_catches_downscaled_conjugate():
    # scaling the conjugate UP preserves the product inequality, scaling it
    # DOWN breaks it; the battery must flag exactly the corrupted direction
    pair = pair_from_spec({"family": "entropy"})
    up = ComplementaryPair(
        pair.phi,
        YoungFunction(fn=lambda y: 3.0 * pair.psi(y), label="psi-up"),
        "closed_form",
    )
    down = ComplementaryPair(
        pair.phi,
        YoungFunction(fn=lambda y: pair.psi(y) / 3.0, label="psi-down"),
        "closed_form",
    )
    assert young_inequality_margin(up) <= 1e-9
    assert young_inequality_margin(down) > 1e-9


def test_determinism_classify_and_scan(tmp_path):
    args_sets = [
        (
            "classify",
            "--p",
            "1.5,3",
            "--weight",
            '{"family":"polynomial","beta":0.4}',
            "--dim",
            "1,2",
        ),
        (
            "derivation-scan",
            "--young",
            '{"family":"power","p":1.5}',
            "--weight",
            '{"family":"polynomial","beta":0.6}',
            "--radii",
            "8,16",
            "--trials",
            "15",
            "--seed",
            "777",
        ),
    ]
    for i, args in enumerate(args_sets):
        outs = []
        stdouts = []
        for run_idx in range(2):
            out = tmp_path / f"det_{i}_{run_idx}.json"
            r = run_cli(*args, "--out", str(out), "--format", "json")
            assert r.returncode == 0
            outs.append(out.read_bytes())
            stdouts.append(r.stdout)
        assert outs[0] == outs[1]
        assert stdouts[0] == stdouts[1]


def test_verify_failure_exits_1(monkeypatch, capsys):
    import orliczlat.cli as cli_mod
    from orliczlat.verify import VerifyRow

    monkeypatch.setattr(
        cli_mod,
        "run_battery",
        lambda pairs: [VerifyRow("young_inequality", "fake", False, 1.0, 1e-9)],
    )
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_entrypoint_in_process(capsys):
    code = main(
        [
            "classify",
            "--p",
            "1.5",
            "--weight",
            '{"family":"polynomial","beta":0.4}',
            "--dim",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "WeaklyAmenable" in out
