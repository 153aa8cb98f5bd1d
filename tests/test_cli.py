from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orliczlat.cli import main
from orliczlat.young import ComplementaryPair, YoungFunction, pair_from_spec, young_inequality_margin


def run_cli(*args: str, inp: str | None = None,
            timeout: float = 600) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "orliczlat.cli", *args],
        capture_output=True,
        text=True,
        input=inp,
        timeout=timeout,
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


@pytest.mark.parametrize(
    "young, y, value",
    [
        ('{"family":"power","p":2}', "1e12", 5e23),
        ('{"family":"power","p":1.5}', "1e6", 1e18 / 3.0),
        ('{"family":"power","p":1.5}', "1e10", 1e30 / 3.0),
        ('{"family":"power","p":1.5}', "1e100", 1e300 / 3.0),
    ],
    ids=["power2-at-1e12", "power1p5-at-1e6", "power1p5-at-1e10", "power1p5-at-1e100"],
)
def test_conjugate_with_a_large_maximiser_is_finite(tmp_path, young, y, value):
    # the suprema are attained at x = 1e12, 1e20 and 1e200, so they are
    # finite, not infinite, and match the closed form
    out = tmp_path / "c.csv"
    r = run_cli(
        "conjugate", "--young", young, "--ymin", y, "--ymax", y, "--points", "1",
        "--out", str(out), "--format", "csv",
    )
    assert r.returncode == 0, r.stderr
    cells = out.read_text().strip().splitlines()[1].split(",")
    assert float(cells[1]) == pytest.approx(value, rel=1e-8)
    assert float(cells[1]) == pytest.approx(float(cells[2]), rel=1e-8)


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


def test_norm_weight_overflow_is_numerical_failure_exit_1():
    # e^{|x|} at x = 800 overflows: a numerical outcome, not a config error
    cfg = {
        "young": {"family": "power", "p": 2},
        "weight": {"family": "subexp_alpha", "alpha": 1, "C": 1},
        "f": {"dim": 1, "entries": [[[800], [1.0, 0.0]]]},
    }
    r = run_cli("norm", "-", inp=json.dumps(cfg))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure" in r.stderr and "(800,)" in r.stderr
    assert "Traceback" not in r.stderr


def test_norm_weighted_value_overflow_is_numerical_failure_exit_1():
    # e^{700} ~ 1e304 is finite, but 1e300 times it is not
    cfg = {
        "young": {"family": "power", "p": 2},
        "weight": {"family": "subexp_alpha", "alpha": 1, "C": 1},
        "f": {"dim": 1, "entries": [[[700], [1e300, 0.0]]]},
    }
    r = run_cli("norm", "-", inp=json.dumps(cfg))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure" in r.stderr and "(700,)" in r.stderr
    assert "Traceback" not in r.stderr


def test_norm_orlicz_near_float_max_answers_and_above_it_exits_1():
    # the multiplier search used to double t from 1e308 to inf (exit 1)
    f = {"dim": 1, "entries": [[[0], [1e308, 0.0]]]}
    cfg = {"young": {"family": "exp_taylor", "p": 2}, "kind": "orlicz", "f": f}
    r = run_cli("norm", "-", inp=json.dumps(cfg))
    assert r.returncode == 0, r.stdout + r.stderr
    assert float(r.stdout.split("=")[-1]) == pytest.approx(1.4565e308, rel=1e-4)
    # 2.33e308 is no float
    cfg["young"] = {"family": "exp_power", "p": 2}
    r = run_cli("norm", "-", inp=json.dumps(cfg))
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure" in r.stderr and "overflows the float range" in r.stderr
    assert "Traceback" not in r.stderr


def test_norm_near_float_max_is_finite_and_beyond_it_exits_1():
    # the Luxemburg norm used to read inf here (exit 0), and the Orlicz
    # norm's gate refused the window [inf, inf] (exit 1)
    entries = [[[i], [v, 0.0]] for i, v in enumerate([1.0, 1.0, 1.0, 1.0, 4e307, 4e307])]
    cfg = {"young": {"family": "power", "p": 1.0625}, "f": {"dim": 1, "entries": entries}}
    for kind, want in (("luxemburg", 7.2544e307), ("orlicz", 9.0732e307)):
        r = run_cli("norm", "-", "--kind", kind, inp=json.dumps(cfg))
        assert r.returncode == 0, r.stdout + r.stderr
        assert float(r.stdout.split("=")[-1]) == pytest.approx(want, rel=1e-4), kind
    # a Luxemburg norm of 2.7e308 used to read inf (exit 0)
    cfg["f"]["entries"] = [[[i], [1.7e308, 0.0]] for i in range(3)]
    for kind in ("luxemburg", "orlicz"):
        r = run_cli("norm", "-", "--kind", kind, inp=json.dumps(cfg))
        assert r.returncode == 1, r.stdout + r.stderr
        assert r.stderr.count("numerical failure:") == 1, r.stderr
        assert "overflows the float range" in r.stderr and "Traceback" not in r.stderr


def test_weight_constructor_overflow_names_family_exit_1():
    # e^{C/ln(2)^gamma} at radius 1 exceeds the float range for gamma >~ 18
    r = run_cli("classify", "--p", "3", "--weight",
                '{"family":"subexp_log","gamma":50,"C":1}')
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure" in r.stderr
    assert "subexp_log" in r.stderr and "gamma" in r.stderr
    assert "Traceback" not in r.stderr


def test_classify_subexponential_in_high_dimension():
    # the shell-series heuristic read 'diverges' here, at radius 3000, for a
    # series that converges in every d: the exact rule decides it
    r = run_cli("classify", "--p", "3", "--weight",
                '{"family":"subexp_alpha","alpha":0.5,"C":1}', "--dim", "50")
    assert r.returncode == 0, r.stdout + r.stderr
    rows = [line for line in r.stdout.splitlines() if line.startswith("p=")]
    assert len(rows) == 1 and "NotWeaklyAmenable" in rows[0], r.stdout


@pytest.mark.parametrize("weight, dim", [
    pytest.param('{"family":"subexp_alpha","alpha":0.5,"C":1}', "83", id="83"),
    pytest.param('{"family":"subexp_alpha","alpha":0.5,"C":1}', "1000000000", id="1000000000"),
    pytest.param('{"family":"subexp_alpha","alpha":0.2,"C":0.3}', "82", id="82"),
])
def test_classify_subexponential_past_the_float_range_exit_0(weight, dim):
    # the subexponential rule answers at every d; a numeric shell-series check
    # once exited 1 here, its shell counts (d = 83 and 10**9) or its sum
    # (d = 82, a raw OverflowError) past the float range
    r = run_cli("classify", "--p", "3", "--weight", weight, "--dim", dim, timeout=60)
    assert r.returncode == 0, r.stdout + r.stderr
    rows = [line for line in r.stdout.splitlines() if line.startswith("p=")]
    assert len(rows) == 1 and rows[0].endswith("-> NotWeaklyAmenable"), r.stdout
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("weight, radius", [
    ('{"family":"subexp_alpha","alpha":1,"C":800}', 1),  # e^800
    ('{"family":"polynomial","beta":400}', 5),  # 6^400
])
def test_weight_overflow_inside_checked_radii_exit_1(weight, radius):
    r = run_cli("classify", "--p", "3", "--weight", weight)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure" in r.stderr
    assert json.loads(weight)["family"] in r.stderr
    assert f"radius {radius}" in r.stderr
    assert "Traceback" not in r.stderr


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


def test_certify_algebra_weight_overflow_in_the_tops_exit_1(capsys):
    # omega(48) = e^816 is inf: only the tops f*g of the radius-24 pairs
    # reach it, and the first pair to do so names its point
    code = main(["certify-algebra", "--young", '{"family":"power","p":1.5}',
                 "--weight", '{"family":"subexp_alpha","alpha":1.0,"C":17.0}',
                 "--radius", "24", "--trials", "4"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "weighted value (inf+nanj) at (48,) (weight inf) is not finite" in err
    assert "Traceback" not in err


def test_derivation_scan_overflow_in_d_of_f_is_numerical_failure_exit_1():
    # the damped-form profile f = xi / omega^2 is near 1e300, so
    # h(4) = f(-4) xi(-4) overflows: a numerical outcome, once reported as a
    # config error (exit 2)
    r = run_cli(
        "derivation-scan",
        "--young", '{"family":"power","p":1.5}',
        "--weight", '{"family":"polynomial","beta":0.4}',
        "--radii", "4,8", "--trials", "2", "--xi", "1e300",
    )
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure: derivation value" in r.stderr and "at (4,)" in r.stderr
    assert "config error" not in r.stderr and "Traceback" not in r.stderr


_POWER_15 = '{"family":"power","p":1.5}'
_POLY_04 = '{"family":"polynomial","beta":0.4}'


def test_derivation_scan_overflow_in_the_damped_form_is_numerical_failure_exit_1():
    # xi(-4) = -4e308 overflows in the damped-form profile: a numerical
    # outcome, once reported as a config error about a non-finite value
    r = run_cli("derivation-scan", "--young", _POWER_15, "--weight", _POLY_04,
                "--radii", "4,8", "--trials", "1", "--xi", "1e308")
    assert r.returncode == 1, r.stdout + r.stderr
    assert "numerical failure: damped form value" in r.stderr and "at (-4,)" in r.stderr
    assert "config error" not in r.stderr and "Traceback" not in r.stderr


def test_derivation_scan_past_the_damped_peak_ray_budget_exit_3_at_once():
    # the vertex ray is walked one radius at a time, so a radius past the
    # budget is refused before the walk starts
    r = run_cli("derivation-scan", "--young", _POWER_15, "--weight", _POLY_04,
                "--radii", "4000000000000000000000", "--trials", "1", timeout=60)
    assert r.returncode == 3, r.stdout + r.stderr
    assert r.stderr.startswith("budget exceeded") and "radius 4000000000000000000000" in r.stderr
    assert "budget 2000000" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("xi, weight, named", [
    ("nan", _POLY_04, "homomorphism coefficient (nan+0j)"),
    ("inf", _POLY_04, "homomorphism coefficient (inf+0j)"),
    ("1", '{"family":"subexp_alpha","alpha":0.5,"C":"inf"}', "subexp_alpha needs finite C"),
])
def test_non_finite_form_or_weight_parameter_exit_2_naming_it(xi, weight, named):
    r = run_cli("derivation-scan", "--young", _POWER_15, "--weight", weight,
                "--radii", "4,8", "--trials", "1", "--xi", xi)
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith("config error:") and named in r.stderr, r.stderr
    assert "at (" not in r.stderr and "Traceback" not in r.stderr


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
        ("classify", "--p", "3", "--weight", f'{{"family":"polynomial","beta":{10**400}}}'),
        ("conjugate", "--young", f'{{"family":"power","p":{10**400}}}', "--points", "2"),
        ("classify", "--p", "3", "--weight", '{"family":"subexp_log","gamma":NaN,"C":1}'),
        # a number flag is read like a config value, not by argparse
        ("certify-algebra", "--dim", "abc"),
        ("certify-algebra", "--trials", "abc"),
        ("certify-algebra", "--radius", "1.5"),
        ("derivation-scan", "--dim", "1e3"),
        ("derivation-scan", "--window-radius", "x"),
        ("conjugate", "--ymin", "xyz"),
        ("conjugate", "--ymax", ""),
        ("conjugate", "--points", "2.5"),
        ("classify", "--p", "1.5", "--seed", "x"),
        # a y range of mixed sign is refused before the grid is built
        ("conjugate", "--young", '{"family":"power","p":2}', "--ymin", "-1", "--ymax", "1"),
        ("conjugate", "--young", '{"family":"power","p":2}', "--ymin", "1", "--ymax", "-1"),
        # scan radii are checked by the scan itself, for both commands
        ("certify-algebra", "--young", '{"family":"power","p":1.5}',
         "--weight", '{"family":"polynomial","beta":0.6}', "--radius", "0"),
        ("derivation-scan", "--young", '{"family":"power","p":1.5}',
         "--weight", '{"family":"polynomial","beta":0.6}', "--radii", "0,4"),
    ],
    ids=["p-not-a-number", "weight-param-not-a-number", "young-param-not-a-number",
         "radius-zero", "weight-param-beyond-float", "young-param-beyond-float",
         "weight-param-nan", "dim-flag", "trials-flag", "radius-flag", "scan-dim-flag",
         "window-radius-flag", "ymin-flag", "ymax-flag", "points-flag", "seed-flag",
         "ymin-negative", "ymax-negative", "certify-radius-zero", "radii-zero-first"],
)
def test_bad_values_exit_2_without_traceback(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stdout + r.stderr
    # one line, and no argparse usage block
    assert r.stderr.startswith("config error:") and len(r.stderr.splitlines()) == 1, r.stderr
    assert "usage:" not in r.stderr


def test_config_radius_below_one_exit_2(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "young": {"family": "power", "p": 1.5},
        "weight": {"family": "polynomial", "beta": 0.6},
        "radii": [4, 0],
    }))
    assert main(["derivation-scan", str(cfg)]) == 2


def _main_on_config(tmp_path, capsys, command: str, config: dict, *flags: str):
    """main() on a config file; (exit code, stdout, stderr)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = main([command, str(cfg), *flags])
    return (code, *capsys.readouterr())


_SCAN = {"young": {"family": "power", "p": 1.5}, "weight": {"family": "polynomial", "beta": 0.7}}


@pytest.mark.parametrize("command, config, named", [
    # these were truncated to radius 8 and 2 trials, d = 1 and 3 points
    ("certify-algebra", {**_SCAN, "radius": 8.9, "trials": 2}, "radius: cannot read 8.9"),
    ("certify-algebra", {**_SCAN, "radius": 8, "trials": 2.5}, "trials: cannot read 2.5"),
    ("classify", {"p": [1.5], "weights": _SCAN["weight"], "dim": [True]}, "dim: cannot read True"),
    ("conjugate", {"young": _SCAN["young"], "y": {"points": 3.7}}, "y.points: cannot read 3.7"),
    ("derivation-scan", {**_SCAN, "radii": [4, 8.5], "trials": 1}, "radii: cannot read 8.5"),
])
def test_non_integral_integer_in_a_config_exit_2_like_the_flag(tmp_path, capsys, command, config,
                                                               named):
    code, _, err = _main_on_config(tmp_path, capsys, command, config)
    assert code == 2 and err.startswith("config error:") and named in err, err
    assert len(err.splitlines()) == 1


def test_integral_floats_and_integer_text_read_as_the_integer(tmp_path, capsys):
    code, out, _ = _main_on_config(tmp_path, capsys, "certify-algebra",
                                   {**_SCAN, "radius": 8.0, "trials": "2"})
    assert code == 0
    assert main(["certify-algebra", "--young", json.dumps(_SCAN["young"]),
                 "--weight", json.dumps(_SCAN["weight"]), "--radius", "8", "--trials", "2"]) == 0
    assert capsys.readouterr().out == out and "radius=   8" in out


def test_integral_decimal_flag_reads_as_the_config_does(tmp_path, capsys):
    # "--radius 8.0" once exited 2 while "radius": 8.0 in a config scanned 8
    code, out, _ = _main_on_config(tmp_path, capsys, "certify-algebra",
                                   {**_SCAN, "radius": 8.0, "trials": 2},
                                   "--out", str(tmp_path / "config.csv"))
    assert code == 0 and "radius=   8" in out
    assert main(["certify-algebra", "--young", json.dumps(_SCAN["young"]),
                 "--weight", json.dumps(_SCAN["weight"]), "--radius", "8.0", "--trials", "2",
                 "--out", str(tmp_path / "flag.csv")]) == 0
    assert capsys.readouterr().out == out
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "config.csv").read_bytes()
    # "dim": 1e3 is over budget in a config, and so is "--dim 1e3"
    flags = ["--young", json.dumps(_SCAN["young"]), "--weight", json.dumps(_SCAN["weight"])]
    code, _, err = _main_on_config(tmp_path, capsys, "derivation-scan", {**_SCAN, "dim": 1e3})
    assert code == 3 and err.startswith("budget exceeded: dim 1000"), err
    assert main(["derivation-scan", *flags, "--dim", "1e3"]) == 3
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("flag, text", [
    # "--points 2.5" and "--radius 1.5" are test_bad_values_exit_2_without_traceback's
    ("--points", "8.000001"), ("--radius", "nan"), ("--radius", "inf"), ("--radius", ""),
    ("--radius", "1e999999999"), ("--trials", "0x10"),
])
def test_integer_flag_that_is_no_integral_decimal_exit_2(capsys, flag, text):
    command = "conjugate" if flag == "--points" else "certify-algebra"
    assert main([command, flag, text]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {flag}: cannot read {text!r}"), err
    assert len(err.splitlines()) == 1


_INTEGRAL_TEXT = [
    ("8", 8), ("8.0", 8), ("-8.000", -8), ("1e3", 1000), ("1.5e3", 1500), (" 12 ", 12),
    ("1_000", 1000), ("9007199254740993.0", 2**53 + 1), ("1e308", 10**308),
]


@pytest.mark.parametrize("text, value", _INTEGRAL_TEXT, ids=[t for t, _ in _INTEGRAL_TEXT])
def test_as_int_reads_integral_decimal_text_exactly(text, value):
    from orliczlat.errors import as_int

    assert as_int(text) == value and type(as_int(text)) is int


@pytest.mark.parametrize("f, named", [
    # the 3.0 at (0,) was dropped: the norm read 2.8284271247461894
    ({"dim": 1, "entries": [[[0], [3, 0]], [[0], [4, 0]]]}, "point (0,) is repeated"),
    ({"dim": 1, "entries": [[[0.5], [3, 0]]]}, "lattice coordinate: cannot read 0.5"),
    ({"dim": 1.7, "entries": [[[0], [3, 0]]]}, "sparse-function dim: cannot read 1.7"),
    # a value from outside that is not finite stays a config error
    ({"dim": 1, "entries": [[[0], [1e400, 0]]]}, "non-finite value (inf+0j) at (0,)"),
])
def test_norm_sparse_function_read_as_given_or_exit_2(tmp_path, capsys, f, named):
    code, _, err = _main_on_config(tmp_path, capsys, "norm", {"young": _SCAN["young"], "f": f})
    assert code == 2 and err.startswith("config error:") and named in err, err
    assert "Traceback" not in err


def test_arithmetic_overflow_exits_1_not_2(tmp_path, capsys, monkeypatch):
    # an overflow in FinSuppFn arithmetic is a numerical failure, once a
    # config error about a non-finite value
    import orliczlat.cli as cli_mod

    monkeypatch.setattr(cli_mod, "weighted_norm", lambda pair, omega, f, kind: f.pointwise_mul(f))
    f = {"dim": 1, "entries": [[[3], [1e200, 0]]]}
    code, _, err = _main_on_config(tmp_path, capsys, "norm", {"young": _SCAN["young"], "f": f})
    assert code == 1 and err.startswith("numerical failure: product value (inf+0j) at (3,)"), err


def test_verify_unknown_family_exit_2_naming_it(capsys):
    # a typo in the filter used to run no check and pass: "0 checks, 0 failures"
    from orliczlat.young import catalog_ids

    assert main(["verify", "--families", "power,nosuch"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: unknown families ['nosuch']"), err
    assert str(catalog_ids()) in err


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


@pytest.mark.parametrize("command", ["certify-algebra", "derivation-scan"])
@pytest.mark.parametrize("dim", ["14", "1000000"])
def test_dim_over_ball_budget_exit_3_before_any_work(capsys, command, dim):
    # 3^14 points in the radius-1 ball already exceed MAX_BALL_POINTS; the
    # refusal comes before xi or any scan point is built
    start = time.perf_counter()
    code = main([command, "--young", '{"family":"power","p":1.5}',
                 "--weight", '{"family":"polynomial","beta":0.6}',
                 "--radius" if command == "certify-algebra" else "--radii", "2",
                 "--trials", "1", "--dim", dim])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert code == 3 and out == "", out + err
    assert err.startswith("budget exceeded") and "budget 2000000" in err, err


def test_verify_full_catalog_passes(tmp_path):
    out = tmp_path / "verify.json"
    r = run_cli("verify", "--out", str(out), "--format", "json")
    assert r.returncode == 0, r.stdout + r.stderr
    payload = json.loads(out.read_text())
    assert payload["metadata"]["command"] == "verify"
    assert all(row["passed"] for row in payload["rows"])
    golden = Path(__file__).resolve().parent / "golden" / "verify.json"
    assert out.read_bytes() == golden.read_bytes()


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
        YoungFunction(
            fn=lambda y: 3.0 * pair.psi(y), derivative=lambda y: 3.0 * pair.psi.d(y), label="psi-up"
        ),
        "closed_form",
    )
    down = ComplementaryPair(
        pair.phi,
        YoungFunction(
            fn=lambda y: pair.psi(y) / 3.0, derivative=lambda y: pair.psi.d(y) / 3.0, label="psi-down"
        ),
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


# -- flag table -------------------------------------------------------------------

# Configs small enough to run every command in well under a second.
_BASE = {
    "classify": {"p": [1.5], "weights": [{"family": "polynomial", "beta": 0.4}], "dim": [1]},
    "conjugate": {"young": {"family": "power", "p": 2}, "y": {"points": 4}},
    "norm": {
        "young": {"family": "power", "p": 2},
        "f": {"dim": 1, "entries": [[[0], [3.0, 0.0]], [[2], [0.0, 4.0]]]},
    },
    "certify-algebra": {
        "young": {"family": "power", "p": 1.5},
        "weight": {"family": "polynomial", "beta": 0.7},
        "radius": 4,
        "trials": 2,
    },
    "derivation-scan": {
        "young": {"family": "power", "p": 1.5},
        "weight": {"family": "polynomial", "beta": 0.6},
        "radii": [2, 4],
        "trials": 2,
    },
    "verify": {"families": ["power"]},
}

# (command, flag) -> (flag text, the config value it stands for)
_FLAG_SAMPLES = {
    ("classify", "--p"): ("1.5,3", [1.5, 3.0]),
    ("classify", "--weight"): ('{"family":"polynomial","beta":0.8}',
                               [{"family": "polynomial", "beta": 0.8}]),
    ("classify", "--dim"): ("1,2", [1, 2]),
    ("conjugate", "--young"): ('{"family":"power","p":3}', {"family": "power", "p": 3}),
    ("conjugate", "--ymin"): ("0.01", 0.01),
    ("conjugate", "--ymax"): ("5", 5.0),
    ("conjugate", "--points"): ("6", 6),
    ("norm", "--young"): ('{"family":"power","p":3}', {"family": "power", "p": 3}),
    ("norm", "--weight"): ('{"family":"polynomial","beta":0.5}',
                           {"family": "polynomial", "beta": 0.5}),
    ("norm", "--kind"): ("orlicz", "orlicz"),
    ("certify-algebra", "--young"): ('{"family":"power","p":2}', {"family": "power", "p": 2}),
    ("certify-algebra", "--weight"): ('{"family":"polynomial","beta":0.9}',
                                      {"family": "polynomial", "beta": 0.9}),
    ("certify-algebra", "--dim"): ("2", 2),
    ("certify-algebra", "--radius"): ("3", 3),
    ("certify-algebra", "--trials"): ("3", 3),
    ("derivation-scan", "--young"): ('{"family":"power","p":2}', {"family": "power", "p": 2}),
    ("derivation-scan", "--weight"): ('{"family":"polynomial","beta":0.3}',
                                      {"family": "polynomial", "beta": 0.3}),
    ("derivation-scan", "--dim"): ("1", 1),
    ("derivation-scan", "--radii"): ("3,5", [3, 5]),
    ("derivation-scan", "--trials"): ("3", 3),
    ("derivation-scan", "--window-radius"): ("2", 2),
    ("derivation-scan", "--xi"): ("2.5", [2.5]),
    ("verify", "--families"): ("power,entropy", ["power", "entropy"]),
}


def _with_key(config: dict, key: str, value) -> dict:
    head, _, sub = key.partition(".")
    out = {k: v for k, v in config.items() if k != head}
    if sub:
        value = {**config.get(head, {}), sub: value}
    out[head] = value
    return out


def _without_key(config: dict, key: str) -> dict:
    head, _, sub = key.partition(".")
    if not sub:
        return {k: v for k, v in config.items() if k != head}
    return {**config, head: {k: v for k, v in config[head].items() if k != sub}}


def test_every_table_flag_has_a_sample():
    from orliczlat.cli import _COMMANDS

    table = {(name, fl.flag) for name, cmd in _COMMANDS.items() for fl in cmd.flags}
    assert table == set(_FLAG_SAMPLES)
    assert len(table) == 23
    # flag values are converted by errors.coerce alone, never by argparse
    assert not any("type" in fl.options for cmd in _COMMANDS.values() for fl in cmd.flags)


@pytest.mark.parametrize("command,flag", sorted(_FLAG_SAMPLES), ids=lambda v: v)
def test_flag_and_config_key_give_identical_out_files(tmp_path, capsys, command, flag):
    from orliczlat.cli import _COMMANDS

    (entry,) = [fl for fl in _COMMANDS[command].flags if fl.flag == flag]
    text, value = _FLAG_SAMPLES[command, flag]
    outs = []
    for name, config, extra in (
        ("flag", _without_key(_BASE[command], entry.key), [flag, text]),
        ("config", _with_key(_BASE[command], entry.key, value), []),
    ):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{name}.out.json"
        code = main([command, str(cfg), *extra, "--seed", "3",
                     "--out", str(out), "--format", "json"])
        assert code == 0, capsys.readouterr()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_xi_flag_reads_complex_items_as_the_config_does(tmp_path, capsys):
    # "--xi 1,0.5j" once exited 2 while "xi": [1.0, "0.5j"] in a config ran
    base = {**_BASE["derivation-scan"], "dim": 2}
    outs = []
    for name, config, extra in (("flag", base, ["--xi", "1,0.5j"]),
                                ("config", {**base, "xi": [1.0, "0.5j"]}, [])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / f"{name}.out.json"
        code = main(["derivation-scan", str(cfg), *extra, "--seed", "3",
                     "--out", str(out), "--format", "json"])
        assert code == 0, capsys.readouterr()
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    cfg = tmp_path / "flag.json"
    assert main(["derivation-scan", str(cfg), "--xi", "1,abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --xi: cannot read 'abc'") and len(err.splitlines()) == 1


# -- unreadable configs -----------------------------------------------------------

_UNREADABLE_CONFIGS = {
    "dim-inf": ("certify-algebra", {**_BASE["certify-algebra"], "dim": math.inf}),
    "trials-inf": ("certify-algebra", {**_BASE["certify-algebra"], "trials": math.inf}),
    "radii-inf": ("derivation-scan", {**_BASE["derivation-scan"], "radii": [2, math.inf]}),
    "y-points-inf": ("conjugate", {**_BASE["conjugate"], "y": {"points": math.inf}}),
    "y-nan": ("conjugate", {**_BASE["conjugate"], "y": [math.nan, 1.0]}),
    "y-inf": ("conjugate", {**_BASE["conjugate"], "y": [1.0, math.inf]}),
    "y-max-inf": ("conjugate", {**_BASE["conjugate"], "y": {"max": math.inf, "points": 3}}),
    "not-utf8": ("classify", b'\xff\xfe{"p": [1.5]}'),
    "nested-too-deep": ("classify", b"[" * 100_000),
    "int-too-long": ("classify", b'{"p": [' + b"1" * 5000 + b"]}"),
    "out-dir-missing": ("conjugate", _BASE["conjugate"]),
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE_CONFIGS))
def test_unreadable_config_exit_2_without_traceback(tmp_path, case):
    command, config = _UNREADABLE_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    out = tmp_path / ("missing" if case == "out-dir-missing" else "") / "out.csv"
    r = run_cli(command, str(cfg), "--out", str(out))
    assert r.returncode == 2, r.stdout + r.stderr
    # one line: no traceback, and no numpy warning on the way
    assert r.stderr.startswith("config error") and len(r.stderr.splitlines()) == 1, r.stderr
    assert not out.exists()
    if case == "out-dir-missing":  # refused before the command runs
        assert r.stdout == ""


# -- fuzz -------------------------------------------------------------------------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([0.0, -1.5, 0.5, 2.5, 1e308, math.nan, math.inf, "", "x", "1.5", [], {}]),
    st.lists(st.integers(-2, 3), max_size=3),
)
_YOUNG_SPEC = st.one_of(
    _JUNK,
    st.sampled_from([{"family": "power", "p": 1.5}, {"family": "entropy"}]),
    st.fixed_dictionaries(
        {"family": st.sampled_from(["power", "entropy", "cosh", "mystery", 3])},
        optional={"p": _JUNK},
    ),
)
_WEIGHT_SPEC = st.one_of(
    _JUNK,
    st.sampled_from([{"family": "polynomial", "beta": 0.6},
                     {"family": "subexp_alpha", "alpha": 0.5, "C": 1.0}]),
    st.fixed_dictionaries(
        {"family": st.sampled_from(["polynomial", "subexp_alpha", "subexp_log", "bogus"])},
        optional={k: _JUNK for k in ("beta", "alpha", "C", "gamma")},
    ),
)
_F_OBJ = st.one_of(
    _JUNK,
    st.fixed_dictionaries(
        {
            "dim": _JUNK,
            "entries": st.one_of(
                _JUNK,
                st.lists(st.tuples(st.lists(st.integers(-900, 900), max_size=2),
                                   st.lists(_JUNK, max_size=3)), max_size=3),
            ),
        }
    ),
)
_KEYS = {
    "classify": {"p": _JUNK, "dim": _JUNK,
                 "weights": st.one_of(_WEIGHT_SPEC, st.lists(_WEIGHT_SPEC, max_size=2))},
    "conjugate": {"young": _YOUNG_SPEC, "y": st.one_of(
        _JUNK, st.fixed_dictionaries({}, optional={"min": _JUNK, "max": _JUNK, "points": _JUNK}))},
    "norm": {"young": _YOUNG_SPEC, "f": _F_OBJ, "kind": _JUNK, "weight": _WEIGHT_SPEC},
    "certify-algebra": {"young": _YOUNG_SPEC, "weight": _WEIGHT_SPEC, "dim": _JUNK,
                        "radius": _JUNK, "trials": _JUNK, "max_support": _JUNK},
    "derivation-scan": {"young": _YOUNG_SPEC, "weight": _WEIGHT_SPEC, "dim": _JUNK,
                        "radii": _JUNK, "trials": _JUNK, "window_radius": _JUNK, "xi": _JUNK,
                        "max_support": _JUNK},
    "verify": {"families": st.one_of(_JUNK, st.lists(st.sampled_from(["entropy", "x", ""]),
                                                     max_size=2))},
}
_FLAG_TEXT = st.sampled_from(
    ["", "x", "0", "-1", "2", "1.5,3", "nan", "inf", "{}", "[1]", "1,,x",
     '{"family":"power","p":2}', '{"family":"polynomial","beta":0.6}']
)


@st.composite
def _invocations(draw):
    """A command with a working small config, one or two of whose keys are
    replaced by junk (now and then a junk config), and up to one flag of
    the command with junk text. Keys are never dropped: their defaults
    (radius 64, 200 trials, the whole catalog) cost seconds."""
    from orliczlat.cli import _COMMANDS

    command = draw(st.sampled_from(sorted(_KEYS)))
    if draw(st.integers(0, 7)) == 0:
        config = draw(_JUNK)
    else:
        # the fuzz base for verify names an unknown family, which exits 2
        # before the battery runs, so it stays cheap
        config = dict(_BASE[command]) if command != "verify" else {"families": ["x"]}
        keys = draw(st.lists(st.sampled_from(sorted(_KEYS[command])), min_size=1, max_size=2,
                             unique=True))
        for key in keys:
            config[key] = draw(_KEYS[command][key])
    flags = draw(st.lists(st.sampled_from([fl.flag for fl in _COMMANDS[command].flags]),
                          max_size=1))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(_FLAG_TEXT)]
    return argv, config


@settings(max_examples=150)
@given(_invocations())
# inputs that once escaped as tracebacks
@example((["certify-algebra"], {**_BASE["certify-algebra"], "max_support": 0}))
@example((["derivation-scan"], {**_BASE["derivation-scan"], "max_support": 1e308}))
@example((["classify"], {"p": [1.5], "weights": 5}))
@example((["classify"], {"p": [3.0], "weights": {"family": "subexp_log", "gamma": 1e308, "C": 1}}))
@example((["conjugate"], {"young": {"family": "power", "p": 2}, "y": {"points": -1}}))
@example((["conjugate"], {"young": {"family": "power", "p": 2}, "y": {"min": 0}}))
@example((["norm"], {**_BASE["norm"], "weight": 5}))
@example((["norm"], {**_BASE["norm"], "f": {"dim": 1, "entries": [[[math.inf], [1, 0]]]}}))
@example((["verify"], None))
@example((["certify-algebra"], {**_BASE["certify-algebra"], "trials": math.inf}))
@example((["classify"], {"p": [1.5], "weights": {"family": "polynomial", "beta": 10**400}}))
def test_fuzz_malformed_configs_and_flags_exit_cleanly(tmp_path_factory, invocation):
    argv, config = invocation
    cfg = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([argv[0], str(cfg), *argv[1:]])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, config, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # main's last-resort overflow handler: an overflow that reaches it was
    # not classified where it arose
    assert "numerical failure: overflow (" not in err.getvalue(), (argv, config)
