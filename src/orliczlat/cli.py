"""Command-line driver.

Commands: classify, conjugate, norm, certify-algebra, derivation-scan,
verify. Each takes an optional JSON config (path or ``-`` for stdin) whose
top-level keys can be overridden by flags. Exit codes: 0 success, 1
invariant failure, 2 config error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .algebra import AlgebraContext, submult_estimate
from .amenability import Derivation, Homomorphism, classify, derivation_norm_scan
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    OrliczError,
    ResourceLimitError,
)
from .finsupp import FinSuppFn
from .norms import weighted_norm
from .reports import ReportTable, make_metadata
from .verify import run_battery
from .weights import weight_from_spec
from .young import catalog, conjugate, pair_from_spec, young_from_spec

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path!r}: {exc}") from exc


def _parse_json_flag(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON for {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _num(coerce, value, what: str):
    """coerce(value), reporting a value that does not convert as a config error."""
    try:
        return coerce(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{what}: cannot read {value!r} as {coerce.__name__}") from exc


def _as_list(value, coerce, what: str) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [_num(coerce, v, what) for v in value]
    return [_num(coerce, value, what)]


def _split(text: str, coerce, what: str) -> list:
    """A comma-separated flag value as a list; empty items are dropped."""
    return _as_list([v for v in text.split(",") if v], coerce, what)


def _emit(table: ReportTable, out: str | None, fmt: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(table.render(fmt))


# -- classify ---------------------------------------------------------------


def _cmd_classify(config: dict, seed: int) -> tuple[ReportTable, int]:
    ps = _as_list(config.get("p"), float, "p")
    weights = config.get("weights", [])
    if isinstance(weights, Mapping):
        weights = [weights]
    dims = _as_list(config.get("dim", 1), int, "dim")
    if not ps or not weights or not dims:
        table = ReportTable(
            columns=["p", "weight", "dim", "verdict", "d_over_q", "half", "beta", "evidence"],
            rows=[],
            metadata=make_metadata("classify", config, seed, __version__),
        )
        return table, EXIT_OK
    rows = []
    blocks = []
    for p in ps:
        for wspec in weights:
            omega = weight_from_spec(wspec)
            for d in dims:
                result = classify(p, omega, d)
                rows.append(
                    {
                        "p": p,
                        "weight": omega.describe(),
                        "dim": d,
                        "verdict": result.verdict,
                        "d_over_q": result.thresholds["d_over_q"],
                        "half": result.thresholds["half"],
                        "beta": result.thresholds.get("beta", ""),
                        "evidence": " | ".join(result.evidence),
                    }
                )
                blocks.append(result.to_json_obj())
    table = ReportTable(
        columns=["p", "weight", "dim", "verdict", "d_over_q", "half", "beta", "evidence"],
        rows=rows,
        metadata=make_metadata("classify", config, seed, __version__),
    )
    for row in rows:
        print(
            f"p={row['p']:g} weight={row['weight']} dim={row['dim']} -> {row['verdict']}"
        )
    print(json.dumps(blocks, indent=2, sort_keys=True))
    return table, EXIT_OK


# -- conjugate ----------------------------------------------------------------


def _cmd_conjugate(config: dict, seed: int) -> tuple[ReportTable, int]:
    young_spec = config.get("young")
    if not isinstance(young_spec, Mapping):
        raise InvalidInputError("conjugate needs a 'young' spec, e.g. {'family':'power','p':2}")
    phi = young_from_spec(young_spec)
    ygrid = config.get("y", {"min": 1e-3, "max": 1e2, "points": 40})
    if isinstance(ygrid, Mapping):
        ys = [
            float(v)
            for v in np.geomspace(
                _num(float, ygrid.get("min", 1e-3), "y.min"),
                _num(float, ygrid.get("max", 1e2), "y.max"),
                _num(int, ygrid.get("points", 40), "y.points"),
            )
        ]
    else:
        ys = _as_list(ygrid, float, "y")
    pair = pair_from_spec(young_spec, validate=False)
    has_closed = pair.conjugation_mode == "closed_form"
    rows = []
    for y in ys:
        numeric = conjugate(phi, y)
        closed = pair.psi(y) if has_closed else ""
        diff = abs(numeric - closed) if has_closed else ""
        rows.append({"y": y, "numeric": numeric, "closed_form": closed, "abs_diff": diff})
    table = ReportTable(
        columns=["y", "numeric", "closed_form", "abs_diff"],
        rows=rows,
        metadata=make_metadata("conjugate", config, seed, __version__),
    )
    print(f"conjugate of {phi.describe()} on {len(ys)} points "
          f"({'closed form available' if has_closed else 'numeric only'})")
    return table, EXIT_OK


# -- norm ---------------------------------------------------------------------


def _cmd_norm(config: dict, seed: int) -> tuple[ReportTable, int]:
    young_spec = config.get("young")
    fobj = config.get("f")
    if not isinstance(young_spec, Mapping) or not isinstance(fobj, Mapping):
        raise InvalidInputError("norm needs 'young' and 'f' objects")
    kind = str(config.get("kind", "luxemburg"))
    pair = pair_from_spec(young_spec)
    f = FinSuppFn.from_json_obj(fobj)
    if "weight" in config:
        omega = weight_from_spec(config["weight"])
        wdesc = omega.describe()
    else:
        omega = lambda p: 1.0  # noqa: E731 - trivial weight
        wdesc = "1"
    value = weighted_norm(pair if kind == "orlicz" else pair.phi, omega, f, kind)
    rows = [
        {
            "young": pair.phi.describe(),
            "weight": wdesc,
            "kind": kind,
            "support": len(f),
            "value": value,
        }
    ]
    table = ReportTable(
        columns=["young", "weight", "kind", "support", "value"],
        rows=rows,
        metadata=make_metadata("norm", config, seed, __version__),
    )
    print(f"{kind} norm = {value!r}")
    return table, EXIT_OK


# -- certify-algebra ----------------------------------------------------------


def _scan_table(command: str, report, config: dict, seed: int) -> ReportTable:
    rows = [
        {
            "radius": row["radius"],
            "max_ratio": row["max_ratio"],
            "argmax": row["argmax"],
            "trend": report.trend,
        }
        for row in report.per_radius
    ]
    meta = make_metadata(command, config, seed, __version__)
    meta["trend"] = report.trend
    meta["certificate"] = report.certificate
    return ReportTable(columns=["radius", "max_ratio", "argmax", "trend"], rows=rows, metadata=meta)


def _cmd_certify_algebra(config: dict, seed: int) -> tuple[ReportTable, int]:
    young_spec = config.get("young")
    weight_spec = config.get("weight")
    if not isinstance(young_spec, Mapping) or not isinstance(weight_spec, Mapping):
        raise InvalidInputError("certify-algebra needs 'young' and 'weight' specs")
    trials = _num(int, config.get("trials", 60), "trials")
    if trials <= 0:
        raise InvalidInputError("trials must be positive")
    ctx = AlgebraContext(
        pair_from_spec(young_spec),
        weight_from_spec(weight_spec),
        _num(int, config.get("dim", 1), "dim"),
    )
    report = submult_estimate(
        ctx,
        _num(int, config.get("radius", 64), "radius"),
        trials,
        seed,
        max_support=_num(int, config.get("max_support", 40), "max_support"),
    )
    for row in report.per_radius:
        print(f"radius={row['radius']:4d} max_ratio={row['max_ratio']:.6g} ({row['argmax']})")
    print(f"trend: {report.trend} [certificate: {report.certificate}]")
    return _scan_table("certify-algebra", report, config, seed), EXIT_OK


# -- derivation-scan ----------------------------------------------------------


def _cmd_derivation_scan(config: dict, seed: int) -> tuple[ReportTable, int]:
    young_spec = config.get("young")
    weight_spec = config.get("weight")
    if not isinstance(young_spec, Mapping) or not isinstance(weight_spec, Mapping):
        raise InvalidInputError("derivation-scan needs 'young' and 'weight' specs")
    trials = _num(int, config.get("trials", 200), "trials")
    if trials <= 0:
        raise InvalidInputError("trials must be positive")
    dim = _num(int, config.get("dim", 1), "dim")
    radii = _as_list(config.get("radii", [16, 64, 256]), int, "radii")
    if not radii or min(radii) < 1:
        raise InvalidInputError(f"radii must be a nonempty list of integers >= 1, got {radii}")
    coeffs = _as_list(config.get("xi", [1.0] + [0.0] * (dim - 1)), complex, "xi")
    if len(coeffs) != dim:
        raise InvalidInputError(f"xi has {len(coeffs)} coefficients for dim {dim}")
    ctx = AlgebraContext(pair_from_spec(young_spec), weight_from_spec(weight_spec), dim)
    window = _num(int, config.get("window_radius", 1), "window_radius")
    d = Derivation.with_ball_window(Homomorphism(tuple(coeffs)), dim, window)
    max_support = _num(int, config.get("max_support", 40), "max_support")
    report = derivation_norm_scan(ctx, d, radii, trials, seed, max_support=max_support)
    for row in report.per_radius:
        print(f"radius={row['radius']:4d} max_ratio={row['max_ratio']:.6g} ({row['argmax']})")
    print(f"trend: {report.trend} [certificate: {report.certificate}]")
    return _scan_table("derivation-scan", report, config, seed), EXIT_OK


# -- verify -------------------------------------------------------------------


def _cmd_verify(config: dict, seed: int) -> tuple[ReportTable, int]:
    pairs = catalog()
    if "families" in config:
        wanted = set(_as_list(config["families"], str, "families"))
        pairs = [p for p in pairs if p.phi.label in wanted]
    rows_raw = run_battery(pairs) if pairs else []
    rows = [
        {
            "invariant": r.invariant,
            "pair": r.pair,
            "passed": r.passed,
            "worst_margin": r.worst_margin,
            "tolerance": r.tolerance,
            "note": r.note,
        }
        for r in rows_raw
    ]
    table = ReportTable(
        columns=["invariant", "pair", "passed", "worst_margin", "tolerance", "note"],
        rows=rows,
        metadata=make_metadata("verify", config, seed, __version__),
    )
    n_fail = sum(1 for r in rows_raw if not r.passed)
    for r in rows_raw:
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.invariant:24s} {r.pair:45s} margin={r.worst_margin:.3e}")
    print(f"verify: {len(rows_raw)} checks, {n_fail} failures")
    return table, (EXIT_OK if n_fail == 0 else EXIT_INVARIANT)


_COMMANDS = {
    "classify": _cmd_classify,
    "conjugate": _cmd_conjugate,
    "norm": _cmd_norm,
    "certify-algebra": _cmd_certify_algebra,
    "derivation-scan": _cmd_derivation_scan,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orliczlat",
        description="Orlicz calculus and weak-amenability experiments on Z^d",
    )
    parser.add_argument("--version", action="version", version=f"orliczlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("config", nargs="?", default=None, help="JSON config path or '-'")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="write the report table here")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("classify", help="classification grid over (p, weight, dim)")
    common(sp)
    sp.add_argument("--p", default=None, help="comma-separated p values")
    sp.add_argument("--weight", action="append", default=None, help="weight spec JSON; repeatable")
    sp.add_argument("--dim", default=None, help="comma-separated dimensions")

    sp = sub.add_parser("conjugate", help="tabulate the numerical conjugate")
    common(sp)
    sp.add_argument("--young", default=None, help="young spec JSON")
    sp.add_argument("--ymin", type=float, default=None)
    sp.add_argument("--ymax", type=float, default=None)
    sp.add_argument("--points", type=int, default=None)

    sp = sub.add_parser("norm", help="norm of a sparse function")
    common(sp)
    sp.add_argument("--young", default=None, help="young spec JSON")
    sp.add_argument("--weight", default=None, help="weight spec JSON")
    sp.add_argument("--kind", choices=("luxemburg", "orlicz"), default=None)

    sp = sub.add_parser("certify-algebra", help="submultiplicativity scan")
    common(sp)
    sp.add_argument("--young", default=None)
    sp.add_argument("--weight", default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--radius", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)

    sp = sub.add_parser("derivation-scan", help="derivation boundedness scan")
    common(sp)
    sp.add_argument("--young", default=None)
    sp.add_argument("--weight", default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--radii", default=None, help="comma-separated radii")
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--window-radius", type=int, default=None, dest="window_radius")
    sp.add_argument("--xi", default=None, help="comma-separated coefficients")

    sp = sub.add_parser("verify", help="run the catalog invariant battery")
    common(sp)
    sp.add_argument("--families", default=None, help="comma-separated family filter")
    return parser


def _merge_flags(args: argparse.Namespace, config: dict) -> dict:
    cmd = args.command
    if cmd == "classify":
        if args.p is not None:
            config["p"] = _split(args.p, float, "--p")
        if args.weight is not None:
            config["weights"] = [_parse_json_flag(w, "--weight") for w in args.weight]
        if args.dim is not None:
            config["dim"] = _split(args.dim, int, "--dim")
    elif cmd == "conjugate":
        if args.young is not None:
            config["young"] = _parse_json_flag(args.young, "--young")
        ygrid = dict(config.get("y", {})) if isinstance(config.get("y", {}), Mapping) else {}
        for key, val in (("min", args.ymin), ("max", args.ymax), ("points", args.points)):
            if val is not None:
                ygrid[key] = val
        if ygrid:
            config["y"] = ygrid
    elif cmd == "norm":
        if args.young is not None:
            config["young"] = _parse_json_flag(args.young, "--young")
        if args.weight is not None:
            config["weight"] = _parse_json_flag(args.weight, "--weight")
        if args.kind is not None:
            config["kind"] = args.kind
    elif cmd == "certify-algebra":
        if args.young is not None:
            config["young"] = _parse_json_flag(args.young, "--young")
        if args.weight is not None:
            config["weight"] = _parse_json_flag(args.weight, "--weight")
        for key in ("dim", "radius", "trials"):
            val = getattr(args, key)
            if val is not None:
                config[key] = val
    elif cmd == "derivation-scan":
        if args.young is not None:
            config["young"] = _parse_json_flag(args.young, "--young")
        if args.weight is not None:
            config["weight"] = _parse_json_flag(args.weight, "--weight")
        if args.dim is not None:
            config["dim"] = args.dim
        if args.radii is not None:
            config["radii"] = _split(args.radii, int, "--radii")
        if args.trials is not None:
            config["trials"] = args.trials
        if args.window_radius is not None:
            config["window_radius"] = args.window_radius
        if args.xi is not None:
            config["xi"] = _split(args.xi, float, "--xi")
    elif cmd == "verify":
        if args.families is not None:
            config["families"] = _split(args.families, str, "--families")
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_flags(args, _load_config(args.config))
        table, code = _COMMANDS[args.command](config, args.seed)
        _emit(table, args.out, args.format)
        return code
    except ResourceLimitError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvalidInputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
