"""Command-line driver.

Commands: classify, conjugate, norm, certify-algebra, derivation-scan,
verify. Each takes an optional JSON config (path or ``-`` for stdin) whose
top-level keys can be overridden by flags. Exit codes: 0 success, 1
invariant failure, 2 config error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import __version__
from .algebra import AlgebraContext, submult_estimate
from .amenability import Derivation, classify, derivation_norm_scan
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    OrliczError,
    ResourceLimitError,
    as_int,
    coerce,
)
from .finsupp import FinSuppFn
from .norms import weighted_norm
from .reports import ReportTable, make_metadata
from .verify import VerifyRow, run_battery
from .weights import MAX_BALL_POINTS, Homomorphism, ball_size, polynomial_weight, weight_from_spec
from .young import catalog, catalog_ids, conjugate, pair_from_spec

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path!r}: {exc}") from exc
    return _parse_json_flag(text, f"config {path!r}")


def _parse_json_flag(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep nesting
        raise InvalidInputError(f"bad JSON for {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {obj!r}")
    return obj


def _as_list(value, convert, what: str) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [coerce(convert, v, what) for v in value]
    return [coerce(convert, value, what)]


def _finite(value) -> float:
    """float(value), refusing inf and nan: no conjugate table row is built there."""
    if not np.isfinite(y := float(value)):
        raise ValueError("not finite")
    return y


def _read_dim(config: dict) -> int:
    """The lattice dimension; one whose radius-1 ball is over budget is refused
    before any point is built (3^d exceeds the budget once d reaches its bit length)."""
    dim = coerce(as_int, config.get("dim", 1), "dim")
    if dim >= MAX_BALL_POINTS.bit_length() or ball_size(1, dim) > MAX_BALL_POINTS:
        raise ResourceLimitError(
            f"dim {dim}: the radius-1 ball has 3^{dim} points, budget {MAX_BALL_POINTS}"
        )
    return dim


def _check_out(out: str) -> None:
    """Refuse an --out whose directory cannot take it, before any work is done."""
    parent = Path(out).parent
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise InvalidInputError(f"cannot write --out {out!r}: no writable directory {str(parent)!r}")


def _emit(table: ReportTable, out: str | None, fmt: str) -> None:
    if out:
        try:
            Path(out).write_text(table.render(fmt), encoding="utf-8", newline="")
        except OSError as exc:
            raise InvalidInputError(f"cannot write --out {out!r}: {exc}") from exc


# -- classify ---------------------------------------------------------------


def _cmd_classify(config: dict, seed: int) -> tuple[ReportTable, int]:
    ps = _as_list(config.get("p"), float, "p")
    weights = config.get("weights")
    if isinstance(weights, Mapping) or weights and not isinstance(weights, list):
        weights = [weights]
    dims = _as_list(config.get("dim", 1), as_int, "dim")
    omegas = [weight_from_spec(w) for w in weights] if ps and weights and dims else []
    rows = []
    blocks = []
    for p in ps:
        for omega in omegas:
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
    )
    for row in rows:
        print(
            f"p={row['p']:g} weight={row['weight']} dim={row['dim']} -> {row['verdict']}"
        )
    if rows:
        print(json.dumps(blocks, indent=2, sort_keys=True))
    return table, EXIT_OK


# -- conjugate ----------------------------------------------------------------


def _cmd_conjugate(config: dict, seed: int) -> tuple[ReportTable, int]:
    pair = pair_from_spec(config.get("young"), validate=False)
    ygrid = config.get("y", {})
    if isinstance(ygrid, Mapping):
        lo = coerce(_finite, ygrid.get("min", 1e-3), "y.min")
        hi = coerce(_finite, ygrid.get("max", 1e2), "y.max")
        points = coerce(as_int, ygrid.get("points", 40), "y.points")
        if not (lo > 0.0 and hi > 0.0):
            raise InvalidInputError(f"y.min and y.max must be positive, got {lo!r} and {hi!r}")
        try:
            ys = [float(v) for v in np.geomspace(lo, hi, points)]
        except ValueError as exc:
            raise InvalidInputError(f"bad y grid {dict(ygrid)!r}: {exc}") from exc
    else:
        ys = _as_list(ygrid, _finite, "y")
    has_closed = pair.conjugation_mode == "closed_form"
    rows = []
    for y in ys:
        numeric = conjugate(pair.phi, y)
        closed = pair.psi(y) if has_closed else ""
        diff = abs(numeric - closed) if has_closed else ""
        rows.append({"y": y, "numeric": numeric, "closed_form": closed, "abs_diff": diff})
    table = ReportTable(columns=["y", "numeric", "closed_form", "abs_diff"], rows=rows)
    print(f"conjugate of {pair.phi.describe()} on {len(ys)} points "
          f"({'closed form available' if has_closed else 'numeric only'})")
    return table, EXIT_OK


# -- norm ---------------------------------------------------------------------


def _cmd_norm(config: dict, seed: int) -> tuple[ReportTable, int]:
    kind = str(config.get("kind", "luxemburg"))
    pair = pair_from_spec(config.get("young"))
    f = FinSuppFn.from_json_obj(config.get("f"))
    weighted = "weight" in config
    omega = weight_from_spec(config["weight"]) if weighted else polynomial_weight(0.0)
    value = weighted_norm(pair, omega, f, kind)
    rows = [
        {
            "young": pair.phi.describe(),
            "weight": omega.describe() if weighted else "1",
            "kind": kind,
            "support": len(f),
            "value": value,
        }
    ]
    table = ReportTable(columns=["young", "weight", "kind", "support", "value"], rows=rows)
    print(f"{kind} norm = {value!r}")
    return table, EXIT_OK


# -- certify-algebra ----------------------------------------------------------


def _scan_context(config: dict, default_trials: int) -> tuple[AlgebraContext, int]:
    """The scan's (pair, weight, dim) context and its positive trial count."""
    trials = coerce(as_int, config.get("trials", default_trials), "trials")
    if trials <= 0:
        raise InvalidInputError("trials must be positive")
    ctx = AlgebraContext(pair_from_spec(config.get("young")),
                         weight_from_spec(config.get("weight")), _read_dim(config))
    return ctx, trials


def _scan_table(report) -> ReportTable:
    """Print the scan per radius and return it as a report table."""
    for row in report.per_radius:
        print(f"radius={row['radius']:4d} max_ratio={row['max_ratio']:.6g} ({row['argmax']})")
    print(f"trend: {report.trend} [certificate: {report.certificate}]")
    rows = [
        {
            "radius": row["radius"],
            "max_ratio": row["max_ratio"],
            "argmax": row["argmax"],
            "trend": report.trend,
        }
        for row in report.per_radius
    ]
    meta = {"trend": report.trend, "certificate": report.certificate}
    return ReportTable(columns=["radius", "max_ratio", "argmax", "trend"], rows=rows, metadata=meta)


def _cmd_certify_algebra(config: dict, seed: int) -> tuple[ReportTable, int]:
    ctx, trials = _scan_context(config, 60)
    report = submult_estimate(ctx, coerce(as_int, config.get("radius", 64), "radius"), trials, seed)
    return _scan_table(report), EXIT_OK


# -- derivation-scan ----------------------------------------------------------


def _cmd_derivation_scan(config: dict, seed: int) -> tuple[ReportTable, int]:
    ctx, trials = _scan_context(config, 200)
    radii = _as_list(config.get("radii", [16, 64, 256]), as_int, "radii")
    coeffs = _as_list(config.get("xi", [1.0] + [0.0] * (ctx.dim - 1)), complex, "xi")
    window = coerce(as_int, config.get("window_radius", 1), "window_radius")
    d = Derivation.with_ball_window(Homomorphism(tuple(coeffs)), ctx.dim, window)
    report = derivation_norm_scan(ctx, d, radii, trials, seed)
    return _scan_table(report), EXIT_OK


# -- verify -------------------------------------------------------------------


def _cmd_verify(config: dict, seed: int) -> tuple[ReportTable, int]:
    pairs = catalog()
    if "families" in config:
        wanted = set(_as_list(config["families"], str, "families"))
        if unknown := sorted(wanted - set(catalog_ids())):
            raise InvalidInputError(f"unknown families {unknown} (known: {catalog_ids()})")
        pairs = [p for p in pairs if p.phi.label in wanted]
    rows_raw = run_battery(pairs)
    table = ReportTable(columns=[f.name for f in fields(VerifyRow)],
                        rows=[asdict(r) for r in rows_raw])
    n_fail = sum(1 for r in rows_raw if not r.passed)
    for r in rows_raw:
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.invariant:24s} {r.pair:45s} margin={r.worst_margin:.3e}")
    print(f"verify: {len(rows_raw)} checks, {n_fail} failures")
    return table, (EXIT_OK if n_fail == 0 else EXIT_INVARIANT)


# -- flags --------------------------------------------------------------------


def _csv(convert):
    """A comma-separated flag value as a list; empty items are dropped."""
    return lambda text, what: _as_list([v for v in text.split(",") if v], convert, what)


def _coefficient(text: str) -> float | str:
    """An ``--xi`` item as a config gives it: a float, else complex text (``0.5j``)."""
    try:
        return float(text)
    except ValueError:
        complex(text)
        return text


def _json_objects(texts: list[str], what: str) -> list[dict]:
    return [_parse_json_flag(t, what) for t in texts]


def _as_given(value, what: str):
    return value


@dataclass(frozen=True)
class _Flag:
    """A command flag and the config key it overrides.

    ``coerce(value, flag)`` turns the parsed value into the config value;
    a dotted key such as ``y.min`` sets one entry of a nested object.
    ``options`` are the argparse keyword arguments; none is a ``type``, so a
    number flag is read by :func:`~orliczlat.errors.coerce` like a config value.
    """

    flag: str
    key: str
    coerce: Callable[[Any, str], Any] = _as_given
    options: Mapping[str, Any] = field(default_factory=dict)

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_YOUNG = _Flag("--young", "young", _parse_json_flag, {"help": "young spec JSON"})
_WEIGHT = _Flag("--weight", "weight", _parse_json_flag, {"help": "weight spec JSON"})
_INT = partial(coerce, as_int)
_FLOAT = partial(coerce, float)
_DIM = _Flag("--dim", "dim", _INT)
_TRIALS = _Flag("--trials", "trials", _INT)

class _Command(NamedTuple):
    run: Callable[[dict, int], tuple[ReportTable, int]]
    help: str
    flags: tuple[_Flag, ...]


_COMMANDS = {
    "classify": _Command(_cmd_classify, "classification grid over (p, weight, dim)", (
        _Flag("--p", "p", _csv(float), {"help": "comma-separated p values"}),
        _Flag("--weight", "weights", _json_objects,
              {"action": "append", "help": "weight spec JSON; repeatable"}),
        _Flag("--dim", "dim", _csv(as_int), {"help": "comma-separated dimensions"}),
    )),
    "conjugate": _Command(_cmd_conjugate, "tabulate the numerical conjugate", (
        _YOUNG,
        _Flag("--ymin", "y.min", _FLOAT),
        _Flag("--ymax", "y.max", _FLOAT),
        _Flag("--points", "y.points", _INT),
    )),
    "norm": _Command(_cmd_norm, "norm of a sparse function", (
        _YOUNG,
        _WEIGHT,
        _Flag("--kind", "kind", options={"choices": ("luxemburg", "orlicz")}),
    )),
    "certify-algebra": _Command(_cmd_certify_algebra, "submultiplicativity scan", (
        _YOUNG, _WEIGHT, _DIM, _Flag("--radius", "radius", _INT), _TRIALS,
    )),
    "derivation-scan": _Command(_cmd_derivation_scan, "derivation boundedness scan", (
        _YOUNG,
        _WEIGHT,
        _DIM,
        _Flag("--radii", "radii", _csv(as_int), {"help": "comma-separated radii"}),
        _TRIALS,
        _Flag("--window-radius", "window_radius", _INT),
        _Flag("--xi", "xi", _csv(_coefficient), {"help": "comma-separated coefficients"}),
    )),
    "verify": _Command(_cmd_verify, "run the catalog invariant battery", (
        _Flag("--families", "families", _csv(str), {"help": "comma-separated family filter"}),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orliczlat",
        description="Orlicz calculus and weak-amenability experiments on Z^d",
    )
    parser.add_argument("--version", action="version", version=f"orliczlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("config", nargs="?", default=None, help="JSON config path or '-'")
        sp.add_argument("--seed", default=0)
        sp.add_argument("--out", default=None, help="write the report table here")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        for fl in command.flags:
            sp.add_argument(fl.flag, dest=fl.dest, default=None, **fl.options)
    return parser


def _apply_flags(args: argparse.Namespace, config: dict) -> dict:
    """Override config keys with the flags that were given."""
    for fl in _COMMANDS[args.command].flags:
        value = getattr(args, fl.dest)
        if value is None:
            continue
        value = fl.coerce(value, fl.flag)
        key, _, sub = fl.key.partition(".")
        if sub:
            nested = config.get(key)
            value = {**(nested if isinstance(nested, Mapping) else {}), sub: value}
        config[key] = value
    return config


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        seed = coerce(as_int, args.seed, "--seed")
        if args.out:
            _check_out(args.out)
        config = _apply_flags(args, _load_config(args.config))
        table, code = _COMMANDS[args.command].run(config, seed)
        table.metadata.update(make_metadata(args.command, config, seed, __version__))
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
    except OverflowError as exc:
        print(f"numerical failure: overflow ({exc})", file=sys.stderr)
        return EXIT_INVARIANT
    except OrliczError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
