"""Command line front end.

Subcommands:

* ``entropy``   one law, one functional, one result
* ``curve``     entropy of a process marginal along a time grid
* ``study``     convergence tables (``lambda-to-zero``, ``b-to-zero``)
* ``limits``    long-time limit of a process entropy
* ``validate``  Monte Carlo cross-check of the quadrature Shannon value

Exit codes: 0 finite/success, 2 usage or parameter error, 3 undefined
result, 4 infinite result, 5 failed Monte Carlo validation.

Output goes to stdout as CSV (default) or JSON (``--format json``) and
is byte-deterministic for a fixed command line.  Infinities print as
``inf`` in CSV and as a null value with ``"state": "infinite"`` in
JSON; undefined results leave the value empty and carry a reason code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import dist
from .entropy import (
    EntropyKind,
    EntropyResult,
    EntropySpec,
    entropy,
)
from .proc import (
    BesselParams,
    CIRParams,
    TimeGrid,
    b_to_zero_study,
    bessel_limit_entropy,
    cir_limit_entropy,
    entropy_curve,
)
from .entropy import lambda_convergence_study
from .quad import QuadConfig

_KINDS = [k.value for k in EntropyKind]
_CONFIG_KEYS = {"rel_tol", "abs_tol", "max_subdivisions", "split_point"}


def _fmt(value, precision: int) -> str:
    """CSV cell rendering for one value."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.{precision}g}"


def _jnum(value, precision: int):
    """JSON rendering: floats rounded to the emitted precision."""
    if value is None or isinstance(value, (str, int)):
        return value
    v = float(value)
    if math.isinf(v) or math.isnan(v):
        return None
    return float(f"{v:.{precision}g}")


def _emit(data, fields: list[str], args) -> None:
    """Write a record (a dict) or a table (a list of dicts) to stdout.

    CSV prints a header and one line per row either way; JSON prints a
    record as an object and a table as a list, even of one row.
    """
    table = isinstance(data, list)
    rows = data if table else [data]
    if args.format == "json":
        out = [{k: _jnum(r.get(k), args.precision) for k in fields} for r in rows]
        sys.stdout.write(json.dumps(out if table else out[0], indent=2) + "\n")
    else:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(fields)
        for r in rows:
            w.writerow([_fmt(r.get(k), args.precision) for k in fields])


def _result_cells(res: EntropyResult) -> dict:
    return {
        "state": res.state,
        "value": res.value if res.is_finite else (math.inf if res.is_infinite else None),
        "reason": res.reason,
        "error_estimate": res.error_estimate,
    }


def _exit_code(res: EntropyResult) -> int:
    if res.is_finite:
        return 0
    if res.is_infinite:
        return 4
    return 3


def _load_config_file(path: str) -> dict:
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = float(val.strip())
                QuadConfig(**{key: value})  # range checks, reported at this line
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            # QuadConfig refused a non-integral max_subdivisions above
            overrides[key] = int(value) if key == "max_subdivisions" else value
    return overrides


def _quad_config(args) -> QuadConfig:
    # precedence: command line flag > config file > defaults
    kw = {}
    if getattr(args, "config", None):
        kw.update(_load_config_file(args.config))
    if args.rel_tol is not None:
        kw["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        kw["abs_tol"] = args.abs_tol
    return QuadConfig(**kw)


def _entropy_spec(args) -> EntropySpec:
    return EntropySpec(EntropyKind(args.kind), alpha=args.alpha, beta=args.beta)


def _parse_grid(text: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{name} must be a comma separated list of numbers") from exc
    if not values:
        raise ValueError(f"{name} must be nonempty")
    return values


def _require(args, what: str, *flags: str) -> None:
    """Usage error "<what> requires --f1 and --f2" unless every flag is set."""
    if any(getattr(args, f) is None for f in flags):
        raise ValueError(f"{what} requires " + " and ".join("--" + f for f in flags))


def _build_law(args) -> dist.Law:
    if args.dist == "chisq":
        _require(args, "--dist chisq", "k")
        law = dist.CentralChiSq(args.k)
    elif args.dist == "ncchisq":
        _require(args, "--dist ncchisq", "k", "lam")
        law = dist.NoncentralChiSq(args.k, args.lam)
    elif args.dist == "gamma":
        _require(args, "--dist gamma", "shape", "scale")
        law = dist.GammaLaw(args.shape, args.scale)
    else:
        raise ValueError(f"unknown dist {args.dist!r}")
    if args.scale_factor is not None:
        law = dist.ScaledLaw(law, args.scale_factor)
    return law


_ENTROPY_FIELDS = ["dist", "k", "lam", "shape", "scale", "scale_factor",
                   "kind", "alpha", "beta",
                   "state", "value", "error_estimate", "reason"]


def cmd_entropy(args) -> int:
    law = _build_law(args)
    spec = _entropy_spec(args)
    res = entropy(law, spec, _quad_config(args), scaled_direct=args.scaled_direct)
    record = {
        "dist": args.dist, "k": args.k, "lam": args.lam,
        "shape": args.shape, "scale": args.scale,
        "scale_factor": args.scale_factor,
        "kind": args.kind, "alpha": args.alpha, "beta": args.beta,
    }
    record.update(_result_cells(res))
    _emit(record, _ENTROPY_FIELDS, args)
    return _exit_code(res)


def _process_params(args):
    if args.process == "cir":
        for name in ("a", "b", "sigma", "r0"):
            _require(args, "--process cir", name)
        return CIRParams(args.a, args.b, args.sigma, args.r0)
    if args.process == "bessel":
        for name in ("a", "sigma", "y0"):
            _require(args, "--process bessel", name)
        return BesselParams(args.a, args.sigma, args.y0)
    raise ValueError(f"unknown process {args.process!r}")


def cmd_curve(args) -> int:
    params = _process_params(args)
    spec = _entropy_spec(args)
    cfg = _quad_config(args)
    grid = TimeGrid(tuple(_parse_grid(args.times, "--times")))
    rows = []
    for row in entropy_curve(params, grid, spec, cfg):
        cells = _result_cells(row.result)
        rows.append({"t": row.t, "state": cells["state"], "value": cells["value"]})
    if isinstance(params, CIRParams):
        # only the CIR marginals converge to a proper law; a Bessel
        # curve carries no finite limit row
        cells = _result_cells(cir_limit_entropy(params, spec))
        rows.append({"t": "limit", "state": cells["state"], "value": cells["value"]})
    _emit(rows, ["t", "state", "value"], args)
    return 0


def cmd_study(args) -> int:
    spec = _entropy_spec(args)
    cfg = _quad_config(args)
    grid = _parse_grid(args.grid, "--grid")
    rows = []
    if args.which == "lambda-to-zero":
        _require(args, "study lambda-to-zero", "k")
        for row in lambda_convergence_study(args.k, spec, grid, cfg):
            cells = _result_cells(row.result)
            rows.append({"lambda": row.lam, "state": cells["state"],
                         "value": cells["value"], "gap": row.gap_to_central})
        fields = ["lambda", "state", "value", "gap"]
    else:  # b-to-zero
        for name in ("a", "sigma", "r0", "t"):
            _require(args, "study b-to-zero", name)
        for row in b_to_zero_study(args.a, args.sigma, args.r0, args.t,
                                   grid, spec, cfg):
            cells = _result_cells(row.result)
            rows.append({"b": row.b, "state": cells["state"],
                         "value": cells["value"], "gap": row.gap_to_bessel})
        fields = ["b", "state", "value", "gap"]
    _emit(rows, fields, args)
    return 0


_LIMITS_FIELDS = ["process", "a", "b", "sigma", "kind", "alpha", "beta",
                  "state", "value", "reason"]


def cmd_limits(args) -> int:
    spec = _entropy_spec(args)
    if args.process == "cir":
        for name in ("a", "b", "sigma"):
            _require(args, "limits --process cir", name)
        # r0 does not enter the stationary law; accept and ignore
        res = cir_limit_entropy(CIRParams(args.a, args.b, args.sigma,
                                          args.r0 if args.r0 is not None else 1.0),
                                spec)
    elif args.process == "bessel":
        # the dichotomy never involves a, sigma, or y0; still refuse to
        # report a limit for parameters no such process has
        if (args.a is None) != (args.sigma is None):
            raise ValueError("limits --process bessel takes --a and --sigma together")
        if args.a is not None:
            BesselParams(args.a, args.sigma,
                         args.y0 if args.y0 is not None else 1.0)
        res = bessel_limit_entropy(spec)
    else:
        raise ValueError(f"unknown process {args.process!r}")
    record = {"process": args.process, "a": args.a, "b": args.b,
              "sigma": args.sigma, "kind": args.kind,
              "alpha": args.alpha, "beta": args.beta}
    record.update(_result_cells(res))
    _emit(record, _LIMITS_FIELDS, args)
    return _exit_code(res)


_VALIDATE_FIELDS = ["k", "lam", "n", "seed", "quadrature", "mc_estimate",
                    "std_error", "z_score", "verdict"]


def cmd_validate(args) -> int:
    _require(args, "validate", "k", "lam")
    if args.n < 1000:
        raise ValueError(f"validate requires --n >= 1000, got {args.n}")
    law = dist.NoncentralChiSq(args.k, args.lam)
    res = entropy(law, EntropySpec.shannon(), _quad_config(args))
    if not res.is_finite:
        raise ValueError(f"quadrature Shannon entropy is {res.state}; "
                         "nothing to validate")
    draws = dist.sample(law, args.seed, args.n)
    neg_log = -law.log_pdf(draws)
    mc = float(np.mean(neg_log))
    se = float(np.std(neg_log, ddof=1) / math.sqrt(args.n))
    z = (mc - res.value) / se
    ok = abs(z) <= 4.0
    record = {"k": args.k, "lam": args.lam, "n": args.n, "seed": args.seed,
              "quadrature": res.value, "mc_estimate": mc,
              "std_error": se, "z_score": z,
              "verdict": "pass" if ok else "fail"}
    _emit(record, _VALIDATE_FIELDS, args)
    return 0 if ok else 5


def _add_kind_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=_KINDS, default="shannon",
                   help="entropy functional (default: shannon)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)


def _add_process_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--process", choices=["cir", "bessel"], required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--y0", type=float, default=None)


def _add_global_options(p: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand name.
    # The per-subcommand copies default to SUPPRESS so that they only
    # override the top-level values when actually given.
    def dflt(v):
        return argparse.SUPPRESS if suppress else v

    p.add_argument("--format", choices=["csv", "json"], default=dflt("csv"))
    p.add_argument("--precision", type=int, default=dflt(12),
                   help="significant digits in output (6..17)")
    p.add_argument("--rel-tol", type=float, default=dflt(None),
                   help="quadrature relative tolerance")
    p.add_argument("--abs-tol", type=float, default=dflt(None),
                   help="quadrature absolute tolerance")
    p.add_argument("--seed", type=int, default=dflt(0),
                   help="RNG seed for sampling commands")
    p.add_argument("--config", default=dflt(None), metavar="FILE",
                   help="key=value file overriding quadrature defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chientropy",
        description="Entropies of chi-squared family laws and of "
                    "CIR / squared Bessel marginals.")
    _add_global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy of one law", parents=[common])
    p.add_argument("--dist", choices=["chisq", "ncchisq", "gamma"], required=True)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lambda", "--lam", dest="lam", type=float, default=None)
    p.add_argument("--shape", type=float, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--scale-factor", type=float, default=None,
                   help="evaluate the law of C*X instead of X")
    p.add_argument("--scaled-direct", action="store_true",
                   help="quadrature against the law's own density instead of "
                        "the closed form or the scaling identities")
    _add_kind_options(p)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("curve", help="entropy along a time grid", parents=[common])
    _add_process_options(p)
    p.add_argument("--times", required=True,
                   help="comma separated, strictly increasing, positive")
    _add_kind_options(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("study", help="convergence studies", parents=[common])
    p.add_argument("which", choices=["lambda-to-zero", "b-to-zero"])
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--r0", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--grid", required=True,
                   help="comma separated, strictly decreasing")
    _add_kind_options(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("limits", help="long-time limit of a process entropy", parents=[common])
    _add_process_options(p)
    _add_kind_options(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("validate", help="Monte Carlo check of the Shannon value", parents=[common])
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--lambda", "--lam", dest="lam", type=float, default=None)
    p.add_argument("--n", type=int, default=200_000)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (6 <= args.precision <= 17):
        parser.error(f"--precision must be in 6..17, got {args.precision}")
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
