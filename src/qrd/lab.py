"""Command line surface: single evaluations, sweeps, channel curves, verify.

Output conventions (shared with serialize): JSON carries +/- infinity as
the strings "inf" / "-inf"; CSV leaves the value cell empty for infinite
or out-of-domain entries.  With fixed seeds and configs the printed
bytes are identical across runs; wall times never reach stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (
    BadParamsError,
    KindNotWhitelistedError,
    MalformedInputError,
    QrdError,
)
from .serialize import (
    CHANNEL_KINDS,
    SUITES,
    _digest,
    csv_cell,
    load_channel,
    load_config,
    load_state,
    value_to_json,
)

# Each command imports the library modules it runs, so a closed-form
# `eval` never loads the optimizers, the channel calculus or the suites.

EVAL_KINDS = ("daz", "dmax", "umegaki", "dhat", "dzero", "dinf", "measured", "test")
Z_MODES = ("fixed", "alpha", "alpha-half", "alpha-minus-1-over-kappa")

#: optimizer slack allowed before a channel curve counts as breaking the
#: max-relative-entropy domination bound
CHANNEL_DOMINATION_SLACK = 1e-6

EPILOG = """\
value conventions:
  JSON encodes +/- infinity as the strings "inf" / "-inf".
  CSV leaves the value cell empty for infinite or out-of-domain rows.
exit codes:
  0 success, 1 verification failure, 2 malformed input file,
  3 parameter domain violation, 4 divergence kind not whitelisted.
--config FILE holds a JSON object whose entries override the flags.
  Its keys are the command's flag names with '_' for '-' (alpha_grid);
  a key naming only another command's flag is ignored.
"""


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Config wins over flags; each key is checked against its command's own flag.

    A key is a flag's dest (alpha_grid for --alpha-grid).  Its value must
    have the flag's type, where an integer fits a float flag and a boolean
    no flag, and be one of the flag's choices; null leaves the flag alone.
    A repeatable flag (--suite) also takes a nonempty list, each item
    checked so.  A key naming only another command's flag is ignored.
    """
    [commands] = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
        for name, sub in commands.items()
    }
    path, raw = args.config, load_config(args.config)
    known = set().union(*flags.values())
    unknown = set(raw) - known
    if unknown:
        raise MalformedInputError(
            f"{path}: unknown config keys {sorted(unknown)}; know {sorted(known)}"
        )
    for key, value in raw.items():
        action = flags[args.command].get(key)
        if action is None or value is None:
            continue
        want = action.type or str
        many = isinstance(action, argparse._AppendAction) and isinstance(value, list)
        for v in value if many and value else [value]:
            if isinstance(v, bool) or not isinstance(v, (int, float) if want is float else want):
                raise MalformedInputError(
                    f"{path}: config key {key!r} needs a {want.__name__}, got {v!r}"
                )
            if action.choices is not None and v not in action.choices:
                raise MalformedInputError(
                    f"{path}: config key {key!r} must be one of {list(action.choices)}, got {v!r}"
                )
        setattr(args, key, value)


def _parse_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: comma list '1.1,1.5,2' or linspace 'start:stop:count', every value finite."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise BadParamsError(f"grid {text!r} is not start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise BadParamsError(f"grid {text!r} is not start:stop:count: {exc}") from exc
        if count < 1:
            raise BadParamsError("grid needs at least one point")
        if not (math.isfinite(start) and math.isfinite(stop)):  # before numpy warns on them
            raise BadParamsError(f"grid {text!r} has a non-finite end")
        values = tuple(float(x) for x in np.linspace(start, stop, count))
    else:
        try:
            values = tuple(float(x) for x in text.split(",") if x.strip())
        except ValueError as exc:
            raise BadParamsError(f"grid {text!r} is not a comma list of numbers: {exc}") from exc
        if not values:
            raise BadParamsError("empty grid")
    if not all(map(math.isfinite, values)):
        raise BadParamsError(f"grid {text!r} has a non-finite value")
    return values


def _load_pair(args) -> tuple:
    """Input pair from --rho/--sigma files or a --family spec."""
    if args.family is not None:
        if args.rho is not None or args.sigma is not None:
            raise BadParamsError("give either --family or --rho/--sigma, not both")
        from .families import family_pair, parse_family

        rho, sigma = family_pair(parse_family(args.family))
        return rho, sigma, {"family": args.family}
    if args.rho is None or args.sigma is None:
        raise BadParamsError("need --rho and --sigma files, or a --family spec")
    rho = load_state(args.rho)
    sigma = load_state(args.sigma)
    return rho, sigma, {"rho": args.rho, "sigma": args.sigma}


def _need(value, name: str):
    if value is None:
        raise BadParamsError(f"--{name} is required for this kind")
    return value


def _eval_value(kind, rho, sigma, alpha, z, seed, restarts) -> tuple[float, dict]:
    from .divergences import (
        DivergenceParams,
        d_alpha_z,
        d_alpha_zero,
        d_hat_alpha,
        d_max,
        umegaki,
    )

    if kind == "daz":
        params = DivergenceParams(_need(alpha, "alpha"), _need(z, "z"))
        return d_alpha_z(rho, sigma, params).d_value, {}
    if kind == "dmax":
        return d_max(rho, sigma), {}
    if kind == "umegaki":
        return umegaki(rho, sigma), {}
    if kind == "dhat":
        return d_hat_alpha(rho, sigma, _need(alpha, "alpha")), {}
    if kind == "dzero":
        return d_alpha_zero(rho, sigma, _need(alpha, "alpha")), {}
    if kind == "dinf":
        params = DivergenceParams(_need(alpha, "alpha"), math.inf)
        return d_alpha_z(rho, sigma, params).d_value, {}
    from .measured import measured_renyi_lower, test_measured

    seed = _need(seed, "seed")  # stochastic kinds must be reproducible
    search = measured_renyi_lower if kind == "measured" else test_measured
    res = search(rho, sigma, _need(alpha, "alpha"), restarts=restarts, seed=seed)
    return res.value, {"seed": seed, "restarts": res.restarts_used}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    rho, sigma, source = _load_pair(args)
    value, extra = _eval_value(
        args.kind, rho, sigma, args.alpha, args.z, args.seed, args.restarts
    )
    metadata = {
        "kind": args.kind,
        "inputs": source,
        "digest": _digest(rho.entries, sigma.entries),
    }
    if args.alpha is not None:
        metadata["alpha"] = args.alpha
    if args.z is not None and args.kind == "daz":
        metadata["z"] = args.z
    metadata.update(extra)
    record = {"metadata": metadata, "value": value_to_json(value)}
    _emit(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 0


def _sweep_z(mode: str, alpha: float, z_fixed: float | None, kappa: float) -> float:
    if mode == "fixed":
        if z_fixed is None:
            raise BadParamsError("--z is required for z-mode fixed")
        return z_fixed
    if mode == "alpha":
        return alpha
    if mode == "alpha-half":
        return alpha / 2.0
    if kappa == 0.0:
        raise BadParamsError("--kappa must be nonzero for z-mode alpha-minus-1-over-kappa")
    return (alpha - 1.0) / kappa


def cmd_sweep(args) -> int:
    from .divergences import DivergenceParams, d_alpha_z

    rho, sigma, _ = _load_pair(args)
    grid = _parse_grid(args.alpha_grid)
    lines = ["alpha,z,value"]
    for alpha in grid:
        z = _sweep_z(args.z_mode, alpha, args.z, args.kappa)
        if alpha <= 0.0 or z < 0.0 or (alpha == 1.0 and z == 0.0):
            lines.append(f"{alpha!r},{z!r},")  # out of domain, empty cell
            continue
        value = d_alpha_z(rho, sigma, DivergenceParams(alpha, z)).d_value
        lines.append(f"{alpha!r},{z!r},{csv_cell(value)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_channel(args) -> int:
    from .channels import channel_divergence, channel_dmax

    n1 = load_channel(args.n1)
    n2 = load_channel(args.n2)
    dm = channel_dmax(n1, n2)
    output = {
        "channel_dmax": value_to_json(dm),
        "kind": args.kind,
        "records": [],
    }
    violations = []
    if args.kind == "dmax":
        alphas = []
    else:
        alphas = _parse_grid(args.alpha_grid)
        if args.seed is None:
            raise BadParamsError("--seed is required for optimizer-backed kinds")
    for alpha in alphas:
        res = channel_divergence(
            n1,
            n2,
            args.kind,
            alpha=alpha,
            z=args.z,
            restarts=args.restarts,
            seed=args.seed,
        )
        output["records"].append(
            {
                "alpha": alpha,
                "converged": res.converged,
                "value": value_to_json(res.value),
            }
        )
        if math.isfinite(res.value) and res.value > dm + CHANNEL_DOMINATION_SLACK:
            violations.append(alpha)
        if math.isinf(res.value) and math.isfinite(dm):
            violations.append(alpha)
    output["domination_ok"] = not violations
    _emit(json.dumps(output, sort_keys=True) + "\n", args.out)
    if violations:
        print(
            f"domination bound broken at alpha in {violations}: curve exceeds "
            f"the channel max-relative entropy {value_to_json(dm)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    # the flag gives a list, a config file one name or a list
    asked = [args.suite] if isinstance(args.suite, str) else args.suite
    names = SUITES if "all" in asked else tuple(dict.fromkeys(asked))
    if args.seed is None:
        raise BadParamsError("--seed is required: every suite draws random instances")
    failures = []
    total = 0
    summary_lines = []
    for name in names:
        records = run_suite(name, args.trials, args.seed)
        total += len(records)
        bad = [r for r in records if not r.ok]
        failures.extend(bad)
        summary_lines.append(
            f"{name}: {len(records) - len(bad)}/{len(records)} ok"
        )
    for line in summary_lines:
        print(line)
    if failures:
        print(
            json.dumps(
                {
                    "failures": [
                        {"suite": r.suite, "case": r.case, "detail": r.detail}
                        for r in failures
                    ]
                },
                sort_keys=True,
            )
        )
        return 1
    print(f"all {total} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrd",
        description="Renyi divergence laboratory: evaluations, sweeps, "
        "channel curves, and verification suites.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config overriding flags (config wins)")
        p.add_argument("--out", help="write output to this file instead of stdout")

    def add_pair(p):
        p.add_argument("--rho", help="state file (JSON matrix)")
        p.add_argument("--sigma", help="state file (JSON matrix)")
        p.add_argument(
            "--family",
            help="generate the pair instead: 'tag:key=val,...', tags "
            "a2|pure|kappa|congruence|knife",
        )

    p_eval = sub.add_parser("eval", help="one divergence value as JSON")
    p_eval.add_argument("--kind", required=True, choices=EVAL_KINDS)
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--z", type=float)
    p_eval.add_argument("--seed", type=int, help="required for measured/test kinds")
    p_eval.add_argument("--restarts", type=int, default=6)
    add_pair(p_eval)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="alpha sweep as CSV (alpha,z,value)")
    p_sweep.add_argument("--alpha-grid", required=True, dest="alpha_grid",
                         help="comma list '1.1,1.5,2' or linspace 'start:stop:count'")
    p_sweep.add_argument("--z-mode", dest="z_mode", choices=Z_MODES, default="fixed")
    p_sweep.add_argument("--z", type=float, help="z value for z-mode fixed")
    p_sweep.add_argument("--kappa", type=float, default=1.0,
                         help="kappa for z-mode alpha-minus-1-over-kappa")
    add_pair(p_sweep)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_chan = sub.add_parser("channel", help="channel divergence curve as JSON")
    p_chan.add_argument("--n1", required=True, help="channel file (JSON Kraus or Choi)")
    p_chan.add_argument("--n2", required=True, help="channel file (JSON Kraus or Choi)")
    p_chan.add_argument("--kind", required=True, choices=CHANNEL_KINDS)
    p_chan.add_argument("--alpha-grid", dest="alpha_grid", default="1.001,1.2,1.5,2.0")
    p_chan.add_argument("--z", type=float, help="z for kind daz")
    p_chan.add_argument("--restarts", type=int, default=16)
    p_chan.add_argument("--seed", type=int)
    add_common(p_chan)
    p_chan.set_defaults(func=cmd_channel)

    p_ver = sub.add_parser("verify", help="run randomized verification suites")
    p_ver.add_argument("--suite", action="append", required=True,
                       choices=SUITES + ("all",),
                       help="repeatable; 'all' runs every suite")
    p_ver.add_argument("--trials", type=int, default=10)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--config", help="JSON config overriding flags (config wins)")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise BadParamsError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except MalformedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KindNotWhitelistedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except QrdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
