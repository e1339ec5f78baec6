"""Batch command-line front end.

Subcommand style: verify | walrasian | pure-nash | poa | dynamics | bayes
| sample. Settings are layered config-file > flags > defaults. Reports are
deterministic given seed: the JSON body excludes wall-clock, so identical
specs reproduce byte-identical bodies.

Exit codes: 0 ok, 1 usage, 2 cap/precondition violation, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import experiments as xp
from .auction import CAP, CapExceeded, PriorityRule, rule_from_json
from .bayes import bayes_deviation_gap, bayes_welfare_bounds, bayesian_game_from_json
from .equilibrium import BidGrid, pure_nash_search, walrasian_search
from .valuations import Valuation

EXIT_OK, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _add_common(p: _Parser, seed: bool = False) -> None:
    """The output flags every subcommand takes, and --seed where it is read."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--config", default=None,
                   help="JSON settings file; overrides flags, which override defaults")


def _add_builtin_game(p: _Parser, market: bool) -> None:
    """Sizes of the builtin games: the grid game's side length for the
    builtin markets, k and d of the closed-form single-minded family."""
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--v", type=float, default=1.0)
    if market:
        p.add_argument("--l", type=int, default=3, dest="side")
    else:
        p.add_argument("--k", type=int, default=2)
        p.add_argument("--d", type=int, default=2)


def build_parser() -> _Parser:
    top = _Parser(prog="sfpa", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="best-response gaps of a closed-form profile")
    p.add_argument("--game", required=True,
                   choices=("andor", "triangle", "single_minded"))
    _add_builtin_game(p, market=False)
    p.add_argument("--grid-step", type=float, default=1e-3)
    p.add_argument("--trials", type=int, default=0)
    _add_common(p, seed=True)

    p = sub.add_parser("walrasian", help="search for a Walrasian equilibrium")
    p.add_argument("--game", required=True, help="builtin name or game JSON file")
    _add_builtin_game(p, market=True)
    p.add_argument("--cap", type=int, default=CAP)
    _add_common(p)

    p = sub.add_parser("pure-nash", help="grid search for epsilon-equilibria")
    p.add_argument("--game", required=True)
    _add_builtin_game(p, market=True)
    p.add_argument("--grid-step", type=float, default=0.1)
    p.add_argument("--max", type=float, default=2.0, dest="upper")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--family", default="full",
                   choices=("full", "uniform_on_bundle", "single_item"))
    p.add_argument("--limit", type=int, default=50, help="max equilibria reported")
    p.add_argument("--tie-rule", default="index",
                   help="'index' (the game file's rule) or a JSON file with a tie rule object")
    _add_common(p)

    p = sub.add_parser("poa", help="closed-form equilibrium welfare vs optimum")
    p.add_argument("--game", default="andor", choices=("andor",))
    p.add_argument("--m", type=int, default=16)
    p.add_argument("--v", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--sweep", default=None,
                   help="comma-separated item counts; overrides --m/--v with "
                        "the v = 1/sqrt(m) welfare sweep")
    _add_common(p, seed=True)

    p = sub.add_parser("dynamics", help="multiplicative-weights learning run")
    p.add_argument("--mode", default="additive",
                   choices=("additive", "andor", "single-item"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--v", type=float, default=1.0)
    p.add_argument("--values", default="1,2",
                   help="single-item mode: comma-separated player values")
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--grid-step", type=float, default=0.05)
    _add_common(p, seed=True)

    p = sub.add_parser("bayes", help="finite-type Bayesian verification")
    p.add_argument("--file", default=None,
                   help="JSON {types, prior, actions, strategies}; default builtin demo")
    p.add_argument("--grid-step", type=float, default=0.05)
    _add_common(p)

    p = sub.add_parser("sample", help="draw bids from a closed-form strategy")
    p.add_argument("--strategy", required=True,
                   choices=("andor", "triangle", "single_minded"))
    _add_builtin_game(p, market=False)
    p.add_argument("--count", type=int, default=1000)
    _add_common(p, seed=True)
    top.commands = sub.choices
    return top


def _load_game(args) -> tuple[list[Valuation], PriorityRule]:
    """Valuations and the game's own tie rule (index for a builtin)."""
    if args.game.endswith(".json"):
        with open(args.game) as fh:
            return xp.game_from_json(json.load(fh))
    return xp.build_game(args.game, m=args.m, v=args.v, side=args.side), PriorityRule()


def _apply_config(args, parser: _Parser) -> None:
    """Settings from --config override the flags. Each key names one of the subcommand's
    flags (by dest or option name); null restores its default."""
    flags = {name.replace("-", "_"): a for a in parser._actions if a.dest not in ("help", "config")
             for name in (a.dest, *(o.lstrip("-") for o in a.option_strings))}
    with open(args.config) as fh:
        settings = json.load(fh)
    if not isinstance(settings, dict):
        raise ValueError("config: need a JSON object of flag settings")
    for key, value in settings.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r}: {args.command} has no such flag")
        if value is not None:
            try:  # argparse's own conversion and choices check for the flag
                value = parser._get_values(action, [value if isinstance(value, str)
                                                    else json.dumps(value)])
            except argparse.ArgumentError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        setattr(args, action.dest, action.default if value is None else value)


def _number_list(field: str, text: str, kind: type) -> tuple:
    """A comma-separated flag value as numbers; a ValueError names the flag."""
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{field}: need comma-separated {kind.__name__}s, got {text!r}") from None


def _spec_echo(args) -> dict:
    skip = {"out", "format", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _run_command(args) -> dict:
    cmd = args.command
    if cmd == "verify":
        return xp.verify_report(args.game, args.m, args.v, args.k, args.d,
                                args.grid_step, args.trials, args.seed)
    if cmd == "walrasian":
        vals, _ = _load_game(args)
        we = walrasian_search(vals, cap=args.cap)
        out = {"exists": we is not None}
        if we is not None:
            out.update(we.to_json(len(vals)))
        return out
    if cmd == "pure-nash":
        vals, rule = _load_game(args)
        if args.tie_rule != "index":
            with open(args.tie_rule) as fh:
                rule = rule_from_json(json.load(fh))
        grid = BidGrid(args.grid_step, args.upper, args.family)
        if args.limit < 0:
            raise ValueError(f"limit must be >= 0, got {args.limit}")
        eqs = pure_nash_search(vals, grid, rule, args.epsilon)
        return {"count": len(eqs),
                "equilibria": [{"bids": [list(r) for r in e.bids], "gap": e.gap}
                               for e in eqs[:args.limit]]}
    if cmd == "poa":
        if args.sweep is not None:
            ms = _number_list("sweep", args.sweep, int)
            return xp.andor_welfare_sweep(ms, args.trials, args.seed)
        return xp.poa_report(args.m, args.v, args.trials, args.seed)
    if cmd == "dynamics":
        if args.mode == "additive":
            return xp.additive_dynamics_report(args.n, args.m, args.rounds,
                                               args.seed, args.grid_step)
        if args.mode == "andor":
            return xp.andor_dynamics_report(args.m, args.v, args.rounds, args.seed)
        values = _number_list("values", args.values, float)
        return xp.single_item_dynamics_report(values, args.rounds, args.seed,
                                              args.grid_step)
    if cmd == "bayes":
        if args.file is None:
            return xp.bayes_report(args.grid_step)
        with open(args.file) as fh:
            bg, strategies = bayesian_game_from_json(json.load(fh))
        gaps = bayes_deviation_gap(bg, strategies)
        rep = bayes_welfare_bounds(bg, strategies)
        return {"gaps": [[float(g) for g in gs] for gs in gaps],
                "welfare": asdict(rep)}
    if cmd == "sample":
        return xp.strategy_samples(args.strategy, args.m, args.v, args.k, args.d,
                                   args.count, args.seed)
    raise UsageError(f"unknown command {cmd!r}")


def _emit(args, body: dict, wall_clock: float) -> str:
    if args.format == "csv":
        return xp.emit_plot_data(body["result"])
    payload = dict(body)
    payload["wall_clock_s"] = wall_clock
    return xp.dumps_canonical(payload) + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(args, parser.commands[args.command])
        started = time.perf_counter()
        result = _run_command(args)
        body = xp.report_body(args.command, _spec_echo(args), result,
                              seed=getattr(args, "seed", None))
        text = _emit(args, body, time.perf_counter() - started)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except UsageError as exc:
        _fail("usage", exc)
        return EXIT_USAGE
    except (CapExceeded, ValueError, FileNotFoundError) as exc:
        _fail("precondition", exc)
        return EXIT_CAP
    except Exception as exc:  # noqa: BLE001 - surfaced as a machine-readable object
        _fail("internal", exc)
        return EXIT_INTERNAL


def _fail(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}},
        sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
