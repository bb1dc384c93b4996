"""Command-line interface.

Subcommands wrap the library one-to-one: invariants, generate, perturb,
feasible, equiv, fixtures, campaign.  All heavy lifting stays in the
library; the CLI parses, dispatches, and formats.

Exit codes: 0 success, 1 verification failure (failed fixture, bound
violation, non-equivalent pair, infeasible prescription), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import RankRelation, Scenario, check_bounds
from .builder import build_pencil, random_equivalence, random_rank_one
from .campaign import CampaignConfig, rational_perturbation, run_campaign
from .completion import Direction, Prescription, Target
from .extractor import (IrrationalSpectrumError, WeyrChar, strictly_equivalent,
                        weyr_characteristic)
from .fixtures import run_fixtures
from .partitions import Star
from .pencils import Pencil, RankOneKind, classify_rank_one, normal_rank, parse_eigenvalue


class InputError(Exception):
    pass


def _emit(data, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=False))
    else:
        _emit_text(data)


def _emit_text(data, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{data}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_pencil(path: str) -> Pencil:
    try:
        return Pencil.from_json(_load_json(path))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed pencil file {path}: {exc}") from exc


def _load_weyr(path: str) -> WeyrChar:
    try:
        return WeyrChar.from_json(_load_json(path))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed characteristic file {path}: {exc}") from exc


def cmd_invariants(args) -> int:
    h = _load_pencil(args.pencil)
    _emit(weyr_characteristic(h).to_json(), args.format)
    return 0


def cmd_generate(args) -> int:
    omega = _load_weyr(args.weyr)
    h = build_pencil(omega)
    if args.seed is not None:
        h = random_equivalence(h, args.seed)
    _emit(h.to_json(), args.format)
    return 0


def cmd_perturb(args) -> int:
    h = _load_pencil(args.pencil)
    before = weyr_characteristic(h)
    if args.perturbation:
        p = _load_pencil(args.perturbation)
        if p.shape() != h.shape():
            raise InputError("perturbation shape differs from the pencil")
        if normal_rank(p) != 1:
            raise InputError(f"perturbation must have normal rank 1, got {normal_rank(p)}")
        after = weyr_characteristic(h.add(p))
    elif args.random:
        if args.kind is None:
            raise InputError("--random needs --kind {row,col}")
        p, after, _ = rational_perturbation(h, lambda attempt: random_rank_one(
            (args.seed or 0) + 4099 * attempt, h.m, h.n, RankOneKind(args.kind)))
    else:
        raise InputError("provide a perturbation file or --random")
    kind = classify_rank_one(p).kind
    relation = RankRelation.of_gap(after.rank - before.rank)
    exact = Scenario(kind, relation)
    wanted = {
        "exact": [exact],
        "kind-only": [Scenario(kind, RankRelation.UNKNOWN)],
        "none": [Scenario(None, RankRelation.UNKNOWN)],
        "all": exact.coarsenings(),
    }[args.scenario]
    reports = [check_bounds(before, after, sc) for sc in wanted]
    payload = {
        "before": before.to_json(),
        "after": after.to_json(),
        "observed": {"kind": kind.value, "rank_relation": relation.value},
        "reports": [r.to_json() for r in reports],
    }
    _emit(payload, args.format)
    return 0 if all(r.ok for r in reports) else 1


def _load_prescription(target: Target, path: str):
    data = _load_json(path)
    try:
        if target is Target.REGULAR_PART:
            return {parse_eigenvalue(e["lambda"]): tuple(e["weyr"])
                    for e in data["regular"]}
        return Star(int(data["zeroth"]), tuple(data["tail"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed prescription file {path}: {exc}") from exc


def cmd_feasible(args) -> int:
    omega = _load_weyr(args.known)
    problem = Prescription(Target(args.target), Direction(args.direction),
                           RankRelation(args.rel))
    prescribed = _load_prescription(problem.target, args.prescribed)
    try:
        conditions = problem.conditions(omega, prescribed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    feasible = all(ok for _, ok in conditions)
    payload = {
        "feasible": feasible,
        "conditions": [{"tag": tag, "holds": ok} for tag, ok in conditions],
    }
    if feasible:
        companion = problem.realize(omega, prescribed)
        payload["companion"] = companion.to_json()
    _emit(payload, args.format)
    return 0 if feasible else 1


def cmd_equiv(args) -> int:
    g = _load_pencil(args.first)
    h = _load_pencil(args.second)
    if g.shape() != h.shape():
        raise InputError(f"shape mismatch: {g.shape()} vs {h.shape()}")
    same = strictly_equivalent(g, h)
    _emit({"equivalent": same}, args.format)
    return 0 if same else 1


def cmd_fixtures(args) -> int:
    results = run_fixtures()
    failed = sum(1 for r in results if not r.passed)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for res in results:
            print(("PASS " if res.passed else "FAIL ") + res.id)
            if not res.passed:
                for name, ok, info in res.checks:
                    if not ok:
                        print(f"  {name}: {info or 'failed'}")
    return 1 if failed else 0


def cmd_campaign(args) -> int:
    kinds = tuple(RankOneKind(k) for k in (args.kind or ["col", "row"]))
    config = CampaignConfig(seed=args.seed or 0, trials=args.trials,
                            size_budget=args.budget, kinds=kinds,
                            concordance_weight=args.concordance_weight,
                            fault_injection=args.fault_inject)
    summary = run_campaign(config)
    _emit(summary, args.format)
    total = (summary["perturbation"]["violations"]
             + summary["concordance"]["mismatches"])
    return 1 if total else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencillab",
        description="Exact laboratory for matrix pencil invariants, rank-one "
                    "perturbation bounds, and row-completion feasibility.")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Weyr characteristic of a pencil file")
    p.add_argument("pencil")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("generate", help="canonical pencil with a prescribed characteristic")
    p.add_argument("weyr")
    p.add_argument("--seed", type=int, help="also apply a random strict equivalence")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("perturb", help="rank-one perturbation bound report")
    p.add_argument("pencil")
    p.add_argument("perturbation", nargs="?")
    p.add_argument("--random", action="store_true")
    p.add_argument("--kind", choices=("row", "col"))
    p.add_argument("--seed", type=int)
    p.add_argument("--scenario", choices=("exact", "kind-only", "none", "all"),
                   default="all")
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("feasible", help="completion feasibility for a prescription")
    p.add_argument("known", help="full characteristic of the known side")
    p.add_argument("prescribed", help="prescribed component (JSON)")
    p.add_argument("--direction", choices=("sub", "completion"), required=True)
    p.add_argument("--target", choices=("regular", "col", "row"), required=True)
    p.add_argument("--rel", choices=("equal", "minus-one", "plus-one"), required=True)
    p.set_defaults(fn=cmd_feasible)

    p = sub.add_parser("equiv", help="strict equivalence of two pencil files")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("fixtures", help="run the built-in reachability suite")
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("campaign", help="randomized verification campaign")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--budget", type=int, default=6)
    p.add_argument("--kind", action="append", choices=("row", "col"))
    p.add_argument("--concordance-weight", type=int, default=3)
    p.add_argument("--fault-inject", action="store_true")
    p.set_defaults(fn=cmd_campaign)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IrrationalSpectrumError as exc:
        print(f"error: IRRATIONAL_SPECTRUM: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
