"""Command-line front end.

Subcommands cover sampling (configuration model, short-cycle-free graphs,
prescribed-law trees, alternating bipartite trees), scalar functionals
(entropies, increments, rate functions, the two-block bound), the three
statistical experiments, and the oracle cross-check grid.

Exit codes: 0 success, 1 usage error, 2 sampling failure, 3 invalid law,
4 an oracle check of `verify` failed.
Outputs are byte-identical for identical (command, flags, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction

from . import entropy as ent
from . import experiments as exp
from .config_model import (
    RejectionExhaustedError,
    colorblind,
    colorblind_of,
    graph_of,
    read_degree_file,
    sample_configuration,
    sample_G_Dh,
    write_colorblind,
    write_colored_graph,
)
from .neighborhood import NeighborhoodLaw, is_admissible
from .ugw import sample_ugw, sample_ugw_bipartite
from .verify import run_verify

SCHEMA = "ugw-ldp/v1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class InvalidLawExit(Exception):
    pass


def _load_law(path) -> NeighborhoodLaw:
    """The admissible law in a law file; InvalidLawExit (exit 3) otherwise."""
    try:
        law = NeighborhoodLaw.load(path)
    except Exception as exc:
        raise InvalidLawExit(f"cannot read law file {path}: {exc}") from exc
    if not is_admissible(law):
        raise InvalidLawExit(f"law in {path} is not admissible")
    return law


def _parse_degree_law(text) -> dict:
    """Literal degree law "k:p,k:p" with rational or float weights.

    Degrees are distinct and nonnegative, weights nonnegative, and the
    total mass 1: exactly, or within 1e-12 when any weight is a float.
    """
    out = {}
    for part in text.split(","):
        k, _, p = part.partition(":")
        k, p = int(k), Fraction(p) if "/" in p or "." not in p else float(p)
        if k < 0 or k in out or p < 0:
            raise ValueError(f"{part!r}: degrees must be distinct and >= 0, weights >= 0")
        out[k] = p
    total = sum(out.values())
    tol = 0 if all(isinstance(p, Fraction) for p in out.values()) else 1e-12
    if abs(total - 1) > tol:
        raise ValueError(f"degree law has total mass {total}, not 1")
    return out


def _degree_law_arg(text):
    try:
        return _parse_degree_law(text)
    except Exception as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(args, payload):
    payload = {"schema": SCHEMA, **payload}
    if args.format == "json":
        text = json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n"
    else:
        rows = payload.get("rows")
        if rows is None:
            rows = [
                {"key": k, "value": v}
                for k, v in sorted(payload.items())
                if k not in ("schema",)
            ]
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_value(x):
    if x == ent.INF:
        return "+inf"
    if x == ent.NEG_INF:
        return "-inf"
    return x


def _add_output(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_seeded(p):
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    _add_output(p)


def build_parser():
    top = _Parser(prog="ugwldp")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-cm", help="sample the colored configuration model")
    p.add_argument("--degrees", required=True)
    p.add_argument("--graph-out", default=None)
    p.add_argument("--colorblind-out", default=None)
    _add_seeded(p)

    p = sub.add_parser("sample-gdh", help="sample with no short cycles")
    p.add_argument("--degrees", required=True)
    p.add_argument("--girth", type=int, required=True, help="required girth g (no cycles < g)")
    p.add_argument("--max-attempts", type=int, default=None)
    p.add_argument("--graph-out", default=None)
    p.add_argument("--colorblind-out", default=None)
    _add_seeded(p)

    p = sub.add_parser("sample-ugw", help="sample the prescribed-law tree")
    p.add_argument("--law", required=True, help="law file (JSON)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tree-out", default=None)
    _add_seeded(p)

    p = sub.add_parser("sample-bipartite", help="sample the alternating two-law tree")
    p.add_argument("--p1", required=True, type=_degree_law_arg)
    p.add_argument("--p2", required=True, type=_degree_law_arg)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--tree-out", default=None)
    _add_seeded(p)

    p = sub.add_parser("jh", help="tree-ensemble entropy of a depth-h law")
    p.add_argument("--law", required=True)
    _add_output(p)

    p = sub.add_parser("sigma-ugw1", help="depth-1 tree-ensemble entropy")
    p.add_argument("--degree-law", required=True, type=_degree_law_arg)
    _add_output(p)

    p = sub.add_parser("delta", help="entropy increment between marginal depths")
    p.add_argument("--law", required=True, help="deeper law file")
    _add_output(p)

    p = sub.add_parser("rate-degrees", help="rate under the fixed-degree ensemble")
    p.add_argument("--law", required=True)
    p.add_argument("--degree-law", required=True, type=_degree_law_arg)
    _add_output(p)

    p = sub.add_parser("rate-edges", help="rate under the fixed-edge ensemble")
    p.add_argument("--law", required=True)
    p.add_argument("--d", required=True, type=float)
    _add_output(p)

    p = sub.add_parser("rate-binomial", help="rate under the binomial ensemble")
    p.add_argument("--law", required=True)
    p.add_argument("--lam", required=True, type=float)
    _add_output(p)

    p = sub.add_parser("rate-degree-er", help="degree rate, binomial ensemble")
    p.add_argument("--degree-law", required=True, type=_degree_law_arg)
    p.add_argument("--lam", required=True, type=float)
    _add_output(p)

    p = sub.add_parser("rate-degree-fixed", help="degree rate, fixed-edge ensemble")
    p.add_argument("--degree-law", required=True, type=_degree_law_arg)
    p.add_argument("--d", required=True, type=float)
    _add_output(p)

    p = sub.add_parser("disc-bound", help="two-block entropy upper bound")
    p.add_argument("--p1", required=True, type=_degree_law_arg)
    p.add_argument("--p2", required=True, type=_degree_law_arg)
    _add_output(p)

    p = sub.add_parser("cycles", help="short-cycle statistics experiment")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--samples", type=int, default=2000)
    _add_seeded(p)

    p = sub.add_parser("converge", help="local-convergence experiment")
    p.add_argument("--degree-law", required=True, type=_degree_law_arg)
    p.add_argument("--n-list", default="200,800,3200")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--depth", type=int, default=2)
    _add_seeded(p)

    p = sub.add_parser("concentrate", help="frequency-concentration experiment")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n-list", default="500,2000")
    p.add_argument("--samples", type=int, default=300)
    _add_seeded(p)

    p = sub.add_parser("verify", help="oracle cross-check grid")
    p.add_argument("--quick", action="store_true")

    return top


def _write_tree(args, tree):
    edges = sorted((min(u, v), max(u, v)) for u, v in tree.edges())
    lines = [f"{len(tree.adj)} {len(edges)} root {tree.root}"]
    lines += [f"{u} {v}" for u, v in edges]
    text = "\n".join(lines) + "\n"
    if args.tree_out:
        with open(args.tree_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return edges


def _cmd_sample(args):
    rng = random.Random(args.seed)
    if args.command == "sample-cm":
        D = read_degree_file(args.degrees)
        sigma = sample_configuration(D, rng)
        if args.graph_out:
            write_colored_graph(args.graph_out, graph_of(sigma))
        if args.colorblind_out:
            write_colorblind(args.colorblind_out, colorblind_of(sigma))
        _emit(args, {"n": D.n, "L": D.L, "seed": args.seed, "attempts": 1})
        return 0
    if args.command == "sample-gdh":
        D = read_degree_file(args.degrees)
        h = args.girth - 1
        G, attempts = sample_G_Dh(D, h, rng, args.max_attempts)
        if args.graph_out:
            write_colored_graph(args.graph_out, G)
        if args.colorblind_out:
            write_colorblind(args.colorblind_out, colorblind(G))
        _emit(
            args,
            {
                "n": D.n,
                "L": D.L,
                "seed": args.seed,
                "attempts": attempts,
                "no_cycle_up_to": h,
            },
        )
        return 0
    if args.command == "sample-ugw":
        law = _load_law(args.law)
        tree = sample_ugw(law, args.depth, rng)
        edges = _write_tree(args, tree)
        _emit(
            args,
            {
                "seed": args.seed,
                "depth": args.depth,
                "n_vertices": len(tree.adj),
                "n_edges": len(edges),
            },
        )
        return 0
    if args.command == "sample-bipartite":
        tree = sample_ugw_bipartite(args.p1, args.p2, args.depth, rng)
        edges = _write_tree(args, tree)
        _emit(
            args,
            {
                "seed": args.seed,
                "depth": args.depth,
                "n_vertices": len(tree.adj),
                "n_edges": len(edges),
            },
        )
        return 0
    raise AssertionError(args.command)


# Commands that print one scalar {"value": ...}.
_SCALARS = {
    "sigma-ugw1": lambda a: ent.sigma_ugw1(a.degree_law),
    "rate-degrees": lambda a: ent.rate_fixed_degrees(_load_law(a.law), a.degree_law),
    "rate-edges": lambda a: ent.rate_fixed_edges(_load_law(a.law), a.d),
    "rate-binomial": lambda a: ent.rate_binomial(_load_law(a.law), a.lam),
    "rate-degree-er": lambda a: ent.rate_degree_er(a.degree_law, a.lam),
    "rate-degree-fixed": lambda a: ent.rate_degree_fixed(a.degree_law, a.d),
    "disc-bound": lambda a: ent.discontinuity_bound(a.p1, a.p2),
}


def _cmd_entropy(args):
    if args.command == "jh":
        terms = ent.ugw_entropy_terms(_load_law(args.law))
        _emit(args, {"value": _fmt_value(terms["value"]), "terms": terms})
    elif args.command == "delta":
        law = _load_law(args.law)
        _emit(args, {"increments": ent.entropy_increments(law), "depth": law.depth})
    else:
        _emit(args, {"value": _fmt_value(_SCALARS[args.command](args))})
    return 0


def _cmd_experiment(args):
    if args.command == "cycles":
        rows = exp.cycles_experiment(args.d, args.n, args.samples, args.seed)
        _emit(args, {"rows": rows})
        return 0
    if args.command == "converge":
        n_list = [int(x) for x in args.n_list.split(",")]
        rows = exp.converge_experiment(
            args.degree_law, n_list, args.samples, args.depth, args.seed
        )
        _emit(args, {"rows": rows})
        return 0
    if args.command == "concentrate":
        n_list = [int(x) for x in args.n_list.split(",")]
        rows = exp.concentrate_experiment(args.d, n_list, args.samples, args.seed)
        _emit(args, {"rows": rows})
        return 0
    raise AssertionError(args.command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command.startswith("sample-"):
            return _cmd_sample(args)
        if args.command in ("jh", "delta", *_SCALARS):
            return _cmd_entropy(args)
        if args.command in ("cycles", "converge", "concentrate"):
            return _cmd_experiment(args)
        if args.command == "verify":
            failures = run_verify(quick=args.quick)
            return 0 if failures == 0 else 4
    except RejectionExhaustedError as exc:
        sys.stderr.write(f"sampling failed: {exc}\n")
        return 2
    except InvalidLawExit as exc:
        sys.stderr.write(f"invalid law: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
