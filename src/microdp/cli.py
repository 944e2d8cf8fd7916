"""Command-line entry points: `release` and `sweep`."""

from __future__ import annotations

import argparse
import sys

from .data import load_dataset, load_schema
from .harness import MechanismConfig, SweepSpec, run_release, run_sweep
from .mechanisms import METHODS, PrivacyBudget


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microdp",
        description="Differentially private tabular releases via microaggregation.",
    )
    sub = parser.add_subparsers(dest="command")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", required=True, help="input CSV")
    shared.add_argument("--schema", required=True, help="schema file")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out", required=True, help="output CSV path")
    shared.add_argument("--no-clamp", action="store_true", help="do not clamp noisy values to the domain")

    rel = sub.add_parser("release", parents=[shared], help="anonymize one dataset")
    rel.add_argument("--method", required=True, choices=METHODS)
    rel.add_argument("--k", type=int, default=1, help="cluster size (ignored by plain-laplace)")
    rel.add_argument("--epsilon", type=float, default=1.0, help="total privacy budget")
    rel.add_argument("--attrs", action="append", default=None,
                     help="comma-separated attribute subset (default: all)")

    swp = sub.add_parser("sweep", parents=[shared], help="run a parameter grid")
    swp.add_argument("--method", required=True,
                     help="comma-separated methods, e.g. ir-dp,plain-laplace")
    swp.add_argument("--k", type=_int_list, required=True, help="comma-separated cluster sizes")
    swp.add_argument("--epsilon", type=_float_list, required=True,
                     help="comma-separated budgets")
    swp.add_argument("--attrs", action="append", default=None,
                     help="comma-separated subset; repeat the flag for several subsets")
    swp.add_argument("--runs", type=int, default=10)

    return parser


def _cmd_release(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    data = load_dataset(args.data, schema)
    if args.attrs:
        names = [n for chunk in args.attrs for n in chunk.split(",") if n]
        data = data.subset(names)
    cfg = MechanismConfig(
        method=args.method,
        k=args.k,
        budget=PrivacyBudget(epsilon_total=args.epsilon, m=data.m),
        seed=args.seed,
        clamp=not args.no_clamp,
    )
    out_path, report = run_release(cfg, data, args.out)
    print(f"wrote {out_path} and {out_path.name}.report.json "
          f"(re={report.re_dataset:.6f}, jsd={report.jsd_dataset:.6f})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    subsets = None
    if args.attrs:
        subsets = tuple(tuple(n for n in chunk.split(",") if n) for chunk in args.attrs)
    spec = SweepSpec(
        data_path=args.data,
        schema_path=args.schema,
        methods=tuple(m for m in args.method.split(",") if m),
        k_values=tuple(args.k),
        epsilon_values=tuple(args.epsilon),
        runs=args.runs,
        master_seed=args.seed,
        attribute_subsets=subsets,
        clamp=not args.no_clamp,
        out_path=args.out,
    )
    results = run_sweep(spec)
    failed = [c for c in results if c.status != "ok"]
    print(f"wrote {spec.out_path} ({len(results)} cells, {len(failed)} failed)")
    return 0 if not failed else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "release":
            return _cmd_release(args)
        return _cmd_sweep(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary turns errors into diagnostics
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
