"""Command-line entry point.

Verbs: analyze (closed-form only), simulate, compare (analytic vs
simulation with pass/fail), optimize and min-relays.  Exit codes:
0 success, 1 validation or parse failure, 2 comparison failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import CogRelayError, SpecParseError
from .experiments import (STRATEGY_NAMES, compare_analytic_sim, load_spec,
                          run_min_relays, run_optimize, run_sweep, write_rows)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Relay-assisted primary/secondary network analysis")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (
            ("analyze", "closed-form rates and delays over the sweep"),
            ("simulate", "slot-level Monte Carlo estimates over the sweep"),
            ("compare", "analytic vs simulated values with pass/fail"),
            ("optimize", "maximize the secondary rate under the QoS spec"),
            ("min-relays", "smallest relay count meeting the QoS spec")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--spec", required=True, help="experiment spec file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the spec seed")
        p.add_argument("--slots", type=int, help="override slots per run")
        p.add_argument("--replications", type=int,
                       help="override replication count")
        p.add_argument("--strategy", choices=sorted(STRATEGY_NAMES),
                       help="restrict to one strategy")
    return parser


def _apply_overrides(spec, args):
    sim = spec.sim
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    if args.slots is not None:
        sim = replace(sim, slots=args.slots)
    if args.replications is not None:
        sim = replace(sim, replications=args.replications)
    spec.sim = sim
    if args.strategy is not None:
        spec.strategies = [STRATEGY_NAMES[args.strategy]]
    return spec


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = _apply_overrides(load_spec(args.spec), args)
    except (SpecParseError, CogRelayError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    try:
        if args.verb == "analyze":
            rows = run_sweep(spec, methods=("analytic",))
        elif args.verb == "simulate":
            rows = run_sweep(spec, methods=("simulated",))
        elif args.verb == "optimize":
            rows = run_optimize(spec)
        elif args.verb == "min-relays":
            rows = run_min_relays(spec)
        else:  # compare
            return _compare(spec, args)
    except CogRelayError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out_path = args.out or spec.out_path
    text = write_rows(rows, out_path)
    if out_path is None:
        sys.stdout.write(text)
    return 0


def _compare(spec, args) -> int:
    results = compare_analytic_sim(spec)
    width = max(len(c.quantity) for c in results) if results else 8
    failed = 0
    for c in results:
        mark = "pass" if c.passed else "FAIL"
        failed += not c.passed
        print(f"{mark}  {c.strategy}  {spec.sweep_var}={c.sweep_value:g}  "
              f"{c.quantity:<{width}}  analytic={c.analytic:.6f}  "
              f"simulated={c.simulated:.6f}  ci={c.ci_half_width:.6f}  "
              f"tol={c.tolerance:.6f}")
    print(f"{len(results) - failed}/{len(results)} comparisons passed")
    if args.out:
        lines = ["strategy,sweep_value,quantity,analytic,simulated,"
                 "ci_half_width,tolerance,passed"]
        lines += [f"{c.strategy},{c.sweep_value:g},{c.quantity},"
                  f"{c.analytic:.10g},{c.simulated:.10g},"
                  f"{c.ci_half_width:.10g},{c.tolerance:.10g},{c.passed}"
                  for c in results]
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
