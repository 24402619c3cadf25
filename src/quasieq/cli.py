"""Command-line interface.

Subcommands: solve a single instance file, run a benchmark sweep,
check paramonotonicity, and generate random instance files.  Exit codes:
0 success, 1 solve failure, 2 an `error:` line: bad input, a generation
out of draws, or a LAPACK routine that did not converge.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import format_benchmark_table, run_benchmark
from .errors import ConvergenceError, GenerationError
from .generator import GeneratorConfig, generate_instances
from .monotonicity import check_paramonotone
from .oracles import AffineFractionalOracle
from .serialize import (
    parse_instance_file,
    paramonotonicity_report_to_dict,
    write_benchmark_csv,
    write_instance_file,
    write_trace_csv,
)
from .solver import VARIANTS, SolverConfig, normal_subgradient_solve

EXIT_OK = 0
EXIT_SOLVE_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _add_solver_options(parser):
    parser.add_argument("--variant", choices=VARIANTS, default=SolverConfig.variant)
    parser.add_argument("--scale", type=float, default=SolverConfig.scale,
                        help="step sizes are SCALE/(k+1)")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    parser.add_argument("--tol-step", type=float, default=SolverConfig.tol_step)
    parser.add_argument("--tol-residual", type=float, default=SolverConfig.tol_residual)
    parser.add_argument("--tol-success", type=float, default=SolverConfig.tol_success)


def _solver_config(args, trace_keep=0) -> SolverConfig:
    return SolverConfig(
        variant=args.variant,
        scale=args.scale,
        max_iter=args.max_iter,
        tol_step=args.tol_step,
        tol_residual=args.tol_residual,
        tol_success=args.tol_success,
        trace_keep=trace_keep,
    )


def _cmd_solve(args) -> int:
    instance = parse_instance_file(args.instance)
    config = _solver_config(args, trace_keep=None if args.trace else 0)
    oracle = AffineFractionalOracle(instance)
    report = normal_subgradient_solve(oracle, instance.box, config)
    print(f"status: {report.status.value}")
    print(f"iterations: {report.iterations}")
    print(f"elapsed_seconds: {report.elapsed_seconds:.6f}")
    print(f"final_residual: {report.final_residual:.6g}")
    print(f"x_final: {json.dumps(report.x_final.tolist())}")
    if args.trace:
        write_trace_csv(report, args.trace)
        print(f"trace written to {args.trace}")
    # judged at the returned point, whatever made the solver stop
    return EXIT_OK if report.final_residual < config.tol_success else EXIT_SOLVE_FAILURE


def _cmd_bench(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    report = run_benchmark(
        sizes=sizes,
        count=args.count,
        seed=args.seed,
        config=_solver_config(args),
    )
    print(format_benchmark_table(report))
    if args.csv:
        write_benchmark_csv(report, args.csv)
        print(f"rows written to {args.csv}")
    return EXIT_OK


def _cmd_check(args) -> int:
    instance = parse_instance_file(args.instance)
    report = check_paramonotone(instance)
    print(json.dumps(paramonotonicity_report_to_dict(report), indent=2))
    return EXIT_OK


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        n=args.n, count=args.count, seed=args.seed,
        box_low=args.box_low, box_high=args.box_high,
        require_paramonotone=args.require_paramonotone,
    )
    instances = generate_instances(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(args.count - 1)))
    for index, inst in enumerate(instances):
        write_instance_file(inst, out / f"instance_{index:0{width}d}.json")
    print(f"wrote {len(instances)} instance files to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasieq",
        description=(
            "Projected subgradient solver for equilibrium problems with "
            "quasiconvex bifunctions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("--instance", required=True)
    _add_solver_options(p_solve)
    p_solve.add_argument("--trace", help="write per-iteration CSV here")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep")
    p_bench.add_argument("--sizes", default="5,10,20",
                         help="comma-separated dimensions")
    p_bench.add_argument("--count", type=int, default=20,
                         help="instances per size")
    p_bench.add_argument("--seed", type=int, default=12345)
    _add_solver_options(p_bench)
    p_bench.add_argument("--csv", help="write rows as CSV here")
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check", help="paramonotonicity certificate")
    p_check.add_argument("--instance", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate random instance files")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--box-low", type=float, default=GeneratorConfig.box_low)
    p_gen.add_argument("--box-high", type=float, default=GeneratorConfig.box_high)
    p_gen.add_argument("--require-paramonotone", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenerationError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
