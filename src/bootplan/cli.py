"""Command-line front end.

Exit codes, for every command:
  0  success, and a feasible verdict
  1  an infeasible verdict
  2  usage or input errors, and solver faults (NumericalFailure,
     NoFeasibleCandidate): every BootplanError or ValueError that is not a
     ResourceLimit
  3  a resource cap was hit (ResourceLimit: TooLarge, IterationLimitExceeded)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import TextIO

from . import formats, generate
from .circuit import Circuit, eval_levels, require_level
from .dvd import reduce_to_circuit
from .errors import BootplanError, ResourceLimit
from .pipeline import METHODS, Plan, plan

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise BootplanError(f"cannot read {path}: {exc.strerror}") from exc


def _open_out(path: str) -> TextIO:
    try:
        return open(path, "w")
    except OSError as exc:
        raise BootplanError(f"cannot write {path}: {exc.strerror}") from exc


def _same_file(a: str, b: str) -> bool:
    """Two spellings of one path, or two existing links to one file."""
    if Path(a).resolve() == Path(b).resolve():
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path is missing, so no one file has both names
        return False


def _require_distinct(source: str, first: str | None, second: str | None) -> None:
    """An output on the input's file or on the other output's would overwrite
    it, so refuse both up front."""
    for out in (first, second):
        if out and _same_file(out, source):
            raise BootplanError(f"output {out} is the input file {source}")
    if first and second and _same_file(first, second):
        raise BootplanError(f"outputs {first} and {second} are the same file")


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """_open_out for a file written whole or not at all: deleted if the body raises."""
    with _open_out(path) as f:
        try:
            yield f
        except BaseException:
            f.close()
            if Path(path).is_file():  # never unlink a device such as /dev/null
                Path(path).unlink()
            raise


def cmd_check(args: argparse.Namespace) -> int:
    require_level(args.level)
    circuit = formats.parse_circuit(_read(args.circuit), source=args.circuit)
    marks = formats.parse_marks(_read(args.marks), circuit, source=args.marks)
    levels = eval_levels(circuit, marks)
    histogram = Counter(levels)
    for lvl in sorted(histogram):
        print(f"level {lvl}: {histogram[lvl]} vertices")
    worst = max(levels, default=0)
    if worst <= args.level:
        print(f"feasible: max level {worst} <= {args.level}")
        return EXIT_OK
    violator = min(v for v in range(circuit.n) if levels[v] == worst)
    print(
        f"infeasible: vertex {circuit.name_of(violator)} reaches level {worst} > {args.level}"
    )
    return EXIT_INFEASIBLE


def _solve_report(
    args: argparse.Namespace, circuit: Circuit, result: Plan, seconds: float
) -> list[tuple[str, str]]:
    """The solve report's (key, value) fields, in print order."""
    pairs = [
        ("instance", Path(args.circuit).name),
        ("vertices", str(circuit.n)),
        ("edges", str(circuit.edge_count)),
        ("level", str(args.level)),
        ("method", args.method),
        ("cardinality", str(len(result.marks))),
        ("time_s", f"{seconds:.6f}"),
        ("verified_feasible", "yes" if result.verified else "no"),
    ]
    if result.lp is not None:
        pairs.append(("lp_objective", f"{result.lp.objective:.9f}"))
        pairs.append(("t_used", f"{result.rounding.t_used:.9f}"))
        pairs.append(("lp_constraints", str(result.lp.constraints_generated)))
        pairs.append(("lp_iterations", str(result.lp.iterations)))
    if result.exact is not None:
        pairs.append(("exact_optimum", str(result.exact.optimum)))
        pairs.append(("subsets_explored", str(result.exact.explored)))
    pairs.append(("marks", " ".join(sorted(circuit.name_of(v) for v in result.marks))))
    return pairs


def cmd_solve(args: argparse.Namespace) -> int:
    _require_distinct(args.circuit, args.out, args.trace)
    require_level(args.level)
    circuit = formats.parse_circuit(_read(args.circuit), source=args.circuit)
    with ExitStack() as files:
        # A failed solve leaves no report, but its trace explains the failure.
        out = files.enter_context(_output(args.out)) if args.out else None
        trace = files.enter_context(_open_out(args.trace)) if args.trace else None
        start = time.perf_counter()
        result = plan(circuit, args.level, args.method, trace=trace)
        pairs = _solve_report(args, circuit, result, time.perf_counter() - start)
        print("\n".join(f"{k}: {v}" for k, v in pairs))
        if out is not None:
            out.write("".join(f"{k}\t{v}\n" for k, v in pairs))
    return EXIT_OK if result.verified else EXIT_INFEASIBLE


def cmd_reduce_dvd(args: argparse.Namespace) -> int:
    map_path = args.out and f"{args.out}.map"
    _require_distinct(args.dvd, args.out, map_path)  # a symlink can make outputs meet
    instance = formats.parse_dvd(_read(args.dvd), source=args.dvd)
    rmap = reduce_to_circuit(instance)
    circuit_text = formats.format_circuit(rmap.circuit)
    map_lines = [f"source\t{rmap.circuit.name_of(rmap.source)}"]
    for v in range(instance.n):
        map_lines.append(
            f"clone\t{instance.names[v]}\t{rmap.circuit.name_of(rmap.clone_of[v])}"
        )
    for v, chain in sorted(rmap.gadget_of.items()):
        joined = " ".join(rmap.circuit.name_of(w) for w in chain)
        map_lines.append(f"gadget\t{instance.names[v]}\t{joined}")
    map_text = "\n".join(map_lines) + "\n"
    if args.out:
        with _output(args.out) as out, _output(map_path) as map_file:
            out.write(circuit_text)
            map_file.write(map_text)
    else:
        sys.stdout.write(circuit_text)
        sys.stdout.write(map_text)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    # Checked for every kind, so a bad value never passes because one ignores it.
    generate.require_fraction("red_fraction", args.red_fraction)
    if args.kind == "red-chain":
        circuit = generate.red_chain(args.length)
    elif args.kind == "layered":
        circuit = generate.layered(args.layers, args.width, args.red_fraction, args.seed)
    else:
        circuit = generate.series_parallel(args.size, args.red_fraction, args.seed)
    text = formats.format_circuit(circuit)
    if args.out:
        with _output(args.out) as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootplan",
        description="Place near-minimum bootstrapping operations in gate circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a mark set against a noise budget")
    check.add_argument("circuit")
    check.add_argument("marks")
    check.add_argument("--level", type=int, required=True)

    solve = sub.add_parser("solve", help="compute a mark set")
    solve.add_argument("circuit")
    solve.add_argument("--level", type=int, required=True)
    solve.add_argument("--method", choices=METHODS, default="lp-round")
    solve.add_argument("--out")
    solve.add_argument("--trace")

    reduce_p = sub.add_parser("reduce-dvd", help="reduce a deletion instance to a circuit")
    reduce_p.add_argument("dvd")
    reduce_p.add_argument("--out")

    gen = sub.add_parser("gen", help="generate a circuit file")
    gen.add_argument("--kind", choices=("layered", "series-parallel", "red-chain"), required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.add_argument("--length", type=int, default=8, help="red-chain length")
    gen.add_argument("--layers", type=int, default=10)
    gen.add_argument("--width", type=int, default=10)
    gen.add_argument("--size", type=int, default=40, help="series-parallel target size")
    gen.add_argument("--red-fraction", type=float, default=0.5)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": cmd_check,
        "solve": cmd_solve,
        "reduce-dvd": cmd_reduce_dvd,
        "gen": cmd_gen,
    }
    try:
        code = handlers[args.command](args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (BootplanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
