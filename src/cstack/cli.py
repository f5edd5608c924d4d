"""Command line interface: generate inputs, run algorithms, compare, bench.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 the two stacks
diverged under `compare`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import DESK_CAP, bench, execute_run, metrics_footer, write_csv
from .checker import run_checked
from .generators import GEN_KINDS, GenSpec, generate
from .metrics import SCHEDULES, resolve_p
from .problems import PROBLEMS
from .runner import LineSource


def _input_size(path: str) -> int:
    """The header's `n=` field if it is an int, else the data-line count."""
    # Undecodable bytes are left for the run, which names their line.
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        first = fh.readline()
        if first.startswith("#"):
            for field in first[1:].split():
                if field.startswith("n="):
                    try:
                        return int(field[2:])
                    except ValueError:
                        break
        fh.seek(0)
        count = 0
        for line in fh:
            s = line.strip()
            if s and not s.startswith("#"):
                count += 1
    return count


def _sized(args) -> tuple[int, int]:
    """(n_expect, p) of a compressed stack: --n-expect, else the input's size."""
    n_expect = args.n_expect or max(_input_size(args.input), 2)
    return n_expect, resolve_p(args.p, n_expect)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cstack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # what `run` and `compare` both need: a problem, an input, a stack size
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--problem", choices=sorted(PROBLEMS), required=True)
    shared.add_argument("--p", default="sqrt", help="int or one of " + ", ".join(SCHEDULES))
    shared.add_argument("--n-expect", type=int, default=0)
    shared.add_argument("--k", type=int, default=None)
    shared.add_argument("--input", required=True)

    g = sub.add_parser("generate", help="write a synthetic input file")
    g.add_argument("--kind", choices=GEN_KINDS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--rho", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    r = sub.add_parser("run", parents=[shared], help="run one problem over one input")
    r.add_argument("--stack", choices=("classic", "compressed"), default="classic")
    r.add_argument("--out", default=None, help="report destination (default stdout)")

    sub.add_parser("compare", parents=[shared], help="lockstep classic/compressed state check")

    b = sub.add_parser("bench", help="sweep sizes, write CSV metrics")
    b.add_argument("--problem", choices=sorted(PROBLEMS), default="testrun")
    b.add_argument("--kind", choices=GEN_KINDS, default="pushonly")
    b.add_argument("--stack", choices=("classic", "compressed"), required=True)
    b.add_argument("--p", default="sqrt")
    b.add_argument("--rho", type=float, default=1.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--sizes", required=True, type=_parse_sizes,
                   help="power-of-two exponent range, e.g. 10..14 for 2^10..2^14")
    b.add_argument("--out", required=True)
    b.add_argument("--cache-dir", default="bench-inputs")
    b.add_argument("--force-large", action="store_true",
                   help=f"allow sizes beyond the desk cap of {DESK_CAP}")
    return parser


def _parse_sizes(text: str) -> list[int]:
    """Sizes 2^lo..2^hi for an exponent range "lo..hi" or one exponent."""
    lo, sep, hi = text.partition("..")
    try:
        a, b = int(lo), int(hi if sep else lo)
        if not 0 <= a <= b:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size range {text!r}: want exponents lo..hi with 0 <= lo <= hi"
        ) from None
    return [2 ** e for e in range(a, b + 1)]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error (argparse exits 2)
        return 1 if exc.code else 0

    try:
        if args.command == "generate":
            generate(GenSpec(args.kind, args.n, args.rho, args.seed, args.out))
            print(f"wrote {args.out}")
            return 0

        if args.command == "run":
            # a classic run reads its input once
            n_expect, p = _sized(args) if args.stack == "compressed" else (None, None)
            with LineSource.from_path(args.input) as source:
                result = execute_run(
                    args.problem, source, args.stack,
                    n_expect=n_expect, p=p, k=args.k,
                )
            out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
            try:
                for line in result.report:
                    print(line, file=out)
                for line in metrics_footer(result.metrics):
                    print(line, file=out)
            finally:
                if out is not sys.stdout:
                    out.close()
            return 0

        if args.command == "compare":
            n_expect, p = _sized(args)
            algo = PROBLEMS[args.problem]()
            if args.k is not None:
                algo.k = args.k
            with LineSource.from_path(args.input) as source:
                ok, detail = run_checked(algo, source, p, n_expect=n_expect)
            if ok:
                print(f"ok: classic and compressed agree (p={p})")
                return 0
            print(detail, file=sys.stderr)
            return 3

        if args.command == "bench":
            rows = bench(
                args.problem, args.kind, args.stack, args.p, args.sizes,
                rho=args.rho, seed=args.seed, cache_dir=Path(args.cache_dir),
                force_large=args.force_large,
            )
            write_csv(rows, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
            return 0
    except BrokenPipeError:
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
