"""Command-line front end.

Subcommands: params | encode | reconstruct | repair | verify | bound |
simulate. File commands use GF(256) (one byte per symbol) and split a
file into stripes of block_size bytes; each makes one library call per
file, on the columns of all its stripes (poly picks, per constant map,
whether the arithmetic runs per stripe or per column); sharefile reads
and writes the share sets (read_shares, write_shares). The stripe count
is a file fact, used for the transpose and the messages only. The parser
sets each command's default field: GF(256) for params and simulate, the
smallest prime field that fits n for verify and bound. All randomness
flows from --seed.

verify and bound load subspace and bounds on first use: both are lazy
modules (importlib.util.LazyLoader), in sys.modules and bound here, whose
code compiles and runs only when an attribute is first read. So a file
command never loads them, nor fractions, which params and bound import
where they use it.

Exit codes: 0 success, 1 verification/consistency failure, 2 usage or
parameter errors.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import sys
from functools import lru_cache

from .codec import CodeParams, encode, reconstruct, validate_params
from .errors import CorruptShareError, MbcrError, ParameterError
from .gf import Field, smallest_prime_at_least
from .repair import make_plan, run_repair
from .sharefile import (
    atomic_write,
    file_params,
    from_columns,
    read_shares,
    stripe_count,
    to_columns,
    write_shares,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _lazy(name: str):
    """The module mbcr.<name> as loaded or, if it is not, registered in
    sys.modules and on the package to run its code on first attribute use."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


bounds = _lazy("bounds")
subspace = _lazy("subspace")


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="total number of nodes")
    p.add_argument("-k", type=int, required=True, help="shares needed to reconstruct")
    p.add_argument("-d", type=int, required=True, help="helpers per newcomer")
    p.add_argument("-r", type=int, required=True, help="simultaneous failures repaired")


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("-q", type=int, metavar="PRIME", help="use the prime field GF(q)")
    g.add_argument("--gf256", action="store_true", help="use GF(256)")


def _code(args) -> CodeParams:
    """The validated code of -n -k -d -r over -q, --gf256 (set by default
    for params and simulate) or else the smallest prime field that fits n."""
    if args.q is not None:
        try:
            field = Field.prime(args.q)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
    elif args.gf256:
        field = Field.gf256()
    elif args.n > 65521:  # the largest prime Field accepts
        raise ParameterError(f"n = {args.n} needs a prime field larger than GF(65521)")
    else:
        field = Field.prime(smallest_prime_at_least(args.n))
    return validate_params(args.n, args.k, args.d, args.r, field)


def _parse_failed(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError:
        raise MbcrError(f"cannot parse failed-node list {text!r}")


def _parse_helpers(text: str) -> dict[int, tuple[int, ...]]:
    out: dict[int, tuple[int, ...]] = {}
    try:
        for part in text.split(";"):
            if not part:
                continue
            node, hs = part.split(":")
            if int(node) in out:
                raise MbcrError(f"newcomer {node} is named twice in helper map {text!r}")
            out[int(node)] = tuple(int(h) for h in hs.split("+") if h)
    except ValueError:
        raise MbcrError(f"cannot parse helper map {text!r}")
    return out


def _atomic_write(path: str, data: bytes) -> None:
    # Not an alias: bench/tracer.py counts a file per call of this name, at
    # every binding that `is` it, and write_share_file calls atomic_write.
    atomic_write(path, data)


def cmd_params(args) -> int:
    from fractions import Fraction
    p = _code(args)
    overhead = Fraction(p.n * p.share_size, p.block_size)
    print(f"n={p.n} k={p.k} d={p.d} r={p.r} field={p.field}")
    print(f"share size (alpha)        : {p.share_size}")
    print(f"phase-1 per helper (beta1): {p.helper_symbols}")
    print(f"phase-2 per peer (beta2)  : {p.exchange_symbols}")
    print(f"block size (B)            : {p.block_size}")
    print(f"repair bandwidth (gamma)  : {p.repair_bandwidth}")
    print(f"storage overhead n*alpha/B: {overhead} ({float(overhead):.3f})")
    return EXIT_OK


def cmd_encode(args) -> int:
    p = file_params(args.n, args.k, args.d, args.r)
    with open(args.input, "rb") as fh:
        data = fh.read()
    stripes = stripe_count(len(data), p.block_size)
    shares = encode(to_columns(data, p.block_size), p)
    write_shares(args.out, shares, p, len(data))
    print(
        f"encoded {len(data)} bytes into {p.n} shares "
        f"({stripes} stripes of {p.block_size} symbols, "
        f"{p.share_size} symbols per share per stripe)"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    if os.path.exists(args.out) and any(os.path.samefile(args.out, s) for s in args.shares):
        raise MbcrError(f"--out {args.out} is one of the input share files")
    p, stripes, length, shares = read_shares(args.shares)
    data = from_columns(reconstruct(shares, p), stripes)[:length]
    _atomic_write(args.out, data)
    print(f"reconstructed {len(data)} bytes from {len(shares)} shares into {args.out}")
    return EXIT_OK


def cmd_repair(args) -> int:
    p, stripes, length, shares = read_shares(args.shares)
    failed = _parse_failed(args.failed)
    supplied = [s.node_id for s in shares]
    if set(failed) & set(supplied):
        raise MbcrError("a share file was supplied for a failed node")
    helpers = _parse_helpers(args.helpers) if args.helpers else None
    plan = make_plan(p, failed, helpers=helpers, seed=args.seed, survivors=supplied)

    regenerated, ledger = run_repair(shares, plan, p)
    write_shares(args.out, [regenerated[i] for i in plan.failed], p, length)

    for i in plan.failed:
        print(
            f"newcomer {i}: phase1 {ledger.phase1[i]} + phase2 {ledger.phase2[i]} "
            f"= {ledger.total_for(i)} symbols/stripe "
            f"({ledger.total_for(i) * stripes} bytes total)"
        )
    print(
        f"system total: {ledger.total} symbols/stripe, "
        f"{ledger.total * stripes} bytes across {stripes} stripes"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    p = _code(args)
    rng = random.Random(args.seed)
    failed = rng.sample(range(1, p.n + 1), p.r)
    plan = make_plan(p, failed, seed=rng.randrange(2**32))

    node_spaces = {i: subspace.node_space(i, p) for i in range(1, p.n + 1)}
    if args.inject_fault:
        # Negative control: corrupt one generator entry of node 1.
        w1 = node_spaces[1]
        rows = [list(row) for row in w1.rows]
        rows[0][0] = p.field.add(rows[0][0], 1)
        for row in rows[1:]:
            row[:] = rows[0]
        node_spaces[1] = subspace.Subspace(p.field, w1.width, tuple(map(tuple, rows)))

    results = subspace.run_all_checks(p, plan, node_spaces)
    point = bounds.mbcr_point(p.k, p.d, p.r, p.block_size)
    results.append(
        subspace.CheckResult(
            "cutset_bound_equality",
            f"n={p.n},k={p.k},d={p.d},r={p.r}",
            bounds.max_file_size(p.k, p.d, p.r, point) == p.block_size,
        )
    )
    print(subspace.format_report(results))
    failures = sum(not c.passed for c in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_bound(args) -> int:
    from fractions import Fraction
    p = _code(args)
    if args.file_size is not None and args.file_size <= 0:
        raise ParameterError(f"--file-size must be positive, got {args.file_size}")
    B = Fraction(p.block_size if args.file_size is None else args.file_size)
    mbcr = bounds.mbcr_point(p.k, p.d, p.r, B)
    mscr = bounds.mscr_point(p.k, p.d, p.r, B)
    best = bounds.max_file_size(p.k, p.d, p.r, mbcr)
    print(f"file size B = {B}, {bounds.composition_count(p.k, p.r)} compositions")
    for name, point in (("MBCR", mbcr), ("MSCR", mscr)):
        print(
            f"{name} point: alpha={point.node_storage} beta1={point.phase1_per_helper} "
            f"beta2={point.phase2_per_peer} gamma={point.repair_bandwidth(p.d, p.r)}"
        )
    print(f"cut-set max file size at MBCR point: {best}")
    print(f"bound met with equality: {best == B}")
    return EXIT_OK if best == B else EXIT_FAILURE


def cmd_simulate(args) -> int:
    p = _code(args)
    if args.stages < 0:
        raise ParameterError(f"--stages must not be negative, got {args.stages}")
    rng = random.Random(args.seed)
    data = tuple(rng.randrange(p.field.order) for _ in range(p.block_size))
    baseline = {s.node_id: s for s in encode(data, p)}
    current = dict(baseline)

    cumulative = 0
    for stage in range(1, args.stages + 1):
        failed = rng.sample(range(1, p.n + 1), p.r)
        plan = make_plan(p, failed, seed=rng.randrange(2**32))
        survivors = [current[i] for i in current if i not in plan.failed]
        regenerated, ledger = run_repair(survivors, plan, p)
        cumulative += ledger.total
        current.update(regenerated)
        for i in plan.failed:
            if current[i] != baseline[i]:
                print(
                    f"stage {stage}: regenerated share {i} differs from original",
                    file=sys.stderr,
                )
                return EXIT_FAILURE
        subset = rng.sample(sorted(current), p.k)
        if reconstruct([current[i] for i in subset], p) != data:
            print(
                f"stage {stage}: reconstruction from nodes {subset} failed",
                file=sys.stderr,
            )
            return EXIT_FAILURE

    theoretical = args.stages * p.r * p.repair_bandwidth
    print(
        f"{args.stages} stages complete: all shares equal stage-0 shares, "
        f"reconstruction verified each stage"
    )
    print(
        f"cumulative repair bandwidth: {cumulative} symbols/stripe "
        f"(theoretical r*gamma*stages = {theoretical})"
    )
    return EXIT_OK if cumulative == theoretical else EXIT_FAILURE


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The mbcr argument parser, built once per process; each parse_args
    call fills a fresh namespace, so no parsed state carries over."""
    ap = argparse.ArgumentParser(
        prog="mbcr",
        description="Exact cooperative regenerating code at the "
        "minimum-repair-bandwidth point",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print derived code parameters")
    _add_param_flags(p)
    _add_field_flags(p)
    p.set_defaults(func=cmd_params, gf256=True)

    p = sub.add_parser("encode", help="encode a file into n share files")
    _add_param_flags(p)
    p.add_argument("input", help="input file")
    p.add_argument("--out", required=True, help="output directory for share files")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("reconstruct", help="rebuild the original file from k shares")
    p.add_argument("shares", nargs="+", help="share files (at least k)")
    p.add_argument("--out", required=True, help="output file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("repair", help="regenerate r failed nodes from survivors")
    p.add_argument("shares", nargs="+", help="survivor share files")
    p.add_argument("--failed", required=True, help="comma-separated failed node ids")
    p.add_argument("--seed", type=int, default=0, help="helper-selection seed")
    p.add_argument(
        "--helpers",
        help="explicit helper map, e.g. '1:3+4+5;2:4+5+6' (overrides --seed)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("verify", help="run the subspace and bound checks")
    _add_param_flags(p)
    _add_field_flags(p)
    p.add_argument("--seed", type=int, default=0, help="failure/helper seed")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help=argparse.SUPPRESS,  # negative control for the check harness
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="evaluate the cut-set bound and extreme points")
    _add_param_flags(p)
    _add_field_flags(p)
    p.add_argument("--file-size", type=int, help="file size B (default k(2d+r-k))")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="multi-stage random fail-repair simulation")
    _add_param_flags(p)
    _add_field_flags(p)
    p.add_argument("--stages", type=int, default=20, help="number of repair stages")
    p.add_argument("--seed", type=int, default=0, help="simulation seed")
    p.set_defaults(func=cmd_simulate, gf256=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorruptShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (MbcrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
