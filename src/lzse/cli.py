"""Command-line interface: compress, decompress, access, extract, stats, gen, verify.

Exit codes: 0 ok, 1 usage error, 2 data or internal error.  Token-mode inputs are
detected by the LZTK magic; everything else is treated as bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import archive
from .access import build_access_index
from .baselines import METHODS, size_report
from .factorization import decode, validate
from .grammar import grammar_to_lzse, repair_compress
from .greedy import greedy_factorize
from .text import Text
from . import generators

# Decoding holds its output buffer and the Text's copy of it.  Measured peak
# RSS of `lzse decompress` at 2^24 symbols (CPython 3.11, x86-64 Linux), over
# the 16 MiB that `import lzse.cli` takes: 2 bytes per symbol in byte mode,
# 8 in token mode.  So 2^26 symbols peak near 144 MiB and 530 MiB: 64 times
# the largest benchmark corpus (1 MiB).  extract holds the same Text and
# spends one access per symbol.
MAX_DECOMPRESS_SYMBOLS = 1 << 26


def _read_text(path: str) -> Text:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == archive.TOKEN_MAGIC:
        return archive.read_token_text(data)
    return Text.from_bytes(data)


def _write_text(path: str, text: Text) -> None:
    data = text.to_bytes() if text.is_byte_mode else archive.write_token_text(text)
    with open(path, "wb") as fh:
        fh.write(data)


def _cmd_compress(args) -> int:
    text = _read_text(args.input)
    if args.method == "greedy":
        fact = greedy_factorize(text)
    else:  # repair-se
        fact = grammar_to_lzse(repair_compress(text), alphabet_size=text.alphabet_size)
    out = args.output or args.input + ".lzse"
    with open(out, "wb") as fh:
        fh.write(archive.serialize(fact))
    print(f"{args.input}: n={fact.n} z={fact.z} -> {out}")
    return 0


def _cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        fact = archive.deserialize(fh.read())
    if fact.n > MAX_DECOMPRESS_SYMBOLS:
        raise ValueError(f"archive decodes to {fact.n} symbols, "
                         f"above the limit of {MAX_DECOMPRESS_SYMBOLS}")
    out = args.output or (args.input[:-5] if args.input.endswith(".lzse")
                          else args.input + ".out")
    _write_text(out, decode(fact))
    print(f"{args.input}: z={fact.z} -> {out} ({fact.n} symbols)")
    return 0


def _cmd_access(args) -> int:
    with open(args.input, "rb") as fh:
        fact = archive.deserialize(fh.read())
    ix = build_access_index(fact)
    sym = ix.access(args.position)
    if fact.alphabet_size <= 256 and 32 <= sym < 127:
        print(chr(sym))
    else:
        print(sym)
    return 0


def _cmd_extract(args) -> int:
    with open(args.input, "rb") as fh:
        fact = archive.deserialize(fh.read())
    count = args.right - args.left + 1
    if count > MAX_DECOMPRESS_SYMBOLS:
        raise ValueError(f"extract of {count} symbols is above the limit of "
                         f"{MAX_DECOMPRESS_SYMBOLS}")
    ix = build_access_index(fact)
    part = ix.extract(args.left, args.right)
    if part.is_byte_mode:
        sys.stdout.buffer.write(part.to_bytes())
        sys.stdout.buffer.write(b"\n")
    else:
        print(" ".join(str(s) for s in part.symbols))
    return 0


def _cmd_stats(args) -> int:
    text = _read_text(args.input)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        print(f"no method given; choose from {', '.join(METHODS)}", file=sys.stderr)
        return 1
    for m in methods:
        if m not in METHODS:
            print(f"unknown method {m!r}; choose from {', '.join(METHODS)}",
                  file=sys.stderr)
            return 1
    report = size_report(methods, text)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print(f"n = {report['n']}")
        for method, entry in report["methods"].items():
            count = entry.get("factors", entry.get("grammar_size"))
            label = "factors" if "factors" in entry else "grammar size"
            print(f"{method}: {label} = {count}, total bits = {entry['total_bits']:.1f}")
            for name, st in entry["streams"].items():
                print(f"  {name:14s} count={st['count']:8d} H0={st['h0']:.3f}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "unary":
        text = generators.gen_unary(args.n)
    elif args.family == "random":
        text = generators.gen_random(args.n, args.sigma, args.seed)
    elif args.family == "periodic":
        text = generators.gen_periodic(args.pattern, args.reps)
    elif args.family == "orsp":
        inst = generators.gen_orsp(args.m, seed=args.seed)
        text = inst.text
    elif args.family == "lower-bound":
        fam = generators.gen_lower_bound_family(args.m)
        text = fam.text
    else:
        print(f"unknown family {args.family!r}", file=sys.stderr)
        return 1
    _write_text(args.output, text)
    print(f"{args.family}: {len(text)} symbols -> {args.output}")
    return 0


def _cmd_verify(args) -> int:
    with open(args.input, "rb") as fh:
        fact = archive.deserialize(fh.read())
    original = _read_text(args.original) if args.original else None
    problem = validate(fact, original)
    if problem is None and original is not None and decode(fact) != original:
        problem = "decoded text differs from original"
    if problem:
        print(f"FAIL: {problem}", file=sys.stderr)
        return 2
    print(f"ok: z={fact.z} n={fact.n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lzse",
                                description="LZ-Start-End compression toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="factorize a file into an archive")
    c.add_argument("input")
    c.add_argument("-o", "--output")
    c.add_argument("--method", choices=["greedy", "repair-se"], default="greedy")
    c.set_defaults(func=_cmd_compress)

    d = sub.add_parser("decompress", help="restore the original file")
    d.add_argument("input")
    d.add_argument("-o", "--output")
    d.set_defaults(func=_cmd_decompress)

    a = sub.add_parser("access", help="print the symbol at a position")
    a.add_argument("input")
    a.add_argument("-p", "--position", type=int, required=True)
    a.set_defaults(func=_cmd_access)

    e = sub.add_parser("extract", help="print a substring")
    e.add_argument("input")
    e.add_argument("-l", "--left", type=int, required=True)
    e.add_argument("-r", "--right", type=int, required=True)
    e.set_defaults(func=_cmd_extract)

    s = sub.add_parser("stats", help="entropy and size report")
    s.add_argument("input")
    s.add_argument("--methods", default="lz77,lzss,lzse,repair,repair-se")
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_stats)

    g = sub.add_parser("gen", help="generate test corpora")
    g.add_argument("family",
                   choices=["unary", "random", "periodic", "orsp", "lower-bound"])
    g.add_argument("-o", "--output", required=True)
    g.add_argument("-n", type=int, default=1024)
    g.add_argument("--sigma", type=int, default=2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--pattern", default="ab")
    g.add_argument("--reps", type=int, default=8)
    g.add_argument("-m", type=int, default=4)
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="validate an archive, optionally against the original")
    v.add_argument("input")
    v.add_argument("--original")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 1 if ex.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError, MemoryError) as ex:
        # RuntimeError: an internal invariant broke (e.g. a third trie mark);
        # MemoryError: the input needs more memory than the machine has
        print(f"error: {str(ex) or type(ex).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
