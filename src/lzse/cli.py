"""Command-line interface: compress, decompress, access, extract, stats, gen, verify.

Exit codes: 0 ok, 1 usage error, 2 data or internal error.  Token-mode inputs are
detected by the LZTK magic; everything else is treated as bytes.

Each command imports the modules it runs inside its own function, so a
process loads only those: ``compress`` never loads the access index or the
baselines, and ``decompress`` never loads a parser.
"""

from __future__ import annotations

import argparse
import sys

from . import archive
from .factorization import Factorization, decode, validate
from .text import Text

# Expansion holds its output buffer and, in byte mode, the Text's copy of
# it; a token-mode array goes to the Text uncopied, and a source, even
# unary's last (half the text), is copied in slices of at most 2^16 symbols.
# Peak RSS of `lzse decompress`, and of byte-mode `lzse extract` of 1..n, on
# unary at 2^24 symbols (CPython 3.11, x86-64 Linux), over the 14 MiB of
# `import lzse.cli`: 2 bytes per symbol in byte mode, 4 in token mode.  So
# 2^26 symbols peak near 142 MiB and 270 MiB, 64 times the largest benchmark
# corpus (1 MiB).  Token-mode extract prints a decimal string per symbol:
# 78 bytes per symbol at 2^22.  gen hands its buffer to the Text uncopied,
# and at 2^22 symbols peaks at 1 byte per symbol (lower-bound 2, token 4).
MAX_DECOMPRESS_SYMBOLS = 1 << 26


def _read_text(path: str) -> Text:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == archive.TOKEN_MAGIC:
        return archive.read_token_text(data)
    return Text.from_bytes(data)


def _read_archive(path: str) -> Factorization:
    with open(path, "rb") as fh:
        return archive.deserialize(fh.read())


def _write_text(path: str, text: Text) -> None:
    with open(path, "wb") as fh:
        if text.is_byte_mode:
            fh.write(text.to_bytes())
        else:
            archive.write_token_text(fh, text)


def _cmd_compress(args) -> int:
    text = _read_text(args.input)
    if args.method == "greedy":
        from .greedy import greedy_factorize
        fact = greedy_factorize(text)
    else:  # repair-se
        from .grammar import grammar_to_lzse, repair_compress
        fact = grammar_to_lzse(repair_compress(text), alphabet_size=text.alphabet_size)
    out = args.output or args.input + ".lzse"
    with open(out, "wb") as fh:
        fh.write(archive.serialize(fact))
    print(f"{args.input}: n={fact.n} z={fact.z} -> {out}")
    return 0


def _cmd_decompress(args) -> int:
    fact = _read_archive(args.input)
    if fact.n > MAX_DECOMPRESS_SYMBOLS:
        raise ValueError(f"archive decodes to {fact.n} symbols, "
                         f"above the limit of {MAX_DECOMPRESS_SYMBOLS}")
    out = args.output or (args.input[:-5] if args.input.endswith(".lzse")
                          else args.input + ".out")
    _write_text(out, decode(fact))
    print(f"{args.input}: z={fact.z} -> {out} ({fact.n} symbols)")
    return 0


def _cmd_access(args) -> int:
    from .access import access
    fact = _read_archive(args.input)
    sym = access(fact, args.position)
    if fact.alphabet_size <= 256 and 32 <= sym < 127:
        print(chr(sym))
    else:
        print(sym)
    return 0


def _cmd_extract(args) -> int:
    from .access import extract
    fact = _read_archive(args.input)
    count = args.right - args.left + 1
    if count > MAX_DECOMPRESS_SYMBOLS:
        raise ValueError(f"extract of {count} symbols is above the limit of "
                         f"{MAX_DECOMPRESS_SYMBOLS}")
    part = extract(fact, args.left, args.right)
    if part.is_byte_mode:
        sys.stdout.buffer.write(part.to_bytes())
        sys.stdout.buffer.write(b"\n")
    else:
        print(" ".join(str(s) for s in part.symbols))
    return 0


def _cmd_stats(args) -> int:
    import json
    from .baselines import METHODS, size_report
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


def _gen_max_symbols(args) -> int:
    """Length of the longest text that gen's arguments allow, without building it."""
    if args.family in ("unary", "random"):
        return args.n
    if args.family == "periodic":
        return len(args.pattern) * args.reps
    m = max(args.m, 0)
    if args.family == "orsp":
        return (m + 1) ** 2  # m variables, m + 1 delimiters, m queries of at most m
    # lower-bound, exactly: A B holds 2^(m+2) + 1 symbols and its (m - 1)^2
    # blocks 2^(m+1) + 1 on average.  Past m = 62, 2^(m+2) alone is far above
    # the limit, so m is capped to keep the shifts small.
    m = min(m, 62)
    return (1 << (m + 2)) + (m - 1) ** 2 * ((1 << (m + 1)) + 1) + 1


def _cmd_gen(args) -> int:
    from . import generators
    size = _gen_max_symbols(args)
    if size > MAX_DECOMPRESS_SYMBOLS:
        raise ValueError(f"gen {args.family} of up to {size} symbols is above the "
                         f"limit of {MAX_DECOMPRESS_SYMBOLS}")
    if args.family == "unary":
        text = generators.gen_unary(args.n)
    elif args.family == "random":
        text = generators.gen_random(args.n, args.sigma, args.seed)
    elif args.family == "periodic":
        text = generators.gen_periodic(args.pattern, args.reps)
    elif args.family == "orsp":
        text = generators.gen_orsp(args.m, seed=args.seed).text
    else:  # lower-bound
        text = generators.gen_lower_bound_family(args.m).text
    _write_text(args.output, text)
    print(f"{args.family}: {len(text)} symbols -> {args.output}")
    return 0


def _cmd_verify(args) -> int:
    fact = _read_archive(args.input)
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
