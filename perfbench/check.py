"""Output checks that never use the program under test.

Every check compares what the program produced with the generated corpus.
Archives are decoded here by an independent reader of the LZSE archive
format (magic, version 1, byte mode, varint n and z, one record per factor),
so a compress result is judged without ``lzse`` decoding its own output.
"""

from __future__ import annotations

import json


def _varint(data: bytes, pos: int) -> tuple[int, int]:
    value = shift = 0
    while True:
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7


def decode_archive(data: bytes) -> bytes:
    """Text of a byte-mode LZSE archive; raises ValueError if malformed."""
    if data[:6] != b"LZSE\x01\x00":
        raise ValueError("not a version-1 byte-mode LZSE archive")
    try:
        n, pos = _varint(data, 6)
        z, pos = _varint(data, pos)
        out = bytearray()
        starts = []  # starts[i - 1]: 0-based text offset of factor i
        for i in range(1, z + 1):
            starts.append(len(out))
            count, pos = _varint(data, pos)
            if count == 0:
                out.append(data[pos])
                pos += 1
                continue
            back, pos = _varint(data, pos)
            first = i - back
            if first < 1 or first + count - 1 >= i:
                raise ValueError(f"factor {i}: bad copy reference")
            out += out[starts[first - 1]:starts[first + count - 1]]
    except IndexError:
        raise ValueError("truncated archive") from None
    if pos != len(data) or len(out) != n:
        raise ValueError("archive length fields do not match its records")
    return bytes(out)


def archive_matches(data: bytes, expected: bytes) -> bool:
    try:
        return decode_archive(data) == expected
    except ValueError:
        return False


def access_line(expected: bytes, p: int) -> bytes:
    """What ``lzse access -p p`` prints for a byte-mode text."""
    sym = expected[p - 1] if 1 <= p <= len(expected) else -1
    shown = chr(sym) if 32 <= sym < 127 else str(sym)
    return shown.encode() + b"\n"


def extract_output(expected: bytes, lo: int, hi: int) -> bytes:
    """What ``lzse extract -l lo -r hi`` prints for a byte-mode text."""
    return expected[lo - 1:hi] + b"\n"


def stats_report(stdout: bytes) -> dict | None:
    """The ``lzse stats --json`` report, or None if it is not one."""
    try:
        report = json.loads(stdout)
        methods = report["methods"].values()
        if all(isinstance(e["total_bits"], float) for e in methods):
            return report
    except (ValueError, TypeError, KeyError, AttributeError):
        pass
    return None


def stats_correct(report: dict, expected: bytes) -> bool:
    return (report.get("n") == len(expected)
            and report.get("repair_se_factors_le_repair_size") is True)
