"""LZ-Start-End (LZSE) compression toolkit.

Greedy LZSE factorization, grammar conversion, logarithmic-time random
access over the compressed form, LZ77/LZSS/Re-Pair baselines, entropy
reports and adversarial string generators.

The exported names are resolved on first use (PEP 562), so ``import lzse``
loads no submodule and each command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "build_access_index": "access",
    "serialize": "archive",
    "deserialize": "archive",
    "extract_field_streams": "baselines",
    "h0": "baselines",
    "lz77_factorize": "baselines",
    "lzss_factorize": "baselines",
    "Copy": "factorization",
    "decode": "factorization",
    "validate": "factorization",
    "grammar_to_lzse": "grammar",
    "repair_compress": "grammar",
    "greedy_factorize": "greedy",
    "Ibst": "ibst",
    "build_suffix_index": "suffixindex",
    "Text": "text",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
