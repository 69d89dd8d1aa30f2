"""LZ-Start-End (LZSE) compression toolkit.

Greedy LZSE factorization, grammar conversion, logarithmic-time random
access over the compressed form, LZ77/LZSS/Re-Pair baselines, entropy
reports and adversarial string generators.
"""

from .access import build_access_index
from .archive import deserialize, serialize
from .baselines import extract_field_streams, h0, lz77_factorize, lzss_factorize
from .factorization import Copy, decode, validate
from .grammar import grammar_to_lzse, repair_compress
from .greedy import greedy_factorize
from .ibst import Ibst
from .suffixindex import build_suffix_index
from .text import Text

__version__ = "0.1.0"

__all__ = [
    "build_access_index", "serialize", "deserialize", "extract_field_streams",
    "h0", "lz77_factorize", "lzss_factorize", "Copy", "decode", "validate",
    "grammar_to_lzse", "repair_compress", "greedy_factorize", "Ibst",
    "build_suffix_index", "Text",
]
