"""LZ-Start-End (LZSE) compression toolkit.

Greedy LZSE factorization, grammar conversion, logarithmic-time random
access over the compressed form, LZ77/LZSS/Re-Pair baselines, entropy
reports and adversarial string generators.
"""

from .access import AccessIndex, build_access_index
from .archive import deserialize, serialize
from .baselines import (extract_field_streams, h0, lz77_factorize,
                        lzss_factorize, size_report)
from .factorization import (Char, Copy, Factorization, access_naive,
                            compute_extended_factors, decode, jump, validate)
from .grammar import (Cfg, Slp, cfg_to_slp, expand, grammar_to_lzse,
                      orsp_solve_from_slp, repair_compress)
from .greedy import greedy_factorize, greedy_factorize_oracle
from .ibst import Hint, Ibst
from .suffixindex import SuffixIndex, build_suffix_index
from .text import Text

__version__ = "0.1.0"

__all__ = [
    "AccessIndex", "build_access_index", "serialize", "deserialize",
    "extract_field_streams", "h0", "lz77_factorize", "lzss_factorize",
    "size_report", "Char", "Copy", "Factorization", "access_naive",
    "compute_extended_factors", "decode", "jump", "validate",
    "Cfg", "Slp", "cfg_to_slp", "expand", "grammar_to_lzse",
    "orsp_solve_from_slp", "repair_compress", "greedy_factorize",
    "greedy_factorize_oracle", "Hint", "Ibst", "SuffixIndex",
    "build_suffix_index", "Text",
]
