"""Self-test of the benchmark on tiny corpora; it takes seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import corpora  # noqa: E402
import run  # noqa: E402

TINY_BLOCK = corpora.block_repetitive(7, blocks=8, block_len=64, draws=64)
TINY = {"build-block": TINY_BLOCK, "query-block": TINY_BLOCK,
        "stats-zipf": corpora.zipf_periodic(7, size=2048)}
SPEC = json.loads(run.SPEC.read_text())


def test_default_corpora_match_their_pins():
    corpora.check_pinned()


def test_zipf_pattern_is_the_start_of_criterion_9s():
    quarter = corpora.zipf_words_pattern()
    assert corpora.zipf_words_pattern(size=1 << 18)[:1 << 16] == quarter


def test_reference_decoder():
    # n = 2, z = 2: char "a", then a copy of one factor starting 1 back
    archive = b"LZSE\x01\x00\x02\x02\x00a\x01\x01"
    assert check.decode_archive(archive) == b"aa"
    with pytest.raises(ValueError):
        check.decode_archive(archive.replace(b"\x02\x02", b"\x03\x02", 1))
    assert not check.archive_matches(archive[:-1], b"aa")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_and_outputs_are_correct(name, trace):
    result, details = run.run_workload(name, 1, 0.3, trace, inputs=[TINY[name]])
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in section]
    assert all(m["unit"] == e["unit"] for m, e in zip(result["metrics"].values(), section))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["failure_rate"] == 0


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_a_wrong_expected_corpus_raises_the_failure_rate(name):
    corpus = TINY[name]
    result, details = run.run_workload(name, 1, 0.3, False, inputs=[corpus],
                                       expected=[corpus[1:]])
    assert not result["correct"] and result["failed"] > 0
    assert details["failure_rate"] > 0
