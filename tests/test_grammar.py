import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from lzse import grammar
from lzse.factorization import decode, validate
from lzse.grammar import Cfg, GrammarError, grammar_to_lzse, repair_compress
from lzse.generators import gen_orsp, gen_periodic
from lzse.text import Text

from helpers import (Slp, cfg_to_slp, expand, orsp_instance, orsp_solve_from_slp,
                     random_text, repair_compress_reference, zipf_words_pattern)

A, B, S, X, Y = 300, 301, 302, 303, 304


def test_expand_examples():
    assert expand(Cfg({S: (X, X), X: (97, 98)}, S)) == Text.from_str("abab")
    assert expand(Cfg({S: (99,)}, S)) == Text.from_str("c")
    g = Cfg({S: (A, B, B, B), A: (97, 98), B: (97, 97, 98)}, S)
    assert expand(g) == Text.from_str("abaabaabaab")


def test_cyclic_rejected():
    with pytest.raises(GrammarError):
        Cfg({X: (Y,), Y: (X,)}, X)
    with pytest.raises(GrammarError):
        Cfg({X: (97, X)}, X)


def test_empty_rhs_rejected():
    with pytest.raises(GrammarError):
        Cfg({X: ()}, X)


def test_grammar_size():
    g = Cfg({S: (A, B, B, B), A: (97, 98), B: (97, 97, 98)}, S)
    assert g.size == 9


def test_cfg_to_slp():
    g = Cfg({S: (A, B, B, B), A: (97, 98), B: (97, 97, 98)}, S)
    slp = cfg_to_slp(g)
    assert isinstance(slp, Slp)
    assert expand(slp) == expand(g)
    terminals = {s for rhs in g.rules.values() for s in rhs if g.is_terminal(s)}
    assert slp.size <= 2 * g.size + len(terminals)

    binary = Cfg({S: (A, B), A: (97,), B: (98,)}, S)
    slp2 = cfg_to_slp(binary)
    assert expand(slp2) == expand(binary)
    assert slp2.rules == binary.rules  # already CNF, unchanged

    single = cfg_to_slp(Cfg({S: (99,)}, S))
    assert expand(single) == Text.from_str("c")


def test_cfg_to_slp_unit_rules():
    g = Cfg({S: (X,), X: (97, 98)}, S)
    slp = cfg_to_slp(g)
    assert expand(slp) == Text.from_str("ab")


def test_grammar_to_lzse_examples():
    from lzse.factorization import Char, Copy
    f = grammar_to_lzse(Cfg({S: (X, X), X: (97, 98)}, S))
    assert f.factors == [Char(97), Char(98), Copy(1, 2)]

    g = Cfg({S: (A, B, B, B), A: (97, 98), B: (97, 97, 98)}, S)
    f2 = grammar_to_lzse(g)
    assert f2.factors == [Char(97), Char(98), Char(97), Char(97), Char(98),
                          Copy(3, 3), Copy(3, 3)]
    assert f2.z == 7 <= g.size == 9
    assert decode(f2) == expand(g)

    assert grammar_to_lzse(Cfg({S: (99,)}, S)).factors == [Char(99)]


def test_grammar_to_lzse_random():
    rng = random.Random(21)
    for _ in range(120):
        g = random_grammar(rng)
        f = grammar_to_lzse(g)
        t = expand(g)
        assert f.z <= g.size
        assert decode(f) == t
        assert validate(f, t) is None


def random_grammar(rng: random.Random) -> Cfg:
    sigma = rng.choice([2, 3, 5])
    n_rules = rng.randint(1, 12)
    rules = {}
    base = 1000
    for t in range(n_rules):
        pool = list(range(sigma)) + [base + u for u in range(t)]
        rhs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        rules[base + t] = rhs
    return Cfg(rules, base + n_rules - 1)


def test_repair_examples():
    g = repair_compress(Text.from_str("abab"))
    assert g.rules[256] == (97, 98) and g.rules[g.start] == (256, 256)
    assert g.size == 4

    g2 = repair_compress(Text.from_str("abc"))
    assert list(g2.rules) == [g2.start] and g2.rules[g2.start] == (97, 98, 99)

    g3 = repair_compress(Text.from_str("aaaa"))
    assert g3.rules[256] == (97, 97) and g3.rules[g3.start] == (256, 256)


def test_repair_run_counting():
    # aaa has two overlapping pairs but only one countable occurrence
    g = repair_compress(Text.from_str("aaa"))
    assert list(g.rules) == [g.start]
    # aaaa counts two and compresses
    assert len(repair_compress(Text.from_str("aaaa")).rules) == 2


def test_repair_roundtrip_random():
    rng = random.Random(17)
    for _ in range(150):
        t = random_text(rng, rng.randint(1, 600), rng.choice([2, 3, 4, 26]))
        assert expand(repair_compress(t)) == t


def test_repair_token_text_with_high_symbols():
    # token rule ids start at 2^32, above every terminal; pair keys must
    # not collide for them nor for terminals >= 2^31
    hi = [(1 << 31) + 5, (1 << 32) - 1]
    t = Text.from_tokens([0, 1, 2, 3] * 8 + hi * 6 + [0, hi[0], 1] * 5)
    g = repair_compress(t)
    assert expand(g) == t
    assert g.rules[1 << 32] == (0, 1)
    assert g.rules[(1 << 32) + 1] == (1 << 32, 2)
    assert all(x >= 1 << 32 for x in g.rules)
    assert (hi[0], hi[1]) in g.rules.values()
    assert g.size < len(t)
    rng = random.Random(27)
    for _ in range(40):
        alphabet = [rng.randrange(1 << 32) for _ in range(rng.choice([1, 2, 4]))] + hi
        t = Text.from_tokens(rng.choice(alphabet) for _ in range(rng.randint(1, 300)))
        assert expand(repair_compress(t)) == t


def assert_repair_matches_reference(t: Text) -> None:
    g = repair_compress(t)
    ref = repair_compress_reference(t)
    assert list(g.rules.items()) == list(ref.rules.items())
    assert g.start == ref.start


def test_repair_matches_reference_criterion_4_zipf():
    # replay criterion 4's draws up to its 64 KiB zipf-words text
    rng = random.Random(555)
    for _ in range(25):
        random_text(rng, rng.randint(1, 2000), rng.choice([2, 4, 26]))
    for _ in range(10):
        random_text(rng, rng.randint(4, 1500), rng.choice([2, 4]))
    assert_repair_matches_reference(Text.from_bytes(zipf_words_pattern(rng, 1 << 16)))


@pytest.mark.parametrize("sigma", [1, 2, 3, 4, 26])
def test_repair_matches_reference_random(sigma):
    rng = random.Random(100 + sigma)
    for _ in range(25):
        assert_repair_matches_reference(random_text(rng, rng.randint(1, 1200), sigma))


def test_repair_matches_reference_periodic():
    rng = random.Random(31)
    for pattern in ["ab", "aab", "abb", "aaaab", "abracadabra", "abcabcabd"]:
        for reps in [1, 2, 3, 7, 64, 333]:
            assert_repair_matches_reference(gen_periodic(pattern, reps))
    for _ in range(20):
        pattern = bytes(rng.randrange(97, 100) for _ in range(rng.randint(1, 9)))
        assert_repair_matches_reference(gen_periodic(pattern, rng.randint(1, 300)))


def test_repair_matches_reference_runs():
    # a^1 b a^2 b ... a^k b: one run of every length
    for k in [1, 2, 3, 5, 8, 40, 90]:
        assert_repair_matches_reference(
            Text.from_str("".join("a" * i + "b" for i in range(1, k + 1))))
        assert_repair_matches_reference(
            Text.from_str("".join("a" * i + "b" for i in range(k, 0, -1))))
    # runs of b that lose symbols at their start in one round and at their
    # end in another, then are read again: each text fails if one of the two
    # ends is left pointing at a removed position
    for s in ["abbbbbbdabbdcbddaabbbdababdab", "bdababdabbbdbbdaabbdabbbbdbbabbbbbdcbd"]:
        assert_repair_matches_reference(Text.from_str(s))


def test_repair_matches_reference_fibonacci_and_thue_morse():
    fib = ["b", "a"]
    while len(fib[-1]) < 20_000:
        fib.append(fib[-1] + fib[-2])
    for word in fib[2:]:
        assert_repair_matches_reference(Text.from_str(word))
    for bits in range(1, 15):
        tm = [bin(i).count("1") % 2 for i in range(1 << bits)]
        assert_repair_matches_reference(Text(tm))


def test_repair_matches_reference_high_tokens():
    hi = [(1 << 31) + 5, (1 << 32) - 1]
    assert_repair_matches_reference(
        Text.from_tokens([0, 1, 2, 3] * 8 + hi * 6 + [0, hi[0], 1] * 5))
    rng = random.Random(41)
    for _ in range(30):
        alphabet = [rng.randrange(1 << 32) for _ in range(rng.choice([1, 2, 4]))] + hi
        tokens = []
        while len(tokens) < 400:
            tokens += [rng.choice(alphabet)] * rng.choice([1, 1, 2, 3, 6])
        assert_repair_matches_reference(Text.from_tokens(tokens))


def test_repair_matches_reference_remade_pair():
    # ab is replaced by x at 0, 2 and 5: (x, a) is made at 0, loses that
    # occurrence when the replacement at 2 follows, and is made again at 2.
    # Its emptied list must start again there, not grow from its old tail.
    assert_repair_matches_reference(Text.from_str("ababaaba"))
    a, b = (1 << 31) + 5, (1 << 32) - 1
    assert_repair_matches_reference(Text.from_tokens([a, b, a, b, a, a, b, a]))


# run lengths decide the greedy non-overlapping counts, the tie-breaks
# between a run pair and its neighbours, and where new runs form
@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 14)), min_size=1, max_size=24))
def test_repair_matches_reference_long_runs(runs):
    assert_repair_matches_reference(Text(sym for sym, length in runs for _ in range(length)))


def handoff_texts(rng: random.Random):
    for sigma in [1, 2, 3, 4, 26]:
        for _ in range(12):
            yield random_text(rng, rng.randint(2, 400), sigma)
    yield random_text(rng, 900, 26)  # k * k <= n: passes run
    for k in [3, 8, 30]:
        yield Text.from_str("".join("a" * i + "b" for i in range(1, k + 1)))
    for _ in range(12):
        yield Text(bytes(sym for _ in range(rng.randint(1, 30))
                         for sym in [rng.randrange(3)] * rng.randint(1, 9)))
    for pattern in ["ab", "aab", "abracadabra", "abcabcabd", "aaaab"]:
        yield gen_periodic(pattern, rng.randint(2, 90))
    for _ in range(8):
        pattern = bytes(rng.randrange(97, 100) for _ in range(rng.randint(1, 9)))
        yield gen_periodic(pattern, rng.randint(2, 120))
    hi = [(1 << 31) + 5, (1 << 32) - 1]
    for _ in range(8):
        alphabet = [rng.randrange(1 << 32) for _ in range(rng.choice([1, 2, 4]))] + hi
        yield Text.from_tokens(rng.choice(alphabet) for _ in range(rng.randint(2, 300)))


@pytest.mark.parametrize("share", [float("inf"), 1 / 2, 1 / 10, 0.0],
                         ids=["never", "half", "tenth", "every-round"])
def test_repair_passes_hand_off_to_incremental_rounds(share, monkeypatch):
    # The numpy passes run on short texts too, and hand off at every
    # share: where the incremental rounds start, labels above the
    # terminals exist, so their pair keys must span all labels so far.
    monkeypatch.setattr(grammar, "_PASS_MIN_N", 2)
    monkeypatch.setattr(grammar, "_PASS_SHARE", share)
    real_passes = grammar._repair_passes
    rounds = []

    def passes(symbols, terminals, label_rules):
        sym = real_passes(symbols, terminals, label_rules)
        rounds.append(len(label_rules))
        return sym

    monkeypatch.setattr(grammar, "_repair_passes", passes)
    for t in handoff_texts(random.Random(63)):
        assert_repair_matches_reference(t)
    assert any(rounds) == (share != float("inf"))
    # k * k above n: the pair counts would outgrow the text, so the
    # incremental rounds run alone
    rounds.clear()
    assert_repair_matches_reference(
        Text.from_tokens(list(range(300)) + [5, 6, 7, 5, 6, 7, 8] * 40))
    assert rounds == []


def test_repair_passes_keep_their_pair_count_bound(monkeypatch):
    # each pass adds a label, and its pair counts span labels²: the passes
    # stop before that passes min(n, _PASS_MAX_K2), not only k².  Zipf
    # words hold k = 27 symbols; with the cap at 31², passes run from 27
    # to 31 labels, and the incremental rounds finish the same grammar.
    import numpy as np
    t = gen_periodic(zipf_words_pattern(random.Random(5), 1 << 14), 4)
    k = len(set(t.symbols))
    cap = (k + 4) ** 2
    monkeypatch.setattr(grammar, "_PASS_MIN_N", 2)
    monkeypatch.setattr(grammar, "_PASS_MAX_K2", cap)
    sizes = []
    bincount = np.bincount

    def counted_bincount(*args, **kwargs):
        counts = bincount(*args, **kwargs)
        sizes.append(len(counts))
        return counts

    monkeypatch.setattr(np, "bincount", counted_bincount)
    assert_repair_matches_reference(t)
    assert sizes and max(sizes) <= cap


def test_repair_peak_memory_per_symbol():
    # 2^18 symbols of periodic zipf words.  The numpy passes hold the
    # sequence as int32 (4 B), its pair keys (4 B), masks (1 B each) and
    # the kept positions (8 B per replaced pair); they leave about a
    # quarter of the symbols to the incremental rounds, whose six Python
    # lists of positions, position ints and two int32 run tables cost
    # about 100 B per symbol left.  Without the passes the peak is about
    # 105 B per symbol.
    t = gen_periodic(zipf_words_pattern(random.Random(5), 1 << 16), 4)
    tracemalloc.start()
    try:
        repair_compress(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * len(t)


def test_repair_rejects_empty():
    with pytest.raises(GrammarError):
        repair_compress(Text.from_str(""))


def direct_answers(inst, op, lift):
    return [reduce(op, [lift(k - 1) for k in range(l, r + 1)])
            for l, r in inst.queries]


def test_orsp_small_example():
    inst = orsp_instance(2, [(1, 2), (2, 2)])
    slp = cfg_to_slp(repair_compress(inst.text))
    res = orsp_solve_from_slp(slp, inst.is_delimiter, lambda a, b: a + b,
                              lambda s: s + 1)
    assert res.answers == [3, 2]
    assert res.operations <= 4 * slp.size


def test_orsp_concat_recovers_substrings():
    inst = orsp_instance(3, [(1, 3), (2, 2), (1, 1)])
    slp = cfg_to_slp(repair_compress(inst.text))
    res = orsp_solve_from_slp(slp, inst.is_delimiter, lambda a, b: a + b,
                              lambda s: (s,))
    assert res.answers == [(0, 1, 2), (1,), (0,)]


def test_orsp_three_semigroups_random():
    rng = random.Random(8)
    semigroups = [
        (lambda a, b: a + b, lambda s: s + 1),
        (max, lambda s: (s * 13) % 31),
        (lambda a, b: a + b, lambda s: (s,)),
    ]
    for _ in range(200):
        m = rng.randint(1, 64)
        inst = gen_orsp(m, seed=rng.randrange(1 << 30))
        slp = cfg_to_slp(repair_compress(inst.text))
        for op, lift in semigroups:
            res = orsp_solve_from_slp(slp, inst.is_delimiter, op, lift)
            assert res.answers == direct_answers(inst, op, lift)
            assert res.operations <= 4 * slp.size


def test_orsp_rejects_non_orsp_shape():
    slp = cfg_to_slp(repair_compress(Text.from_str("abcabc")))
    with pytest.raises(GrammarError):
        orsp_solve_from_slp(slp, lambda s: False, lambda a, b: a + b, lambda s: s)
    # delimiter in the wrong place
    slp2 = cfg_to_slp(Cfg({S: (9, 0, 9, 1, 9)}, S))
    with pytest.raises(GrammarError):
        orsp_solve_from_slp(slp2, lambda s: s == 9, lambda a, b: a + b, lambda s: s)
