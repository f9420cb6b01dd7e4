"""Tests for the BPE tokenizer (training, round trips, persistence)."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.deployment import _embedding_fingerprint
from repro.embedding import (
    BPETokenizer,
    TokenEmbeddingTable,
    build_default_embedding_model,
    build_domain_corpus,
)
from repro.embedding.bpe import _EOW, _word_tokens


@pytest.fixture(scope="module")
def tokenizer():
    return BPETokenizer().train(build_domain_corpus(), num_merges=200)


class TestTraining:
    def test_learns_merges(self, tokenizer):
        assert len(tokenizer.merges) > 50
        assert tokenizer.vocab_size > 100

    def test_special_tokens_first(self, tokenizer):
        assert tokenizer.id_to_token[0] == BPETokenizer.PAD
        assert tokenizer.id_to_token[1] == BPETokenizer.UNK

    def test_deterministic_training(self):
        corpus = build_domain_corpus()
        a = BPETokenizer().train(corpus, num_merges=50)
        b = BPETokenizer().train(corpus, num_merges=50)
        assert a.merges == b.merges
        assert a.id_to_token == b.id_to_token

    def test_zero_merges_gives_char_level(self):
        tok = BPETokenizer().train(["hello world"], num_merges=0)
        assert tok.decode(tok.encode("hello")) == "hello"

    def test_negative_merges_raises(self):
        with pytest.raises(ValueError):
            BPETokenizer().train(["x"], num_merges=-1)

    def test_merges_capped_by_frequency(self):
        # A corpus where nothing repeats can't support many merges.
        tok = BPETokenizer().train(["ab", "cd", "ef"], num_merges=100)
        assert len(tok.merges) < 10


def _reference_train(corpus: list[str], num_merges: int) -> BPETokenizer:
    """The trainer as it stood before the incremental one — every pair of
    every word recounted, and the merge applied to every word, on each
    merge.  Quadratic, obviously right: the oracle."""
    self = BPETokenizer()
    word_freq: Counter[str] = Counter()
    for line in corpus:
        word_freq.update(_word_tokens(line))
    splits: dict[str, list[str]] = {
        word: list(word[:-1]) + [word[-1] + _EOW] for word in word_freq
    }
    characters = {c for word in word_freq for c in word}
    initial_symbols = sorted(characters | {c + _EOW for c in characters})

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair_freq: Counter[tuple[str, str]] = Counter()
        for word, freq in word_freq.items():
            symbols = splits[word]
            for a, b in zip(symbols, symbols[1:]):
                pair_freq[(a, b)] += freq
        if not pair_freq:
            break
        best = max(pair_freq.items(), key=lambda kv: (kv[1], kv[0][0], kv[0][1]))
        pair, freq = best
        if freq < 2:
            break
        merges.append(pair)
        merged = pair[0] + pair[1]
        for word in splits:
            splits[word] = self._apply_merge(splits[word], pair, merged)

    self.merges = merges
    self._merge_ranks = {pair: i for i, pair in enumerate(merges)}
    vocab = [self.PAD, self.UNK] + initial_symbols + [a + b for a, b in merges]
    self.id_to_token = vocab
    self.token_to_id = {tok: i for i, tok in enumerate(vocab)}
    return self


def _assert_same_tokenizer(corpus: list[str], num_merges: int) -> BPETokenizer:
    trained = BPETokenizer().train(corpus, num_merges)
    reference = _reference_train(corpus, num_merges)
    assert trained.merges == reference.merges
    assert trained.id_to_token == reference.id_to_token
    for line in corpus:
        assert trained.encode(line) == reference.encode(line)
    return trained


#: short words over a tiny alphabet: repeated letters (``aaaa``, ``abab``),
#: equal-count ties, single-letter words and the empty corpus all turn up
_hostile_corpora = st.integers(2, 4).flatmap(
    lambda letters: st.lists(
        st.text(alphabet="abcd"[:letters], min_size=1, max_size=8),
        max_size=40)
).map(lambda words: [" ".join(words[i:i + 5])
                     for i in range(0, len(words), 5)])


class TestIncrementalTrainer:
    """``train`` keeps pair counts up to date instead of recounting; it
    must pick the merges the recount picks — ids are part of every stored
    artifact (registry entries, deployment checkpoints, WAL snapshots)."""

    @pytest.mark.parametrize("num_merges", [0, 1, 50, 300, 2000])
    def test_domain_corpus_matches_the_recount(self, num_merges):
        trained = _assert_same_tokenizer(build_domain_corpus(), num_merges)
        if num_merges == 2000:
            # Ran out of pairs seen twice: the early stop is the same merge.
            assert 300 < len(trained.merges) < 2000

    @settings(max_examples=150, deadline=None)
    @given(corpus=_hostile_corpora, num_merges=st.integers(0, 30))
    def test_hostile_corpora_match_the_recount(self, corpus, num_merges):
        _assert_same_tokenizer(corpus, num_merges)

    @pytest.mark.parametrize("corpus", [
        [], [""], ["a"], ["a a a a"], ["aaaa aaaa"], ["aaaaaaa aaa aa"],
        ["abab abab ab"], ["ab ba ab ba"], ["abcabc bcabca cabcab"],
        ["aab aab baa baa"],
    ])
    def test_named_hard_cases_match_the_recount(self, corpus):
        for num_merges in (0, 1, 2, 3, 10):
            _assert_same_tokenizer(corpus, num_merges)

    def test_work_is_proportional_to_words_touched(self, monkeypatch):
        """A merge re-segments the words that contain it, not all 378:
        113 400 calls when every merge visited every word."""
        calls = []
        apply_merge = BPETokenizer._apply_merge

        def counting(symbols, pair, merged):
            calls.append(pair)
            return apply_merge(symbols, pair, merged)

        monkeypatch.setattr(BPETokenizer, "_apply_merge",
                            staticmethod(counting))
        BPETokenizer().train(build_domain_corpus(), num_merges=300)
        assert 0 < len(calls) <= 2000

    def test_default_model_matches_recorded_digests(self):
        """Digests recorded from the commit before the incremental trainer:
        the fingerprint is what checkpoints and snapshots are checked
        against on load, so it may not move."""
        tokenizer = BPETokenizer().train(build_domain_corpus(), 300)
        assert hashlib.sha256(
            repr(tokenizer.merges).encode()).hexdigest() == (
            "5897171d3e97f2e6e11b9e6223367b747e28647b151a8f3dcd96913d056c5602")
        assert hashlib.sha256(
            repr(tokenizer.id_to_token).encode()).hexdigest() == (
            "c352b84faed5b491ab5d148b206ae911dad5c1f89b9c9d1d865ddeb3c020cd2c")
        vectors = TokenEmbeddingTable(tokenizer, dim=128, seed=7).vectors
        assert hashlib.sha256(np.ascontiguousarray(
            vectors, dtype=np.float64).tobytes()).hexdigest() == (
            "4129d2ab5dba44bcb266452d862c16e75a2c9a4bc6019c6161b810d8e4e871b2")
        assert _embedding_fingerprint(
            build_default_embedding_model(seed=7)) == "4129d2ab5dba44bc"


class TestEncodeDecode:
    @pytest.mark.parametrize("text", [
        "sneaky", "firearm", "pointing weapon", "smoke plume",
        "the camera shows a person running", "gun drawn",
    ])
    def test_roundtrip(self, tokenizer, text):
        assert tokenizer.decode(tokenizer.encode(text)) == text

    def test_unknown_characters_map_to_unk(self, tokenizer):
        ids = tokenizer.encode("日本語")
        unk = tokenizer.token_to_id[BPETokenizer.UNK]
        assert all(i == unk for i in ids)

    def test_case_normalization(self, tokenizer):
        assert tokenizer.encode("FIREARM") == tokenizer.encode("firearm")

    def test_common_words_compress_below_char_level(self, tokenizer):
        # Frequent domain words should compress well under BPE.
        assert len(tokenizer.encode("firearm")) < len("firearm")
        assert len(tokenizer.encode("sneaky")) < len("sneaky")

    def test_decode_token_strips_eow(self, tokenizer):
        for token_id in range(2, min(tokenizer.vocab_size, 50)):
            piece = tokenizer.decode_token(token_id)
            assert "</w>" not in piece

    def test_decode_token_out_of_range(self, tokenizer):
        with pytest.raises(IndexError):
            tokenizer.decode_token(tokenizer.vocab_size)

    def test_decode_skips_specials(self, tokenizer):
        ids = [0, 1] + tokenizer.encode("sneaky")
        assert tokenizer.decode(ids) == "sneaky"

    def test_tokenize_returns_strings(self, tokenizer):
        tokens = tokenizer.tokenize("pointing weapon")
        assert all(isinstance(t, str) for t in tokens)
        assert len(tokens) >= 2  # at least one per word


class TestPersistence:
    def test_save_load_roundtrip(self, tokenizer, tmp_path):
        path = tmp_path / "bpe.json"
        tokenizer.save(path)
        loaded = BPETokenizer.load(path)
        assert loaded.merges == tokenizer.merges
        assert loaded.id_to_token == tokenizer.id_to_token
        text = "surveillance captured broken glass"
        assert loaded.encode(text) == tokenizer.encode(text)
