"""Byte-pair encoding tokenizer with encoder *and* decoder.

The paper's interpretable KG retrieval (Section III-E) decodes learned token
embeddings back to words via the tokenizer's decoder over "the original
simple byte-pair encoding (BPE) vocabulary used in ImageBind".  We implement
real BPE (Sennrich et al., 2016): word-level frequency counting, iterative
most-frequent-pair merging with an end-of-word marker, deterministic
tie-breaking, and a decoder that restores surface text.

Training is incremental.  Invariant: pair counts and, per pair, the set of
words containing it are **exact after every merge**, and the winner is the
naive recount's argmax (highest count, then lexicographic) over the live
pairs — same total order, same merges and ids (oracle: ``tests/test_bpe.py``).
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from pathlib import Path

from ..utils.serialization import atomic_write_json

__all__ = ["BPETokenizer"]

_EOW = "</w>"
_WORD_RE = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


def _word_tokens(text: str) -> list[str]:
    """Lowercase and split into words/punctuation."""
    return _WORD_RE.findall(text.lower())


class BPETokenizer:
    """A trainable byte-pair-encoding tokenizer.

    Special tokens: ``<pad>`` (0) and ``<unk>`` (1).  Every other id is a
    learned subword; ids are assigned deterministically (specials, then
    sorted initial symbols, then merges in training order).
    """

    PAD = "<pad>"
    UNK = "<unk>"

    def __init__(self) -> None:
        self.merges: list[tuple[str, str]] = []
        self.token_to_id: dict[str, int] = {}
        self.id_to_token: list[str] = []
        self._merge_ranks: dict[tuple[str, str], int] = {}
        self._cache: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(self, corpus: list[str], num_merges: int = 300) -> "BPETokenizer":
        """Learn merge rules from a corpus of strings."""
        if num_merges < 0:
            raise ValueError("num_merges must be non-negative")
        word_freq: Counter[str] = Counter()
        for line in corpus:
            word_freq.update(_word_tokens(line))

        # Represent each word as a tuple of symbols ending in the EOW marker.
        splits: dict[str, list[str]] = {
            word: list(word[:-1]) + [word[-1] + _EOW] for word in word_freq
        }
        # Base vocabulary: every seen character in BOTH its mid-word and
        # end-of-word form, so any recombination of corpus characters stays
        # encodable (e.g. "0" seen only word-finally must still tokenize
        # inside "007").
        characters = {c for word in word_freq for c in word}
        initial_symbols = sorted(characters | {c + _EOW for c in characters})

        pair_freq: Counter[tuple[str, str]] = Counter()
        pair_words: defaultdict[tuple[str, str], set[str]] = defaultdict(set)

        def count_pairs(word: str, sign: int) -> None:
            symbols, freq = splits[word], sign * word_freq[word]
            for pair in zip(symbols, symbols[1:]):
                pair_freq[pair] += freq
                if sign > 0:
                    pair_words[pair].add(word)
                else:
                    pair_words[pair].discard(word)
                    if not pair_freq[pair]:
                        del pair_freq[pair], pair_words[pair]

        for word in splits:
            count_pairs(word, +1)

        merges: list[tuple[str, str]] = []
        while len(merges) < num_merges and pair_freq:
            # Deterministic: highest frequency, then lexicographic.
            pair, freq = max(pair_freq.items(),
                             key=lambda kv: (kv[1], kv[0][0], kv[0][1]))
            if freq < 2:
                break
            merges.append(pair)
            merged = pair[0] + pair[1]
            # Whole-word replace, not a patch at the merge site: "a a a" stays right.
            for word in list(pair_words[pair]):
                count_pairs(word, -1)
                splits[word] = self._apply_merge(splits[word], pair, merged)
                count_pairs(word, +1)

        self.merges = merges
        self._merge_ranks = {pair: i for i, pair in enumerate(merges)}
        vocab = [self.PAD, self.UNK] + initial_symbols + [a + b for a, b in merges]
        self.id_to_token = vocab
        self.token_to_id = {tok: i for i, tok in enumerate(vocab)}
        self._cache = {}
        return self

    @staticmethod
    def _apply_merge(symbols: list[str], pair: tuple[str, str], merged: str) -> list[str]:
        out: list[str] = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
                out.append(merged)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        return out

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return len(self.id_to_token)

    def _segment_word(self, word: str) -> list[str]:
        if word in self._cache:
            return self._cache[word]
        symbols = list(word[:-1]) + [word[-1] + _EOW]
        while len(symbols) > 1:
            ranked = [
                (self._merge_ranks.get((a, b), float("inf")), i)
                for i, (a, b) in enumerate(zip(symbols, symbols[1:]))
            ]
            rank, index = min(ranked)
            if rank == float("inf"):
                break
            symbols = (symbols[:index]
                       + [symbols[index] + symbols[index + 1]]
                       + symbols[index + 2:])
        self._cache[word] = symbols
        return symbols

    def tokenize(self, text: str) -> list[str]:
        """Split text into subword token strings."""
        tokens: list[str] = []
        for word in _word_tokens(text):
            tokens.extend(self._segment_word(word))
        return tokens

    def encode(self, text: str) -> list[int]:
        """Encode text into token ids (unknown symbols map to ``<unk>``)."""
        unk = self.token_to_id[self.UNK]
        return [self.token_to_id.get(tok, unk) for tok in self.tokenize(text)]

    def decode_token(self, token_id: int) -> str:
        """Decode a single token id to its surface form (EOW marker stripped)."""
        if not 0 <= token_id < self.vocab_size:
            raise IndexError(f"token id {token_id} out of range")
        return self.id_to_token[token_id].replace(_EOW, "")

    def decode(self, ids: list[int]) -> str:
        """Decode token ids back to text (words separated by spaces)."""
        pieces: list[str] = []
        current = ""
        for token_id in ids:
            token = self.id_to_token[token_id]
            if token in (self.PAD, self.UNK):
                continue
            if token.endswith(_EOW):
                current += token[: -len(_EOW)]
                pieces.append(current)
                current = ""
            else:
                current += token
        if current:
            pieces.append(current)
        return " ".join(pieces)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        payload = {"merges": self.merges, "vocab": self.id_to_token}
        atomic_write_json(path, payload)

    @classmethod
    def load(cls, path: str | Path) -> "BPETokenizer":
        payload = json.loads(Path(path).read_text())
        tokenizer = cls()
        tokenizer.merges = [tuple(pair) for pair in payload["merges"]]
        tokenizer._merge_ranks = {pair: i for i, pair in enumerate(tokenizer.merges)}
        tokenizer.id_to_token = list(payload["vocab"])
        tokenizer.token_to_id = {tok: i for i, tok in enumerate(tokenizer.id_to_token)}
        return tokenizer
