"""Trainable autoregressive bigram policy with exact gradients.

The policy conditions each next token on the previous token only, via a
|V| x |V| logit table (row = previous token, column = next token). That is
deliberately small: preference losses consume only sequence
log-probabilities and their parameter gradients, and a bigram softmax
policy provides both exactly and cheaply. Sequences terminate with a
reserved EOS token, which makes the per-prompt response distribution
proper and enumerable in tests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

BOS = "<bos>"
EOS = "<eos>"

CHECKPOINT_FORMAT_VERSION = 1


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, shifted by the row maximum for stability."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) along the last axis, without forming the softmax."""
    t = x - np.max(x, axis=-1, keepdims=True)
    return t - np.log(np.sum(np.exp(t), axis=-1, keepdims=True))


def transition_log_prob(log_table: np.ndarray, transitions: Sequence[tuple[int, int]]) -> float:
    """Sum of ``log_table[p, t]`` over a sequence's transitions, in order."""
    return float(sum(log_table[p, t] for p, t in transitions))


def transition_grad(probs: np.ndarray, transitions: Sequence[tuple[int, int]]) -> np.ndarray:
    """Gradient of a sequence's log-probability given the softmax table.

    Each transition (p -> t) adds ``onehot(t) - probs[p]`` to row p; rows
    the sequence never visits stay zero.
    """
    grad = np.zeros_like(probs)
    for p, t in transitions:
        grad[p] -= probs[p]
        grad[p, t] += 1.0
    return grad


class OutOfVocabularyError(ValueError):
    """A token was not found in the policy vocabulary."""


class Vocabulary:
    """Ordered, unique token list including the reserved BOS/EOS tokens."""

    def __init__(self, tokens: Sequence[str]):
        tokens = tuple(tokens)
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        if BOS not in tokens or EOS not in tokens:
            raise ValueError("vocabulary must contain the reserved %s and %s tokens" % (BOS, EOS))
        if len(tokens) < 3:
            raise ValueError("vocabulary needs at least 3 tokens, got %d" % len(tokens))
        if any(t == "" for t in tokens):
            raise ValueError("vocabulary must not contain empty tokens")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from corpus tokens, sorted for determinism."""
        extra = sorted(set(tokens) - {BOS, EOS})
        return cls((BOS, EOS, *extra))

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise OutOfVocabularyError("token %r not in vocabulary" % token) from None

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.index(t) for t in tokens]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __repr__(self) -> str:
        return "Vocabulary(%d tokens)" % len(self)


class BigramPolicy:
    """Next-token softmax policy over a bigram logit table.

    Read operations (log-probabilities, gradients, sampling with a
    caller-supplied generator) are pure; parameter updates mutate
    ``logits`` in place and need exclusive access.
    """

    def __init__(self, vocab: Vocabulary, logits: np.ndarray | None = None):
        size = len(vocab)
        if logits is None:
            logits = np.zeros((size, size))
        # Copy: a policy owns its table (snapshots must not alias live logits).
        logits = np.array(logits, dtype=np.float64)
        if logits.shape != (size, size):
            raise ValueError("logits must be %dx%d, got %s" % (size, size, logits.shape))
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        self.vocab = vocab
        self.logits = logits

    @classmethod
    def new(cls, vocab: Vocabulary, seed: int = 0, noise_std: float = 0.0) -> "BigramPolicy":
        """Fresh policy: zero logits (uniform rows), or seeded Gaussian noise."""
        logits = np.zeros((len(vocab), len(vocab)))
        if noise_std > 0.0:
            rng = np.random.default_rng(seed)
            logits = rng.normal(0.0, noise_std, size=logits.shape)
        return cls(vocab, logits)

    def transitions(self, prompt: Sequence[str], response: Sequence[str]) -> list[tuple[int, int]]:
        """(previous, next) index pairs the response walks through."""
        prompt_idx = self.vocab.encode(prompt)
        response_idx = self.vocab.encode(response)
        prev = prompt_idx[-1] if prompt_idx else self.vocab.index(BOS)
        out = []
        for nxt in response_idx:
            out.append((prev, nxt))
            prev = nxt
        return out

    def sequence_log_prob(self, prompt: Sequence[str], response: Sequence[str]) -> float:
        """log-probability of the response given the prompt.

        The first response token conditions on the last prompt token (BOS
        for an empty prompt); each later token conditions on its
        predecessor. The sum includes the terminal EOS transition when the
        response carries one.
        """
        return transition_log_prob(log_softmax(self.logits), self.transitions(prompt, response))

    def grad_sequence_log_prob(self, prompt: Sequence[str], response: Sequence[str]) -> np.ndarray:
        """d(sequence_log_prob)/d(logits), same shape as the logit table."""
        return transition_grad(softmax(self.logits), self.transitions(prompt, response))

    def sample_response(
        self,
        prompt: Sequence[str],
        temperature: float,
        max_len: int,
        rng: np.random.Generator,
    ) -> list[str]:
        """Draw tokens from softmax(logits[prev] / temperature) until EOS.

        Returns the drawn tokens including the terminal EOS; if max_len
        tokens are drawn without EOS the sequence is returned truncated.
        """
        if temperature <= 0:
            raise ValueError("temperature must be > 0, got %r" % temperature)
        if max_len < 1:
            raise ValueError("max_len must be >= 1, got %d" % max_len)
        scaled = self.logits / temperature
        prompt_idx = self.vocab.encode(prompt)
        prev = prompt_idx[-1] if prompt_idx else self.vocab.index(BOS)
        eos = self.vocab.index(EOS)
        out: list[str] = []
        for _ in range(max_len):
            row = softmax(scaled[prev])
            nxt = int(rng.choice(len(row), p=row))
            out.append(self.vocab.tokens[nxt])
            if nxt == eos:
                break
            prev = nxt
        return out

    def greedy_response(self, prompt: Sequence[str], max_len: int) -> list[str]:
        """Argmax decoding; the zero-temperature limit of sample_response."""
        prompt_idx = self.vocab.encode(prompt)
        prev = prompt_idx[-1] if prompt_idx else self.vocab.index(BOS)
        eos = self.vocab.index(EOS)
        out: list[str] = []
        for _ in range(max_len):
            nxt = int(np.argmax(self.logits[prev]))
            out.append(self.vocab.tokens[nxt])
            if nxt == eos:
                break
            prev = nxt
        return out

    def snapshot(self) -> "BigramPolicy":
        """Deep, immutable copy; later edits to this policy do not leak in."""
        frozen = BigramPolicy(self.vocab, self.logits)
        frozen.logits.flags.writeable = False
        return frozen

    def copy(self) -> "BigramPolicy":
        return BigramPolicy(self.vocab, self.logits)

    def save(self, path: str | Path) -> Path:
        """Write a checkpoint: format version, vocabulary, row-major logits."""
        path = Path(path)
        payload = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "vocab": list(self.vocab.tokens),
            "logits": [[float(x) for x in row] for row in self.logits],
        }
        path.write_text(json.dumps(payload, ensure_ascii=False, indent=None) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BigramPolicy":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        version = payload.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError("unsupported checkpoint format version: %r" % version)
        vocab = Vocabulary(payload["vocab"])
        return cls(vocab, np.array(payload["logits"], dtype=np.float64))
