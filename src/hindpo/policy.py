"""Trainable autoregressive bigram policy with exact gradients.

The policy conditions each next token on the previous token only, via a
|V| x |V| logit table (row = previous token, column = next token). That is
deliberately small: preference losses consume only sequence
log-probabilities and their parameter gradients, and a bigram softmax
policy provides both exactly and cheaply. Sequences terminate with a
reserved EOS token, which makes the per-prompt response distribution
proper and enumerable in tests. Sampling draws from a table of row CDFs
(``sampling_tables``, ``draw``), so a caller drawing many responses at one
temperature builds the table once. Greedy decoding is temperature 0,
whose table steps from 0 to 1 at each row's first maximum, so greedy and
sampled decoding share one path. ``draw`` samples one response per
start row of a sequence in one call: it takes its uniforms from the
generator in blocks and locates each in its row by ``bisect`` on a flat
memoryview of the table, and it leaves the generator exactly where one
``draw`` per start row, and one ``rng.choice`` per drawn token, would,
whatever its bit generator. ``transition_grad`` scatters each
transition's count through its flat entry row·V + col. A
checkpoint is two files: the table's row-major little-endian float64
bytes, raw, at ``table_path(path)``, and at ``path`` a small JSON header
holding the format version, the vocabulary and the table's sha256, so
the table reads back exactly, in one ``np.frombuffer``, and a stale or
foreign table never loads.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fileio import check_seed, check_value, read_json, write_atomic

BOS = "<bos>"
EOS = "<eos>"

CHECKPOINT_FORMAT_VERSION = 3
_CHECKPOINT_KEYS = {"format_version", "vocab", "sha256"}


def table_path(path: str | Path) -> Path:
    """The file that holds the logit table of the checkpoint at ``path``:
    its name with ``.logits`` appended, in its directory."""
    path = Path(path)
    return path.with_name(path.name + ".logits")


def normalise(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log_softmax(x), softmax(x)) along the last axis, from one shared exp.

    Each row is shifted by its maximum for stability. The reductions run
    row by row, so a row's values do not depend on which other rows are
    normalised with it.
    """
    log_probs = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    probs = np.exp(log_probs)
    total = np.add.reduce(probs, axis=-1, keepdims=True)
    log_probs -= np.log(total)
    probs /= total
    return log_probs, probs


def sampling_tables(logits: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """(log-probabilities, row CDFs) of softmax(logits / temperature).

    A CDF row is the cumulative sum of the row's probabilities divided by
    its last entry: the table ``rng.choice(V, p=row)`` builds for a draw,
    so :func:`draw` consumes a generator exactly as ``rng.choice`` would.
    """
    log_probs, cdf = normalise(logits / temperature)
    np.cumsum(cdf, axis=-1, out=cdf)
    cdf /= cdf[:, -1:]
    return log_probs, cdf


# Most uniforms a draw takes from the generator at once: a draw's memory
# stays bounded whatever its max_len.
_BLOCK = 1024


def _blocks(rng: np.random.Generator, total: int, marks: list[dict]) -> Iterator[list[float]]:
    """``total`` uniforms from ``rng``, in blocks of at most ``_BLOCK``;
    the generator's state before each block goes to ``marks``."""
    while total > 0:
        size = min(total, _BLOCK)
        marks.append(rng.bit_generator.state)
        yield rng.random(size).tolist()
        total -= size


def draw(
    cdf: np.ndarray, starts: Sequence[int], eos: int, max_len: int, rng: np.random.Generator
) -> list[list[int]]:
    """One response per start row in ``starts``, drawn one after another
    from the CDF rows ``cdf``; a start given n times draws n responses.
    Each is a list of token indices, ending with ``eos`` or cut after
    ``max_len`` tokens.

    Each token is one uniform located by ``bisect_right`` in the previous
    token's CDF row, read through a flat memoryview of the table, so no
    row is copied; on a sorted row that is ``searchsorted(side="right")``.
    The uniforms come from ``rng.random(n)``, in one block when
    ``len(starts) * max_len`` is at most ``_BLOCK``; at the end the
    generator is set back to the start of the last block it used and
    advanced over the uniforms used from it. So the generator ends exactly
    where one ``rng.random()`` per drawn token leaves it, for any bit
    generator, and one call draws what one call per start would, in turn,
    from the same generator.
    """
    size = len(cdf)
    flat = memoryview(cdf.reshape(-1))
    marks: list[dict] = []
    uniforms = chain.from_iterable(_blocks(rng, len(starts) * max_len, marks))
    responses = []
    for start in starts:
        path: list[int] = []
        prev = start
        for _ in range(max_len):
            row = prev * size
            prev = bisect_right(flat, next(uniforms), row, row + size) - row
            path.append(prev)
            if prev == eos:
                break
        responses.append(path)
    if marks:
        rng.bit_generator.state = marks[-1]
        rng.random(sum(map(len, responses)) - _BLOCK * (len(marks) - 1))
    return responses


def transition_grad(
    probs: np.ndarray, rows: np.ndarray, entries: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Gradient of sum_k weights[k] * log softmax(L)[rows[k], cols[k]] w.r.t. L,
    written over ``probs``, the C-contiguous softmax table, which it returns;
    ``entries[k]`` is transition k's entry rows[k]·V + cols[k] in the table
    read row-major.

    Transition k (p -> t) adds ``weights[k] * (onehot(t) - probs[p])`` to
    row p, so a row's gradient is its weighted transition counts minus its
    total weight times its softmax row; rows no transition visits stay zero.
    The counts are added one transition at a time, in order, by
    ``np.add.at``. Unit weights give the gradient of one sequence's
    log-probability.
    """
    if not probs.flags.c_contiguous:
        raise ValueError("transition_grad writes over a C-contiguous table")
    probs *= -np.bincount(rows, weights, minlength=len(probs))[:, None]
    np.add.at(probs.reshape(-1), entries, weights)
    return probs


def check_decoding(max_len: int, temperature: float) -> None:
    """ValueError naming the argument unless ``max_len`` is an integer >= 1
    and ``temperature`` a finite number >= 0; a bool is neither."""
    check_value("max_len", "int", max_len, (">=", 1))
    check_value("temperature", "float", temperature, (">=", 0))


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
        if not all(isinstance(t, str) and t for t in tokens):
            raise ValueError("vocabulary tokens must be non-empty strings")
        self.tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from corpus tokens, sorted for determinism.
        A token that is not a string raises ValueError."""
        extra = set(tokens) - {BOS, EOS}
        if not all(isinstance(t, str) for t in extra):
            raise ValueError("vocabulary tokens must be non-empty strings")
        return cls((BOS, EOS, *sorted(extra)))

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise OutOfVocabularyError("token %r not in vocabulary" % token) from None

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.index(t) for t in tokens]

    def start(self, prompt: Sequence[str]) -> int:
        """Index the first response token conditions on: the prompt's last
        token, or BOS for an empty prompt. Every prompt token must be known."""
        prompt_idx = self.encode(prompt)
        return prompt_idx[-1] if prompt_idx else self._index[BOS]

    def __len__(self) -> int:
        return len(self.tokens)

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
        """Fresh policy: zero logits (uniform rows), or seeded Gaussian noise.
        A seed that is not an integer >= 0, or a ``noise_std`` that is not a
        finite number >= 0 (a bool is neither), raises ValueError."""
        check_seed(seed)
        check_value("noise_std", "float", noise_std, (">=", 0))
        logits = np.zeros((len(vocab), len(vocab)))
        if noise_std > 0.0:
            rng = np.random.default_rng(seed)
            logits = rng.normal(0.0, noise_std, size=logits.shape)
        return cls(vocab, logits)

    def transitions(
        self, prompt: Sequence[str], response: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(previous, next) token indices of each transition the response walks through."""
        path = np.array([self.vocab.start(prompt), *self.vocab.encode(response)], dtype=np.intp)
        return path[:-1], path[1:]

    def sequence_log_prob(self, prompt: Sequence[str], response: Sequence[str]) -> float:
        """log-probability of the response given the prompt.

        The first response token conditions on the last prompt token (BOS
        for an empty prompt); each later token conditions on its
        predecessor. The sum includes the terminal EOS transition when the
        response carries one; its terms are added in sequence order.
        """
        return float(sum(normalise(self.logits)[0][self.transitions(prompt, response)]))

    def sample_responses(
        self,
        prompts: Iterable[Sequence[str]],
        temperature: float,
        max_len: int,
        rng: np.random.Generator,
    ) -> list[list[str]]:
        """One response per prompt, in order, each drawn from
        softmax(logits[prev] / temperature) until EOS, which it ends with,
        or cut after ``max_len`` tokens.

        The temperature table is built once for all prompts, and the
        responses come from one ``draw`` of every prompt's start row: the
        responses and the generator's end state are those of one ``draw``
        per prompt, in order, from the same generator. Every prompt token
        must be known before any is drawn. Temperature 0 is greedy
        decoding: its table, the limit of the CDF rows, steps from 0 to 1
        at each row's first maximum, so every uniform in [0, 1) draws the
        row's ``np.argmax``, ties included.
        """
        check_decoding(max_len, temperature)
        if temperature > 0:
            _, cdf = sampling_tables(self.logits, temperature)
        else:
            cdf = (np.arange(len(self.logits)) >= self.logits.argmax(axis=1)[:, None]).astype(np.float64)
        starts = [self.vocab.start(prompt) for prompt in prompts]
        tokens = self.vocab.tokens
        return [[tokens[i] for i in path] for path in draw(cdf, starts, self.vocab.index(EOS), max_len, rng)]

    def snapshot(self) -> "BigramPolicy":
        """Deep, immutable copy; later edits to this policy do not leak in."""
        frozen = BigramPolicy(self.vocab, self.logits)
        frozen.logits.flags.writeable = False
        return frozen

    def copy(self) -> "BigramPolicy":
        return BigramPolicy(self.vocab, self.logits)

    def save(self, path: str | Path) -> Path:
        """Write a checkpoint: the logit table's row-major little-endian
        float64 bytes to ``table_path(path)``, then at ``path`` the header
        line ``json.dumps({"format_version": 3, "vocab": [...], "sha256":
        <the table's>}, ensure_ascii=False)``. Each file is replaced
        atomically, the table first, so a header never names a table that
        is not yet whole. The header's bytes do not depend on ``path``."""
        data = self.logits.astype("<f8").tobytes()
        write_atomic(table_path(path), data)
        header = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "vocab": list(self.vocab.tokens),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
        return write_atomic(path, json.dumps(header, ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "BigramPolicy":
        """Read a checkpoint of this format, whose table is read from
        ``table_path(path)``, beside the header whatever the working
        directory. A malformed one raises ``ValueError("<path>: ...")``: a
        header that is not UTF-8 JSON, another version (an older one
        included), a missing or extra key, a bad vocabulary, a table that
        cannot be read, holds other than 8·V² bytes or whose sha256 is not
        the header's, and a non-finite logit."""
        payload = read_json(path, ValueError, str(path))
        try:
            version = payload.get("format_version") if isinstance(payload, dict) else CHECKPOINT_FORMAT_VERSION
            if type(version) is not int or version != CHECKPOINT_FORMAT_VERSION:
                raise ValueError("unsupported checkpoint format version: %r" % version)
            if not isinstance(payload, dict) or payload.keys() != _CHECKPOINT_KEYS:
                found = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
                raise ValueError("checkpoint keys must be %s, got %s" % (sorted(_CHECKPOINT_KEYS), found))
            vocab = Vocabulary(payload["vocab"])
            try:
                data = table_path(path).read_bytes()
            except OSError as exc:
                raise ValueError("cannot read the logit table: %s" % exc) from None
            size = len(vocab)
            if len(data) != 8 * size * size:
                raise ValueError("logits hold %d bytes, expected %d" % (len(data), 8 * size * size))
            if hashlib.sha256(data).hexdigest() != payload["sha256"]:
                raise ValueError("logit table %s does not match the header's sha256" % table_path(path))
            return cls(vocab, np.frombuffer(data, dtype="<f8").reshape(size, size))
        except (TypeError, ValueError) as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
