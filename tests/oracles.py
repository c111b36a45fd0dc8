"""Independent reference implementations the tests check against.

Each oracle deliberately avoids the code path of the implementation it
verifies: brute-force enumeration instead of dynamic programming, explicit
softmax materialization instead of log-space tables, two-pass instead of
running statistics, finite differences instead of analytic gradients.
Some keep an earlier implementation of a rewritten hot path, so the
rewrite can be shown to agree with it.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from itertools import combinations

import numpy as np

from hindpo.losses import TIE_TOLERANCE


def tokenize_loop(text: str) -> list[str]:
    """The earlier tokenizer: one pass over the NFC characters that cuts a
    token at whitespace or any punctuation class and lowercases Latin
    letters one character at a time."""
    tokens: list[str] = []
    current: list[str] = []
    for ch in unicodedata.normalize("NFC", text):
        if ch.isspace() or unicodedata.category(ch).startswith("P"):
            if current:
                tokens.append("".join(current))
                current = []
        elif "LATIN" in unicodedata.name(ch, ""):
            current.append(ch.lower())
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


def is_subsequence(sub, seq) -> bool:
    it = iter(seq)
    return all(tok in it for tok in sub)


def lcs_brute(a, b) -> int:
    """Longest common subsequence by enumerating subsequences of a."""
    for length in range(min(len(a), len(b)), 0, -1):
        for positions in combinations(range(len(a)), length):
            if is_subsequence([a[i] for i in positions], b):
                return length
    return 0


def lcs_dp(a, b) -> int:
    """The earlier LCS: the row-rolling O(len(a) * len(b)) dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        row = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                row.append(prev[j - 1] + 1)
            else:
                row.append(max(prev[j], row[j - 1]))
        prev = row
    return prev[-1]


def rouge_l_f1_brute(cand, ref) -> float:
    lcs = lcs_brute(cand, ref)
    p = lcs / len(cand) if cand else 0.0
    r = lcs / len(ref) if ref else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def trigram_cosine(cand: str, ref: str) -> float:
    """The earlier character-trigram cosine, both profiles built per call."""
    cand = unicodedata.normalize("NFC", cand)
    ref = unicodedata.normalize("NFC", ref)
    if cand and cand == ref:
        return 1.0
    vc = Counter(cand[i : i + 3] for i in range(len(cand) - 2))
    vr = Counter(ref[i : i + 3] for i in range(len(ref) - 2))
    if not vc or not vr:
        return 0.0
    dot = sum(count * vr[gram] for gram, count in vc.items())
    norm = math.sqrt(sum(c * c for c in vc.values())) * math.sqrt(sum(c * c for c in vr.values()))
    return min(dot / norm, 1.0)


def trigram_profile_cosine(cand: str, ref: str) -> float:
    """The earlier integer-coded trigram cosine: each string's sorted
    distinct trigram keys and counts from its own ``np.unique``, the dot
    product gathered by binary search."""

    def profile(nfc):
        codes = np.frombuffer(nfc.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).astype(np.int64)
        keys, counts = np.unique(codes[:-2] << 42 | codes[1:-1] << 21 | codes[2:], return_counts=True)
        return keys, counts, math.sqrt(int(counts @ counts))

    cand = unicodedata.normalize("NFC", cand)
    ref = unicodedata.normalize("NFC", ref)
    if cand and cand == ref:
        return 1.0
    (keys, counts, norm), (ref_keys, ref_counts, ref_norm) = profile(cand), profile(ref)
    if not len(keys) or not len(ref_keys):
        return 0.0
    at = np.searchsorted(ref_keys, keys)
    at[at == len(ref_keys)] = 0
    shared = ref_keys[at] == keys
    dot = int(counts[shared] @ ref_counts[at[shared]])
    return min(dot / (norm * ref_norm), 1.0)


def batched(score):
    """A ``(cand, ref) -> float`` scorer as a ``(candidates, ref) -> list``
    one, scoring the candidates one call each."""
    return lambda cands, ref: [score(cand, ref) for cand in cands]


def ngram_overlap_brute(cand, ref, n) -> int:
    """Multiset n-gram intersection by copy-and-remove."""
    remaining = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    overlap = 0
    for i in range(len(cand) - n + 1):
        gram = tuple(cand[i : i + n])
        if gram in remaining:
            remaining.remove(gram)
            overlap += 1
    return overlap


def stack_alignment(cand, ref) -> list[tuple[int, int]]:
    """The earlier greedy METEOR alignment: per-token stacks of free
    reference positions (smallest on top), rebuilt per call, each match
    popping the top of its token's stack."""
    free = {}
    for rj in range(len(ref) - 1, -1, -1):
        free.setdefault(ref[rj], []).append(rj)
    return [(ci, free[token].pop()) for ci, token in enumerate(cand) if free.get(token)]


def alignment_counts(cand, ref) -> tuple[int, int]:
    """(matches, chunks) of the stack alignment, a chunk being a maximal
    run of matches contiguous in both sequences."""
    pairs = stack_alignment(cand, ref)
    chunks = sum(1 for i, (ci, rj) in enumerate(pairs) if i == 0 or pairs[i - 1] != (ci - 1, rj - 1))
    return len(pairs), chunks


def meteor_reference(cand, ref) -> float:
    """Straight-line reimplementation of the exact-match METEOR formula."""
    matches = []
    taken = set()
    for ci in range(len(cand)):
        for rj in range(len(ref)):
            if rj not in taken and cand[ci] == ref[rj]:
                taken.add(rj)
                matches.append((ci, rj))
                break
    if not matches:
        return 0.0
    m = len(matches)
    p = m / len(cand)
    r = m / len(ref)
    fmean = 10 * p * r / (r + 9 * p)
    chunks = 0
    prev = None
    for pair in matches:
        if prev is None or pair != (prev[0] + 1, prev[1] + 1):
            chunks += 1
        prev = pair
    return fmean * (1 - 0.5 * (chunks / m) ** 3)


def sequence_prob_oracle(logits, vocab_tokens, prompt, response) -> float:
    """Probability of a response by materializing each softmax row."""
    index = {t: i for i, t in enumerate(vocab_tokens)}
    prev = index[prompt[-1]] if prompt else index["<bos>"]
    prob = 1.0
    for token in response:
        row = np.exp(logits[prev])
        row = row / row.sum()
        prob *= row[index[token]]
        prev = index[token]
    return prob


def two_pass_variance(values) -> float:
    """Sample variance via exact summation, two passes."""
    n = len(values)
    mean = math.fsum(values) / n
    return math.fsum((v - mean) ** 2 for v in values) / (n - 1)


def finite_difference_gradient(loss_fn, logits, h=1e-5) -> np.ndarray:
    """Central differences of a scalar function of the logit table."""
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            original = logits[i, j]
            logits[i, j] = original + h
            plus = loss_fn()
            logits[i, j] = original - h
            minus = loss_fn()
            logits[i, j] = original
            grad[i, j] = (plus - minus) / (2 * h)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def chi_square_pvalue(observed, expected) -> float:
    """Pearson goodness-of-fit p-value with k = len(observed) - 1 degrees of
    freedom: the regularized upper incomplete gamma Q(k / 2, y), y = x / 2,
    in closed form. For even k it is e^-y * sum_{i < k/2} y^i / i!; for odd
    k, erfc(sqrt(y)) + e^-y * sum_{1 <= i <= (k-1)/2} y^(i-1/2) / Gamma(i+1/2)."""
    statistic = float(np.sum((np.asarray(observed) - expected) ** 2 / expected))
    dof = len(observed) - 1
    y = statistic / 2
    if dof % 2 == 0:
        term, terms = 1.0, [1.0]
        for i in range(1, dof // 2):
            term *= y / i
            terms.append(term)
        return math.exp(-y) * math.fsum(terms)
    term, terms = 2 * math.sqrt(y / math.pi), []  # y^(1/2) / Gamma(3/2)
    for i in range(1, (dof + 1) // 2):
        terms.append(term)
        term *= y / (i + 0.5)
    return math.erfc(math.sqrt(y)) + math.exp(-y) * math.fsum(terms)


# Per-pair preference loss: every sequence scored by its own call into the
# policy (each renormalising the whole table), the weights written out from
# the loss definition, and 1 - sigma(u) taken as exp(-softplus(u)).


def log_ratios(policy, reference, example) -> tuple[float, float]:
    """(r_w, r_l): policy-vs-reference log-probability ratios of one pair."""
    return (
        policy.sequence_log_prob(example.prompt, example.preferred)
        - reference.sequence_log_prob(example.prompt, example.preferred),
        policy.sequence_log_prob(example.prompt, example.rejected)
        - reference.sequence_log_prob(example.prompt, example.rejected),
    )


def pair_weights(example, config) -> tuple[float, float, float]:
    """(m_w, m_l, mult) of one pair under the config's loss mode."""
    actuality = config.mode in ("dpo_act", "hin_dpo")
    finesse = config.mode in ("dpo_fin", "hin_dpo")
    m_w = 1.0 + example.preferred_actuality if actuality else 1.0
    m_l = max(0.01, example.rejected_actuality) if actuality else 1.0
    mult = min(1.0 / (example.effective_variance + config.epsilon), config.scale_cap) if finesse else 1.0
    return m_w, m_l, mult


def sigmoid_argument(policy, reference, example, config) -> float:
    """u = beta * S for one pair."""
    r_w, r_l = log_ratios(policy, reference, example)
    m_w, m_l, mult = pair_weights(example, config)
    return config.beta * (m_w * r_w - m_l * r_l) * mult


def batch_loss(examples, policy, reference, config) -> float:
    """Mean of softplus(-u) over the batch."""
    total = sum(float(np.logaddexp(0.0, -sigmoid_argument(policy, reference, e, config))) for e in examples)
    return total / len(examples)


def transition_grad(probs, rows, cols, weights):
    """``policy.transition_grad`` as it was before it took each transition's
    flat entry: the counts added at the (row, col) pairs by ``np.add.at``."""
    probs *= -np.bincount(rows, weights, minlength=len(probs))[:, None]
    np.add.at(probs, (rows, cols), weights)
    return probs


def grad_sequence_log_prob(policy, prompt, response) -> np.ndarray:
    """d(policy.sequence_log_prob(prompt, response))/d(logits), same shape as the logit table."""
    from hindpo.policy import normalise

    rows, cols = policy.transitions(prompt, response)
    return transition_grad(normalise(policy.logits)[1], rows, cols, np.ones(len(rows)))


def loss_gradient(examples, policy, reference, config) -> tuple[np.ndarray, float]:
    """(gradient of the mean loss w.r.t. the policy logits, mean loss)."""
    grad = np.zeros_like(policy.logits)
    total = 0.0
    for example in examples:
        m_w, m_l, mult = pair_weights(example, config)
        u = sigmoid_argument(policy, reference, example, config)
        coeff = config.beta * mult * math.exp(-float(np.logaddexp(0.0, u)))
        grad -= coeff * m_w * grad_sequence_log_prob(policy, example.prompt, example.preferred)
        grad += coeff * m_l * grad_sequence_log_prob(policy, example.prompt, example.rejected)
        total += float(np.logaddexp(0.0, -u))
    return grad / len(examples), total / len(examples)


def preference_stats(policy, reference, examples, beta) -> tuple[float, float]:
    """(mean raw margin beta * (r_w - r_l), fraction of pairs with
    r_w - r_l > TIE_TOLERANCE)."""
    ratios = [log_ratios(policy, reference, e) for e in examples]
    margin = math.fsum(beta * (r_w - r_l) for r_w, r_l in ratios) / len(examples)
    return margin, sum(r_w - r_l > TIE_TOLERANCE for r_w, r_l in ratios) / len(examples)


def weighted_margin_stats(policy, reference, examples, config) -> tuple[float, float]:
    """(mean u = beta * S, fraction of pairs with r_w - r_l > TIE_TOLERANCE)."""
    arguments = [sigmoid_argument(policy, reference, e, config) for e in examples]
    _, accuracy = preference_stats(policy, reference, examples, config.beta)
    return math.fsum(arguments) / len(examples), accuracy


# Per-token sampling and per-prompt finesse: the temperature table divided
# out on every call, one softmax row and one rng.choice per drawn token, and
# the drawn tokens encoded again to be scored; greedy decoding as one argmax
# per token.


def softmax(x):
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(x):
    t = x - np.max(x, axis=-1, keepdims=True)
    return t - np.log(np.sum(np.exp(t), axis=-1, keepdims=True))


def sample_response(policy, prompt, temperature, max_len, rng) -> list[str]:
    """Tokens drawn from softmax(logits[prev] / temperature) until EOS or max_len."""
    scaled = policy.logits / temperature
    prompt_idx = policy.vocab.encode(prompt)
    prev = prompt_idx[-1] if prompt_idx else policy.vocab.index("<bos>")
    eos = policy.vocab.index("<eos>")
    out = []
    for _ in range(max_len):
        row = softmax(scaled[prev])
        nxt = int(rng.choice(len(row), p=row))
        out.append(policy.vocab.tokens[nxt])
        if nxt == eos:
            break
        prev = nxt
    return out


def draw_per_start(cdf, starts, eos, max_len, rng) -> list[list[int]]:
    """``policy.draw`` called once per start row, in order, on one
    generator: the calls one multi-start ``draw`` replaced."""
    from hindpo.policy import draw

    return [path for start in starts for path in draw(cdf, [start], eos, max_len, rng)]


def greedy_response(policy, prompt, max_len) -> list[str]:
    """Argmax decoding, one ``np.argmax`` per token, until EOS or max_len."""
    prompt_idx = policy.vocab.encode(prompt)
    prev = prompt_idx[-1] if prompt_idx else policy.vocab.index("<bos>")
    eos = policy.vocab.index("<eos>")
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(policy.logits[prev]))
        out.append(policy.vocab.tokens[nxt])
        if nxt == eos:
            break
        prev = nxt
    return out


def compute_finesse(policy, prompt, config, rng):
    """The FinesseEstimate of one prompt, from responses drawn by
    ``sample_response`` and scored under the temperature-scaled table."""
    from hindpo.losses import VARIANCE_NORMALIZER, FinesseEstimate
    from hindpo.welford import Welford

    scaled = log_softmax(policy.logits / config.finesse_temperature)
    stats = Welford()
    for _ in range(config.finesse_samples):
        response = sample_response(policy, prompt, config.finesse_temperature, config.finesse_max_len, rng)
        log_prob = float(sum(scaled[policy.transitions(prompt, response)]))
        stats.update(float(np.exp(log_prob / len(response))))
    variance = stats.variance
    effective = min(variance / VARIANCE_NORMALIZER, 1.0)
    return FinesseEstimate(variance=variance, effective=effective)


# The per-step train path before batches were planned once per epoch: each
# step gathers its pairs from the stage encoding, finds its visited rows
# with its own np.unique, recomputes the mode weights and takes its
# statistics with np.mean and its gradient norm with ``grad_norm``.


def take(encoded, pairs):
    """The pairs of an ``EncodedPairs`` at the given positions, in that
    order (repeats allowed), as another ``EncodedPairs``."""
    from hindpo.losses import EncodedPairs

    pairs = np.asarray(pairs, dtype=np.intp)
    seqs = (2 * pairs[:, None] + np.arange(2)).ravel()
    lengths = encoded.lengths[seqs]
    starts = (np.cumsum(encoded.lengths) - encoded.lengths)[seqs]
    offsets = np.cumsum(lengths) - lengths
    picked = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
    return EncodedPairs(
        encoded.vocab, encoded.rows[picked], encoded.cols[picked], lengths,
        encoded.reference[:, pairs], encoded.factors[:, pairs],
    )


def per_step_loss_gradient(batch, policy, config):
    """The ``LossStep`` of an ``EncodedPairs`` batch, everything computed in
    the step."""
    from hindpo.losses import LossStep, hin_dpo_loss
    from hindpo.policy import normalise

    n = len(batch)
    owner = np.repeat(np.arange(2 * n), batch.lengths)
    visited, local = np.unique(batch.rows, return_inverse=True)
    log_probs, probs = normalise(policy.logits[visited])
    sequence_log_probs = np.bincount(owner, log_probs[local, batch.cols], minlength=2 * n)
    r_w, r_l = (sequence_log_probs.reshape(-1, 2) - batch.reference[0]).T
    s_w, s_l, v = batch.factors[0].T
    if config.mode in ("dpo_act", "hin_dpo"):
        m_w = 1.0 + s_w
        m_l = np.maximum(0.01, s_l)
    else:
        m_w, m_l = 1.0, 1.0
    mult = np.minimum(1.0 / (v + config.epsilon), config.scale_cap) if config.mode in ("dpo_fin", "hin_dpo") else 1.0
    score = (m_w * r_w - m_l * r_l) * mult
    u = config.beta * score
    with np.errstate(over="ignore"):
        coeff = config.beta * mult / (1.0 + np.exp(u))
    side = np.stack([-coeff * m_w, coeff * m_l], axis=1).ravel()
    return LossStep(
        rows=visited,
        gradient=transition_grad(probs, local, batch.cols, side[owner]) / n,
        loss=float(np.mean(hin_dpo_loss(score, config.beta))),
        margin=float(np.mean(config.beta * (r_w - r_l))),
        weighted_margin=float(np.mean(u)),
        accuracy=float(np.mean(r_w - r_l > TIE_TOLERANCE)),
    )


def one_run_step(plan, b, logits):
    """The ``LossStep`` of batch b of a one-run ``EpochPlan`` stepped on
    ``logits``: ``loss_steps``' values for its one run."""
    from hindpo.losses import LossStep, loss_steps

    _, gradient = loss_steps(plan, b, logits)
    loss, margin, accuracy, weighted_margin, _ = plan.stats[b, :, 0].tolist()
    return LossStep(plan.rows_of(b), gradient, loss, margin, weighted_margin, accuracy)


def grad_norm(gradient) -> float:
    """The logged Frobenius norm of one run's gradient rows: the squares
    summed per row, the row sums summed by ``np.add.reduceat``, then the
    square root."""
    return math.sqrt(np.add.reduceat((gradient * gradient).sum(axis=1), [0])[0])


# The epoch planner before its plan was laid out batch-major: run-major
# arrays, one object per batch holding its own copies of the transition
# arrays. ``batch_arrays`` cuts the same arrays from an ``EpochPlan``.


def run_major_plan(encoded, order, batch_size, configs):
    """The batches of one epoch of K runs in one batch order, each a
    namespace of the arrays ``batch_arrays`` gives."""
    from types import SimpleNamespace

    order = np.asarray(order, dtype=np.intp)
    count = len(configs)
    seqs = (2 * order[:, None] + np.arange(2)).ravel()
    lengths = encoded.lengths[seqs]
    starts = (np.cumsum(encoded.lengths) - encoded.lengths)[seqs]
    ends = np.cumsum(lengths)
    picked = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    batch_of, owner = np.divmod(np.repeat(np.arange(2 * len(order)), lengths), 2 * batch_size)
    vocab_size, batches = len(encoded.vocab), -(-len(order) // batch_size)
    keys, inverse = np.unique(batch_of * vocab_size + encoded.rows[picked], return_inverse=True)
    batch_keys = np.searchsorted(keys, np.arange(batches + 1) * vocab_size)
    visited = np.diff(batch_keys)
    pairs = np.minimum(batch_size, len(order) - batch_size * np.arange(batches))
    run = np.arange(count)[:, None]
    rows = keys % vocab_size + run * vocab_size
    local = inverse - batch_keys[batch_of] + run * visited[batch_of]
    flat = local * vocab_size + encoded.cols[picked]
    owner = owner + run * (2 * pairs)[batch_of]
    blocks = run.T * visited[:, None]
    table = np.empty((count, len(order), 3))
    for k, config in enumerate(configs):
        s_w, s_l, v = encoded.factors[k, order].T
        acting, finesse = config.mode in ("dpo_act", "hin_dpo"), config.mode in ("dpo_fin", "hin_dpo")
        table[k, :, 0] = 1.0 + s_w if acting else 1.0
        table[k, :, 1] = np.maximum(0.01, s_l) if acting else 1.0
        table[k, :, 2] = np.minimum(1.0 / (v + config.epsilon), config.scale_cap) if finesse else 1.0
    reference, beta = encoded.reference[:, order], np.array([[config.beta] for config in configs])
    with np.errstate(over="ignore", invalid="ignore"):
        beta_mult = beta * table[:, :, 2]
    step_bounds = np.searchsorted(batch_of, np.arange(batches + 1))
    out = []
    for b in range(batches):
        keyed, steps = slice(*batch_keys[b : b + 2]), slice(*step_bounds[b : b + 2])
        cut = slice(b * batch_size, (b + 1) * batch_size)
        out.append(
            SimpleNamespace(
                rows=rows[:, keyed].ravel(), blocks=blocks[b], local=local[:, steps].ravel(),
                flat=flat[:, steps].ravel(), owner=owner[:, steps].ravel(), reference=reference[:, cut],
                weights=table[:, cut, :2], signed=table[:, cut, :2] * (-1.0, 1.0), mult=table[:, cut, 2],
                beta=beta, beta_mult=beta_mult[:, cut],
            )
        )
    return out


def batch_arrays(plan, b):
    """Batch b of an ``EpochPlan`` as the namespace of arrays one batch of
    ``run_major_plan`` holds: its slice of every plan array."""
    from types import SimpleNamespace

    steps = slice(*plan.step_bounds[b : b + 2])
    cut = slice(b * plan.batch_size, (b + 1) * plan.batch_size)
    return SimpleNamespace(
        rows=plan.rows_of(b), blocks=plan.blocks[b], local=plan.local[steps], flat=plan.flat[steps],
        owner=plan.owner[steps], reference=plan.reference[:, cut], weights=plan.weights[:, cut],
        signed=plan.signed[:, cut], mult=plan.mult[:, cut], beta=plan.beta, beta_mult=plan.beta_mult[:, cut],
    )


# The train step before it was fused: the visited rows normalised into a
# full log-softmax table and a softmax table, the transition terms gathered
# from the former, the gradient taken by ``transition_grad`` on a fresh
# softmax table and divided by m into another array, and the update applied
# to a second gather of the visited rows.


def unfused_step(plan, b, logits, learning_rate):
    """(gradient, updated visited rows, [loss, margin, accuracy, weighted
    margin, gradient norm] each as one value per run) of batch b of an
    ``EpochPlan`` stepped on the stacked ``logits``."""
    from hindpo.losses import hin_dpo_loss
    from hindpo.policy import normalise

    batch = batch_arrays(plan, b)
    runs, m = batch.reference.shape[:2]
    cols = batch.flat - batch.local * logits.shape[1]
    log_probs, probs = normalise(logits[batch.rows])
    sequence_log_probs = np.bincount(batch.owner, log_probs[batch.local, cols], minlength=2 * runs * m)
    ratios = sequence_log_probs.reshape(runs, m, 2) - batch.reference
    r_w, r_l = ratios[:, :, 0], ratios[:, :, 1]
    score = (batch.weights[:, :, 0] * r_w - batch.weights[:, :, 1] * r_l) * batch.mult
    diff = r_w - r_l
    with np.errstate(over="ignore", invalid="ignore"):
        u = batch.beta * score
        coeff = batch.beta * batch.mult / (1.0 + np.exp(u))
        per_pair = np.array([hin_dpo_loss(score, batch.beta), batch.beta * diff, diff > TIE_TOLERANCE, u])
        stats = (np.add.reduce(per_pair, axis=2) / m).tolist()
        side = (coeff[:, :, None] * (batch.weights * (-1.0, 1.0))).ravel()
        gradient = transition_grad(probs, batch.local, cols, side[batch.owner]) / m
        updated = logits[batch.rows] - learning_rate * gradient
    stats.append([grad_norm(block) for block in np.split(gradient, runs)])
    return gradient, updated, stats


def train_generators(seed):
    """(order, finesse) generators of a run trained with ``seed``: every
    epoch's permutation comes from the first, a finesse run's samples from
    the second, both kept across stages."""
    return np.random.default_rng(seed), np.random.default_rng([seed, 1])


def per_step_train(curriculum, policy, config):
    """``trainer.train`` with every batch taken and stepped on its own:
    (policy, TrainLog)."""
    from hindpo.losses import encode_examples
    from hindpo.trainer import TrainLog, TrainStepRecord, attach_finesse, encode_pairs

    policy.logits = np.array(policy.logits)
    order_rng, finesse_rng = train_generators(config.seed)
    reference = policy.snapshot()
    log = TrainLog()
    step = 0
    for stage_name, pairs in curriculum.stages:
        examples = encode_pairs(pairs)
        if config.loss.uses_finesse():
            attach_finesse(examples, policy, config.loss, finesse_rng)
        encoded = encode_examples(examples, policy, reference)
        for epoch in range(1, config.epochs_per_stage + 1):
            order = order_rng.permutation(len(encoded))
            for start in range(0, len(order), config.batch_size):
                result = per_step_loss_gradient(take(encoded, order[start : start + config.batch_size]), policy, config.loss)
                policy.logits[result.rows] = policy.logits[result.rows] - config.learning_rate * result.gradient
                step += 1
                log.records.append(
                    TrainStepRecord(
                        stage_name, epoch, step, result.loss, result.margin, result.accuracy,
                        result.weighted_margin, grad_norm(result.gradient),
                    )
                )
        if config.refresh_reference_per_stage:
            reference = policy.snapshot()
    return policy, log


# The train-log line as written before records went through one template:
# one json.dumps per record.


def trainlog_line(record) -> str:
    """A train-log record's JSONL line."""
    return json.dumps(vars(record), ensure_ascii=False) + "\n"


# The step's and the stage encoding's softmax before each row's maximum was
# read at its argmax: the maximum taken by ``np.maximum.reduce`` along the
# row, as ``policy.normalise`` still takes it.


def reduce_row_max(x):
    """Each row's maximum as a column, by the axis-1 reduction."""
    return np.maximum.reduce(x, axis=1, keepdims=True)


def loss_steps_reduce(plan, b, logits):
    """``loss_steps`` of batch b of ``plan`` with each visited row's
    maximum taken by the reduction: (visited, gradient), the statistics
    written into ``plan.stats[b]``."""
    from hindpo.policy import transition_grad as fused_transition_grad

    steps = slice(*plan.step_bounds[b : b + 2])
    local, flat, owner = plan.local[steps], plan.flat[steps], plan.owner[steps]
    pairs = slice(b * plan.batch_size, (b + 1) * plan.batch_size)
    reference = plan.reference[:, pairs]
    runs, m = reference.shape[:2]
    visited = logits.take(plan.rows_of(b), axis=0)
    probs = visited - reduce_row_max(visited)
    entries = probs.reshape(-1)
    shifted = entries.take(flat)
    np.exp(probs, out=probs)
    total = np.add.reduce(probs, axis=1, keepdims=True)
    terms = shifted - np.log(total).take(local)
    probs /= total
    sequence_log_probs = np.bincount(owner, terms, minlength=2 * runs * m)
    ratios = sequence_log_probs.reshape(runs, m, 2) - reference
    weighted = plan.weights[:, pairs] * ratios
    score = (weighted[:, :, 0] - weighted[:, :, 1]) * plan.mult[:, pairs]
    diff = ratios[:, :, 0] - ratios[:, :, 1]
    stats = plan.stats[b]
    per_pair = np.empty((4, runs, m))
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.multiply(plan.beta, score, out=per_pair[3])
        np.logaddexp(0.0, -u, out=per_pair[0])
        np.multiply(plan.beta, diff, out=per_pair[1])
        np.greater(diff, TIE_TOLERANCE, out=per_pair[2])
        np.divide(np.add.reduce(per_pair, axis=2), m, out=stats[:4])
        coeff = plan.beta_mult[:, pairs] / (1.0 + np.exp(u))
        side = (coeff[:, :, None] * plan.signed[:, pairs]).ravel()
        gradient = fused_transition_grad(probs, local, flat, side.take(owner))
        gradient /= m
        row_norms = np.add.reduce(gradient * gradient, axis=1)
        np.sqrt(np.add.reduceat(row_norms, plan.blocks[b]), out=stats[4])
    return visited, gradient


def reference_scores_reduce(encoded, references):
    """``encode_runs``' (K, n, 2) sequence reference log-probabilities of
    ``encoded``'s transitions under the stacked ``references``, each
    visited row's maximum taken by the reduction."""
    count, sequences = len(references) // len(encoded.vocab), len(encoded.lengths)
    stacked = (encoded.rows + len(encoded.vocab) * np.arange(count)[:, None]).ravel()
    seen = np.zeros(len(references), dtype=bool)
    seen[stacked] = True
    gathered = references[seen]
    local = (np.cumsum(seen) - 1)[stacked]
    shifted = gathered - reduce_row_max(gathered)
    log_totals = np.log(np.add.reduce(np.exp(shifted), axis=1))
    terms = shifted[local, np.tile(encoded.cols, count)] - log_totals[local]
    owner = np.repeat(np.arange(count * sequences), np.tile(encoded.lengths, count))
    return np.bincount(owner, terms, minlength=count * sequences).reshape(count, -1, 2)


# Tokenizing before each call kept a text -> tokens table: one tokenize
# call per text of every pair.


def encode_pairs_per_pair(pairs):
    """``trainer.encode_pairs`` with every text of every pair tokenized."""
    from hindpo.losses import LossExample
    from hindpo.policy import EOS
    from hindpo.textmetrics import tokenize

    return [
        LossExample(
            prompt=tokenize(pair.prompt),
            preferred=tokenize(pair.preferred) + [EOS],
            rejected=tokenize(pair.rejected) + [EOS],
            preferred_actuality=0.0 if pair.s_w is None else pair.s_w,
            rejected_actuality=1.0 if pair.s_l is None else pair.s_l,
        )
        for pair in pairs
    ]


def vocab_per_pair(pairs):
    """``trainer.vocab_from_pairs`` with every text of every pair tokenized."""
    from hindpo.policy import Vocabulary
    from hindpo.textmetrics import tokenize

    tokens = set()
    for pair in pairs:
        tokens.update(tokenize(pair.prompt))
        tokens.update(tokenize(pair.preferred))
        tokens.update(tokenize(pair.rejected))
    return Vocabulary.from_tokens(tokens)


# Eval before one pass scored every config: each config evaluated alone,
# every text of every pair tokenized and counted again, the semantic scorer
# called once per pair with a one-candidate batch.


def evaluate_per_config(outputs, references, semantic=None):
    """``evalharness.evaluate_configs`` as one per-pair loop per config."""
    from hindpo.evalharness import MetricReport
    from hindpo.textmetrics import rouge_l_and_meteor, rouge_n, semantic_scores, tokenize

    reports = []
    for name, generated in outputs.items():
        rows = []
        for i, (cand_text, ref_text) in enumerate(zip(generated, references)):
            cand = tokenize(cand_text)
            ref = tokenize(ref_text)
            rl, mt = rouge_l_and_meteor(cand, ref)
            rows.append(
                (
                    rouge_n(cand, ref, 1).f1,
                    rouge_n(cand, ref, 2).f1,
                    rl.f1,
                    mt,
                    *semantic_scores(semantic, [cand_text], ref_text, "pair %d" % i),
                )
            )
        reports.append(MetricReport(name, *[float(np.mean(col)) for col in zip(*rows)]))
    return reports
