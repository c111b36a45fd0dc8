# The four loss modes side by side, and how the finesse variance rescales
# a fixed preference margin.

import numpy as np

from hindpo import (
    EOS,
    BigramPolicy,
    LogRatios,
    LossConfig,
    LossExample,
    Vocabulary,
    compute_finesse,
    encode_examples,
    hin_dpo_loss,
    loss_gradient,
    preference_score,
)

ratios = LogRatios(preferred=0.8, rejected=-0.4)
s_w, s_l, v = 0.9, 0.2, 0.1

print("log ratios: preferred %.2f, rejected %.2f" % (ratios.preferred, ratios.rejected))
print("actuality weights: s_w %.2f, s_l %.2f; effective variance %.2f\n" % (s_w, s_l, v))
for mode in ("dpo", "dpo_act", "dpo_fin", "hin_dpo"):
    config = LossConfig(mode=mode)
    score = preference_score(ratios, s_w, s_l, v, config)
    loss = hin_dpo_loss(score, config.beta)
    print("%-8s  score %8.3f   loss %.4f" % (mode, score, loss))

print("\nfixed positive margin, shrinking variance amplifies it:")
config = LossConfig(mode="hin_dpo")
for variance in (1.0, 0.5, 0.1, 0.0):
    loss = hin_dpo_loss(preference_score(ratios, s_w, s_l, variance, config), config.beta)
    print("  v_effective %.2f -> loss %.4f" % (variance, loss))

# gradients flow through the policy only; the variance is a constant input
vocab = Vocabulary.from_tokens(["p", "a", "b"])
rng = np.random.default_rng(1)
policy = BigramPolicy(vocab, rng.normal(0, 0.5, (len(vocab), len(vocab))))
reference = policy.snapshot()
example = LossExample(
    prompt=["p"], preferred=["a", EOS], rejected=["b", EOS],
    preferred_actuality=s_w, rejected_actuality=s_l, effective_variance=v,
)
step = loss_gradient(encode_examples([example], policy, reference), policy, config)
print("\nbatch loss %.4f, gradient norm %.4f, weighted margin beta*S %.4f"
      % (step.loss, np.linalg.norm(step.gradient), step.weighted_margin))

[estimate] = compute_finesse(policy, [["p"]], config, np.random.default_rng(7))
print("finesse estimate for prompt 'p': variance %.5f, effective %.5f"
      % (estimate.variance, estimate.effective))
