# The bigram policy: exact sequence log-probabilities, analytic gradients,
# temperature sampling, and frozen reference snapshots.

import numpy as np

from hindpo import EOS, BigramPolicy, Vocabulary
from hindpo.policy import normalise, transition_grad

vocab = Vocabulary.from_tokens(["खबर", "सच", "झूठ"])
print("vocabulary:", vocab.tokens)

policy = BigramPolicy.new(vocab)  # zero logits: uniform next-token rows
response = ["सच", EOS]
print("uniform log prob of 2 tokens:", policy.sequence_log_prob(["खबर"], response))
print("  (= 2 * ln(1/%d) = %.4f)" % (len(vocab), 2 * np.log(1 / len(vocab))))

# d(log prob)/d(logits): each transition's one-hot minus its row's softmax
rows, cols = policy.transitions(["खबर"], response)
grad = transition_grad(normalise(policy.logits)[1], rows, rows * len(vocab) + cols, np.ones(len(rows)))
print("gradient touches rows:", [vocab.tokens[i] for i in np.flatnonzero(np.abs(grad).sum(axis=1))])

# sharpen one transition and watch sampling follow it
policy.logits[vocab.index("खबर"), vocab.index("सच")] = 3.0
rng = np.random.default_rng(0)
for temperature in (0.5, 1.0, 2.0):
    samples = [" ".join(r) for r in policy.sample_responses([["खबर"]] * 5, temperature, 4, rng)]
    print("T=%.1f samples:" % temperature, samples)
# temperature 0 is greedy decoding: every draw takes its row's argmax
print("greedy:", policy.sample_responses([["खबर"]], 0, 4, rng)[0])

# a snapshot is immutable and unaffected by further training steps
frozen = policy.snapshot()
policy.logits[vocab.index("खबर"), vocab.index("सच")] = -3.0
print("\nlive policy moved; snapshot log prob unchanged:",
      frozen.sequence_log_prob(["खबर"], response))
try:
    frozen.logits[0, 0] = 1.0
except ValueError as exc:
    print("writing to a snapshot raises:", exc)
