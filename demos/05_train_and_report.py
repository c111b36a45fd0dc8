# End to end in one script: forge the toy corpus, train every loss mode
# through the curriculum in one lockstep `train_modes` call, as
# `hindpo demo` does, and print the comparison table.

from hindpo import (
    BigramPolicy,
    LossConfig,
    TrainConfig,
    encode_examples,
    evaluate,
    generate,
    loss_gradient,
    report_table,
    toy_corpus,
    train_modes,
    vocab_from_pairs,
)
from hindpo.dataforge import forge
from hindpo.trainer import encode_pairs

SEED = 7

result = forge(toy_corpus(), seed=SEED)
pairs = result.curriculum.all_pairs() + result.val_pairs + result.test_pairs
vocab = vocab_from_pairs(pairs)
base = BigramPolicy.new(vocab, seed=SEED, noise_std=0.01)
print("vocabulary: %d tokens; stages: %s" % (
    len(vocab), [(name, len(p)) for name, p in result.curriculum.stages]))

held_out = {}
for pair in result.test_pairs:
    held_out.setdefault(pair.article_id, (pair.prompt, pair.preferred))
prompts = [held_out[a][0] for a in sorted(held_out)]
references = [held_out[a][1] for a in sorted(held_out)]

reports = [evaluate(generate(base, prompts, seed=SEED), references, "base")]
modes = ("dpo", "dpo_act", "dpo_fin", "hin_dpo")
config = TrainConfig(epochs_per_stage=10, batch_size=2, seed=SEED)
runs = train_modes(result.curriculum, base, config, modes)
examples = encode_pairs(result.curriculum.all_pairs())
for mode, (trained, log) in zip(modes, runs):
    step = loss_gradient(encode_examples(examples, trained, base.snapshot()), trained, LossConfig(mode=mode))
    print("%-8s  %d steps  final margin %6.2f  preference accuracy %.2f"
          % (mode, len(log.records), step.margin, step.accuracy))
    reports.append(evaluate(generate(trained, prompts, seed=SEED), references, mode))

print()
print(report_table(reports))
print("sample generation (hin_dpo):")
print(" ", generate(runs[-1][0], prompts[:1], seed=SEED)[0])
