"""Preference-optimization engine with actuality/finesse-weighted losses.

Library tour:

- :mod:`hindpo.textmetrics` tokenization, ROUGE-N, ROUGE-L and METEOR
  (``rouge_l_and_meteor`` gives both from one walk of a candidate),
  ``char_trigram_cosine`` (the default semantic scorer; ``forge``,
  ``score_and_rank``, ``evaluate`` and ``evaluate_configs`` take any
  ``(candidates, reference) -> scores`` function instead), the weighted
  final score used for candidate ranking
- :mod:`hindpo.dataforge` corpus loading (actuality scores are record
  fields; ``embed_actuality`` fills them from a lookup file), ranking,
  bucketization, emission, and manifest-checked read-back
- :mod:`hindpo.corpora` bundled deterministic toy corpora
- :mod:`hindpo.policy` trainable bigram softmax policy with exact
  gradients; ``draw`` samples one response per start row, for many
  start rows in one call
- :mod:`hindpo.losses` the four preference-loss modes, the finesse
  estimate, ``encode_runs`` (pairs as transition indices, scored under
  each run's frozen reference once), ``plan_runs`` (an epoch's batches
  of K runs in one shared batch order, planned once, batch-major, with
  every run's loss weights and one statistics table) and ``loss_steps``:
  one pass per batch giving every run's loss, its gradient, the raw and
  weighted margins, the accuracy and the gradient norm, written into the
  batch's row of that table; ``encode_examples`` is the one-run
  form of ``encode_runs``, and ``loss_gradient`` takes one run's whole
  encoding, plans it as one batch and steps it
- :mod:`hindpo.trainer` staged training loop (``train_modes`` trains
  several loss modes in lockstep, in one batch order, each finesse run
  drawing from its own generator, each run into a new policy; ``train``
  one mode; both validate the pairs first and only read the policy they
  are given), gradient checking through ``loss_gradient``
- :mod:`hindpo.evalharness` generation and metric tables;
  ``evaluate_configs`` scores every configuration's outputs in one pass
  over the references (each text tokenized once, one semantic call per
  reference), ``evaluate`` is its one-configuration view
- :mod:`hindpo.cli` the ``hindpo`` command
- :mod:`hindpo.fileio` ``KINDS``, the one kind table every check reads;
  ``json_lines``, which formats the pair files and the train log column
  by column through one line template per record class and yields them
  line by line; atomic writes
"""

from .corpora import separable_curriculum, toy_corpus
from .dataforge import (
    ActualityError,
    ArticleRecord,
    Candidate,
    CurriculumDataset,
    PreferencePair,
    SchemaError,
    bucketize,
    dump_articles,
    embed_actuality,
    emit_forge,
    forge,
    load_articles,
    score_and_rank,
    split_articles,
)
from .evalharness import MetricReport, evaluate, evaluate_configs, generate, parse_table, report_table
from .losses import (
    EncodedPairs,
    EpochPlan,
    FinesseEstimate,
    LogRatios,
    LossConfig,
    LossExample,
    LossStep,
    compute_finesse,
    encode_examples,
    encode_runs,
    hin_dpo_loss,
    loss_gradient,
    loss_steps,
    plan_runs,
    preference_score,
)
from .policy import BOS, EOS, BigramPolicy, OutOfVocabularyError, Vocabulary
from .textmetrics import (
    PrfScore,
    char_trigram_cosine,
    final_score,
    meteor,
    rouge_l,
    rouge_n,
    tokenize,
)
from .trainer import (
    TrainConfig,
    TrainingError,
    TrainLog,
    attach_finesse,
    encode_pairs,
    gradcheck,
    train,
    train_modes,
    vocab_from_pairs,
)
from .welford import Welford

__version__ = "0.1.0"
