# From raw articles to curriculum stages: score the three candidate
# explanations of every record, rank them, attach actuality weights, and
# bucketize into B_L / B_M / B_H.

import json
import tempfile
from pathlib import Path

from hindpo import bucketize, score_and_rank, toy_corpus
from hindpo.dataforge import emit_forge, forge

articles = toy_corpus()
print("bundled corpus: %d articles (%d fake / %d real)" % (
    len(articles),
    sum(a.label == "fake" for a in articles),
    sum(a.label == "real" for a in articles),
))

record = articles[0]
print("\nprompt:     ", record.news_text)
print("ground truth:", record.ground_truth_explanation)
for pair in sorted(score_and_rank(record), key=lambda p: p.rank):
    print("  rank %d  fs %.3f  (%s)  %s..." % (pair.rank, pair.fs, pair.model_id, pair.rejected[:32]))

# rank 2 -> B_L, rank 1 -> B_M, rank 0 -> B_H
dataset = bucketize(score_and_rank(record))
print("\nstage order:", [name for name, _ in dataset.stages])

# the full pipeline also splits train/val/test at article level and emits
# stage files plus a manifest
result = forge(articles, seed=7)
with tempfile.TemporaryDirectory() as out:
    manifest_path = emit_forge(result, out)
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    print("\nmanifest stages:", [(e["bucket"], e["pairs"]) for e in manifest["stages"]])
    print("val/test pairs:", manifest["val"]["pairs"], manifest["test"]["pairs"])
    print("split:", manifest["split"])
