# Tour of the scoring toolbox: tokenization, lexical metrics, semantic
# similarity, and the weighted final score used to rank candidates.

from hindpo import char_trigram_cosine, final_score, meteor, rouge_l, rouge_n, tokenize

truth = "जांच में यह दावा गलत साबित हुआ पुष्टि नहीं हुई"
close = "जांच में यह दावा गलत साबित हुआ"
loose = "जांच में दावा गलत"
unrelated = "आज मौसम सुहाना रहेगा और बारिश होगी"

print("tokens(truth):", tokenize(truth))
print("tokens('fake news!'):", tokenize("fake news!"))
print()

for name, cand in [("close", close), ("loose", loose), ("unrelated", unrelated)]:
    cand_tokens, ref_tokens = tokenize(cand), tokenize(truth)
    r1 = rouge_n(cand_tokens, ref_tokens, 1).f1
    rl = rouge_l(cand_tokens, ref_tokens).f1
    mt = meteor(cand_tokens, ref_tokens)
    sem = char_trigram_cosine([cand], truth)[0]
    fs = final_score(sem, rl, mt)
    print("%-9s  R-1 %.3f  R-L %.3f  METEOR %.3f  semantic %.3f  ->  fs %.3f"
          % (name, r1, rl, mt, sem, fs))

print()
print("identical strings:", char_trigram_cosine([truth], truth)[0])
print("the final score ranges up to", final_score(1.0, 1.0, 1.0),
      "because the lexical pair carries weight 3")
