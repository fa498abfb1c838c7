"""Group language models and the six perplexity features.

Two add-k smoothed model families (orders 1-3) are trained on the SLI
and TD sides of a corpus; each child is then scored against all six.
Text that resembles its training group scores a lower perplexity.

Run:  python demos/03_perplexity_models.py
"""

import tempfile
from pathlib import Path

from langprofile import parse_chat
from langprofile.ngram import (
    GroupModels,
    load_model,
    perplexity,
    perplexity_features,
    save_model,
    train,
)


def chi(group, *utts):
    header = f"@ID:\teng|demo|CHI|5;00.|male|{group}||Target_Child|||\n"
    return parse_chat(header + "".join(f"*CHI:\t{u} .\n" for u in utts))


def main():
    corpus = [
        chi("SLI", "doggie goed home", "want ball mine", "doggie falled",
            "me want doggie", "ball goed there"),
        chi("SLI", "doggie runned", "me goed home", "want mine ball",
            "doggie goed", "me falled there"),
        chi("TD", "the dog was running", "he jumped over the log",
            "the boy looked in the jar", "the dog was running fast"),
        chi("TD", "the frog sat on a rock", "she sees the little frogs",
            "the dog runs and he jumps", "he jumped over the rock"),
    ]
    models = GroupModels(corpus, smoothing_k=1.0, unk_threshold=1).models

    probe = chi("", "the dog was running", "he jumped over the log")
    feats = perplexity_features(probe, models["SLI"], models["TD"])
    print("TD-flavored probe text:")
    for order in (1, 2, 3):
        s, d = feats[f"s_{order}g_ppl"], feats[f"d_{order}g_ppl"]
        print(f"  order {order}:  vs SLI model {s:8.2f}   vs TD model {d:8.2f}")
    print("  (lower against the TD models: the probe resembles TD speech)")
    print()

    # closed-form sanity point: a uniform unpadded unigram model over four
    # types gives perplexity exactly 4
    uniform = train([chi("", "a b c d")], order=1, smoothing_k=0, pad=False)
    print("uniform 4-type model perplexity:",
          perplexity(uniform, chi("", "a b c d")))

    # models round-trip through their text format bit-exactly
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "td_2g.lm"
        save_model(models["TD"][2], path)
        reloaded = load_model(path)
        print("save/load round trip preserves scoring:",
              perplexity(models["TD"][2], probe) == perplexity(reloaded, probe))
        print()
        print("model file head:")
        for line in path.read_text().splitlines()[:5]:
            print("  " + line)


if __name__ == "__main__":
    main()
