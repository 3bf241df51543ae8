import numpy as np
import pytest

import oracles
from delexparse.tagger import (load_tagger, save_tagger, tag_sentence,
                               tagger_accuracy, train_tagger)
from delexparse.treebank import ExtendedTag, TaggedSentence, read_tagged_corpus


def bijective_corpus():
    pairs = [("der", "ART.Nom"), ("Mann", "NN.Nom"), ("lacht", "VVFIN"),
             ("die", "ART.Akk"), ("Frau", "NN.Akk"), ("heute", "ADV")]
    sentences = []
    for shift in range(4):
        chosen = pairs[shift:] + pairs[:shift]
        tokens = tuple(w for w, _ in chosen)
        tags = tuple(ExtendedTag.parse(t) for _, t in chosen)
        sentences.append(TaggedSentence(tokens, tags))
    return sentences


def test_memorizes_bijective_corpus():
    corpus = bijective_corpus()
    model = train_tagger(corpus, epochs=5, seed=1)
    predictions = [tag_sentence(model, list(s.tokens)) for s in corpus]
    assert tagger_accuracy(corpus, predictions) == 1.0


def test_seen_token_gets_training_tag():
    corpus = bijective_corpus()
    model = train_tagger(corpus, epochs=5, seed=1)
    tagged = tag_sentence(model, ["Mann"])
    assert tagged.tags[0].serialized() == "NN.Nom"


def test_output_length_and_inventory():
    corpus = bijective_corpus()
    model = train_tagger(corpus, epochs=3, seed=1)
    tagged = tag_sentence(model, ["der", "Unbekannt", "lacht"])
    assert len(tagged) == 3
    inventory = set(model.tag_inventory)
    assert all(t.serialized() in inventory for t in tagged.tags)


def test_determinism(tmp_path):
    corpus = bijective_corpus()
    a = train_tagger(corpus, epochs=4, seed=9)
    b = train_tagger(corpus, epochs=4, seed=9)
    assert a.feature_weights == b.feature_weights
    assert a.tag_inventory == b.tag_inventory
    save_tagger(a, tmp_path / "a.txt")
    save_tagger(b, tmp_path / "b.txt")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_training_accuracy_non_decreasing_in_epochs():
    corpus = bijective_corpus()
    accuracies = []
    for epochs in (1, 3, 5):
        model = train_tagger(corpus, epochs=epochs, seed=2)
        predictions = [tag_sentence(model, list(s.tokens)) for s in corpus]
        accuracies.append(tagger_accuracy(corpus, predictions))
    assert accuracies == sorted(accuracies)


def test_empty_corpus_and_bad_epochs():
    with pytest.raises(ValueError):
        train_tagger([], epochs=1)
    with pytest.raises(ValueError):
        train_tagger(bijective_corpus(), epochs=0)


def test_accuracy_values():
    gold = [TaggedSentence(("a", "b", "c", "d"),
                           tuple(ExtendedTag(f"T{k}") for k in range(4)))]
    same = gold
    assert tagger_accuracy(gold, same) == 1.0
    different = [TaggedSentence(("a", "b", "c", "d"),
                                tuple(ExtendedTag("X") for _ in range(4)))]
    assert tagger_accuracy(gold, different) == 0.0
    mixed = [TaggedSentence(("a", "b", "c", "d"),
                            (ExtendedTag("T0"), ExtendedTag("T1"),
                             ExtendedTag("T2"), ExtendedTag("X")))]
    assert tagger_accuracy(gold, mixed) == 0.75
    with pytest.raises(ValueError):
        tagger_accuracy(gold, [])


def test_checkpoint_round_trip(tmp_path):
    corpus = bijective_corpus()
    model = train_tagger(corpus, epochs=3, seed=4)
    path = tmp_path / "tagger.txt"
    save_tagger(model, path)
    loaded = load_tagger(path)
    assert loaded.tag_inventory == model.tag_inventory
    for sentence in corpus:
        assert tag_sentence(loaded, list(sentence.tokens)) == \
            tag_sentence(model, list(sentence.tokens))
    # stable bytes: saving the loaded model reproduces the file
    again = tmp_path / "tagger2.txt"
    save_tagger(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_hmm_heldout_accuracy_and_viterbi_gap():
    rng = np.random.default_rng(101)
    hmm = oracles.make_hmm(rng)
    train = oracles.sample_corpus(hmm, rng, 5000)
    heldout = oracles.sample_corpus(hmm, rng, 500)
    model = train_tagger(train, epochs=3, seed=10)
    predictions = [tag_sentence(model, list(s.tokens)) for s in heldout]
    accuracy = tagger_accuracy(heldout, predictions)
    assert accuracy >= 0.90

    viterbi = [TaggedSentence(s.tokens, tuple(ExtendedTag(t) for t in
                                              oracles.viterbi_tags(hmm, list(s.tokens))))
               for s in heldout]
    viterbi_accuracy = tagger_accuracy(heldout, viterbi)
    assert accuracy >= viterbi_accuracy - 0.05


def test_features_containing_dots_survive_another_separator(tmp_path):
    corpus = read_tagged_corpus("a\tVVFIN#3.Sg\nb\tNN#Nom\n\n", "#")
    assert corpus[0].tags[0] == ExtendedTag("VVFIN", ("3.Sg",))
    model = train_tagger(corpus, epochs=2, seed=1, sep="#")
    assert tag_sentence(model, ["a", "b"]).tags == corpus[0].tags
    path = tmp_path / "tagger.txt"
    save_tagger(model, path)
    assert "tag\tVVFIN#3.Sg\n" in path.read_text(encoding="utf-8")
    loaded = load_tagger(path, "#")
    assert tag_sentence(loaded, ["a", "b"]).tags == corpus[0].tags
