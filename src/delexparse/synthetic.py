"""A synthetic treebank for demos and verification: a morphology-dependent
corpus.

Everything here is generated from small word lists with seeded RNGs, so
corpora are reproducible byte for byte.  The 50-tree toy treebank is the
bundled file :func:`delexparse.data.toy_treebank_path`.
"""

from __future__ import annotations

import numpy as np

from .treebank import Tree

_GENDERS = ("Masc", "Fem", "Neut")
_ART = {
    ("Nom", "Masc"): "der", ("Acc", "Masc"): "den", ("Dat", "Masc"): "dem",
    ("Nom", "Fem"): "die", ("Acc", "Fem"): "die", ("Dat", "Fem"): "der",
    ("Nom", "Neut"): "das", ("Acc", "Neut"): "das", ("Dat", "Neut"): "dem",
}
_NOUNS = {
    "Masc": ("Mann", "Hund", "Baum", "Wagen", "Vogel"),
    "Fem": ("Frau", "Stadt", "Katze", "Blume"),
    "Neut": ("Kind", "Haus", "Pferd", "Buch"),
}
_VERBS = ("sieht", "liebt", "kennt", "sucht", "findet", "hört")
_DAT_VERBS = ("hilft", "folgt", "dankt")
_ADVS = ("heute", "gern", "hier", "oft")


def _pret(label: str, token: str) -> Tree:
    return Tree.node(label, [Tree.leaf(token)])


def _noun_phrase(rng, case: str) -> Tree:
    gender = _GENDERS[rng.integers(len(_GENDERS))]
    noun = _NOUNS[gender][rng.integers(len(_NOUNS[gender]))]
    morph = f"{case}.Sg.{gender}"
    return Tree.node("NP", [_pret(f"ART.{morph}", _ART[(case, gender)]),
                            _pret(f"NN.{morph}", noun)])


def _verb(rng, dative: bool = False) -> Tree:
    pool = _DAT_VERBS if dative else _VERBS
    return _pret("VVFIN.3.Sg.Pres", pool[rng.integers(len(pool))])


def _adverb(rng) -> Tree:
    return _pret("ADV", _ADVS[rng.integers(len(_ADVS))])


def morph_structure_treebank(count: int, seed: int = 7) -> list[Tree]:
    """Sentences whose bracketing depends jointly on POS and morphology.

    Two devices create the dependency: an accusative second noun phrase
    attaches inside the verb phrase while a dative one attaches to the
    clause, and two four-token patterns share a length but differ in POS
    order and structure.  Dropping morphology or renaming the POS tags
    therefore makes part of the treebank unlearnable.
    """
    rng = np.random.default_rng(seed)
    trees: list[Tree] = []
    for _ in range(count):
        kind = int(rng.integers(4))
        if kind in (0, 1):
            case = "Acc" if kind == 0 else "Dat"
            subject = _noun_phrase(rng, "Nom")
            verb = _verb(rng, dative=(case == "Dat"))
            obj = _noun_phrase(rng, case)
            if case == "Acc":
                tree = Tree.node("S", [subject, Tree.node("VP", [verb, obj])])
            else:
                tree = Tree.node("S", [subject, Tree.node("VP", [verb]), obj])
        elif kind == 2:
            tree = Tree.node("S", [
                _noun_phrase(rng, "Nom"),
                Tree.node("VP", [_verb(rng), _adverb(rng)])])
        else:
            tree = Tree.node("S", [
                Tree.node("VP", [_adverb(rng), _verb(rng)]),
                _noun_phrase(rng, "Nom")])
        trees.append(tree)
    return trees
