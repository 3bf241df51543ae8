import pytest

from delexparse.tagmap import default_table, map_extended_tag, map_sentence
from delexparse.treebank import ExtendedTag, TagMapTable, TaggedSentence


def tag(text):
    return ExtendedTag.parse(text)


def test_known_pairs_map_with_features_carried():
    table = default_table()
    assert map_extended_tag(tag("DDART.Nom.Sg.Fem"), table) == tag("ART.Nom.Sg.Fem")
    assert map_extended_tag(tag("NA.Gen"), table) == tag("NN.Gen")


def test_target_side_features_are_prepended():
    table = default_table()
    assert map_extended_tag(tag("VAPS.Nom"), table) == tag("ADJD.Pos.Nom")
    assert map_extended_tag(tag("VAPS"), table) == tag("ADJD.Pos")


def test_composite_tag_keeps_first_part():
    table = default_table()
    assert map_extended_tag(ExtendedTag("APPR|NA"), table) == tag("APPR")
    # the retained part is itself mapped when possible
    assert map_extended_tag(ExtendedTag("NA|APPR"), table) == tag("NN")


def test_composite_tag_with_an_empty_first_part_stays_whole():
    table = default_table()
    assert map_extended_tag(ExtendedTag("|NA"), table) == ExtendedTag("|NA")
    assert map_extended_tag(tag("|NA.Nom.Sing"), TagMapTable({}, {"Sing": "Sg"})) == \
        tag("|NA.Nom.Sg")
    assert map_extended_tag(ExtendedTag("|"), table) == ExtendedTag("|")


def test_unknown_tags_pass_through():
    table = default_table()
    assert map_extended_tag(tag("NN.Gen"), table) == tag("NN.Gen")
    assert map_extended_tag(tag("XYZ"), table) == tag("XYZ")


def test_feature_map_applies_and_passes_through():
    table = TagMapTable(pos_map={}, feature_map={"Sing": "Sg"})
    assert map_extended_tag(tag("NN.Sing.Masc"), table) == tag("NN.Sg.Masc")


def test_no_composite_separator_in_output():
    table = default_table()
    for pos in ("APPR|NA", "A|B|C", "DDART|NA"):
        assert "|" not in map_extended_tag(ExtendedTag(pos), table).pos


def test_map_sentence_elementwise():
    table = default_table()
    sentence = TaggedSentence(("diu", "frouwe"),
                              (tag("DDART.Nom.Sg.Fem"), tag("NA.Nom.Sg.Fem")))
    mapped = map_sentence(sentence, table)
    assert mapped.tokens == sentence.tokens
    assert mapped.tags == (tag("ART.Nom.Sg.Fem"), tag("NN.Nom.Sg.Fem"))


def test_map_sentence_preserves_length_and_empty_features():
    table = default_table()
    sentence = TaggedSentence(tuple("abcde"), tuple(tag("NN") for _ in range(5)))
    mapped = map_sentence(sentence, table)
    assert len(mapped) == 5
    assert all(t.features == () for t in mapped.tags)


def test_idempotent_on_target_inventory():
    table = default_table()
    sentence = TaggedSentence(("a", "b", "c"),
                              (tag("ART.Nom.Sg.Fem"), tag("NN.Nom.Sg.Fem"), tag("$.")))
    once = map_sentence(sentence, table)
    assert once == sentence
    assert map_sentence(once, table) == once


# the HiTS -> STTS pairs the bundled data/default.tagmap must hold
# (acceptance criterion 5)
BUNDLED_PAIRS = (("CARDD", "CARD"), ("DDA", "PDAT"), ("DDART", "ART"), ("DIA", "PIAT"),
                 ("DIART", "ART"), ("DID", "PDAT"), ("NA", "NN"), ("VAPS", "ADJD.Pos"))


@pytest.mark.parametrize("source,target", BUNDLED_PAIRS)
def test_every_bundled_pair(source, target):
    table = default_table()
    mapped = map_extended_tag(ExtendedTag(source), table)
    expected = tag(target)
    assert mapped.pos == expected.pos
    assert mapped.features == expected.features
