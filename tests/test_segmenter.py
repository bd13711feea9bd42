"""Segmentation profiles, marker matching, sentences and the flow graph."""

import json

import pytest

from courtnet.corpus import Document, generate_synthetic_corpus
from courtnet.errors import MissingConclusion, OutOfOrderMarkers
from courtnet.jsonl import decode, dumps
from courtnet.segmenter import (
    KeywordProfile,
    Marker,
    build_flow_graph,
    get_profile,
    load_profile,
    segment,
    split_sentences,
    write_flow,
)

from oracles import parse_graphml

DOUAI_TEXT = (
    "COUR D'APPEL DE DOUAI\n"
    "N° RG : 21/04200\n"
    "\n"
    "APPELANTE\n"
    "Madame Claire DUPONT\n"
    "\n"
    "INTIMÉ\n"
    "Monsieur Paul MARTIN\n"
    "\n"
    "COMPOSITION DE LA COUR\n"
    "Présidente : Julie FABRE\n"
    "\n"
    "DÉBATS\n"
    "Les parties ont été entendues.\n"
    "\n"
    "PAR CES MOTIFS\n"
    "Confirme le jugement entrepris.\n"
)


def _doc(text, jurisdiction="douai"):
    return Document(doc_id="t1", jurisdiction=jurisdiction, text=text)


def test_douai_segmentation_boundaries():
    text = DOUAI_TEXT
    seg = segment(_doc(text), get_profile("douai"))
    spans = {s.name: (s.start, s.end) for s in seg.segments}
    assert spans["header"] == (0, text.index("APPELANTE"))
    assert spans["appellant"] == (
        text.index("APPELANTE") + len("APPELANTE\n"),
        text.index("INTIMÉ"),
    )
    assert spans["appellee"] == (
        text.index("INTIMÉ") + len("INTIMÉ\n"),
        text.index("COMPOSITION"),
    )
    assert spans["court_entities"][1] == text.index("DÉBATS")
    assert spans["debate"] == (
        text.index("DÉBATS") + len("DÉBATS\n"),
        text.index("PAR CES MOTIFS"),
    )
    assert spans["conclusion"] == (text.index("PAR CES MOTIFS"), len(text))
    assert seg.slice(text, "appellant") == "Madame Claire DUPONT\n\n"
    # the douai profile has no counsel markers
    assert "appellant_counsel" not in spans


def test_agen_segmentation_with_fuzzy_heading():
    text = (
        "COUR D'APPEL D'AGEN\n"
        "\n"
        "ENTRE\n"
        "Monsieur Jean RENAUD, demeurant 4 rue des Lilas à Agen\n"
        "\n"
        "AYANT POUR AVOCAT\n"
        "Me Sophie KLEIN, avocat au barreau d'Agen\n"
        "\n"
        "ET\n"
        "Madame Anne PETIT, demeurant 9 avenue Foch à Agen\n"
        "\n"
        "AYANT POUR AVOCAT\n"
        "Me Paul DURAND, avocat au barreau d'Agen\n"
        "\n"
        "COMPOSITION DE LA COUR\n"
        "Président : Marc LEROY\n"
        "\n"
        "FAITS PROCEDURE\n"  # close enough to FAITS ET PROCEDURE
        "Les parties ont conclu par écrit.\n"
        "\n"
        "PAR CES MOTIFS\n"
        "Infirme le jugement déféré.\n"
    )
    seg = segment(_doc(text, "agen"), get_profile("agen"))
    names = [s.name for s in seg.segments]
    assert names == [
        "header", "appellant", "appellant_counsel", "appellee",
        "appellee_counsel", "court_entities", "debate", "conclusion",
    ]
    assert "Sophie KLEIN" in seg.slice(text, "appellant_counsel")
    assert "Paul DURAND" in seg.slice(text, "appellee_counsel")
    assert seg.slice(text, "debate") == "Les parties ont conclu par écrit.\n\n"


def test_optional_markers_are_omitted():
    text = (
        "COUR D'APPEL D'AGEN\n"
        "ENTRE\n"
        "Monsieur Jean RENAUD, demeurant 4 rue des Lilas à Agen\n"
        "ET\n"
        "Madame Anne PETIT, demeurant 9 avenue Foch à Agen\n"
        "COMPOSITION DE LA COUR\n"
        "Président : Marc LEROY\n"
        "DEBATS\n"
        "Les parties ont conclu par écrit.\n"
        "PAR CES MOTIFS\n"
        "Confirme le jugement.\n"
    )
    seg = segment(_doc(text, "agen"), get_profile("agen"))
    names = [s.name for s in seg.segments]
    assert "appellant_counsel" not in names
    assert "appellee_counsel" not in names
    assert seg.get("appellee").start == text.index("Madame")


def test_missing_conclusion():
    text = DOUAI_TEXT.replace("PAR CES MOTIFS\n", "")
    with pytest.raises(MissingConclusion):
        segment(_doc(text), get_profile("douai"))


def test_out_of_order_markers():
    text = (
        "COUR D'APPEL D'AGEN\n"
        "ET\n"
        "Madame Anne PETIT, demeurant 9 avenue Foch à Agen\n"
        "ENTRE\n"
        "Monsieur Jean RENAUD, demeurant 4 rue des Lilas à Agen\n"
        "COMPOSITION DE LA COUR\n"
        "Président : Marc LEROY\n"
        "DEBATS\n"
        "Les parties ont conclu par écrit.\n"
        "PAR CES MOTIFS\n"
        "Confirme le jugement.\n"
    )
    with pytest.raises(OutOfOrderMarkers):
        segment(_doc(text, "agen"), get_profile("agen"))


def test_header_absent_when_text_starts_on_a_marker():
    text = "APPELANT\nMonsieur X Y\nPAR CES MOTIFS\nConfirme.\n"
    seg = segment(_doc(text), get_profile("douai"))
    assert seg.segments[0].name == "appellant"


def test_generic_profile_handles_both_layouts():
    docs, truth = generate_synthetic_corpus(seed=41, n_docs=30)
    profile = get_profile("generic")
    for doc in docs:
        seg = segment(doc, profile)
        want = [(s.name, s.start, s.end) for s in truth.entries[doc.doc_id].segments]
        assert [(s.name, s.start, s.end) for s in seg.segments] == want


def test_profile_validation():
    conclusion = Marker("conclusion", ("PAR CES MOTIFS",))
    with pytest.raises(ValueError):
        KeywordProfile("x", (Marker("header", ("A",)), conclusion))
    with pytest.raises(ValueError):
        KeywordProfile("x", (Marker("appellant", ("A",)),))  # no conclusion
    with pytest.raises(ValueError):
        KeywordProfile("x", (conclusion, Marker("debate", ("D",))))  # conclusion not last
    with pytest.raises(ValueError):
        KeywordProfile("x", (Marker("appellant", ()), conclusion))  # empty variants
    with pytest.raises(ValueError):
        KeywordProfile("x", (Marker("nonsense", ("A",)), conclusion))
    with pytest.raises(ValueError):
        KeywordProfile("x", (conclusion,), jaro_threshold=1.2)
    with pytest.raises(ValueError):
        KeywordProfile(
            "x", (Marker("conclusion", ("AU FOND",)),)
        )  # conclusion must cover the canonical heading


def test_profile_round_trip(tmp_path):
    profile = get_profile("agen")
    text = dumps(profile)
    assert decode(KeywordProfile, json.loads(text)) == profile
    path = tmp_path / "profile.json"
    path.write_text(text, encoding="utf-8")
    assert load_profile(path) == profile


def test_split_sentences_rules():
    assert split_sentences("Premier point. Deuxième point! Troisième; Quatrième ?") == [
        "Premier point.", "Deuxième point!", "Troisième;", "Quatrième ?",
    ]
    # honorifics, the article abbreviation and initials hold the sentence open
    assert split_sentences("Me J. RENAUD a plaidé devant Mme. Dupont. Fin de séance.") == [
        "Me J. RENAUD a plaidé devant Mme. Dupont.", "Fin de séance.",
    ]
    assert split_sentences("Vu l'art. 700 du code. La demande suit.") == [
        "Vu l'art. 700 du code.", "La demande suit.",
    ]
    # an all-caps line is a sentence of its own even without punctuation
    assert split_sentences("PAR CES MOTIFS\nLa cour statue. Rejette le surplus.") == [
        "PAR CES MOTIFS", "La cour statue.", "Rejette le surplus.",
    ]
    assert split_sentences("") == []
    assert split_sentences("  \n ") == []


def test_flow_graph_merges_near_identical_long_sentences():
    d1 = Document(doc_id="d1", jurisdiction="x",
                  text="Bonjour. La cour statue sur la demande principale du jour. Fin.")
    d2 = Document(doc_id="d2", jurisdiction="x",
                  text="Bonjour. La cour statue sur la demande principale du mois. Fin.")
    graph = build_flow_graph([d1, d2])
    assert graph.nodes == {"Bonjour.": 2, "Long_Text_0_1": 2, "Fin.": 2}
    assert graph.edges == {
        ("Bonjour.", "Long_Text_0_1"): 2,
        ("Long_Text_0_1", "Fin."): 2,
    }


def test_flow_graph_separates_length_classes():
    # identical wording except length class keeps short and long apart
    d = Document(doc_id="d", jurisdiction="x",
                 text="Oui certes. La cour statue sur la demande du jour. Oui certes.")
    graph = build_flow_graph([d])
    assert set(graph.nodes) == {"Oui certes.", "Long_Text_0_1"}
    assert graph.nodes["Oui certes."] == 2


def test_flow_graph_insertion_order_names():
    d1 = Document(doc_id="a", jurisdiction="x",
                  text="La cour statue sur la demande principale du jour.")
    d2 = Document(doc_id="b", jurisdiction="x",
                  text="Une toute autre phrase assez longue pour compter ici.")
    graph = build_flow_graph([d1, d2])
    assert set(graph.nodes) == {"Long_Text_0_0", "Long_Text_1_0"}
    assert graph.edges == {}


def test_flow_graphml_round_trip(tmp_path):
    d = Document(doc_id="d", jurisdiction="x", text="Un. Deux. Un. Deux.")
    graph = build_flow_graph([d])
    write_flow(tmp_path / "flow", graph)
    directed, nodes, edges = parse_graphml(tmp_path / "flow.graphml")
    assert directed is True
    assert dict(nodes) == {"Un.": {"occurrences": 2}, "Deux.": {"occurrences": 2}}
    counts = {(s, t): a["count"] for s, t, a in edges}
    assert counts == {("Un.", "Deux."): 2, ("Deux.", "Un."): 1}
