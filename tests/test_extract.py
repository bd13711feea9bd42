"""Lawyer names, article references and outcome classification."""

import pytest
from hypothesis import given, settings, strategies as st

from courtnet.corpus import Document
from courtnet.extract import (
    ArticleRef,
    ExtractionRecord,
    LawyerName,
    Outcome,
    classify_outcome,
    default_code_table,
    extract_articles,
    extract_lawyers,
    read_extracted,
    rejection_rate,
)
from courtnet.jsonl import write_jsonl
from courtnet.segmenter import get_profile, segment

from oracles import classify_outcome_reference, extract_articles_reference


def _segmented(text, jurisdiction="douai"):
    doc = Document(doc_id="t1", jurisdiction=jurisdiction, text=text)
    return segment(doc, get_profile(jurisdiction)), doc


DOUAI_TEXT = (
    "COUR D'APPEL DE DOUAI\n"
    "\n"
    "APPELANTE\n"
    "Madame Claire DUPONT\n"
    "représentée par Me Anne-Claire MARTIN, avocat au barreau de Douai\n"
    "\n"
    "INTIMÉ\n"
    "Monsieur Paul HENRY\n"
    "représenté par Me Hugo de La TOUR et Me J. RENAUD, avocats au barreau de Lille\n"
    "\n"
    "PAR CES MOTIFS\n"
    "Confirme le jugement entrepris.\n"
)


def test_lawyers_from_party_segments():
    seg, doc = _segmented(DOUAI_TEXT)
    appellant, appellee = extract_lawyers(seg, doc)
    assert [n.canonical for n in appellant] == ["anne-claire martin"]
    assert appellant[0].display == "Anne-Claire MARTIN"
    # particles stay inside a name, initials keep their period
    assert [n.canonical for n in appellee] == ["hugo de la tour", "j. renaud"]
    assert appellee[1].display == "J. RENAUD"


def test_lawyers_prefer_the_counsel_segment():
    # when a counsel segment exists, names mentioned in the party segment
    # are ignored for that side
    text = (
        "COUR D'APPEL D'AGEN\n"
        "\n"
        "ENTRE\n"
        "Monsieur Jean ROUX, assisté devant le tribunal de Me Vieux CONSEIL\n"
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
        "PAR CES MOTIFS\n"
        "Confirme le jugement.\n"
    )
    seg, doc = _segmented(text, "agen")
    appellant, appellee = extract_lawyers(seg, doc)
    assert [n.canonical for n in appellant] == ["sophie klein"]
    assert [n.canonical for n in appellee] == ["paul durand"]


def test_lawyerless_document_yields_empty_sides():
    text = (
        "COUR D'APPEL DE DOUAI\n"
        "\n"
        "APPELANT\n"
        "Monsieur Luc BERTIN, comparant en personne\n"
        "\n"
        "INTIMÉE\n"
        "Madame Eva NOEL, comparant en personne\n"
        "\n"
        "PAR CES MOTIFS\n"
        "Infirme le jugement.\n"
    )
    seg, doc = _segmented(text)
    assert extract_lawyers(seg, doc) == ([], [])


def test_duplicate_names_collapse_to_first_display():
    text = (
        "APPELANT\n"
        "Monsieur X, représenté par Me Paul DURAND, puis par Maître Paul Durand\n"
        "INTIMÉ\n"
        "Madame Y, représentée par Me Eva NOEL\n"
        "PAR CES MOTIFS\n"
        "Confirme.\n"
    )
    seg, doc = _segmented(text)
    appellant, _ = extract_lawyers(seg, doc)
    assert appellant == [LawyerName(canonical="paul durand", display="Paul DURAND")]


def test_articles_enumerations_and_codes():
    text = (
        "En application des articles 700 et 696 du code de procédure civile, "
        "il y a lieu de statuer. Vu l'article L. 145-41 du code de commerce, "
        "la clause est réputée non écrite. Il sera fait application de "
        "l'article 458. Vu l'article 31 du NCPC, le moyen est examiné."
    )
    got = {(a.code, a.number) for a in extract_articles(text)}
    assert got == {
        ("code de procedure civile", "700"),
        ("code de procedure civile", "696"),
        ("code de commerce", "L. 145-41"),
        ("unknown", "458"),
        ("code de procedure civile", "31"),
    }


def test_article_prefix_normalization():
    for raw in ("article L145-41 du code de commerce",
                "article l. 145-41 du code de commerce",
                "article L.145-41 du code de commerce"):
        assert extract_articles(raw) == {ArticleRef("code de commerce", "L. 145-41")}
    assert extract_articles("article R. 145-7 du code de commerce") == {
        ArticleRef("code de commerce", "R. 145-7")
    }


def test_article_unlisted_code_passes_through():
    got = extract_articles("Vu l'article 12 du code du travail, il est statué.")
    assert got == {ArticleRef("code du travail", "12")}


# Citation pieces: "article" inside words and in other spellings, numbers
# with letter prefixes, enumerations, code names and the punctuation that
# ends them.
ARTICLE_PIECES = ["article", "articles", "Article", "ARTICLES", "particle", "l'article",
                  "articlé", "Artícle", "art.", "3", "145-41", "L. 145-41", "l.145", "R 12",
                  "d. 4.2", "et", "ET", "du", "de la", "de l'", "code civil",
                  "Code de procédure civile", "NCPC", "CGI", ",", ".", ";", "(", ")", "\n"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(ARTICLE_PIECES), max_size=25),
       st.lists(st.sampled_from([" ", "", "  ", "\t"]), min_size=25, max_size=25))
def test_articles_equal_the_whole_text_search_reference(pieces, gaps):
    text = "".join(piece + gap for piece, gap in zip(pieces, gaps))
    table = default_code_table()
    assert ({(ref.code, ref.number) for ref in extract_articles(text)}
            == extract_articles_reference(text, table))


def test_packaged_code_table_maps_each_spelling():
    # each spelling the table lists, in capitals, is cited under its canonical code
    table = default_code_table()
    assert table["ncpc"] == "code de procedure civile"
    for spelling, code in table.items():
        got = extract_articles(f"Vu l'article 12 du {spelling.upper()}, le moyen est fondé.")
        assert got == {ArticleRef(code, "12")}, spelling


def test_classify_outcome_counts_stems():
    outcome, confirm, reverse = classify_outcome(
        "PAR CES MOTIFS\n"
        "Confirme le jugement entrepris en toutes ses dispositions.\n"
        "Dit que les demandes sont rejetées.\n"
        "Infirme le jugement sur le surplus.\n"
    )
    assert outcome is Outcome.APPELLEE_WINS
    assert (confirm, reverse) == (2, 1)


def test_classify_outcome_reversal_and_ties():
    outcome, confirm, reverse = classify_outcome(
        "Réforme le jugement déféré. Rectifie l'erreur matérielle."
    )
    assert outcome is Outcome.APPELLANT_WINS
    assert (confirm, reverse) == (0, 2)
    assert classify_outcome("Confirme pour partie. Infirme pour le surplus.") == (
        Outcome.UNDETERMINED, 1, 1,
    )
    assert classify_outcome("La cour statue ce que de droit.") == (
        Outcome.UNDETERMINED, 0, 0,
    )


def test_classify_outcome_stem_boundaries():
    # "rejette" is a different inflection and is deliberately not counted
    assert classify_outcome("Rejette la demande.") == (Outcome.UNDETERMINED, 0, 0)
    # accents fold away before matching
    assert classify_outcome("L'appel est déclaré irrecevable.")[0] is Outcome.APPELLEE_WINS
    assert classify_outcome("Le jugement est infirmé.")[0] is Outcome.APPELLANT_WINS


# Stems and their accented and capitalised forms, and what can touch a stem:
# digits, letters, characters that fold to two (ß, ﬁ), combining accents,
# apostrophes, hyphens and spaces.
OUTCOME_PIECES = ["confirme", "Confirmé", "CONFIRMÉ", "confirmée", "rejete", "rejeté", "REJETÉE",
                  "irrecevable", "Irrecevable", "infirme", "Infirmé", "INFIRMEE", "rectifi",
                  "Rectifié", "reform", "Réformé", "RÉFORME", "1", "42", "e", "é", "E", "s",
                  "ß", "ﬁ", "\u0301", "\u0327", "'", "’", "-", " ", "\n", "."]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(OUTCOME_PIECES), max_size=12).map("".join))
def test_outcome_stems_equal_the_token_loop_reference(text):
    outcome, confirm, reverse = classify_outcome(text)
    assert (outcome.value, confirm, reverse) == classify_outcome_reference(text)


def test_rejection_rate():
    outcomes = [
        Outcome.APPELLEE_WINS, Outcome.APPELLEE_WINS,
        Outcome.APPELLANT_WINS, Outcome.UNDETERMINED,
    ]
    assert rejection_rate(outcomes) == pytest.approx(2 / 3)
    assert rejection_rate([Outcome.UNDETERMINED]) is None
    assert rejection_rate([]) is None


def test_extraction_records_round_trip(tmp_path):
    records = [
        ExtractionRecord(
            doc_id="b2",
            appellant_lawyers=(LawyerName("sophie klein", "Sophie KLEIN"),),
            appellee_lawyers=(),
            articles=frozenset({ArticleRef("code civil", "1240")}),
            outcome=Outcome.APPELLANT_WINS,
            confirm_count=0,
            reverse_count=2,
        ),
        ExtractionRecord(
            doc_id="a1",
            appellant_lawyers=(),
            appellee_lawyers=(LawyerName("j. renaud", "J. RENAUD"),),
            articles=frozenset(),
            outcome=Outcome.UNDETERMINED,
            confirm_count=1,
            reverse_count=1,
        ),
    ]
    path = tmp_path / "extracted.jsonl"
    write_jsonl(path, records)
    # read back in the order written: the pipeline sorts its records by doc_id
    assert read_extracted(path) == records
