"""Segmentation profiles, marker matching, sentences and the flow graph."""

import errno
import json
import logging
import os
import re
import signal
import time

import pytest
from hypothesis import given, strategies as st

from courtnet import segmenter
from courtnet.cli import main
from courtnet.corpus import Document
from courtnet.errors import MissingConclusion, OutOfOrderMarkers
from courtnet.extract import extract_record
from courtnet.jsonl import decode, dumps, read_json
from courtnet.segmenter import (
    PROFILES,
    KeywordProfile,
    Marker,
    build_flow_graph,
    get_profile,
    segment,
    split_sentences,
    write_flow,
)
from courtnet.synth import generate_synthetic_corpus

from courtnet.textmetrics import fold

from oracles import (
    contract_reference, marker_hits_reference, parse_graphml, segment_reference,
    split_sentences_reference,
)

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


# (title line, appellant heading, appellant party, appellee heading): the
# first is the Douai judgment in which the generic profile's ET took the
# party line ETABLISSEMENTS MARTIN for the appellee heading; the others head
# each side with a plural or feminine form followed by more words, and open
# a party line or the case title with the letters of ET or ENTRE.
_PARTY_LAYOUTS = [
    ("COUR D'APPEL DE DOUAI", "APPELANTE", "ETABLISSEMENTS MARTIN", "INTIMÉ"),
    ("ENTREPRISE MARTIN C/ DUBOIS", "APPELANTS ET INTIMÉS INCIDENTS", "ÉTUDE MARTIN ET ASSOCIÉS",
     "INTIMÉES ET APPELANTES INCIDENTES"),
    ("ETABLISSEMENTS MARTIN C/ DUBOIS", "APPELANTES ET INTIMÉES INCIDENTES",
     "ETIENNE MARTIN, né le 3 mars 1961 à Lille", "INTIMÉS ET APPELANTS INCIDENTS"),
]


@pytest.mark.parametrize("title, appellant, party, appellee", _PARTY_LAYOUTS)
def test_a_party_line_starting_with_a_variants_letters_heads_no_segment(
        title, appellant, party, appellee):
    # a prefix hit needs the variant's word to end, at once or after a gender
    # or number ending, so each heading hits and no party line does
    text = (
        f"{title}\n"
        f"{appellant}\n"
        f"{party}\n"
        "demeurant 3 rue Nationale à Lille\n"
        "représentée par Me Claire MARTIN, avocat au barreau de Lille\n"
        f"{appellee}\n"
        "MONSIEUR PAUL DUBOIS\n"
        "demeurant 8 place du Théâtre à Douai, représenté par Me Hugo LEROY, avocat\n"
        "COMPOSITION DE LA COUR\n"
        "Président : Marc FABRE\n"
        "DÉBATS\n"
        "Les parties ont été entendues.\n"
        "PAR CES MOTIFS\n"
        "Confirme le jugement entrepris.\n"
    )
    for profile in ("douai", "generic"):
        record = extract_record(_doc(text), segment(_doc(text), get_profile(profile)))
        assert [n.display for n in record.appellant_lawyers] == ["Claire MARTIN"], profile
        assert [n.display for n in record.appellee_lawyers] == ["Hugo LEROY"], profile


def _headed_segments(line, profile):
    """The segments of the profile whose marker the line hits."""
    folded, threshold = fold(line.strip()), profile.jaro_threshold
    return {m.segment for m in profile.markers
            if segmenter._marker_hits(folded, *segmenter._matcher(m.variants, threshold)[1:],
                                      threshold)}


@pytest.mark.parametrize("line, douai, generic", [
    ("INTIMÉES ET APPELANTES INCIDENTES", {"appellee"}, {"appellee"}),
    ("APPELANTS ET INTIMÉS INCIDENTS", {"appellant"}, {"appellant"}),
    ("INTIMÉE : Madame Anne DURAND", {"appellee"}, {"appellee"}),
    ("APPELANT(E)S", {"appellant"}, {"appellant"}),
    ("ENTRE : la société ALPHA", set(), {"appellant"}),
    ("ET : Monsieur Paul DUBOIS", set(), {"appellee"}),
    ("ET", set(), {"appellee"}),
    ("AYANT POUR AVOCATS Me Jean DUPONT et Me Marie CLAIR, avocats au barreau d'Agen",
     set(), {"appellant_counsel", "appellee_counsel"}),
    ("FAITS ET PROCÉDURES : l'appel a été interjeté par déclaration du 3 mars 2020",
     set(), {"debate"}),
    ("ETABLISSEMENTS MARTIN", set(), set()),
    ("ETIENNE DUBOIS, né le 3 mars 1961", set(), set()),
    ("ENTREPRISE DUPONT, société anonyme", set(), set()),
])
def test_a_heading_hits_through_its_first_word(line, douai, generic):
    assert _headed_segments(line, get_profile("douai")) == douai
    assert _headed_segments(line, get_profile("generic")) == generic


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


def test_indented_headings_and_mark_only_lines():
    # headings are matched on the stripped line; a line of combining marks
    # alone is not blank but matches nothing
    text = (DOUAI_TEXT.replace("APPELANTE\n", "          APPELANTE\n")
            .replace("DÉBATS\n", "\u0301\u0300\nDÉBATS  \n"))
    seg = segment(_doc(text), get_profile("douai"))
    assert [s.name for s in seg.segments] == [
        "header", "appellant", "appellee", "court_entities", "debate", "conclusion"]
    assert seg.slice(text, "appellant") == "Madame Claire DUPONT\n\n"
    assert seg.slice(text, "court_entities") == "Présidente : Julie FABRE\n\n\u0301\u0300\n"
    # a variant that folds to nothing would be a prefix of every folded line
    with pytest.raises(ValueError, match="marker 'appellant' has a variant that folds to ''"):
        KeywordProfile("x", (Marker("appellant", ("\u0301",)),
                             Marker("conclusion", ("PAR CES MOTIFS",))))


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
    with pytest.raises(ValueError, match="marker 'appellee' has a variant that folds to ''"):
        KeywordProfile("x", (Marker("appellee", ("ET", "")), conclusion))
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
    assert read_json(path, KeywordProfile, "profile") == profile


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


# Terminators, whitespace (line breaks of every kind included), initials,
# the abbreviations that block a split, capitals, digits and caps lines.
SENTENCE_PIECES = [".", "!", "?", ";", " ", "\n", "\r\n", "\t", "\u2028", "\u00a0", "\x1c",
                   "Me", "MME", "l'art", "J", "é", "Cour", "COUR", "3", "x-", "ÉTAT", "appel",
                   "Mme.", "art.", "PAR CES MOTIFS"]


@given(st.lists(st.sampled_from(SENTENCE_PIECES), max_size=30).map("".join))
def test_split_sentences_equals_character_wise_reference(text):
    assert split_sentences(text) == split_sentences_reference(text)


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


VARIANTS = sorted({v for p in PROFILES.values() for m in p.markers for v in m.variants})
LINE_ALPHABET = "ENTREAPLIMSéÉ\u0301 :-"
COMBINING = "\u0301\u0300\u0327"


@st.composite
def _marker_cases(draw):
    # KeywordProfile refuses a variant that folds to '', so none is drawn
    variant = st.one_of(st.sampled_from(VARIANTS), st.text(LINE_ALPHABET, max_size=8).filter(fold))
    variants = draw(st.lists(variant, min_size=1, max_size=3))
    # lines near a drawn variant, to reach the pairs the bounds only just pass
    near = st.sampled_from(variants)
    edit = st.text(LINE_ALPHABET, max_size=3)
    line = draw(st.one_of(
        st.text(LINE_ALPHABET, max_size=30),
        st.text(COMBINING, min_size=1, max_size=4),
        st.tuples(edit, near, edit).map("".join),
        st.tuples(near, st.integers(0, 8), edit).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1] + 1:]),
        near.map(lambda v: f"  {v.lower()} "),
    ))
    return line, variants


@given(_marker_cases(), st.sampled_from([0.0, 0.5, 0.8, 0.9, 0.95, 1.0]))
def test_marker_hits_equal_unpruned_reference(case, threshold):
    line, variants = case
    stripped = line.strip()
    folded = fold(stripped) if stripped else None
    _, alphabet, folded_variants = segmenter._matcher(tuple(variants), threshold)
    assert (segmenter._marker_hits(folded, alphabet, folded_variants, threshold)
            == marker_hits_reference(line, variants, threshold))


@st.composite
def _sentence_lists(draw):
    # few letters, so that many pairs score near the threshold; texts of 0 to
    # 60 characters in one list, so that rows end at different places
    alphabet = draw(st.sampled_from(["ab", "ab é\u0301", "abcd ", "aeiouy"]))
    text = st.one_of(st.text(alphabet, max_size=8), st.text(alphabet, min_size=8, max_size=60))
    return draw(st.lists(text, max_size=14))


def _check_joins(mp):
    """Make each shard check that every pair it joins merges two of its groups."""
    scan = segmenter._scan_rows

    def checked(shard, shards, by_length, codes, *args):
        pairs = scan(shard, shards, by_length, codes, *args)
        root = list(range(len(codes)))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x
        for lo, hi in zip(pairs[::2], pairs[1::2]):
            rlo, rhi = find(lo), find(hi)
            assert rlo != rhi, f"shard {shard} joined {lo} and {hi} twice"
            root[max(rlo, rhi)] = min(rlo, rhi)
        return pairs
    mp.setattr(segmenter, "_scan_rows", checked)


@given(_sentence_lists(), st.sampled_from([0.0, 0.8, 1.0]))
def test_contract_roots_equal_all_pairs_reference(texts, threshold):
    with pytest.MonkeyPatch.context() as mp:
        _check_joins(mp)
        assert segmenter._contract(texts, threshold) == contract_reference(texts, threshold)


def _force_shards(mp, cpus):
    """Make _contract deal its rows to `cpus` shards, given that many rows."""
    mp.setattr(segmenter, "_ROWS_PER_SHARD", 1)
    mp.setattr(segmenter.os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("cpus", [2, 3])
@given(texts=_sentence_lists(), threshold=st.sampled_from([0.0, 0.8, 1.0]))
def test_sharded_contract_roots_equal_all_pairs_reference(cpus, texts, threshold):
    # a shard that fails its check exits 1, and _contract raises ChildProcessError
    with pytest.MonkeyPatch.context() as mp:
        _force_shards(mp, cpus)
        _check_joins(mp)
        assert segmenter._contract(texts, threshold) == contract_reference(texts, threshold)


def test_flow_graph_is_the_same_at_one_and_two_shards(monkeypatch, caplog):
    docs, _ = generate_synthetic_corpus(seed=7, n_docs=80)
    caplog.set_level(logging.INFO, logger="courtnet.segmenter")
    graphs, shards = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(segmenter.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        caplog.clear()
        graphs.append([build_flow_graph([d for d in docs if d.jurisdiction == jur])
                       for jur in ("agen", "douai")])
        shards.append(re.findall(r"long: \d+ texts, (\d+) shards", caplog.text))
    assert graphs[0] == graphs[1]
    assert shards == [["1", "1"], ["2", "2"]]


def _scan_failing(how):
    scan = segmenter._scan_rows

    def failing(shard, *args):
        if shard == 0:
            return scan(shard, *args)
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("shard failed")
    return failing


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_shard_exits_1_leaving_no_file_and_no_child(tmp_path, monkeypatch, capfd, how):
    out = tmp_path / "out"
    assert main(["synth", "--output-dir", str(out), "--n-docs", "10"]) == 0
    monkeypatch.setattr(segmenter, "_scan_rows", _scan_failing(how))
    _force_shards(monkeypatch, 2)
    capfd.readouterr()
    assert main(["flowgraph", "--output-dir", str(out)]) == 1
    err = capfd.readouterr().err
    assert "flow-graph contraction: shard 1 of 2" in err
    assert "Traceback" not in err
    assert not list(out.glob("flow_*")) and not list(out.glob(".courtnet-*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_interrupt_in_the_parent_reaps_every_shard(monkeypatch):
    def scan(shard, *args):
        if shard == 0:
            raise KeyboardInterrupt
        time.sleep(60)  # still running when the parent is interrupted

    monkeypatch.setattr(segmenter, "_scan_rows", scan)
    _force_shards(monkeypatch, 3)
    with pytest.raises(KeyboardInterrupt):
        segmenter._contract(["abc", "abd", "abe"], 0.8)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_second_fork(mp):
    """Make os.fork raise OSError on its second call, as it may when the system
    is out of processes or memory."""
    fork, calls = os.fork, []

    def failing():
        calls.append(None)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()
    mp.setattr(segmenter.os, "fork", failing)


def test_a_failed_fork_closes_every_pipe_and_reaps_the_forked_shard(monkeypatch):
    _force_shards(monkeypatch, 3)
    _fail_second_fork(monkeypatch)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="fork refused"):
        segmenter._contract(["abc", "abd", "abe"], 0.8)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) <= open_fds


def test_a_failed_fork_exits_1_leaving_no_file(tmp_path, monkeypatch, capfd):
    out = tmp_path / "out"
    assert main(["synth", "--output-dir", str(out), "--n-docs", "10"]) == 0
    _force_shards(monkeypatch, 3)
    _fail_second_fork(monkeypatch)
    capfd.readouterr()
    assert main(["flowgraph", "--output-dir", str(out)]) == 1
    err = capfd.readouterr().err
    assert "fork refused" in err and "Traceback" not in err
    assert not list(out.glob("flow_*")) and not list(out.glob(".courtnet-*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _segments_or_error(text, profile):
    """segment()'s spans in the form segment_reference gives them."""
    try:
        seg = segment(_doc(text), profile)
    except OutOfOrderMarkers:
        return "out of order"
    except MissingConclusion:
        return "no conclusion"
    return [(sg.name, sg.start, sg.end) for sg in seg.segments]


def _reference(text, profile):
    markers = [(m.segment, m.variants) for m in profile.markers]
    return segment_reference(text, markers, profile.jaro_threshold)


def _with(profile, threshold=None, **variants):
    """The profile with another threshold, or other variants for some segments."""
    markers = tuple(Marker(m.segment, variants.get(m.segment, m.variants)) for m in profile.markers)
    return KeywordProfile(profile.jurisdiction, markers,
                          profile.jaro_threshold if threshold is None else threshold)


# The built-in profiles, and profiles that share their markers at another
# threshold or give one segment other variants.
MEMO_PROFILES = [*PROFILES.values(), _with(PROFILES["douai"], 0.95), _with(PROFILES["agen"], 0.5),
                 _with(PROFILES["douai"], debate=("DEBATZ",)),
                 _with(PROFILES["generic"], 0.9, appellee=("INTIMEES", "ET"))]
# Headings, near misses of them, party lines, blank and mark-only lines.
MEMO_LINES = [*VARIANTS, "DÉBATZ", "Débats :", "  intimée ", "APPELANTS", "ENTREE", "EST",
              "AYANT POUR AVOCATE", "PAR CE MOTIF", "Monsieur Paul MARTIN", "représenté par Me DURAND",
              "Confirme le jugement.", "", "   ", "\u0301", "ET ENTRE"]


_MEMO_DOCS = st.lists(st.tuples(st.sampled_from(MEMO_LINES),
                                st.sampled_from(["\n", "\n", "\r\n", "\x0b", "\u2028"])),
                      max_size=14).map(lambda lines: "".join(line + end for line, end in lines))


@given(st.lists(st.tuples(_MEMO_DOCS, st.permutations(range(len(MEMO_PROFILES)))),
                min_size=1, max_size=4),
       st.booleans())
def test_segment_over_repeated_lines_equals_unmemoised_reference(docs, fresh):
    # each document runs under three profiles and shares its lines with the
    # others, so later runs read verdicts that earlier ones left in the memo;
    # an empty memo makes the first run fold and test every line it reaches
    if fresh:
        segmenter._matcher.cache_clear()
    for text, order in docs:
        for pid in order[:3]:
            profile = MEMO_PROFILES[pid]
            assert _segments_or_error(text, profile) == _reference(text, profile)


def test_each_threshold_and_variant_set_has_its_own_verdict():
    # "DEBATZ" scores 0.89 against DEBATS: above 0.8, not above 0.95
    text = "COUR\nDEBATZ\nLes parties.\nPAR CES MOTIFS\nConfirme.\n"
    debate = (text.index("Les"), text.index("PAR"))
    loose, strict = _with(PROFILES["douai"], 0.8), _with(PROFILES["douai"], 0.95)
    own = _with(PROFILES["douai"], 0.95, debate=("DEBATZ",))
    for order in ([loose, strict, own], [own, strict, loose], [strict, loose, strict, own]):
        for profile in order:
            spans = {name: (start, end) for name, start, end in _segments_or_error(text, profile)}
            assert (spans.get("debate") == debate) == (profile is not strict)
            assert _segments_or_error(text, profile) == _reference(text, profile)
