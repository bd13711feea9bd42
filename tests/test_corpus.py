"""Document ingestion and the synthetic corpus generator."""

import pytest
from hypothesis import given, settings, strategies as st

from courtnet.corpus import (
    Document,
    dedupe_documents,
    ingest,
    normalize_newlines,
    read_corpus,
    strip_rtf,
    text_doc_id,
    write_corpus,
)
from courtnet.errors import InputError
from courtnet.extract import Outcome
from courtnet.jsonl import iter_jsonl
from courtnet.synth import DocumentTruth, generate_synthetic_corpus, write_truth
from courtnet.textmetrics import fold

from oracles import strip_rtf_reference


def test_text_doc_id_is_sha256_prefix():
    assert text_doc_id("hello") == "2cf24dba5fb0a30e"
    assert text_doc_id("hello") != text_doc_id("hello ")


def test_normalize_newlines():
    assert normalize_newlines("a\r\nb\rc\nd") == "a\nb\nc\nd"


def test_strip_rtf_handles_the_common_constructs():
    rtf = (
        r"{\rtf1\ansi{\fonttbl{\f0 Times;}}\f0\fs24 COUR D'APPEL"
        r"\par Arr\'eat du 3 mai\par{\*\generator Word;}texte\par}"
    )
    assert strip_rtf(rtf) == "COUR D'APPEL\nArrêt du 3 mai\ntexte\n"


def test_strip_rtf_reads_unicode_escapes_and_skips_their_fallback():
    assert strip_rtf(r"{\rtf1 Intim\u233?e}") == "Intimée"
    # \ucN sets the fallback length for its group; a hex escape is one unit
    assert strip_rtf(r"{\rtf1 {\uc2 Arr\u234\'65\'61t} \u8217\'92s}") == "Arrêt ’s"
    # negative N counts from 65536, and a surrogate pair makes one character
    assert strip_rtf(r"{\rtf1 \u-3913?\u-10179?\u-8704?}") == "\uf0b7\U0001f600"


# RTF tokens: group boundaries, raw newlines, hex and \uN escapes (negative,
# or half of a surrogate pair), \ucN, control words and destinations, and
# plain characters that a \uN fallback may skip.
RTF_TOKENS = ["{", "}", "\\", "\r", "\n", "\\'e9", "\\'", "\\u233", "\\u-3913",
              "\\u-10179", "\\u-8704", "\\uc2", "\\uc0", "\\par ", "\\par", "\\*",
              "\\fonttbl", "\\~", "\\\\", "\\{", "?", "a", "Z", "7", " ", "ab", "é"]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(RTF_TOKENS), max_size=40).map("".join))
def test_strip_rtf_equals_the_character_wise_reference(source):
    assert strip_rtf(source) == strip_rtf_reference(source)


def test_ingest_plain_text(tmp_path):
    p = tmp_path / "doc.txt"
    p.write_text("COUR D'APPEL\r\nPAR CES MOTIFS\r\nConfirme.", encoding="utf-8")
    doc = ingest(p, "douai")
    assert doc.text == "COUR D'APPEL\nPAR CES MOTIFS\nConfirme."
    assert doc.jurisdiction == "douai"
    assert doc.doc_id == text_doc_id(doc.text)
    assert doc.source_path.endswith("doc.txt")


def test_ingest_rtf_by_header_sniff(tmp_path):
    # extension says .txt but the payload is RTF
    p = tmp_path / "doc.txt"
    p.write_bytes(rb"{\rtf1\ansi Arr\'eat rendu\par}")
    assert ingest(p, "agen").text == "Arrêt rendu\n"


def test_ingest_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("  \n\n ", encoding="utf-8")
    with pytest.raises(InputError, match="no text content"):
        ingest(empty, "douai")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"juge \xff\xfe illisible")
    with pytest.raises(InputError, match="not valid UTF-8"):
        ingest(bad, "douai")
    with pytest.raises(InputError, match="absent.txt: .*No such file"):
        ingest(tmp_path / "absent.txt", "douai")


def test_dedupe_keeps_first_occurrence():
    a = Document(doc_id="x1", jurisdiction="douai", text="t", source_path="a.txt")
    b = Document(doc_id="x1", jurisdiction="douai", text="t", source_path="b.txt")
    c = Document(doc_id="x2", jurisdiction="agen", text="u", source_path="c.txt")
    unique, dropped = dedupe_documents([a, b, c])
    assert [d.source_path for d in unique] == ["a.txt", "c.txt"]
    assert dropped == 1


def test_corpus_round_trip(tmp_path):
    docs, _ = generate_synthetic_corpus(seed=3, n_docs=6)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, docs)
    again = read_corpus(path)
    assert sorted(d.doc_id for d in docs) == [d.doc_id for d in again]
    by_id = {d.doc_id: d for d in docs}
    for d in again:
        assert d.text == by_id[d.doc_id].text
        assert d.jurisdiction == by_id[d.doc_id].jurisdiction


def test_truth_round_trip(tmp_path):
    _, truth = generate_synthetic_corpus(seed=3, n_docs=6)
    path = tmp_path / "truth.jsonl"
    write_truth(path, truth)
    again = {t.doc_id: t for _, t in iter_jsonl(path, DocumentTruth)}
    assert set(again) == set(truth.entries)
    for doc_id, entry in truth.entries.items():
        assert again[doc_id] == entry


def test_generator_is_deterministic():
    docs1, truth1 = generate_synthetic_corpus(seed=21, n_docs=40)
    docs2, truth2 = generate_synthetic_corpus(seed=21, n_docs=40)
    assert [d.text for d in docs1] == [d.text for d in docs2]
    assert truth1.dominant_lawyer == truth2.dominant_lawyer
    assert truth1.entries == truth2.entries
    docs3, _ = generate_synthetic_corpus(seed=22, n_docs=40)
    assert [d.text for d in docs1] != [d.text for d in docs3]


def test_generator_respects_the_mix():
    docs, _ = generate_synthetic_corpus(seed=5, n_docs=10, mix={"douai": 0.5, "agen": 0.5})
    counts = {}
    for d in docs:
        counts[d.jurisdiction] = counts.get(d.jurisdiction, 0) + 1
    assert counts == {"douai": 5, "agen": 5}
    docs, _ = generate_synthetic_corpus(seed=5, n_docs=7, mix={"douai": 1.0})
    assert all(d.jurisdiction == "douai" for d in docs)
    assert len(docs) == 7


def test_generator_rejects_bad_mixes():
    for mix, message in [({}, "mix is empty"), ({"paris": 1.0}, "unknown jurisdiction layout"),
                         ({"douai": -0.2, "agen": 1.2}, "weight for 'douai' must be positive"),
                         ({"douai": 0.6, "agen": 0.6}, "mix weights must sum to 1")]:
        with pytest.raises(ValueError, match=message):
            generate_synthetic_corpus(seed=1, n_docs=4, mix=mix)


def test_generator_truth_invariants():
    docs, truth = generate_synthetic_corpus(seed=13, n_docs=300)
    assert len({d.doc_id for d in docs}) == 300
    dominant = truth.dominant_lawyer
    losses = {}
    for entry in truth.entries.values():
        appellants = {" ".join(fold(n).split()) for n in entry.appellant_lawyers}
        appellees = {" ".join(fold(n).split()) for n in entry.appellee_lawyers}
        # the planted dominant lawyer only ever appears on the winning side
        if dominant in appellants:
            assert entry.outcome is Outcome.APPELLANT_WINS
        if dominant in appellees:
            assert entry.outcome is Outcome.APPELLEE_WINS
        if entry.outcome is Outcome.APPELLANT_WINS:
            for n in appellees:
                losses[n] = losses.get(n, 0) + 1
        elif entry.outcome is Outcome.APPELLEE_WINS:
            for n in appellants:
                losses[n] = losses.get(n, 0) + 1
    # every other lawyer in the pool has at least one loss, so the
    # dominant one is the unique lawyer with a perfect record
    all_names = set()
    for entry in truth.entries.values():
        for n in entry.appellant_lawyers + entry.appellee_lawyers:
            all_names.add(" ".join(fold(n).split()))
    for name in all_names - {dominant}:
        assert losses.get(name, 0) >= 1, name
    assert losses.get(dominant, 0) == 0


def test_generator_lines_never_collide_with_markers():
    # a stray line resembling a marker variant would corrupt segmentation,
    # so no generated line may start with "et" and short lines are banned
    for seed in (0, 99, 2024):
        docs, _ = generate_synthetic_corpus(seed=seed, n_docs=50)
        for doc in docs:
            for line in doc.text.split("\n"):
                stripped = line.strip()
                if not stripped:
                    continue
                folded = fold(stripped)
                assert len(stripped) >= 6 or folded in ("et", "entre")
                assert not folded.startswith("et ")
