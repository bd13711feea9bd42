"""Arbitrary input into the input layer: only the documented errors escape."""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from courtnet.corpus import Document, read_corpus, strip_rtf
from courtnet.errors import InputError, MissingConclusion, OutOfOrderMarkers
from courtnet.segmenter import PROFILES, segment

from test_corpus import RTF_TOKENS

# Control-word parameters: short ones, and ones past the 4,300 digits that
# int() converts, with or without leading zeros.
_PARAMS = st.one_of(
    st.text("0123456789", min_size=1, max_size=25),
    st.tuples(st.text("0", max_size=3), st.integers(4_250, 5_000), st.sampled_from("0123456789"))
    .map(lambda t: t[0] + t[2] * t[1]),
)
_CONTROL_WORDS = st.tuples(st.sampled_from(["\\u", "\\uc", "\\par", "\\x"]),
                           st.sampled_from(["", "-"]), _PARAMS, st.sampled_from(["", " ", "?"])
                           ).map("".join)


@settings(suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(st.sampled_from(RTF_TOKENS), _CONTROL_WORDS, st.text(max_size=5)),
                max_size=30).map("".join))
def test_strip_rtf_returns_text_for_any_input(source):
    assert isinstance(strip_rtf(source), str)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_FIELDS = ["doc_id", "jurisdiction", "text", "source_path"]
# documents: well-formed, or with fields of any type, some missing, some extra
_DOC_LINES = st.one_of(
    st.fixed_dictionaries({name: st.text(max_size=8) for name in _FIELDS}),
    st.dictionaries(st.sampled_from([*_FIELDS, "x"]), _JSON | st.text(max_size=8), max_size=5),
).map(json.dumps)
_LINES = st.one_of(
    _DOC_LINES,
    _JSON.map(json.dumps),
    st.text(max_size=20),
    st.integers(4_290, 4_310).map(lambda n: "7" * n),  # an int that json may refuse
).map(lambda line: line.encode("utf-8", "surrogatepass"))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(_LINES, st.binary(max_size=20)), max_size=4))
def test_read_corpus_raises_only_input_errors(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines))
    try:
        docs = read_corpus(path)
    except InputError:
        return
    assert all(isinstance(doc, Document) for doc in docs)


# lines that hit, nearly hit or miss the markers of the built-in profiles
_VARIANTS = sorted({v for p in PROFILES.values() for m in p.markers for v in m.variants})
_TEXT_LINES = st.one_of(
    st.sampled_from(_VARIANTS),
    st.just("PAR CES MOTIFS"),
    st.sampled_from(_VARIANTS).map(lambda v: f" {v.lower()[:-1]}é :"),
    st.text(max_size=12),
)


@given(st.lists(st.tuples(_TEXT_LINES, st.sampled_from(["\n", "\r\n", "\x0b", " ", ""])),
                max_size=12).map(lambda lines: "".join(a + b for a, b in lines)),
       st.sampled_from(sorted(PROFILES)))
def test_segment_raises_only_segmentation_errors(text, name):
    try:
        judged = segment(Document("d", name, text), PROFILES[name])
    except (MissingConclusion, OutOfOrderMarkers):
        return
    judged.check_offsets(text)
