"""String folding and Jaro similarity."""

import itertools
import random
import string

import pytest
from hypothesis import example, given, strategies as st

from courtnet import textmetrics
from courtnet.segmenter import _contract
from courtnet.textmetrics import DEFAULT_THRESHOLD, check_threshold, fold, fold_aligned, jaro

from oracles import fold_aligned_reference, fold_reference, jaro_reference

# Heading pairs with frozen expected similarities, and the classic
# six-letter transposition example.
KNOWN_PAIRS = [
    ("faits et procedure", "faits procedure", 0.8555555555555556),
    (
        "procedure et pretentions des parties",
        "procedure et moyens des parties",
        0.8332200387261567,
    ),
    (
        "moyens et pretentions des parties",
        "pretentions et moyens des parties",
        0.9191919191919192,
    ),
    ("MARTHA", "MARHTA", 0.9444444444444445),
]


def test_fold_strips_accents_and_case():
    assert fold("Présidente : Mme ÉLODIE Raphaël") == "presidente : mme elodie raphael"
    assert fold("FAITS ET PROCÉDURE") == "faits et procedure"
    assert fold("") == ""


def test_fold_aligned_preserves_length():
    rng = random.Random(11)
    pool = "éÉàâÎïùç œ" + string.ascii_letters + string.digits
    for _ in range(300):
        s = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 30)))
        shadow = fold_aligned(s)
        assert len(shadow) == len(s)
    assert fold_aligned("Étè") == "ete"


def test_fold_equals_reference_on_every_code_point():
    # Block by block, emptying the memo tables after each block: holding an
    # entry for every code point would take some hundreds of megabytes.
    code_points = itertools.chain(range(0xD800), range(0xE000, 0x110000))
    while block := "".join(map(chr, itertools.islice(code_points, 0x10000))):
        try:
            assert fold(block) == fold_reference(block)
            aligned = fold_aligned(block)
            assert len(aligned) == len(block)
            assert aligned == fold_aligned_reference(block)
            # what makes _fold_with's replace passes commute
            for table, folded in ((textmetrics._FOLD, fold(block)),
                                  (textmetrics._FOLD_ALIGNED, aligned)):
                assert [c for c in set(folded) if table[ord(c)] != c] == []
        finally:
            textmetrics._FOLD.clear()
            textmetrics._FOLD_ALIGNED.clear()


# Texts long enough for the replace passes: ASCII runs between French letters
# (which fold to ASCII) and characters that fold to themselves; sometimes a
# character that folds to non-ASCII, a combining mark, or many distinct
# characters, the last of which send the whole text through the table.
FOLD_RUNS = ["Cour d'appel ", "ARRET", "x" * 40, " ", "\n", "A", "Z9", "Me DURAND, "]
FOLD_FRENCH = ["é", "É", "à", "È", "ç", "Ç", "ê", "Ê", "ô", "ß", "ﬁ", "ǅ", "İ", "\u00a0",
               "«", "’", "°", "œ", "Œ"]
FOLD_ODD = ["Ω", "\u0301", "ÿ"]


@given(st.lists(st.one_of(st.sampled_from(FOLD_RUNS), st.sampled_from(FOLD_FRENCH)),
                min_size=10, max_size=40),
       st.one_of(st.just(""), st.sampled_from(FOLD_ODD), st.text(min_size=1, max_size=20)))
def test_fold_equals_reference_on_mixed_texts(pieces, odd):
    for text in ("".join(pieces), "".join(pieces) + odd):
        assert fold(text) == fold_reference(text)
        assert fold_aligned(text) == fold_aligned_reference(text)


def test_fold_passes_a_lone_surrogate_through():
    text = "Me Anne\ud800 PERRIN, avocat au barreau de Douai, " * 3 + "\udfff É"
    assert fold(text) == fold_reference(text)
    assert fold_aligned(text) == fold_aligned_reference(text)
    assert "\ud800" in fold(text) and "\udfff" in fold_aligned(text)


def test_fold_of_texts_that_go_through_the_table_equals_reference():
    # more distinct characters than the replace passes take, and texts that
    # are mostly non-ASCII, folding to ASCII or not
    for text in ("La cour " * 80 + "".join(map(chr, range(0xC0, 0x180))),
                 "Ο Πρόεδρος του Δικαστηρίου, ΕΦΕΤΕΙΟ " * 3, "éÉèàÀ Çç " * 20):
        assert fold(text) == fold_reference(text)
        assert fold_aligned(text) == fold_aligned_reference(text)


# Small alphabets make matches, transpositions and repeated letters common.
# The accented letters, the combining acute (U+0301), the fi ligature and
# sharp s fold to other characters or to other lengths.
JARO_ALPHABETS = ["ab", "abc ", "aAeé\u0301", "abcdeÉè", "sßSﬁf\u0301i", "MARTHA"]


@st.composite
def _text_pairs(draw):
    alphabet = draw(st.sampled_from(JARO_ALPHABETS))
    return draw(st.text(alphabet, max_size=30)), draw(st.text(alphabet, max_size=30))


def _folded_jaro(s1, s2):
    """Jaro of two strings as the program compares them: folded first."""
    return jaro(fold(s1), fold(s2))


@given(_text_pairs())
def test_jaro_equals_reference_exactly(pair):
    s1, s2 = pair
    expected = jaro_reference(s1, s2)
    assert _folded_jaro(s1, s2) == expected
    a, b = fold(s1), fold(s2)
    assert jaro(a, b) == expected
    code = {ch: c for c, ch in enumerate(sorted(set(a + b)))}
    codes_a, codes_b = ([code[ch] for ch in text] for text in (a, b))
    positions_b = textmetrics._positions(codes_b, len(code))
    assert textmetrics._jaro(codes_a, codes_b, positions_b) == expected


# Codes below and above 256; each stands for a CJK ideograph, which folds to itself.
KERNEL_CODES = [0, 1, 2, 7, 255, 256, 300, 4000]


@st.composite
def _code_pairs(draw):
    codes = st.sampled_from(draw(st.lists(st.sampled_from(KERNEL_CODES), min_size=1,
                                          max_size=4, unique=True)))
    return draw(st.lists(codes, max_size=30)), draw(st.lists(codes, max_size=30))


@given(_code_pairs(), st.integers(0, 3))
@example(([5], [5]), 0)  # one code each
@example(([5], [6]), 2)  # a code absent from b
@example(([1, 2, 3], [3, 2, 1]), 0)  # window 0
@example(([256, 1, 300], [1, 300]), 1)
def test_kernel_on_codes_equals_reference(pair, spare):
    a, b = pair
    size = max(a + b, default=-1) + 1 + spare  # spare codes that neither text holds
    text_a, text_b = ("".join(chr(0x4E00 + c) for c in codes) for codes in pair)
    assert fold(text_a) == text_a and fold(text_b) == text_b
    got = textmetrics._jaro(a, b, textmetrics._positions(b, size))
    assert got == jaro_reference(text_a, text_b)


@pytest.mark.parametrize("s1,s2,expected", KNOWN_PAIRS)
def test_jaro_known_values(s1, s2, expected):
    assert _folded_jaro(s1, s2) == pytest.approx(expected, abs=1e-12)


def test_jaro_trivial_cases():
    assert _folded_jaro("abc", "abc") == 1.0
    assert _folded_jaro("", "") == 1.0
    assert _folded_jaro("abc", "") == 0.0
    assert _folded_jaro("", "abc") == 0.0
    assert _folded_jaro("abc", "xyz") == 0.0


def test_jaro_folds_before_comparing():
    assert _folded_jaro("PROCÉDURE", "procedure") == 1.0


def test_jaro_matches_reference_on_random_pairs():
    rng = random.Random(4217)
    alphabet = "abcde éÉ"
    for _ in range(2000):
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        s2 = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 14)))
        got = _folded_jaro(s1, s2)
        assert got == pytest.approx(jaro_reference(s1, s2), abs=1e-12)
        assert got == pytest.approx(_folded_jaro(s2, s1), abs=1e-12)
        assert 0.0 <= got <= 1.0


def test_contraction_threshold_is_strict():
    # jaro("entre", "et") computes to 0.8 up to float rounding, so the
    # strict comparison keeps it below the default threshold; _contract is
    # where the flow graph decides which sentences merge ([0, 0] merged)
    assert _folded_jaro("entre", "et") == pytest.approx(0.8, abs=1e-12)
    assert _contract(["entre", "et"], DEFAULT_THRESHOLD) == [0, 1]
    assert _contract(["entre", "et"], 0.8) == [0, 1]
    assert _contract(["entre", "et"], 0.79) == [0, 0]
    assert _contract(["FAITS ET PROCÉDURE", "faits procedure"], DEFAULT_THRESHOLD) == [0, 0]


def test_contraction_rejects_bad_thresholds():
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got -0.1"):
        check_threshold(-0.1)
    with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\], got 1.0001"):
        check_threshold(1.0001)
    # the closed interval endpoints are allowed
    check_threshold(0.0)
    check_threshold(1.0)
    assert _contract(["abc", "abc"], 0.0) == [0, 0]
    assert _contract(["abc", "abc"], 1.0) == [0, 1]
