"""The synthetic judgment generator of the `synth` command: layout-faithful judgments
with a known ground truth, so every downstream stage can be checked end to end."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .corpus import Document, text_doc_id
from .extract import ArticleRef, Outcome, canonical_name, majority
from .jsonl import write_jsonl
from .mix import DEFAULT_MIX, jurisdiction_counts
from .segmenter import Segment, cut


@dataclass(frozen=True)
class DocumentTruth:
    doc_id: str
    appellant_lawyers: tuple[str, ...]
    appellee_lawyers: tuple[str, ...]
    outcome: Outcome
    articles: frozenset[ArticleRef]
    segments: tuple[Segment, ...]


@dataclass
class SyntheticGroundTruth:
    entries: dict[str, DocumentTruth] = field(default_factory=dict)
    dominant_lawyer: str = ""  # canonical form of the planted top performer


def write_truth(path: str | Path, truth: SyntheticGroundTruth) -> None:
    write_jsonl(path, (t for _, t in sorted(truth.entries.items())))


_FIRST = [
    "Claire", "Paul", "Jean", "Marie", "Sophie", "Luc", "Anne", "Pierre",
    "Camille", "Hugo", "Julie", "Marc", "Elise", "Louis", "Nadia", "Simon",
    "Agnes", "Victor", "Helene", "Bruno",
]
_LAST = [
    "DUBOIS", "LEROY", "MARTIN", "BERNARD", "MOREAU", "PETIT", "DURAND",
    "ROUX", "FONTAINE", "GIRARD", "LAMBERT", "CARON", "MERCIER", "BLANC",
    "GARNIER", "FAURE", "ROLLAND", "PERRIN",
]
_STREETS = [
    "rue des Lilas", "avenue de la Republique", "boulevard Carnot",
    "rue Nationale", "place du Marche", "rue Saint-Jacques",
]
_CITIES = ["Douai", "Lille", "Agen", "Toulouse", "Arras", "Cahors"]
_MONTHS = [
    "JANVIER", "FEVRIER", "MARS", "AVRIL", "MAI", "JUIN",
    "JUILLET", "SEPTEMBRE", "OCTOBRE", "NOVEMBRE", "DECEMBRE",
]

# (display code, canonical code, article number) grouped by subject matter so
# same-theme cases share citations and the case graph gets real structure
_THEMES = [
    [
        ("code de procédure civile", "code de procedure civile", "700"),
        ("code de procédure civile", "code de procedure civile", "696"),
        ("code de procédure civile", "code de procedure civile", "455"),
        ("code de procédure civile", "code de procedure civile", "561"),
        ("code de procédure civile", "code de procedure civile", "564"),
    ],
    [
        ("code civil", "code civil", "1103"),
        ("code civil", "code civil", "1231-1"),
        ("code civil", "code civil", "1240"),
        ("code civil", "code civil", "544"),
        ("code civil", "code civil", "1353"),
    ],
    [
        ("code de commerce", "code de commerce", "L. 145-41"),
        ("code de commerce", "code de commerce", "L. 622-21"),
        ("code de commerce", "code de commerce", "L. 110-4"),
        ("code de commerce", "code de commerce", "R. 145-7"),
    ],
]
_BARE_ARTICLES = ["458", "462", "446-1"]

_CONFIRM_LINES = [
    "Confirme le jugement entrepris en toutes ses dispositions.",
    "Confirme la décision déférée.",
    "Déclare l'appel irrecevable.",
    "Dit que les demandes de la partie appelante sont rejetées.",
]
_REVERSE_LINES = [
    "Infirme le jugement entrepris.",
    "Infirme la décision déférée en toutes ses dispositions.",
    "Réforme le jugement sur le montant des dommages et intérêts.",
    "Rectifie l'erreur matérielle affectant le dispositif.",
]
_NEUTRAL_TAILS = [
    "Condamne la partie perdante aux dépens.",
    "Dit que chaque partie conservera la charge de ses propres dépens.",
    "Déboute les parties de leurs demandes plus amples ou contraires.",
]
_CITATION_TEMPLATES = [
    "Vu l'article {num} du {code}, le moyen est examiné.",
    "Aux termes de l'article {num} du {code}, la demande est fondée.",
    "Selon l'article {num} du {code}, il appartient au juge de trancher.",
]
_PAIR_TEMPLATE = (
    "En application des articles {a} et {b} du {code}, il y a lieu de statuer."
)
_BARE_TEMPLATE = "Il sera fait application de l'article {num}."
_FILLER_LINES = [
    "Les parties ont été régulièrement convoquées à l'audience.",
    "La procédure est régulière au regard des dispositions applicables.",
    "Le premier juge a fait une exacte appréciation des faits de la cause.",
    "Il ressort des pièces produites que les prétentions sont partiellement justifiées.",
    "Les moyens soulevés ne sont pas de nature à remettre en cause la décision.",
    "La cour examine les demandes dans l'ordre du dispositif.",
]

class _Builder:
    """Accumulates lines while tracking character offsets."""

    def __init__(self):
        self.parts: list[str] = []
        self.pos = 0
        self.markers: list[tuple[str, int, int]] = []  # (segment, line start, line end)

    def line(self, s: str = "") -> int:
        start = self.pos
        self.parts.append(s + "\n")
        self.pos += len(s) + 1
        return start

    def marker(self, segment: str, s: str) -> None:
        start = self.line(s)
        self.markers.append((segment, start, self.pos))

    def text(self) -> str:
        return "".join(self.parts)


def _lawyer_pool(rng) -> list[str]:
    specials = ["Anne-Claire MARTIN", "Hugo de La TOUR", "J. RENAUD"]
    combos = [f"{f} {l}" for f in _FIRST for l in _LAST]
    rng.shuffle(combos)
    pool: list[str] = []
    seen: set[str] = set()
    for name in specials + combos:
        canon = canonical_name(name)
        if canon not in seen:
            seen.add(canon)
            pool.append(name)
        if len(pool) == 36:
            break
    return pool


def _plan_outcome(rng) -> tuple[int, int, Outcome]:
    r = rng.random()
    if r < 0.03:
        counts = (1, 1)  # explicit keyword tie
    elif r < 0.05:
        counts = (0, 0)  # operative part without outcome keywords
    elif r < 0.15:
        # conflicting keywords, majority decides
        counts = (2, 1) if rng.random() < 0.5 else (1, 2)
    else:
        n = rng.randint(1, 3)
        counts = (n, 0) if rng.random() < 0.75 else (0, n)
    confirm, reverse = counts
    return confirm, reverse, majority(confirm, reverse)


def _plan_lawyers(rng, jurisdiction, outcome, pool, dominant, needs_loss):
    if jurisdiction == "douai" and rng.random() < 0.04:
        return [], []  # no counsel anywhere in the document
    n_app = 2 if rng.random() < 0.2 else 1
    n_ape = 2 if rng.random() < 0.2 else 1
    if jurisdiction == "douai" and rng.random() < 0.05:
        if rng.random() < 0.5:
            n_app = 0
        else:
            n_ape = 0
    names = {"app": [], "ape": []}
    slots = {"app": n_app, "ape": n_ape}
    used: set[str] = set()

    if outcome is not Outcome.UNDETERMINED:
        win, lose = (
            ("ape", "app") if outcome is Outcome.APPELLEE_WINS else ("app", "ape")
        )
        # every ordinary lawyer takes a loss early on, so only the planted
        # dominant one can finish with a perfect record
        if slots[lose] >= 1 and needs_loss:
            cand = needs_loss.popleft()
            names[lose].append(cand)
            used.add(cand)
        if slots[win] >= 1 and rng.random() < 0.12:
            names[win].append(dominant)
            used.add(dominant)

    for side in ("app", "ape"):
        while len(names[side]) < slots[side]:
            cand = pool[rng.randrange(len(pool))]
            if cand == dominant or cand in used:
                continue
            names[side].append(cand)
            used.add(cand)
    return names["app"], names["ape"]


def _plan_articles(rng) -> list[tuple[str, str, str]]:
    theme = _THEMES[rng.randrange(len(_THEMES))]
    n = min(rng.randint(2, 4), len(theme))
    chosen = rng.sample(theme, n)
    if rng.random() < 0.2:
        chosen.append(("unknown", "unknown", rng.choice(_BARE_ARTICLES)))
    return chosen


def _citation_lines(rng, articles) -> list[str]:
    lines = []
    by_code: dict[str, list[tuple[str, str, str]]] = {}
    for art in articles:
        by_code.setdefault(art[0], []).append(art)
    for code in sorted(by_code):
        group = by_code[code]
        if code == "unknown":
            for _, _, num in group:
                lines.append(_BARE_TEMPLATE.format(num=num))
            continue
        if len(group) >= 2 and rng.random() < 0.5:
            a, b = group[0][2], group[1][2]
            lines.append(_PAIR_TEMPLATE.format(a=a, b=b, code=code))
            group = group[2:]
        for _, _, num in group:
            tpl = _CITATION_TEMPLATES[rng.randrange(len(_CITATION_TEMPLATES))]
            lines.append(tpl.format(num=num, code=code))
    return lines


def _party_name(rng) -> tuple[str, str]:
    return rng.choice(_FIRST), rng.choice(_LAST)


def _emit_party_douai(b, rng, lawyers):
    civility = rng.choice(["MONSIEUR", "MADAME"])
    first, last = _party_name(rng)
    city = rng.choice(_CITIES)
    b.line(f"{civility} {first.upper()} {last}")
    b.line(f"demeurant {rng.randint(1, 60)} {rng.choice(_STREETS)} à {city}")
    if lawyers:
        verb = "représentée par" if civility == "MADAME" else "représenté par"
        joined = " et ".join(f"Me {n}" for n in lawyers)
        suffix = "avocats au barreau de" if len(lawyers) > 1 else "avocat au barreau de"
        b.line(f"{verb} {joined}, {suffix} {city}")


def _emit_party_agen(b, rng):
    civility = rng.choice(["Monsieur", "Madame"])
    first, last = _party_name(rng)
    b.line(
        f"{civility} {first} {last}, demeurant {rng.randint(1, 60)} "
        f"{rng.choice(_STREETS)} à {rng.choice(_CITIES)}"
    )


def _emit_counsel_agen(b, rng, lawyers):
    for name in lawyers:
        b.line(f"Me {name}, avocat au barreau de {rng.choice(_CITIES)}")


def _emit_court_entities(b, rng):
    for role in ("Président", "Conseiller", "Greffier"):
        first, last = _party_name(rng)
        b.line(f"{role} : {first} {last}")


def _gen_doc(rng, index, jurisdiction, pool, dominant, needs_loss):
    confirm, reverse, outcome = _plan_outcome(rng)
    app_lawyers, ape_lawyers = _plan_lawyers(
        rng, jurisdiction, outcome, pool, dominant, needs_loss
    )
    articles = _plan_articles(rng)

    debate_lines = _citation_lines(rng, articles)
    debate_lines += rng.sample(_FILLER_LINES, rng.randint(2, 3))
    rng.shuffle(debate_lines)

    outcome_lines = rng.sample(_CONFIRM_LINES, confirm) + rng.sample(_REVERSE_LINES, reverse)
    rng.shuffle(outcome_lines)

    year = rng.choice([2016, 2017])
    rg = f"{year % 100:02d}/{4200 + index:05d}"
    date = f"{rng.randint(2, 28)} {rng.choice(_MONTHS)} {year}"

    douai = jurisdiction == "douai"  # any other jurisdiction takes Agen's layout
    b = _Builder()
    b.line("COUR D'APPEL DE DOUAI" if douai else "COUR D'APPEL D'AGEN")
    b.line(f"ARRÊT DU {date}")
    b.line(f"N° RG : {rg}")
    b.line()
    if douai:
        b.marker("appellant", rng.choice(["APPELANT", "APPELANTE"]))
        _emit_party_douai(b, rng, app_lawyers)
        b.line()
        b.marker("appellee", rng.choice(["INTIMÉ", "INTIMÉE"]))
        _emit_party_douai(b, rng, ape_lawyers)
    else:
        b.marker("appellant", "ENTRE")
        _emit_party_agen(b, rng)
        b.line()
        b.marker("appellant_counsel", "AYANT POUR AVOCAT")
        _emit_counsel_agen(b, rng, app_lawyers)
        b.line()
        b.marker("appellee", "ET")
        _emit_party_agen(b, rng)
        b.line()
        b.marker("appellee_counsel", "AYANT POUR AVOCAT")
        _emit_counsel_agen(b, rng, ape_lawyers)
    b.line()
    b.marker("court_entities", "COMPOSITION DE LA COUR")
    _emit_court_entities(b, rng)
    b.line()
    if douai:
        b.marker("debate", "DÉBATS")
    else:
        b.marker(
            "debate",
            "FAITS ET PROCÉDURE" if rng.random() < 0.8 else "FAITS PROCEDURE",
        )
    for line in debate_lines:
        b.line(line)
    b.line()
    b.marker("conclusion", "PAR CES MOTIFS")
    b.line("La cour, statuant publiquement et contradictoirement,")
    for line in outcome_lines:
        b.line(line)
    b.line(rng.choice(_NEUTRAL_TAILS))

    text = b.text()
    doc = Document(
        doc_id=text_doc_id(text),
        jurisdiction=jurisdiction,
        text=text,
        source_path=f"synthetic:{index:05d}",
    )
    truth = DocumentTruth(
        doc_id=doc.doc_id,
        appellant_lawyers=tuple(app_lawyers),
        appellee_lawyers=tuple(ape_lawyers),
        outcome=outcome,
        articles=frozenset(ArticleRef(canon, num) for _, canon, num in articles),
        segments=tuple(cut(b.markers, b.pos)),
    )
    return doc, truth


def generate_synthetic_corpus(
    seed: int,
    n_docs: int,
    mix: Mapping[str, float] = DEFAULT_MIX,
) -> tuple[list[Document], SyntheticGroundTruth]:
    """Generate a corpus of synthetic judgments with known ground truth.

    Same seed, size and mix always produce the identical corpus. The ground
    truth records, per document, the planted lawyers, outcome, article
    citations and segment boundaries; it also names the planted dominant
    lawyer, who only ever appears on winning sides.
    """
    import random

    counts = jurisdiction_counts(n_docs, mix)

    rng = random.Random(seed)
    pool = _lawyer_pool(rng)
    dominant = pool[3]
    ordinary = [n for n in pool if n != dominant]
    rng.shuffle(ordinary)
    needs_loss = deque(ordinary)

    labels: list[str] = []
    for jur in sorted(counts):
        labels.extend([jur] * counts[jur])
    rng.shuffle(labels)

    docs: list[Document] = []
    truth = SyntheticGroundTruth(dominant_lawyer=canonical_name(dominant))
    for index, jurisdiction in enumerate(labels):
        doc, doc_truth = _gen_doc(rng, index, jurisdiction, pool, dominant, needs_loss)
        docs.append(doc)
        truth.entries[doc.doc_id] = doc_truth
    return docs, truth
