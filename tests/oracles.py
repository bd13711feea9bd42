"""Reference implementations the tests compare against.

Everything here is written independently of the package modules, in the
most obvious way available, so that agreement is meaningful: dense numpy
linear algebra for PageRank, exhaustive set-partition enumeration for
modularity, quadratic scans elsewhere.
"""

import dataclasses
import functools
from enum import Enum
from itertools import combinations
import math
import re
import types
import typing
import unicodedata
import xml.etree.ElementTree as ET

import numpy as np


def fold_reference(text):
    out = []
    for ch in unicodedata.normalize("NFKD", text):
        if not unicodedata.combining(ch):
            out.append(ch)
    return "".join(out).casefold()


def fold_aligned_reference(text):
    """One folded character per character: the first base character of its
    decomposition, case-folded to its first character."""
    out = []
    for ch in text:
        base = ch
        for c in unicodedata.normalize("NFKD", ch):
            if not unicodedata.combining(c):
                base = c
                break
        folded = base.casefold()
        out.append(folded[0] if folded else base)
    return "".join(out)


_RTF_CTRL_RE = re.compile(r"\\([a-zA-Z]+)(-?\d+)? ?")
_RTF_DESTINATIONS = {
    "fonttbl", "colortbl", "stylesheet", "info", "pict",
    "header", "footer", "footnote",
}


def strip_rtf_reference(source):
    """corpus.strip_rtf as it was before it consumed plain text a run at a
    time: one loop step per source character."""
    out = []
    i = 0
    depth = 0
    skip_depth = None
    uc = 1         # fallback units after each \uN
    outer_uc = []  # uc of each enclosing group
    fallback = 0   # fallback units still to skip
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "{":
            depth += 1
            outer_uc.append(uc)
            fallback = 0
            i += 1
            continue
        if ch == "}":
            depth -= 1
            if outer_uc:
                uc = outer_uc.pop()
            fallback = 0
            i += 1
            if skip_depth is not None and depth < skip_depth:
                skip_depth = None
            continue
        if ch in "\r\n":
            i += 1
            continue
        if fallback:
            fallback -= 1
            if ch != "\\":
                i += 1
            elif source[i + 1:i + 2] == "'":
                i += 4
            else:
                m = _RTF_CTRL_RE.match(source, i)
                i = m.end() if m else i + 2
            continue
        if ch == "\\":
            nxt = source[i + 1] if i + 1 < n else ""
            if nxt in "\\{}":
                if skip_depth is None:
                    out.append(nxt)
                i += 2
                continue
            if nxt == "'":
                if skip_depth is None and i + 3 < n:
                    try:
                        out.append(bytes([int(source[i + 2:i + 4], 16)]).decode("cp1252"))
                    except (ValueError, UnicodeDecodeError):
                        pass
                i += 4
                continue
            if nxt == "~":
                if skip_depth is None:
                    out.append(" ")
                i += 2
                continue
            if nxt == "*":
                if skip_depth is None:
                    skip_depth = depth
                i += 2
                continue
            m = _RTF_CTRL_RE.match(source, i)
            if m:
                word, param = m.groups()
                if word == "u" and param:
                    if skip_depth is None:
                        out.append(chr(int(param) % 65536))
                    fallback = uc
                elif word == "uc" and param:
                    uc = max(int(param), 0)
                elif skip_depth is None:
                    if word in ("par", "line"):
                        out.append("\n")
                    elif word == "tab":
                        out.append(" ")
                    elif word in _RTF_DESTINATIONS:
                        skip_depth = depth
                i = m.end()
                continue
            i += 1
            continue
        if skip_depth is None:
            out.append(ch)
        i += 1
    # \uN pairs make the characters past U+FFFF; a lone surrogate becomes U+FFFD
    return "".join(out).encode("utf-16-le", "surrogatepass").decode("utf-16-le", "replace")


def jaro_reference(s1, s2):
    """Jaro similarity with greedy windowed matching and floored
    transposition halving, computed over folded strings."""
    a = fold_reference(s1)
    b = fold_reference(s2)
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(max(len(a), len(b)) // 2 - 1, 0)
    used = [False] * len(b)
    pairs = []
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not used[j] and b[j] == ch:
                used[j] = True
                pairs.append((i, j))
                break
    m = len(pairs)
    if m == 0:
        return 0.0
    seq_a = [a[i] for i, _ in pairs]
    seq_b = [b[j] for _, j in sorted(pairs, key=lambda p: p[1])]
    diff = sum(1 for x, y in zip(seq_a, seq_b) if x != y)
    t = diff // 2
    return (m / len(a) + m / len(b) + (m - t) / m) / 3.0


def marker_hits_reference(line, variants, threshold):
    """Whether a line is one of a marker's headings: the stripped line is
    not blank, and for some variant its folded text starts with the variant,
    then no ending or one of the endings e, s and es, then its end or a
    character that is not alphanumeric, or its Jaro similarity to the
    variant exceeds the threshold."""
    stripped = line.strip()
    if not stripped:
        return False
    folded = fold_reference(stripped)
    for v in variants:
        fv = fold_reference(v)
        for word in (fv, fv + "e", fv + "s", fv + "es"):
            if folded.startswith(word) and not folded[len(word):len(word) + 1].isalnum():
                return True
        if jaro_reference(stripped, v) > threshold:
            return True
    return False


def segment_reference(text, markers, threshold):
    """(name, start, end) of each segment, or the error "out of order" or
    "no conclusion" as a string. markers lists (segment name, variants) in
    profile order; every line is tested with marker_hits_reference, nothing
    is remembered between lines or calls.

    Each marker takes the first hitting line after the previous marker's
    line. A marker that hits no line after it but hits one before it is out
    of order; an optional marker that hits none is left out, and the last
    one, the conclusion, is mandatory. A segment runs from the end of its
    marker line to the start of the next marker line, the conclusion from
    the start of its own line to the end of the text, and the header is
    whatever precedes the first marker line.
    """
    lines = text.splitlines(keepends=True)
    starts = [sum(len(line) for line in lines[:i]) for i in range(len(lines) + 1)]
    matched = []
    pos = 0
    for name, variants in markers:
        hits = [i for i, line in enumerate(lines) if marker_hits_reference(line, variants, threshold)]
        ahead = [i for i in hits if i >= pos]
        if ahead:
            matched.append((name, ahead[0]))
            pos = ahead[0] + 1
        elif hits:
            return "out of order"
        elif name == "conclusion":
            return "no conclusion"
    out = []
    if starts[matched[0][1]] > 0:
        out.append(("header", 0, starts[matched[0][1]]))
    for (name, i), nxt in zip(matched, matched[1:] + [None]):
        if name == "conclusion":
            out.append((name, starts[i], len(text)))
        else:
            out.append((name, starts[i + 1], starts[nxt[1]]))
    return out


def split_sentences_reference(text):
    """segmenter.split_sentences as it was before it searched for the
    terminators with a regular expression: one loop step per character."""
    if not text:
        return []
    breaks = set()
    for i, ch in enumerate(text):
        if ch not in ".!?;":
            continue
        j = i + 1
        while j < len(text) and text[j].isspace():
            j += 1
        if j == i + 1 or j >= len(text):
            continue
        nxt = text[j]
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        if ch == ".":
            k = i
            while k > 0 and (text[k - 1].isalnum() or text[k - 1] == "-"):
                k -= 1
            word = text[k:i]
            if len(word) == 1 and word.isalpha():
                continue
            if fold_reference(word) in {"me", "mme", "art"}:
                continue
        breaks.add(i + 1)
    start = 0
    for raw in text.splitlines(keepends=True):
        content = raw.rstrip("\r\n\v\f\x1c\x1d\x1e\x85\u2028\u2029")
        letters = [ch for ch in content if ch.isalpha()]
        if letters and not any(ch.islower() for ch in letters):
            breaks.add(start + len(content))
        start += len(raw)
    breaks.add(len(text))
    sentences = []
    start = 0
    for b in sorted(breaks):
        piece = text[start:b].strip()
        if piece:
            sentences.append(piece)
        start = b
    return sentences


_ARTICLE_NUM = r"(?:[lrd]\.?\s*)?\d+(?:[-.]\d+)*"
_ARTICLE_RE = re.compile(
    rf"\barticles?\s+({_ARTICLE_NUM}(?:\s+et\s+{_ARTICLE_NUM})*)"
    rf"(?:\s+(?:du|de\s+la|de\s+l')\s+([^\n.,;:()]+))?"
)


def extract_articles_reference(text, code_table):
    """(code, number) pairs cited in the text: extract.extract_articles as it
    was before it searched for "article" first, with re.finditer over the
    whole folded text."""
    refs = set()
    for m in _ARTICLE_RE.finditer(fold_reference(text)):
        numbers, code_raw = m.group(1), m.group(2)
        if code_raw is None:
            code = "unknown"
        else:
            code = " ".join(code_raw.split())
            code = code_table.get(code, code)
        for number in re.split(r"\s+et\s+", numbers):
            number = number.strip()
            prefixed = re.match(r"^([lrd])\.?\s*(\d.*)$", number)
            refs.add((code, f"{prefixed.group(1).upper()}. {prefixed.group(2)}" if prefixed
                      else number))
    return refs


def classify_outcome_reference(text):
    """(outcome value, confirm count, reverse count): extract.classify_outcome as
    it was before it matched the stems with one regular expression. Every
    [a-z0-9]+ token of the folded text that starts with a confirm stem counts
    for confirmation, else one that starts with a reverse stem for reversal;
    the majority decides, and a tie is undetermined."""
    from courtnet.extract import CONFIRM_STEMS, REVERSE_STEMS

    confirm = reverse = 0
    for token in re.findall(r"[a-z0-9]+", fold_reference(text)):
        if token.startswith(CONFIRM_STEMS):
            confirm += 1
        elif token.startswith(REVERSE_STEMS):
            reverse += 1
    if confirm == reverse:
        return "undetermined", confirm, reverse
    return ("appellee_wins" if confirm > reverse else "appellant_wins"), confirm, reverse


def contract_reference(texts, threshold):
    """Single-linkage roots over every pair: texts i < j join when neither
    folds to the empty string and their Jaro similarity exceeds the
    threshold; each text's root is the smallest index of its group."""
    folded = [fold_reference(t) for t in texts]
    root = list(range(len(texts)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in combinations(range(len(texts)), 2):
        if folded[i] and folded[j] and jaro_reference(texts[i], texts[j]) > threshold:
            ri, rj = find(i), find(j)
            root[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(texts))]


def pagerank_reference(node_ids, edges, damping, tol=1e-14, max_iter=100000):
    """Dense power iteration. Edges are (source, target, weight) triples;
    dangling nodes spread their mass uniformly over all nodes."""
    nodes = sorted(node_ids)
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    out = np.zeros(n)
    weight = np.zeros((n, n))  # weight[j, i] = mass i sends to j
    for u, v, w in edges:
        weight[index[v], index[u]] += w
        out[index[u]] += w
    matrix = np.zeros((n, n))
    for i in range(n):
        if out[i] > 0:
            matrix[:, i] = weight[:, i] / out[i]
        else:
            matrix[:, i] = 1.0 / n
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new = (1.0 - damping) / n + damping * (matrix @ x)
        if np.abs(new - x).sum() < tol:
            x = new
            break
        x = new
    return {v: float(x[index[v]]) for v in nodes}


def modularity_reference(n, edges, assignment):
    """Newman modularity of an unweighted simple graph. Edges are unique
    index pairs without self loops; assignment maps index to community."""
    m = len(edges)
    if m == 0:
        return 0.0
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    intra = {}
    total = {}
    for u, v in edges:
        if assignment[u] == assignment[v]:
            intra[assignment[u]] = intra.get(assignment[u], 0) + 1
    for v in range(n):
        total[assignment[v]] = total.get(assignment[v], 0) + degree[v]
    return sum(
        intra.get(c, 0) / m - (total[c] / (2.0 * m)) ** 2 for c in total
    )


def partitions_of(n):
    """All set partitions of range(n), as restricted growth strings."""
    a = [0] * n
    while True:
        yield list(a)
        # advance to the next restricted growth string
        i = n - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                a[i] += 1
                for j in range(i + 1, n):
                    a[j] = 0
                break
            a[i] = 0
            i -= 1
        else:
            return


def best_partition_reference(n, edges):
    """Exhaustively maximal modularity: (best value, list of partitions
    reaching it, each a frozenset of frozensets of node indices)."""
    best_q = float("-inf")
    best = []
    for assignment in partitions_of(n):
        q = modularity_reference(n, edges, assignment)
        if q > best_q + 1e-12:
            best_q = q
            best = [assignment[:]]
        elif abs(q - best_q) <= 1e-12:
            best.append(assignment[:])
    as_sets = []
    for assignment in best:
        groups = {}
        for v, c in enumerate(assignment):
            groups.setdefault(c, set()).add(v)
        as_sets.append(frozenset(frozenset(g) for g in groups.values()))
    return best_q, as_sets


def lawyer_half_reference(records, a, b, min_cases, collab_min):
    """The lawyer tallies, pair wins, opposing and collaboration networks of
    extraction records, from the docstrings of networks.lawyer_tallies,
    pair_wins, collapse, build_opposing_network and build_collaboration_network.

    Each record is read side by side. A side won a determined case when it
    is the appellant side and the appellant won, or the appellee side and
    the appellee won. Returns a dict: "tallies" {lawyer: (first spelling,
    experience, determined cases, wins, losses)}, "wins" {(winner, loser):
    mass}, "opposing" (nodes as their tallies in name order, edges as
    (source, target, weight, wins_fw, wins_bw) in (source, target) order) and
    "collaboration" (node list, edges as (u, v, weight, wins, losses,
    collaborations)).
    """
    spelling, experience, decided, wins, together = {}, {}, {}, {}, {}
    for record in records:
        for name in record.appellant_lawyers + record.appellee_lawyers:
            spelling.setdefault(name.canonical, name.display)
        appellants = {n.canonical for n in record.appellant_lawyers}
        appellees = {n.canonical for n in record.appellee_lawyers}
        determined = record.outcome.value != "undetermined"
        appellant_won = record.outcome.value == "appellant_wins"
        for lawyer in appellants | appellees:
            experience[lawyer] = experience.get(lawyer, 0) + 1
            if determined:
                t = decided.setdefault(lawyer, [0, 0, 0])
                t[0] += 1
                if (lawyer in appellants) != (lawyer in appellees):
                    t[1 if (lawyer in appellants) == appellant_won else 2] += 1
        if not determined:
            continue
        for on_appellant_side, side in ((True, appellants), (False, appellees)):
            side_won = on_appellant_side == appellant_won
            for u, v in combinations(sorted(side), 2):
                together.setdefault((u, v), [0, 0])[0 if side_won else 1] += 1
        for i in appellants:
            for j in appellees:
                if i != j:
                    pair, mass = ((i, j), a) if appellant_won else ((j, i), b)
                    wins[pair] = wins.get(pair, 0.0) + mass
    tallies = {l: (spelling[l], experience[l], *decided.get(l, (0, 0, 0))) for l in spelling}
    # only lawyers with a determined case, whatever min_cases
    kept = sorted(l for l, t in decided.items() if t[0] >= min_cases)
    edges = []
    for x, y in sorted({tuple(sorted(pair)) for pair in wins}):
        wxy, wyx = wins.get((x, y), 0.0), wins.get((y, x), 0.0)
        if wxy != wyx and x in kept and y in kept:
            weight = abs(wxy - wyx) * math.log(wxy + wyx + 1.0)
            edges.append((y, x, weight, wxy, wyx) if wxy > wyx else (x, y, weight, wyx, wxy))
    collab_edges = [(u, v, w - l, w, l, w + l) for (u, v), (w, l) in sorted(together.items())
                    if w + l >= collab_min]
    return {
        "tallies": tallies,
        "wins": wins,
        "opposing": ({l: tallies[l] for l in kept}, sorted(edges)),
        "collaboration": (sorted({n for e in collab_edges for n in e[:2]}), collab_edges),
    }


def case_edges_reference(articles, k):
    """Quadratic scan: every unordered case pair sharing at least k
    article references, mapped to the intersection size."""
    out = {}
    for u, v in combinations(sorted(articles), 2):
        shared = len(articles[u] & articles[v])
        if shared >= k:
            out[(u, v)] = shared
    return out


def communities_reference(node_ids, edges):
    """Louvain assignment {node id: community} on one dict per node.

    The dict-based implementation that detect_communities replaced, kept
    as it was: nodes swept in ascending id order, ties to the smallest
    community id, moves need a gain above 1e-9, self-loops and duplicate
    edges dropped, ids numbered by each community's smallest member.
    """
    eps = 1e-9

    def level(adj):
        n = len(adj)
        k = [sum(nbrs.values()) for nbrs in adj]
        two_m = sum(k)
        comm = list(range(n))
        if two_m == 0:
            return comm, False
        sum_tot = k[:]
        moved_any = False
        improved = True
        while improved:
            improved = False
            for v in range(n):
                cv = comm[v]
                kv = k[v]
                weight_to = {}
                for u, w in adj[v].items():
                    if u != v:
                        cu = comm[u]
                        weight_to[cu] = weight_to.get(cu, 0.0) + w
                base = (
                    2.0 * weight_to.get(cv, 0.0) / two_m
                    - 2.0 * (sum_tot[cv] - kv) * kv / (two_m * two_m)
                )
                best_gain = eps
                best_c = cv
                for c in sorted(weight_to):
                    if c == cv:
                        continue
                    gain = (
                        2.0 * weight_to[c] / two_m
                        - 2.0 * sum_tot[c] * kv / (two_m * two_m)
                        - base
                    )
                    if gain > best_gain:
                        best_gain = gain
                        best_c = c
                if best_c != cv:
                    sum_tot[cv] -= kv
                    sum_tot[best_c] += kv
                    comm[v] = best_c
                    improved = True
                    moved_any = True
        return comm, moved_any

    def renumber(values):
        mapping = {}
        return [mapping.setdefault(v, len(mapping)) for v in values]

    def aggregate(adj, labels):
        new = [{} for _ in range(max(labels) + 1)]
        for i, nbrs in enumerate(adj):
            row = new[labels[i]]
            for j, w in nbrs.items():
                row[labels[j]] = row.get(labels[j], 0.0) + w
        return new

    nodes = sorted(node_ids)
    index = {nid: i for i, nid in enumerate(nodes)}
    adj = [{} for _ in nodes]
    for u, v in edges:
        i, j = index[u], index[v]
        if i == j or j in adj[i]:
            continue
        adj[i][j] = 1.0
        adj[j][i] = 1.0
    node_comm = list(range(len(adj)))
    while True:
        comm, moved = level(adj)
        labels = renumber(comm)
        node_comm = [labels[c] for c in node_comm]
        if not moved:
            break
        adj = aggregate(adj, labels)
    final = renumber(node_comm)
    return {nid: final[i] for i, nid in enumerate(nodes)}


def louvain_level_reference(rows, row_of, own, loops):
    """networks._louvain_level as it was before nodes sharing a row were
    scored as one candidate: every community a visited node's row lists is
    sorted and scored. Same arguments and result, and it updates `rows` the
    same way, so the two can be compared on any input.
    """
    eps = 1e-9
    n = len(row_of)
    row_sum = [sum(row.values()) for row in rows]
    k = [loop + row_sum[r] - o for r, o, loop in zip(row_of, own, loops)]
    two_m = sum(k)
    comm = list(range(n))
    if two_m == 0:
        return comm, False
    listing = [list({row_of[u]: w for u, w in row.items()}.items()) for row in rows]
    sum_tot = k[:]
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in range(n):
            cv = comm[v]
            kv = k[v]
            weight_to = rows[row_of[v]]
            base = (
                2.0 * (weight_to.get(cv, 0) - own[v]) / two_m
                - 2.0 * (sum_tot[cv] - kv) * kv / (two_m * two_m)
            )
            best_gain = eps
            best_c = cv
            for c in sorted(weight_to):
                if c == cv:
                    continue
                gain = (
                    2.0 * weight_to[c] / two_m
                    - 2.0 * sum_tot[c] * kv / (two_m * two_m)
                    - base
                )
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            if best_c != cv:
                for r, w in listing[row_of[v]]:
                    row = rows[r]
                    left = row[cv] - w
                    if left:
                        row[cv] = left
                    else:
                        del row[cv]
                    row[best_c] = row.get(best_c, 0) + w
                sum_tot[cv] -= kv
                sum_tot[best_c] += kv
                comm[v] = best_c
                improved = True
                moved_any = True
    return comm, moved_any


def parse_graphml(path):
    """(directed, nodes, edges) of a GraphML file, via xml.etree.

    Nodes are (id, attrs) and edges (source, target, attrs), in file order;
    attribute values are typed by their key's attr.type (long, double or
    string).
    """
    ns = "{http://graphml.graphdrawing.org/xmlns}"
    root = ET.parse(path).getroot()
    cast = {"long": int, "double": float, "string": str}
    keys = {k.get("id"): (k.get("attr.name"), cast[k.get("attr.type")])
            for k in root.iter(ns + "key")}

    def attrs(elem):
        return {keys[d.get("key")][0]: keys[d.get("key")][1](d.text or "")
                for d in elem.iter(ns + "data")}

    graph = root.find(ns + "graph")
    nodes = [(n.get("id"), attrs(n)) for n in graph.iter(ns + "node")]
    edges = [(e.get("source"), e.get("target"), attrs(e)) for e in graph.iter(ns + "edge")]
    return graph.get("edgedefault") == "directed", nodes, edges


_JSON_NAMES = {str: "str", int: "int", float: "float", list: "a list", dict: "an object"}


def _expect(value, cls, name):
    if type(value) is not cls:
        raise TypeError(f"{name} must be {_JSON_NAMES[cls]}, got {value!r}")
    return value


def _required(f):
    return f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING


@functools.cache
def _decoder_reference(hint):
    """decode(value, name) for one type hint: one closure per hint, recursing
    into every field and item, and a new record for every object."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        item = _decoder_reference(next(a for a in args if a is not type(None)))
        return lambda value, name: None if value is None else item(value, name)
    if origin in (list, tuple, frozenset):  # list[X], tuple[X, ...], frozenset[X]
        item = _decoder_reference(args[0])
        return lambda value, name: origin([item(v, name) for v in _expect(value, list, name)])
    if origin is dict:  # dict[str, X]
        item = _decoder_reference(args[1])
        return lambda value, name: {k: item(v, f"{name}[{k!r}]")
                                    for k, v in _expect(value, dict, name).items()}
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = [(f.name, _decoder_reference(hints[f.name]), _required(f))
                  for f in dataclasses.fields(hint)]

        def record(value, name):
            _expect(value, dict, name)
            # value[field] raises KeyError(field) for an absent required field
            return hint(**{field: item(value[field], field)
                           for field, item, required in fields if required or field in value})
        return record
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}

        def enum_member(value, name):
            try:
                return members[value]
            except (KeyError, TypeError):
                raise ValueError(
                    f"{name} must be one of {sorted(members)}, got {value!r}") from None
        return enum_member
    if hint is float:  # an int is widened; a bool is not a number
        return lambda value, name: (float(value) if type(value) is int
                                    else _expect(value, float, name))
    if hint in (str, int):
        return lambda value, name: value if type(value) is hint else _expect(value, hint, name)
    raise TypeError(f"no JSON form for {hint!r}")


def decode_reference(cls, data):
    """jsonl.decode as it was before its flat decoders and shared leaf records."""
    return _decoder_reference(cls)(data, cls.__name__)


def build_parser_reference():
    """The CLI parser as it was built before its subcommands shared one parent
    parser of options: every config flag added to each subcommand in turn."""
    import argparse

    from courtnet import cli

    parser = cli._Parser(prog="courtnet", description=cli.__doc__)
    parser.add_argument(
        "--print-default-config", action="store_true",
        help="print the default configuration as JSON and exit",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command")
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                       help="log at INFO level")
        p.add_argument("--config", help="JSON config file")
        for f in dataclasses.fields(cli.PipelineConfig):
            cls = cli._field_class(f.name)
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=cli._json_value if cls is dict else cls)
    return parser
