"""Analyzers (tokenization) — SURVEY.md §2.1.

Mirrors IResearch's registry-driven analyzer surface (reference:
core/analysis/analyzers.cpp `analyzers::get`; core/analysis/text_token_stream.cpp;
token_streams.cpp — citations per SURVEY.md §0 convention, reference checkout
was empty so upstream paths are the anchors).

Pinned `text` analyzer spec (SURVEY.md §2.1.1, parity-critical):
NFC normalize → lowercase → split on ``[^\\W_]+`` (Unicode word chars minus
underscore) → optional stopword removal (default: none) → optional stemming
(default: off).  Token count AFTER stopword removal feeds the norm ``dl``.

All analyzers are plain callables ``list[str] -> list[list[str]]`` (batch of
texts in, token lists out) so they run inside ``map_batches`` with the regex /
caches compiled once at module import (per worker process) — no per-batch
setup cost, no actor needed (SURVEY.md §7.2).
"""

from __future__ import annotations

import re

import numpy as np
import unicodedata
from typing import Callable, Iterable, Sequence

Tokenizer = Callable[[Sequence[str | None]], list[list[str]]]

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


def _nfc_lower(text: str) -> str:
    # ASCII fast path: NFC is identity and str.lower matches casefold for ASCII.
    if text.isascii():
        return text.lower()
    return unicodedata.normalize("NFC", text).lower()


def tokenize_text(text: str | None) -> list[str]:
    """Pinned `text` analyzer on a single string (no stopwords, no stemming)."""
    if text is None:
        return []
    return _WORD_RE.findall(_nfc_lower(text))


class TextAnalyzer:
    """IResearch `text` analyzer analog (ref: core/analysis/text_token_stream.cpp).

    Options mirror the JSON options of the reference: case folding is always
    "lower" (pinned), `stopwords` is an explicit set (default empty), `stemmer`
    enables Porter stemming (default off).  The ICU break iterator is
    approximated by the pinned regex — exact on the ASCII fixture corpora
    (SURVEY.md §2.1.1).
    """

    def __init__(self, stopwords: Iterable[str] = (), stemmer: bool = False):
        self.stopwords = frozenset(stopwords)
        self.stem = porter_stem if stemmer else None

    def tokenize_one(self, text: str | None) -> list[str]:
        toks = tokenize_text(text)
        if self.stopwords:
            sw = self.stopwords
            toks = [t for t in toks if t not in sw]
        if self.stem is not None:
            stem = self.stem
            toks = [stem(t) for t in toks]
        return toks

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        if not self.stopwords and self.stem is None:
            findall = _WORD_RE.findall
            return [
                [] if t is None else findall(_nfc_lower(t)) for t in texts
            ]
        return [self.tokenize_one(t) for t in texts]

    def tokenize_with_spans(
        self, texts: Sequence[str | None]
    ) -> list[list[tuple[str, int, int]]]:
        """Per doc: (emitted_token, char_start, char_end) — the reference's
        ``offs`` token attribute (token_attributes.hpp offset).  Spans are
        the ORIGINAL token boundaries in the normalized string: a stemmed
        token keeps its surface span, a stopword drops span and token
        together.  Exact original-string offsets for ASCII input (NFC+lower
        are length-preserving there — the §2.1.1 pinned regime)."""
        out: list[list[tuple[str, int, int]]] = []
        sw, stem = self.stopwords, self.stem
        for t in texts:
            if t is None:
                out.append([])
                continue
            spans = [
                (m.group(), m.start(), m.end())
                for m in _WORD_RE.finditer(_nfc_lower(t))
            ]
            if sw:
                spans = [x for x in spans if x[0] not in sw]
            if stem is not None:
                spans = [(stem(tok), s, e) for tok, s, e in spans]
            out.append(spans)
        return out


# 256-entry lookup: is this ASCII byte a token byte of the pinned analyzer?
# [^\W_] with re.UNICODE on ASCII == [0-9A-Za-z].
_ASCII_WORD_BYTE = np.zeros(256, dtype=bool)
for _c in range(256):
    _ASCII_WORD_BYTE[_c] = chr(_c).isascii() and chr(_c).isalnum()


def token_spans_ascii(texts) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorized (starts, ends) of every token of the pinned plain `text`
    analyzer over an all-ASCII Arrow string array — flat arrays in
    (doc, position) order, exactly parallel to ``explode_text_arrow``'s
    token stream (same tokenization: maximal [0-9A-Za-z] runs; ASCII lower
    is length-preserving so spans are original-string offsets).

    One numpy pass over the concatenated utf-8 buffer: classify bytes via a
    256-entry table, run boundaries via diff — no per-token python work.
    Returns None when the batch has nulls or non-ASCII (caller falls back
    to the python span path)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.null_count or not pc.all(pc.string_is_ascii(texts)).as_py():
        return None if len(texts) else (np.empty(0, np.int64), np.empty(0, np.int64))
    if texts.offset:  # compact slices so raw buffers start at the array
        texts = texts.take(pa.array(np.arange(len(texts), dtype=np.int64)))
    off_dtype = np.int64 if pa.types.is_large_string(texts.type) else np.int32
    doc_off = np.frombuffer(texts.buffers()[1], dtype=off_dtype)[: len(texts) + 1].astype(np.int64)
    raw = texts.buffers()[2]
    buf = (
        np.frombuffer(raw, dtype=np.uint8)[: int(doc_off[-1])]
        if raw is not None
        else np.empty(0, np.uint8)
    )
    if buf.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    is_word = _ASCII_WORD_BYTE[buf]
    # force run breaks at doc boundaries so tokens never span docs
    prev = np.empty(is_word.size, dtype=bool)
    prev[0] = False
    prev[1:] = is_word[:-1]
    starts_mask = is_word & ~prev
    # a doc boundary that lands mid-run starts a new token
    inner = doc_off[1:-1]
    inner = inner[(inner > 0) & (inner < is_word.size)]
    if inner.size:
        starts_mask[inner] |= is_word[inner]
    nxt = np.empty(is_word.size, dtype=bool)
    nxt[-1] = False
    nxt[:-1] = is_word[1:]
    ends_mask = is_word & ~nxt
    if inner.size:
        at_prev = inner - 1
        ends_mask[at_prev] |= is_word[at_prev]
    starts = np.flatnonzero(starts_mask)
    ends = np.flatnonzero(ends_mask) + 1
    # rebase to per-doc character offsets (ASCII: 1 byte == 1 char)
    doc_of = np.searchsorted(doc_off[1:], starts, side="right")
    base = doc_off[doc_of]
    return (starts - base).astype(np.int64), (ends - base).astype(np.int64)


# 256-entry byte map of the same analyzer: token bytes lowercased, every
# other byte a space, so one whitespace split yields the tokens
_ASCII_FOLD = np.full(256, ord(" "), dtype=np.uint8)
for _c in np.flatnonzero(_ASCII_WORD_BYTE):
    _ASCII_FOLD[_c] = ord(chr(_c).lower())


def explode_text_arrow(texts):
    """Arrow-native fast path of the pinned `text` analyzer (no stopwords, no
    stemming) on all-ASCII input.  The utf-8 bytes go through one 256-entry
    map (``_ASCII_FOLD``: [0-9A-Za-z] lowercased, any other byte a space),
    then ``ascii_split_whitespace`` splits in C++; the empty tokens a leading
    or trailing separator leaves are dropped.  Takes string or large_string,
    sliced or chunked.  Token-identical to ``TextAnalyzer()`` (asserted in
    tests/test_analysis.py); returns None when the batch contains non-ASCII
    or nulls so the caller falls back to the python path.

    Returns (flat_tokens: pa.Array, parent_row: np.int64[], n_tokens_per_row:
    np.int64[]) with tokens in (row, position) order."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if texts.null_count or not pc.all(pc.string_is_ascii(texts), min_count=0).as_py():
        return None
    n = len(texts)
    large = pa.types.is_large_string(texts.type)
    off = np.frombuffer(texts.buffers()[1], np.int64 if large else np.int32)
    off = off[texts.offset: texts.offset + n + 1]
    raw = texts.buffers()[2]
    data = np.frombuffer(raw, np.uint8) if raw is not None else np.empty(0, np.uint8)
    folded = (pa.LargeStringArray if large else pa.StringArray).from_buffers(
        n,
        pa.py_buffer(off - off[0]),
        pa.py_buffer(_ASCII_FOLD[data[off[0]: off[-1]]]),
    )
    split = pc.ascii_split_whitespace(folded)
    flat = split.flatten()
    parent = pc.list_parent_indices(split).to_numpy()
    # an empty token has zero length, so dropping it is dropping its end
    # offset: the kept tokens' bytes are already contiguous
    tok_off = np.frombuffer(flat.buffers()[1], off.dtype)[flat.offset: flat.offset + len(flat) + 1]
    keep = np.flatnonzero(tok_off[1:] != tok_off[:-1])
    flat = type(flat).from_buffers(
        keep.size,
        pa.py_buffer(np.concatenate((tok_off[:1], tok_off[keep + 1]))),
        flat.buffers()[2],
    )
    parent = parent[keep]
    n_tok = np.bincount(parent, minlength=n).astype(np.int64)
    return flat, parent, n_tok


class KeywordAnalyzer:
    """Whole value as a single raw token (ref: token_streams.cpp
    string_token_stream).  Nulls produce no token (field absent for the doc)."""

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [[] if t is None else [t] for t in texts]


class DelimiterAnalyzer:
    """Split on a literal delimiter (ref: delimited_token_stream.cpp)."""

    def __init__(self, delimiter: str = ","):
        self.delimiter = delimiter

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        d = self.delimiter
        return [[] if t is None else [p for p in t.split(d) if p] for t in texts]


class NgramAnalyzer:
    """Char n-grams min..max, optional preserve-original
    (ref: ngram_token_stream.cpp)."""

    def __init__(self, min_n: int = 2, max_n: int = 3, preserve_original: bool = False):
        if min_n < 1 or max_n < min_n:
            raise ValueError("need 1 <= min_n <= max_n")
        self.min_n, self.max_n = min_n, max_n
        self.preserve_original = preserve_original

    def tokenize_one(self, text: str | None) -> list[str]:
        if text is None:
            return []
        out: list[str] = []
        L = len(text)
        # Reference emits grams ordered by start position, then length.
        for i in range(L):
            for n in range(self.min_n, self.max_n + 1):
                if i + n <= L:
                    out.append(text[i : i + n])
        if self.preserve_original and (L < self.min_n or L > self.max_n):
            out.append(text)
        return out

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [self.tokenize_one(t) for t in texts]


class NormalizingAnalyzer:
    """Case fold + accent strip, single token out
    (ref: text_token_normalizing_stream.cpp)."""

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        out = []
        for t in texts:
            if t is None:
                out.append([])
                continue
            s = unicodedata.normalize("NFKD", t).lower()
            s = "".join(c for c in s if not unicodedata.combining(c))
            out.append([s])
        return out


class CollationAnalyzer:
    """UCA-style multi-level collation sort key, one key token per value
    (ref: collation_token_stream.cpp — emits the ICU collation sort key).

    ICU/DUCET is unavailable in this environment, so the key is a PINNED
    root-locale approximation built the way UCA builds real sort keys
    (UTS #10 §3): the value is NFD-decomposed into collation elements and
    three weight SEQUENCES are emitted — primary (casefolded base chars;
    combining marks are primary-ignorable), secondary (common weight for
    base chars, per-mark weight for accents, compared left-to-right as in
    the root locale), tertiary (case: lowercase 0x02 < uppercase 0x08) —
    then concatenated with a level separator lower than every weight.
    Lexicographic order of keys therefore reproduces root-collation
    ordering for Latin text: accents break secondary ties left-to-right
    ("cote" < "coté" < "côte" < "côté"), case breaks tertiary ties
    (lowercase first), and 'ß'→'ss' via casefold.  Known divergences from
    DUCET: primary weights are casefolded code points, so cross-script
    weighting and language tailorings (e.g. Danish 'å' > 'z') differ.
    A real deployment swaps in PyICU's ``Collator.getSortKey`` behind the
    same single-token contract.

    ``strength`` truncates levels like ICU: "primary" (accents+case
    ignored; variable elements — punctuation/whitespace — shifted out,
    so "foo-bar" == "Foo Bar"), "secondary" (accents matter, case
    doesn't), "tertiary" (default — all three levels).

    ``locale`` / ``rules`` add LDML-style TAILORINGS (UTS #10 §8; r4 —
    closes the "no language tailorings" caveat for the common European
    locales): a rule chain like ``"& z < å < ä < ö"`` re-anchors each
    tailored character after the previous one at the stated strength
    (``<`` primary, ``<<`` secondary, ``<<<`` tertiary, ``=`` equal —
    multi-char right-hand anchors give EXPANSIONS, e.g. phonebook
    ``"& ae << ä"``).  Compiled rules become per-character weight-piece
    overrides: "after X at level L" = X's level-L piece + ``\\x7f`` +
    rank, which sorts after X plus ANY untailored continuation because
    0x7f exceeds every piece's first band byte.  Uppercase variants are
    derived implicitly (same primary/secondary, uppercase tertiary), and
    precomposed tailored characters are re-composed after NFD so both
    input forms hit the override.  Built-in verified locales: sv/fi
    (åäö after z), da/nb (æøå after z; da additionally caseFirst=upper),
    es (ñ after n), de (= root), de_phonebook (umlauts as base+e
    expansions at secondary) — the sv/fi/da/es orders are fuzz-verified
    against DuckDB's bundled real ICU (whose reduced data aliases nb to
    root, so nb is covered structurally via da).  CONTRACTIONS
    (multi-char items, e.g. Danish 'aa' = å or Hungarian 'cs') compile
    to a PRIVATE-USE sentinel code point carrying the override pieces;
    the sentinel is substituted longest-first in the same pre-tailor
    pass that re-composes NFD sequences, so the per-character kernel
    (including the batch ``keys()`` path) needs no changes.  Contraction
    items match CASE-SENSITIVELY (write Aa/AA variants explicitly, as
    CLDR does — ICU's da treats 'aA' as plain a+A, not as å).  The
    built-in da locale carries the CLDR chain å <<< Å <<< aa <<< Aa <<<
    AA expressed in caseFirst=upper order (Å < AA < Aa < å < aa —
    fuzz-verified against DuckDB's real ICU)."""

    _SEP = "\x01"  # level separator, below every weight piece

    # Verified locale tailorings (keep minimal and TESTED — each listed
    # character's order is pinned by the DuckDB-ICU fuzz; characters not
    # listed keep root behavior, which may diverge from a full ICU locale
    # for letters like Swedish 'ü'→'y')
    _LOCALE_RULES = {
        "root": "",
        "de": "",  # standard German umlauts == root (base + secondary mark)
        "sv": "& z < å < ä < ö",
        "fi": "& z < å < ä < ö",
        "da": "& z < æ < ø < å & Å <<< AA <<< Aa & å <<< aa",
        "nb": "& z < æ < ø < å",
        "es": "& n < ñ",
        "de_phonebook": "& ae << ä & oe << ö & ue << ü",
    }

    # DUCET primary order of common punctuation/symbols, derived once from
    # a real ICU instance (DuckDB's bundled icu, root/en locale) — NOT
    # code-point order (e.g. '-' sorts before "'").  Soft hyphen U+00AD is
    # primary-ignorable and handled separately.
    _PUNCT_ORDER = (
        " _-,;:!¡?¿.·'\"«»()[]{}§¶@*/\\&#%`´^¯¨¸°©®+±<=>¬|¦~¤¢$£¥"
    )
    _PUNCT_RANK = {c: i for i, c in enumerate(_PUNCT_ORDER)}
    # DUCET secondary order of combining marks (same derivation): acute <
    # grave < breve < circumflex < caron < ring < diaeresis < tilde < dot
    # < cedilla < macron — again not code-point order.
    _MARK_ORDER = (0x0301, 0x0300, 0x0306, 0x0302, 0x030C, 0x030A,
                   0x0308, 0x0303, 0x0307, 0x0327, 0x0304)
    _MARK_RANK = {chr(cp): i for i, cp in enumerate(_MARK_ORDER)}

    # locales whose default tertiary order is uppercase-FIRST (LDML
    # caseFirst=upper; verified against DuckDB's ICU: 'A' < 'a' in da,
    # while nb keeps lowercase-first despite sharing the æøå tailoring)
    _UPPER_FIRST = frozenset({"da"})

    def __init__(self, strength: str = "tertiary", locale: str = "root",
                 rules: str | None = None, case_first: str | None = None):
        if strength not in ("primary", "secondary", "tertiary"):
            raise ValueError("strength must be primary|secondary|tertiary")
        self.strength = strength
        if case_first is None:
            case_first = "upper" if locale in self._UPPER_FIRST else "lower"
        if case_first not in ("lower", "upper"):
            raise ValueError("case_first must be lower|upper")
        self._t_lo, self._t_up = (
            ("\x02", "\x08") if case_first == "lower" else ("\x08", "\x02"))
        if rules is None:
            if locale not in self._LOCALE_RULES:
                raise ValueError(
                    f"unknown collation locale {locale!r}; built-ins: "
                    f"{sorted(self._LOCALE_RULES)} — pass rules= for others")
            rules = self._LOCALE_RULES[locale]
        self._over: dict[str, tuple[str, str, str]] = {}
        self._nfd_fix: list[tuple[str, str]] = []
        # contraction source -> private-use sentinel char (U+E000+), applied
        # longest-first in _pretailor so 'aaa' resolves as (aa)(a) like ICU
        self._contr: list[tuple[str, str]] = []
        self._compile_rules(rules)

    def _compile_rules(self, src: str) -> None:
        """LDML-ish reset chains → per-char weight-piece overrides."""
        if not src or not src.strip():
            return
        import re as _re

        for clause in src.split("&"):
            clause = clause.strip()
            if not clause:
                continue
            parts = [p.strip() for p in _re.split(r"(<<<|<<|<|=)", clause)]
            anchor = parts[0]
            a_p, a_s, a_t = self._string_pieces(anchor)
            for op, item in zip(parts[1::2], parts[2::2]):
                item = unicodedata.normalize("NFC", item)
                if op == "<":
                    p, s, t = a_p + "\x7f!", "\x20", None
                elif op == "<<":
                    p, s, t = a_p, a_s + "\x7f!", None
                elif op == "<<<":
                    p, s, t = a_p, a_s, a_t + "\x7f!"
                else:  # '='
                    p, s, t = a_p, a_s, a_t
                if len(item) > 1:
                    # CONTRACTION: one collation element for a multi-char
                    # source.  Allocate a private-use sentinel, give IT the
                    # override pieces, and substitute source->sentinel in
                    # the pre-tailor pass.  Case-sensitive by design (CLDR
                    # writes aa/Aa/AA as separate items; 'aA' is NOT a
                    # Danish contraction in ICU).
                    pua = chr(0xE000 + len(self._contr))
                    self._contr.append((unicodedata.normalize("NFD", item), pua))
                    self._contr.sort(key=lambda e: -len(e[0]))
                    tt = self._t_lo if t is None else t
                    self._over[pua] = (p, s, tt)
                    a_p, a_s, a_t = p, s, tt
                    continue
                lo, up = item.lower(), item.upper()
                self._over[lo] = (p, s, self._t_lo if t is None else t)
                if up != lo:
                    self._over[up] = (p, s, self._t_up if t is None else t)
                for ch in (lo, up):
                    nfd = unicodedata.normalize("NFD", ch)
                    if nfd != ch:
                        self._nfd_fix.append((nfd, ch))
                # chain: the next item anchors to THIS one
                a_p, a_s, a_t = p, s, (self._t_lo if t is None else t)

    def _string_pieces(self, s: str) -> tuple[str, str, str]:
        """Root-or-already-tailored pieces of an anchor string (clauses
        compile in order, so later clauses may anchor on earlier items)."""
        s = self._pretailor(unicodedata.normalize("NFD", s))
        trip = [self._char_pieces(ch) for ch in s]
        return ("".join(p for p, _s, _t in trip),
                "".join(x for _p, x, _t in trip),
                "".join(tt for _p, _s, tt in trip))

    def _primary(self, c: str) -> str:
        """Two-char primary weight piece: band char + detail char.  Bands
        (low → high): listed punct/symbols in DUCET order, other
        punct/symbols by code point, digits, letters/other by casefolded
        code point — matching ICU's variable < number < letter spine."""
        r = self._PUNCT_RANK.get(c)
        if r is not None:
            return "\x03" + chr(0x20 + r)
        cat = unicodedata.category(c)
        if cat[0] in ("P", "S", "Z", "C"):
            return "\x04" + chr(min(ord(c), 0x10FFF) + 0x20)
        if c.isdigit():
            return "\x05" + c
        return "\x06" + c

    def _char_pieces(self, ch: str) -> tuple[str, str, str]:
        """(primary, secondary, tertiary) weight pieces contributed by ONE
        NFD char — fixed per (char, strength), which is what lets the batch
        kernel hoist all Unicode property work to unique code points."""
        ov = self._over.get(ch)
        if ov is not None:
            return ov
        if unicodedata.combining(ch):
            # primary-ignorable; secondary weight = DUCET mark order
            r = self._MARK_RANK.get(ch)
            return ("", chr(0x40 + r) if r is not None else chr(0x100 + ord(ch)), "")
        if ch == "­":
            return ("", "", "")  # soft hyphen: fully ignorable
        if self.strength == "primary" and not ch.isalnum():
            return ("", "", "")  # variable elements shifted out of level 1
        folded = ch.casefold()
        # tertiary: lowercase 0x02 < uppercase 0x08 < compatibility
        # expansions (ß→ss sorts after SS in ICU root — verified
        # against DuckDB's bundled ICU)
        tw = ("\x10" if len(folded) > 1
              else (self._t_up if ch.isupper() else self._t_lo))
        # ß → ss expands primary weights
        return ("".join(self._primary(c) for c in folded),
                "\x20" * len(folded), tw * len(folded))

    def _join_levels(self, pj: str, sj: str, tj: str) -> str:
        if self.strength == "primary":
            return pj
        if self.strength == "secondary":
            return pj + self._SEP + sj
        return pj + self._SEP + sj + self._SEP + tj

    def _pretailor(self, nfd: str) -> str:
        """Re-compose tailored characters after NFD so both input forms
        (precomposed 'ä' and 'a'+U+0308) hit the same override."""
        # contractions FIRST, on the raw NFD sequence: ICU matches them at
        # the NFD level ('aå' = a+a+ring triggers Danish aa→å, the ring
        # then lands as a secondary mark on the contraction element —
        # pinned against DuckDB's ICU), so the match must precede the
        # precomposed-char fix-up.  Sources are NFD-normalized at compile.
        for seq, pua in self._contr:  # longest-first (kept sorted)
            if seq in nfd:
                nfd = nfd.replace(seq, pua)
        for seq, ch in self._nfd_fix:
            if seq in nfd:
                nfd = nfd.replace(seq, ch)
        return nfd

    def key(self, t: str) -> str:
        nfd = self._pretailor(unicodedata.normalize("NFD", t))
        trip = [self._char_pieces(ch) for ch in nfd]
        return self._join_levels(
            "".join(p for p, _s, _t in trip),
            "".join(s for _p, s, _t in trip),
            "".join(tt for _p, _s, tt in trip),
        )

    def keys(self, texts: Sequence[str]) -> list[str]:
        """Batch sort-key kernel (r3 review #7): Unicode property work is
        hoisted to UNIQUE code points (numpy inverse map over the batch's
        concatenated UTF-32 buffer); per-row output is C-speed slicing +
        str.join.  Byte-identical to ``key()`` per value."""
        import numpy as np

        nfd = [self._pretailor(unicodedata.normalize("NFD", t)) for t in texts]
        big = "".join(nfd)
        if not big:
            empty = self._join_levels("", "", "")
            return [empty] * len(nfd)
        cps = np.frombuffer(big.encode("utf-32-le"), dtype=np.uint32)
        lens = np.fromiter((len(s) for s in nfd), np.int64, count=len(nfd))
        bounds = np.concatenate(([0], np.cumsum(lens)))
        uniq, inv = np.unique(cps, return_inverse=True)
        trip = [self._char_pieces(chr(int(u))) for u in uniq]
        # expand to plain lists: list slicing + str.join is pure C from here
        pp = np.array([t[0] for t in trip], dtype=object)[inv].tolist()
        ss = np.array([t[1] for t in trip], dtype=object)[inv].tolist()
        tt = np.array([t[2] for t in trip], dtype=object)[inv].tolist()
        out: list[str] = []
        join = "".join
        bl = bounds.tolist()
        for i in range(len(nfd)):
            a, b = bl[i], bl[i + 1]
            out.append(
                self._join_levels(join(pp[a:b]), join(ss[a:b]), join(tt[a:b]))
            )
        return out

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        idx = [i for i, t in enumerate(texts) if t is not None]
        keys = self.keys([texts[i] for i in idx])
        out: list[list[str]] = [[] for _ in texts]
        for i, k in zip(idx, keys):
            out[i] = [k]
        return out


class StemAnalyzer:
    """Porter stemming of the whole (already tokenized? no — single) value
    (ref: text_token_stemming_stream.cpp: stems the single input token)."""

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [[] if t is None else [porter_stem(t.lower())] for t in texts]


class PipelineAnalyzer:
    """Chain analyzers: each token of stage i feeds stage i+1
    (ref: pipeline_token_stream.cpp)."""

    def __init__(self, *stages: Tokenizer):
        if not stages:
            raise ValueError("pipeline needs >= 1 stage")
        self.stages = stages

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        outs: list[list[str]] = [list(x) for x in self.stages[0](texts)]
        for stage in self.stages[1:]:
            nxt: list[list[str]] = []
            for toks in outs:
                sub = stage(toks)
                nxt.append([t for ts in sub for t in ts])
            outs = nxt
        return outs


# ---------------------------------------------------------------------------
# Porter stemmer (classic published algorithm, Porter 1980) — compact pure-py.
# Used only when an analyzer opts in (pinned default: OFF, SURVEY.md §2.1.1).
# ---------------------------------------------------------------------------

_VOWELS = "aeiou"


def _is_cons(w: str, i: int) -> bool:
    c = w[i]
    if c in _VOWELS:
        return False
    if c == "y":
        return i == 0 or not _is_cons(w, i - 1)
    return True


def _measure(stem: str) -> int:
    # m = number of V->C transitions == count of "VC" in the C/V form string.
    forms = "".join("C" if _is_cons(stem, i) else "V" for i in range(len(stem)))
    return forms.count("VC")


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(w: str) -> bool:
    return len(w) >= 2 and w[-1] == w[-2] and _is_cons(w, len(w) - 1)


def _cvc(w: str) -> bool:
    if len(w) < 3:
        return False
    return (
        _is_cons(w, len(w) - 3)
        and not _is_cons(w, len(w) - 2)
        and _is_cons(w, len(w) - 1)
        and w[-1] not in "wxy"
    )


def porter_stem(w: str) -> str:
    if len(w) <= 2:
        return w
    # step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]
    # step 1b
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    elif w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        w = _step1b_fix(w)
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        w = _step1b_fix(w)
    # step 1c
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"
    # step 2
    for suf, rep in (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ):
        if w.endswith(suf):
            if _measure(w[: -len(suf)]) > 0:
                w = w[: -len(suf)] + rep
            break
    # step 3
    for suf, rep in (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ):
        if w.endswith(suf):
            if _measure(w[: -len(suf)]) > 0:
                w = w[: -len(suf)] + rep
            break
    # step 4
    for suf in (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ):
        if w.endswith(suf):
            if _measure(w[: -len(suf)]) > 1:
                w = w[: -len(suf)]
            break
    else:
        if w.endswith("ion") and len(w) > 3 and w[-4] in "st" and _measure(w[:-3]) > 1:
            w = w[:-3]
    # step 5a
    if w.endswith("e"):
        stem = w[:-1]
        if _measure(stem) > 1 or (_measure(stem) == 1 and not _cvc(stem)):
            w = stem
    # step 5b
    if _measure(w) > 1 and _ends_double_cons(w) and w.endswith("l"):
        w = w[:-1]
    return w


def _step1b_fix(w: str) -> str:
    if w.endswith(("at", "bl", "iz")):
        return w + "e"
    if _ends_double_cons(w) and w[-1] not in "lsz":
        return w[:-1]
    if _measure(w) == 1 and _cvc(w):
        return w + "e"
    return w


# ---------------------------------------------------------------------------
# Registry (ref: core/analysis/analyzers.cpp REGISTER_ANALYZER) — SURVEY §2.11
# ---------------------------------------------------------------------------

ANALYZERS: dict[str, Callable[..., Tokenizer]] = {
    "text": TextAnalyzer,
    "keyword": KeywordAnalyzer,
    "delimiter": DelimiterAnalyzer,
    "ngram": NgramAnalyzer,
    "norm": NormalizingAnalyzer,
    "collation": CollationAnalyzer,
    "stem": StemAnalyzer,
    "pipeline": PipelineAnalyzer,
}


class MinHashAnalyzer:
    """MinHash sketch tokens over a sub-analyzer's token stream (ref:
    core/analysis/minhash_token_stream.cpp).  Emits ``num_hashes`` hex tokens
    per value — indexing them makes near-duplicate retrieval a Terms query
    with min_match (band collision count ∝ Jaccard similarity)."""

    def __init__(self, num_hashes: int = 32, seed: int = 42, analyzer: str = "text", **sub_opts):
        import hashlib as _hashlib

        self._h = _hashlib
        self.num_hashes = num_hashes
        self.sub = get_analyzer(analyzer, **sub_opts)
        rng = np.random.default_rng(seed)
        M = (1 << 61) - 1
        self.a = rng.integers(1, M, num_hashes, dtype=np.uint64)
        self.b = rng.integers(0, M, num_hashes, dtype=np.uint64)
        self.M = np.uint64(M)

    def _sketch(self, toks: list[str]) -> list[str]:
        if not toks:
            return []
        hs = np.fromiter(
            (
                int.from_bytes(self._h.md5(t.encode()).digest()[:8], "big")
                for t in set(toks)
            ),
            dtype=np.uint64,
        )
        vals = (self.a[:, None] * hs[None, :] + self.b[:, None]) & self.M
        mins = vals.min(axis=1)
        return [f"mh{i:02d}:{int(v):016x}" for i, v in enumerate(mins)]

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [self._sketch(t) for t in self.sub(texts)]


class BooleanAnalyzer:
    """Canonical single tokens for booleans (ref: token_streams.cpp
    boolean_token_stream): truthy → "true", falsy → "false", None → none."""

    def __call__(self, values: Sequence) -> list[list[str]]:
        out = []
        for v in values:
            if v is None:
                out.append([])
            else:
                out.append(["true" if v in (True, 1, "true", "True") else "false"])
        return out


class NullAnalyzer:
    """Canonical single token for explicit nulls (null_token_stream)."""

    def __call__(self, values: Sequence) -> list[list[str]]:
        return [["null"] if v is None else [] for v in values]


class DelimitedPayloadAnalyzer:
    """Per-occurrence payloads via in-text delimiters — the ``payload``
    token attribute (ref: token_attributes.hpp payload; the public idiom is
    Lucene's DelimitedPayloadTokenFilter).  Input is whitespace-split; each
    chunk optionally carries ``term<delim>payload`` (split at the LAST
    delimiter); the term part is NFC+lower normalized, the payload is the
    raw utf-8 bytes (empty when no delimiter).  Used with
    ``IndexConfig(payloads=True)``, which stores the bytes alongside each
    posting occurrence."""

    def __init__(self, delimiter: str = "|"):
        if len(delimiter) != 1:
            raise ValueError("payload delimiter must be one character")
        self.delimiter = delimiter

    def tokenize_one(self, text: str | None) -> list[str]:
        return [t for t, _ in self.tokenize_one_with_payloads(text)]

    def tokenize_one_with_payloads(self, text: str | None) -> list[tuple[str, bytes]]:
        if text is None:
            return []
        out: list[tuple[str, bytes]] = []
        d = self.delimiter
        for chunk in text.split():
            term, _, payload = chunk.rpartition(d)
            if not term:  # no delimiter: the whole chunk is the term
                term, payload = payload, ""
            term = _nfc_lower(term)
            if term:
                out.append((term, payload.encode("utf-8")))
        return out

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [self.tokenize_one(t) for t in texts]

    def with_payloads(
        self, texts: Sequence[str | None]
    ) -> list[list[tuple[str, bytes]]]:
        return [self.tokenize_one_with_payloads(t) for t in texts]


ANALYZERS["boolean"] = BooleanAnalyzer
ANALYZERS["null"] = NullAnalyzer
ANALYZERS["minhash"] = MinHashAnalyzer


def _geopoint_factory(max_precision: int = 7, **kw):
    from iresearch_ray.functions.geo import GeoPointAnalyzer

    return GeoPointAnalyzer(max_precision=max_precision, **kw)


ANALYZERS["geopoint"] = _geopoint_factory
ANALYZERS["delimited_payload"] = DelimitedPayloadAnalyzer


def _segmentation_factory(**options):
    # Imported lazily: segmentation builds a small Word_Break LUT at import.
    from iresearch_ray.functions.segmentation import SegmentationAnalyzer

    return SegmentationAnalyzer(**options)


ANALYZERS["segmentation"] = _segmentation_factory


# ---------------------------------------------------------------------------
# Optional PyICU-backed variants — the documented swap-in for the two
# fidelity gaps of the built-in implementations (DUCET tailorings in
# CollationAnalyzer, dictionary-based CJK/Thai breaking in
# SegmentationAnalyzer; see COVERAGE.md).  Registered unconditionally; the
# factory raises NotImplementedError with a clear message when PyICU is not
# installed (this container has none), and tests skip cleanly in that case
# (tests/test_icu_optional.py runs parity fuzz when it IS importable).
# ---------------------------------------------------------------------------


class ICUCollationAnalyzer:
    """Real ICU collation sort key under the same single-token contract as
    CollationAnalyzer (ref: collation_token_stream.cpp uses
    Collator::getSortKey directly)."""

    _STRENGTH = {"primary": 0, "secondary": 1, "tertiary": 2}

    def __init__(self, locale: str = "", strength: str = "tertiary"):
        try:
            import icu
        except ImportError as e:  # pragma: no cover - no PyICU in container
            raise NotImplementedError(
                "icu_collation needs PyICU; use the built-in 'collation' "
                "analyzer (UCA sort keys, fuzz-verified against DuckDB ICU "
                "order on Latin text) in environments without it"
            ) from e
        coll = icu.Collator.createInstance(icu.Locale(locale))
        coll.setStrength(self._STRENGTH[strength])
        self._coll = coll

    def key(self, t: str) -> str:
        # sort-key bytes → latin-1 str: preserves byte order under str
        # comparison, matching CollationAnalyzer's string-key contract
        return bytes(self._coll.getSortKey(t)).decode("latin-1")

    def keys(self, texts: Sequence[str]) -> list[str]:
        return [self.key(t) for t in texts]

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [[] if t is None else [self.key(t)] for t in texts]


class ICUSegmentationAnalyzer:
    """Real ICU word BreakIterator under the same contract (word_break /
    case options) as the built-in SegmentationAnalyzer — adds the
    dictionary-based CJK/Thai breaking UAX#29 alone cannot express."""

    def __init__(self, word_break: str = "alpha", case: str = "lower",
                 locale: str = ""):
        try:
            import icu
        except ImportError as e:  # pragma: no cover - no PyICU in container
            raise NotImplementedError(
                "icu_segmentation needs PyICU; use the built-in "
                "'segmentation' analyzer (vectorized UAX#29) without it"
            ) from e
        if word_break not in ("alpha", "graphic", "all"):
            raise ValueError("word_break must be alpha|graphic|all")
        if case not in ("lower", "upper", "none"):
            raise ValueError("case must be lower|upper|none")
        self._bi = icu.BreakIterator.createWordInstance(icu.Locale(locale))
        self.word_break = word_break
        self.case = case

    def _segments(self, text: str) -> list[str]:
        bi = self._bi
        bi.setText(text)
        out, prev = [], 0
        for b in bi:
            out.append(text[prev:b])
            prev = b
        return out

    def tokenize_one(self, text: str | None) -> list[str]:
        if not text:
            return []
        if self.word_break == "all":
            segs = self._segments(text)
        elif self.word_break == "alpha":
            segs = [s for s in self._segments(text) if any(c.isalnum() for c in s)]
        else:
            segs = [s for s in self._segments(text) if any(not c.isspace() for c in s)]
        if self.case == "lower":
            return [s.lower() for s in segs]
        if self.case == "upper":
            return [s.upper() for s in segs]
        return segs

    def __call__(self, texts: Sequence[str | None]) -> list[list[str]]:
        return [self.tokenize_one(t) for t in texts]


ANALYZERS["icu_collation"] = ICUCollationAnalyzer
ANALYZERS["icu_segmentation"] = ICUSegmentationAnalyzer


def get_analyzer(name: str, **options) -> Tokenizer:
    try:
        factory = ANALYZERS[name]
    except KeyError:
        raise KeyError(f"unknown analyzer {name!r}; known: {sorted(ANALYZERS)}") from None
    return factory(**options)
