"""ArangoSearch view-link layer analog — the last SURVEY §7.6 exclusion.

A *view* wires named collections (Parquet tables) into one searchable
surface.  Each link declares which fields of its collection are indexed and
with which analyzers, mirroring an ``arangosearch`` view's ``links``
property (public ArangoDB surface: ``fields``, ``analyzers``,
``includeAllFields``, ``storeValues``; SURVEY §2.11 "pipeline-step surface
(ArangoSearch view link config)").  What the database layer does with that
config — wire collections into one index and keep it maintained — is what
this module re-expresses on the engine's own primitives:

- **one sub-index per link** (``<view_dir>/links/<collection>/``), so each
  collection genuinely gets its own analyzer config (ArangoSearch indexes a
  field once per analyzer; our IndexConfig is per-index, so per-collection
  configs fall out of per-link sub-indexes);
- **view-global statistics**: BM25/TFIDF idf and avg_dl are computed over
  the UNION of all linked collections (``ViewStats`` sums per-link df/N/cf),
  matching ArangoSearch's per-view scoring — a query plan is prepared ONCE
  against the aggregate and executed on every link, so scores are exactly
  what a single merged index would produce when configs agree (pinned by
  tests/test_views.py);
- **two-phase link lifecycle**: ``view.json`` is the published truth
  (atomic tmp+rename, like the manifest commit).  Adding a link builds its
  sub-index FIRST and publishes after; removing a link publishes first and
  deletes after — a crash between the steps leaves either an unpublished or
  an orphan directory, never a view that references missing data;
- **federated top-k**: per-link top-k (each link's own segments, tombstones
  and caches untouched) merged with the engine's pinned tie-break extended
  by the collection name for a total order across collections.

The engine's document identity is (conv_id, turn_idx) per collection — the
view output carries a leading ``collection`` column, the analog of the
``_id = collection/key`` prefix.  Collections must already be in the
transcript row shape (sources/transcripts.py adapters handle generic
tables).
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import re
import shutil
from dataclasses import dataclass, field as _dcfield

import numpy as np
import pandas as pd

from iresearch_ray.pipelines.search import Searcher, _merge_rows, merge_topk
from iresearch_ray.stages.segment import IndexConfig
from iresearch_ray.state.stats import memo_lru

VIEW_JSON = "view.json"
_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]{1,128}$")

# analyzers that tokenize running text -> the link's single analyzed field
_TEXT_ANALYZERS = {
    "text", "delimiter", "ngram", "norm", "stem", "pipeline", "segmentation",
    "collation", "minhash", "delimited_payload", "icu_segmentation",
    "icu_collation",
}
_KEYWORD_ANALYZERS = {"keyword", "identity"}  # identity = ArangoDB's default


# per-call-unique staging suffix (see state/manifest.py rationale)
_STAGE_SEQ = itertools.count()


@dataclass
class LinkDef:
    """One view link: a collection (Parquet path/paths) plus its indexing
    config, shaped like an arangosearch link definition."""

    source: "str | list[str]"
    # field -> {"analyzers": [name], "analyzer_opts": {...}}; empty dict
    # means "classify by column type" (string->keyword, numeric->trie)
    fields: dict = _dcfield(default_factory=dict)
    include_all_fields: bool = False
    analyzers: tuple = ("identity",)  # default analyzer list (ArangoDB: identity)
    store_values: str = "id"  # "id" keeps stored text (highlights); "none" drops it
    positions: bool = True  # trackListPositions analog for the analyzed field

    def to_json(self) -> dict:
        return {
            "source": self.source if isinstance(self.source, list) else [self.source],
            "fields": self.fields,
            "include_all_fields": self.include_all_fields,
            "analyzers": list(self.analyzers),
            "store_values": self.store_values,
            "positions": self.positions,
        }

    @staticmethod
    def from_json(d: dict) -> "LinkDef":
        return LinkDef(
            source=d["source"],
            fields=d.get("fields", {}),
            include_all_fields=d.get("include_all_fields", False),
            analyzers=tuple(d.get("analyzers", ("identity",))),
            store_values=d.get("store_values", "id"),
            positions=d.get("positions", True),
        )


def _link_dir(view_dir: str, collection: str) -> str:
    return os.path.join(view_dir, "links", collection)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid collection/view name {name!r} (want [A-Za-z0-9_-])")
    return name


def _schema_types(source) -> dict:
    import pyarrow.parquet as pq

    from iresearch_ray.pipelines.build import _expand_files

    files = _expand_files(source)
    schema = pq.read_schema(files[0])
    return {n: schema.field(n).type for n in schema.names}


def link_config(link: LinkDef) -> IndexConfig:
    """Derive the link's IndexConfig from its field/analyzer declarations —
    the collection→index wiring the database layer performs.

    Classification: a field whose analyzer list names a text-tokenizing
    analyzer becomes THE analyzed field (the engine indexes one analyzed
    text field per index, so one per link — a second raises);
    keyword/identity fields become keyword_fields; "numeric"/"json"
    pseudo-analyzers (and, under include_all_fields or an empty analyzer
    list, the column's Parquet type) pick the trie / dynamic-JSON paths."""
    types = _schema_types(link.source)
    text_field = None
    analyzer, analyzer_opts = "text", {}
    keyword, numeric, jsonf = [], [], []

    def classify(fname: str, names: tuple, opts: dict) -> None:
        nonlocal text_field, analyzer, analyzer_opts
        if fname not in types:
            raise ValueError(f"link field {fname!r} not in collection schema")
        for a in names:
            if a in _TEXT_ANALYZERS:
                if text_field is not None and text_field != fname:
                    raise ValueError(
                        "one analyzed text field per link (engine IndexConfig "
                        f"constraint): {text_field!r} and {fname!r}"
                    )
                text_field, analyzer, analyzer_opts = fname, a, dict(opts)
            elif a in _KEYWORD_ANALYZERS:
                keyword.append(fname)
            elif a == "numeric":
                numeric.append(fname)
            elif a == "json":
                jsonf.append(fname)
            else:
                raise ValueError(f"unknown analyzer {a!r} for field {fname!r}")

    for fname, fdef in link.fields.items():
        fdef = fdef or {}
        names = tuple(fdef.get("analyzers", ())) or tuple(link.analyzers)
        if not fdef.get("analyzers") and not link.analyzers:
            names = ()
        if names:
            classify(fname, names, fdef.get("analyzer_opts", {}))
        else:  # classify by column type
            t = types[fname]
            import pyarrow.types as pt

            (numeric if (pt.is_integer(t) or pt.is_floating(t)) else keyword).append(fname)

    if link.include_all_fields:
        import pyarrow.types as pt

        taken = {text_field, "conv_id", "turn_idx", *keyword, *numeric, *jsonf}
        for fname, t in types.items():
            if fname in taken or fname is None:
                continue
            if pt.is_integer(t) or pt.is_floating(t):
                numeric.append(fname)
            elif pt.is_string(t) or pt.is_large_string(t):
                keyword.append(fname)
            # other types (timestamps, binaries) are not indexed — same as
            # ArangoSearch skipping unsupported types silently

    if text_field is None:
        # a pure keyword/numeric view is legal; the engine still requires a
        # text column to exist, so fall back to "text" if present
        if "text" in types:
            text_field = "text"
        else:
            raise ValueError("link must declare one analyzed text field")
    return IndexConfig(
        text_field=text_field,
        keyword_fields=tuple(dict.fromkeys(keyword)),
        numeric_fields=tuple(dict.fromkeys(numeric)),
        json_fields=tuple(dict.fromkeys(jsonf)),
        analyzer=analyzer,
        analyzer_opts=analyzer_opts,
        positions=link.positions,
        store_text=(link.store_values != "none"),
    )


# ---------------------------------------------------------------------------
# view.json publish (atomic, like the manifest two-phase commit)
# ---------------------------------------------------------------------------


def _publish(view_dir: str, view: dict) -> dict:
    os.makedirs(view_dir, exist_ok=True)
    tmp = os.path.join(view_dir, f"{VIEW_JSON}.tmp.{os.getpid()}.{next(_STAGE_SEQ)}")
    with open(tmp, "w") as f:
        json.dump(view, f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(view_dir, VIEW_JSON))
    return view


def load_view(view_dir: str) -> dict:
    p = os.path.join(view_dir, VIEW_JSON)
    if not os.path.exists(p):
        raise FileNotFoundError(f"no {VIEW_JSON} in {view_dir}")
    with open(p) as f:
        return json.load(f)


def _norm_links(links: dict) -> dict:
    out = {}
    for name, ld in links.items():
        _check_name(name)
        out[name] = ld if isinstance(ld, LinkDef) else LinkDef.from_json(dict(ld))
    return out


def _build_link(view_dir: str, name: str, ld: LinkDef, num_partitions, crypto) -> None:
    from iresearch_ray.pipelines.build import build_index

    d = _link_dir(view_dir, name)
    build_index(ld.source, d, cfg=link_config(ld), num_partitions=num_partitions,
                resume=True, crypto=crypto)


def create_view(
    view_dir: str,
    name: str,
    links: dict,
    properties: dict | None = None,
    num_partitions: int | None = None,
    crypto=None,
) -> dict:
    """Create a view: build every link's sub-index, then publish view.json.
    Idempotent/resumable — re-running after a crash adopts completed link
    partitions (build_index resume) and re-publishes."""
    _check_name(name)
    norm = _norm_links(links)
    for lname, ld in norm.items():
        _build_link(view_dir, lname, ld, num_partitions, crypto)
    view = {
        "name": name,
        "type": "search",
        "links": {n: ld.to_json() for n, ld in norm.items()},
        "properties": properties or {},
    }
    return _publish(view_dir, view)


def update_links(
    view_dir: str,
    add: dict | None = None,
    remove: "list[str] | None" = None,
    num_partitions: int | None = None,
    crypto=None,
) -> dict:
    """Add/remove links on a live view.  Adds build before publish; removes
    publish before delete (crash-safe in both directions: the published
    view.json never references missing data)."""
    view = load_view(view_dir)
    if remove:
        for lname in remove:
            view["links"].pop(lname, None)
        _publish(view_dir, view)
        for lname in remove:
            shutil.rmtree(_link_dir(view_dir, _check_name(lname)), ignore_errors=True)
    if add:
        norm = _norm_links(add)
        for lname, ld in norm.items():
            if lname in view["links"]:
                raise ValueError(f"link {lname!r} already in view; remove first")
            # an earlier remove may have crashed between publish and delete,
            # leaving an orphan dir — safe to build over: resume adoption is
            # fingerprint+config matched (segments of other data are never
            # adopted) and the fresh manifest references only this build's
            # segments, so stale files are unreferenced garbage at worst
            _build_link(view_dir, lname, ld, num_partitions, crypto)
        for lname, ld in norm.items():
            view["links"][lname] = ld.to_json()
        _publish(view_dir, view)
    return view


def refresh_link(view_dir: str, collection: str, source=None,
                 num_partitions: int | None = None, crypto=None,
                 deletes=None, updates=None,
                 source_lineage_max: int = 32) -> dict:
    """Apply one view-maintenance tick — the full change stream ArangoSearch
    consumes from a linked collection, not just inserts:

    - ``source``  — NEW documents (Parquet path/paths): ingested as new
      segments via ``append_index`` under the link's own config;
    - ``updates`` — CHANGED documents (a full-row ``pa.Table``): applied via
      ``update_rows`` (tombstone the old copies + build replacement segments
      in ONE committed generation of the link's sub-index);
    - ``deletes`` — REMOVED documents (a (conv_id, turn_idx) keys table or
      list of tuples): applied via ``delete_keys`` as one tombstone commit.

    Each mutation rides the sub-index's own two-phase manifest commit, so a
    crash between steps leaves the link on a consistent generation; the
    view.json publish at the end only records lineage metadata.

    Lineage compaction: the link's ``source`` list is capped at
    ``source_lineage_max`` entries — older entries are dropped and counted in
    the link's ``source_compacted`` field (the sub-index is the authoritative
    data; ``source`` is provenance, and an unboundedly growing list would
    bloat every view.json publish).

    Returns ``{"append": manifest?, "update": result?, "delete": result?}``
    for whichever changes were supplied."""
    view = load_view(view_dir)
    if collection not in view["links"]:
        raise KeyError(f"no link {collection!r} in view")
    if source is None and deletes is None and updates is None:
        raise ValueError("refresh_link: supply source=, updates= and/or deletes=")
    d = _link_dir(view_dir, collection)
    out: dict = {}
    if source is not None:
        from iresearch_ray.pipelines.build import append_index

        out["append"] = append_index(source, d, num_partitions=num_partitions,
                                     crypto=crypto)
    if updates is not None:
        from iresearch_ray.pipelines.delete import update_rows

        out["update"] = update_rows(d, updates,
                                    num_partitions=num_partitions or 1,
                                    crypto=crypto)
    if deletes is not None:
        from iresearch_ray.pipelines.delete import delete_keys

        out["delete"] = delete_keys(d, deletes, crypto=crypto)
    if source is not None:
        link = view["links"][collection]
        new = source if isinstance(source, list) else [source]
        lineage = list(link["source"]) + new
        if len(lineage) > source_lineage_max:
            dropped = len(lineage) - source_lineage_max
            lineage = lineage[dropped:]
            link["source_compacted"] = int(link.get("source_compacted", 0)) + dropped
        link["source"] = lineage
    _publish(view_dir, view)
    return out


def consolidate_view(view_dir: str, crypto=None) -> dict:
    """Run the view's consolidationPolicy over every link's sub-index
    (properties["consolidation_policy"] = {"type": "tier", ...kwargs};
    defaults to tier, like arangosearch views)."""
    from iresearch_ray.pipelines.consolidate import consolidate

    view = load_view(view_dir)
    pol = dict(view.get("properties", {}).get("consolidation_policy", {"type": "tier"}))
    ptype = pol.pop("type", "tier")
    out = {}
    for lname in view["links"]:
        out[lname] = consolidate(_link_dir(view_dir, lname), policy=ptype,
                                 policy_kwargs=pol, gc=True, crypto=crypto)
    return out


# ---------------------------------------------------------------------------
# view-global statistics (ArangoSearch scores per-VIEW, not per-collection)
# ---------------------------------------------------------------------------


def _merge_sum(pairs) -> tuple:
    """Union term lists and sum their dfs — (terms, dfs) sorted by term."""
    pairs = [p for p in pairs if p[0] is not None and len(p[0])]
    if not pairs:
        return np.zeros(0, dtype=object), np.zeros(0, dtype=np.int64)
    terms = np.concatenate([np.asarray(p[0], dtype=object) for p in pairs])
    dfs = np.concatenate([np.asarray(p[1], dtype=np.int64) for p in pairs])
    uniq, inv = np.unique(terms, return_inverse=True)
    out = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(out, inv, dfs)
    return uniq, out


class ViewStats:
    """GlobalStats facade over N per-link stats: field N/avg_dl and term
    df are the SUMS across links, dictionary probes are the union — so a
    plan prepared against it carries view-global idf/avg_dl and equals a
    single merged index's plan when link configs agree.  Implements the
    exact probe surface filters.prepare() consumes (state/stats.py)."""

    def __init__(self, children: list):
        self.children = list(children)
        fs: dict = {}
        for c in self.children:
            for f, d in c.field_stats.items():
                agg = fs.setdefault(f, {"docs_with_field": 0, "total_term_freq": 0})
                agg["docs_with_field"] += d["docs_with_field"]
                agg["total_term_freq"] += d["total_term_freq"]
        self.field_stats = fs
        self._fuzzy_lru: "collections.OrderedDict[tuple, tuple]" = collections.OrderedDict()

    @property
    def lazy(self) -> bool:
        return any(c.lazy for c in self.children)

    def field(self, field_name: str):
        fs = self.field_stats.get(field_name)
        if not fs or fs["docs_with_field"] == 0:
            return 0.0, 1.0
        N = float(fs["docs_with_field"])
        return N, float(fs["total_term_freq"]) / N

    def term_df(self, field_name: str, term: str) -> int:
        return sum(c.term_df(field_name, term) for c in self.children)

    def term_dfs(self, field_name: str, terms) -> np.ndarray:
        out = np.zeros(len(terms), dtype=np.int64)
        for c in self.children:
            out += c.term_dfs(field_name, terms)
        return out

    def terms_in_range(self, field_name, low, high, include_low: bool = True,
                       include_high: bool = False):
        return _merge_sum([
            c.terms_in_range(field_name, low, high, include_low, include_high)
            for c in self.children
        ])

    def match_terms(self, field_name: str, batch_fn):
        return _merge_sum([c.match_terms(field_name, batch_fn) for c in self.children])

    def fuzzy_terms(self, field_name: str, q: str, d: int, with_transpositions: bool = False):
        return memo_lru(self._fuzzy_lru, (field_name, q, d, with_transpositions),
                        lambda: _merge_sum([
                            c.fuzzy_terms(field_name, q, d, with_transpositions)
                            for c in self.children
                        ]))

    def field_terms(self, field_name: str):
        return _merge_sum([c.field_terms(field_name) for c in self.children])


# ---------------------------------------------------------------------------
# federated search
# ---------------------------------------------------------------------------


# the engine tie-break extended by the collection name, so the
# cross-collection order is total
_VIEW_TIES = ("collection", "conv_id", "turn_idx")


def _merge_view_topk(frames: list, k: int) -> pd.DataFrame:
    """Engine merge (score desc, then ``_VIEW_TIES`` asc) of per-link
    frames."""
    return merge_topk(pd.concat(frames, ignore_index=True), k, _VIEW_TIES)


class ViewSearcher:
    """Point-in-time searcher over a view: one engine Searcher per link,
    all sharing ONE ViewStats so every plan scores view-globally; per-link
    top-k merged with a collection-aware tie-break.  The pooled path reuses
    each link's cached QueryPool (serving path — one RPC round per link
    after warm-up, links fan out concurrently)."""

    def __init__(self, view_dir: str, crypto=None):
        self.view_dir = view_dir
        self.view = load_view(view_dir)
        self.collections = sorted(self.view["links"])
        self.searchers = {
            c: Searcher(_link_dir(view_dir, c), crypto=crypto) for c in self.collections
        }
        self.stats = ViewStats([s.stats for s in self.searchers.values()])
        for s in self.searchers.values():
            s.stats = self.stats  # view-global idf / avg_dl in every plan

    def _targets(self, collections) -> list:
        if collections is None:
            return self.collections
        unknown = set(collections) - set(self.collections)
        if unknown:
            raise KeyError(f"no link(s) {sorted(unknown)} in view")
        return [c for c in self.collections if c in set(collections)]

    def search_local(self, flt, k: int = 10, scorer=None,
                     collections=None) -> pd.DataFrame:
        """``collections=`` restricts the fan-out to the named links —
        whole sub-indexes are pruned, not post-filtered (the per-collection
        FILTER idiom); scores stay view-global either way (one ViewStats).

        Links are scanned SEQUENTIALLY on the driver, so latency stacks per
        link — this is the in-process debugging path; use ``search_pooled``
        for concurrent fan-out in serving."""
        frames = []
        for c in self._targets(collections):
            f = self.searchers[c].search_local(flt, k=k, scorer=scorer)
            f.insert(0, "collection", c)
            frames.append(f)
        return _merge_view_topk(frames, k)

    def highlights(self, flt, k: int = 10, scorer=None, field: str = "text",
                   source: str = "stored", collections=None) -> pd.DataFrame:
        """View-level highlights: per-link spans (stored-text recompute or
        the indexed ``offs`` stream, same as Searcher.highlights) merged
        under the view tie-break — spans are computed against each link's
        own analyzer config, scores against the view-global stats."""
        frames = []
        for c in self._targets(collections):
            f = self.searchers[c].highlights(flt, k=k, scorer=scorer,
                                             field=field, source=source)
            f.insert(0, "collection", c)
            frames.append(f)
        return _merge_view_topk(frames, k)

    def search_pooled(self, queries: dict, k: int = 10, scorer=None,
                      num_actors: int = 8, collections=None) -> pd.DataFrame:
        """``num_actors`` is a VIEW-level actor budget shared across links,
        not a per-link count: it is floor-divided over the targeted links
        (min 1 each), so a view with many links cannot quietly allocate
        links × N actors.  With more links than budget each link still gets
        one actor — the floor — and the total equals the link count."""
        import pyarrow as pa
        import ray

        targets = self._targets(collections)
        per_link = max(1, num_actors // max(1, len(targets)))
        # fan the plan out to every link's pool CONCURRENTLY (per-link pools
        # are disjoint actor sets; serializing them would stack latencies)
        pending = []
        for c in targets:
            s = self.searchers[c]
            plans = s._plans(queries, scorer)
            pending.append((c, s._submit("topk", plans, k, num_actors=per_link)))
        tables = []
        for c, refs in pending:
            t = pa.concat_tables(ray.get(refs))
            tables.append(t.add_column(0, "collection", pa.array([c] * t.num_rows, pa.string())))
        return _merge_rows(tables, k, _VIEW_TIES)

    def close(self) -> None:
        for s in self.searchers.values():
            s.close()
