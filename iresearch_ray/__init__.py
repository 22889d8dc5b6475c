"""iresearch_ray — a Ray-Data-native inverted-index build + BM25 query engine.

From-scratch re-expression of the query/data-processing capabilities of
IResearch (yyht/iresearch, the fulltext core of ArangoSearch) on Ray Data:

- index build = Parquet (or Dataset) read → hash exchange by ``conv_id`` →
  per-partition immutable segment build (term dict + delta+varint posting
  lists with skip/block-max metadata + doc-table with norms) → manifest
  two-phase commit  (SURVEY.md §3.1)
- query = driver-side prepare (global stats, multiterm expansion) →
  per-segment Ray tasks or a persistent QueryPool → block-max-pruned BM25
  top-k → driver k-way merge  (SURVEY.md §3.2)
- consolidation = tiered merge policy + per-candidate-set Ray merge tasks
  (SURVEY.md §3.3)

Nothing here calls ``ray.init()``/``ray.shutdown()`` — sessions are owned by
the caller (driver / bench.py / test fixtures).
"""

__version__ = "0.1.0"
FORMAT_VERSION = 5  # bump when segment/posting layout OR naming changes (invalidates caches)
# v5: off_blob/off_off (indexed character offsets) + pay_blob/pay_off
# (payload bytes) columns in terms.parquet (both empty unless opted in)

# Import-time so every Ray worker that deserializes one of our UDFs (and the
# driver itself on the affected microVM hosts) gets allocator retention — see
# runtime.py for the measured rationale.  Applies only in Ray workers and on
# *-fc-* microVM kernels — a host application importing the library elsewhere
# keeps its default allocator.  Idempotent; hard opt-out with
# IRESEARCH_NO_MEMTUNE=1.
from iresearch_ray.runtime import should_autotune as _should_autotune  # noqa: E402
from iresearch_ray.runtime import tune_memory as _tune_memory  # noqa: E402

if _should_autotune():
    _tune_memory()

from iresearch_ray.pipelines.build import build_index  # noqa: F401
from iresearch_ray.pipelines.search import QueryPool, Searcher, search  # noqa: F401
from iresearch_ray.pipelines.build import build_index_local  # noqa: F401
from iresearch_ray.state.crypto import IndexEncryption  # noqa: F401,E402
from iresearch_ray.pipelines.views import (  # noqa: F401,E402
    LinkDef,
    ViewSearcher,
    create_view,
    update_links,
)
