"""Core BRS algorithms: the paper's primary contribution.

* :func:`~repro.core.brs.best_region` — one-call solver façade.
* :func:`~repro.core.brs.solve` — the one degradation ladder (exact →
  cover → grid) that ``best_region``, :class:`ExplorationSession` and the
  serve tier share.
* :class:`~repro.core.slicebrs.SliceBRS` — exact algorithm (Section 4).
* :class:`~repro.core.coverbrs.CoverBRS` — constant-factor approximation
  (Section 5).
* :class:`~repro.core.naive.NaiveBRS` — brute-force oracle for testing.
* :func:`~repro.core.maxrs.oe_maxrs` / :func:`~repro.core.maxrs.slicebrs_maxrs`
  — MaxRS baselines (Section 6.1 / Appendix C.2).
* :func:`~repro.core.topk.topk_regions` — top-k extension (future work of
  Section 7).
* :func:`~repro.core.gridscan.coarse_grid_scan` — anytime fallback solver,
  the last rung of the graceful-degradation ladder.
"""

from repro.core.brs import best_region
from repro.core.coverbrs import CoverBRS, APPROXIMATION_RATIOS
from repro.core.gridscan import coarse_grid_scan
from repro.core.maxrs import oe_maxrs, sampled_maxrs, slicebrs_maxrs
from repro.core.naive import NaiveBRS
from repro.core.partitioned import Shard, plan_shards
from repro.core.session import ExplorationSession, QueryRecord
from repro.core.result import BRSResult, RESULT_STATUSES, merge_anytime
from repro.core.slicebrs import SliceBRS
from repro.core.stats import CoverStats, SearchStats
from repro.core.topk import topk_regions

__all__ = [
    "APPROXIMATION_RATIOS",
    "BRSResult",
    "CoverBRS",
    "CoverStats",
    "NaiveBRS",
    "RESULT_STATUSES",
    "SearchStats",
    "Shard",
    "SliceBRS",
    "ExplorationSession",
    "QueryRecord",
    "best_region",
    "coarse_grid_scan",
    "merge_anytime",
    "plan_shards",
    "oe_maxrs",
    "sampled_maxrs",
    "slicebrs_maxrs",
    "topk_regions",
]
