"""Redoop core: the paper's contribution layered over simulated Hadoop.

Component map (paper section -> module):

* recurring query model (2.1, 5)  -> :mod:`repro.core.query`
* pane/window algebra (3.1)       -> :mod:`repro.core.panes`
* Semantic Analyzer (3.1, Alg. 1) -> :mod:`repro.core.semantic_analyzer`
* Dynamic Data Packer (3.2)       -> :mod:`repro.core.data_packer`
* Execution Profiler (3.3)        -> :mod:`repro.core.profiler`
* Local Cache Registry (4.1)      -> :mod:`repro.core.cache_registry`
* Cache Status Matrix (4.2)       -> :mod:`repro.core.status_matrix`
* Cache Controller (4.2)          -> :mod:`repro.core.cache_controller`
* Cache-Aware Scheduler (4.3)     -> :mod:`repro.core.scheduler`
* Runtime / task exec manager     -> :mod:`repro.core.runtime`
* Failure recovery (5)            -> :mod:`repro.core.recovery`
"""

from .builder import RecurringQueryBuilder
from .count_windows import CountingIngest, count_window_spec
from .cache_controller import (
    CACHE_AVAILABLE,
    HDFS_AVAILABLE,
    NOT_AVAILABLE,
    CacheSignature,
    PurgeNotification,
    WindowAwareCacheController,
)
from .cache_registry import (
    REDUCE_INPUT,
    REDUCE_OUTPUT,
    CacheCorruptionError,
    CacheEntry,
    LocalCacheRegistry,
    cache_file_name,
    payload_checksum,
)
from .data_packer import DynamicDataPacker, PackedPane, PaneFileHeader, PaneLocator
from .eviction import (
    EVICTION_POLICIES,
    EvictionPolicy,
    LifespanPolicy,
    LruPolicy,
    make_policy,
)
from .panes import (
    Pane,
    PaneRange,
    WindowSpec,
    pane_file_name,
    pane_name,
    parse_pane_name,
    split_pid,
)
from .profiler import ExecutionProfiler, Observation
from .query import RecurringQuery, concat_finalizer, merging_finalizer
from .recovery import LostCache, RecoveryManager
from .runtime import RecurrenceResult, RedoopRuntime, pair_pid
from .scheduler import CacheAwareTaskScheduler, MapTaskRequest, ReduceTaskRequest
from .semantic_analyzer import PartitionPlan, SemanticAnalyzer, SourceStats
from .status_matrix import CacheStatusMatrix

__all__ = [
    "CACHE_AVAILABLE",
    "CacheAwareTaskScheduler",
    "CacheCorruptionError",
    "CacheEntry",
    "CacheSignature",
    "CacheStatusMatrix",
    "CountingIngest",
    "DynamicDataPacker",
    "EVICTION_POLICIES",
    "EvictionPolicy",
    "ExecutionProfiler",
    "HDFS_AVAILABLE",
    "LifespanPolicy",
    "LocalCacheRegistry",
    "LostCache",
    "LruPolicy",
    "MapTaskRequest",
    "NOT_AVAILABLE",
    "Observation",
    "PackedPane",
    "Pane",
    "PaneFileHeader",
    "PaneLocator",
    "PaneRange",
    "PartitionPlan",
    "PurgeNotification",
    "REDUCE_INPUT",
    "REDUCE_OUTPUT",
    "RecoveryManager",
    "RecurrenceResult",
    "RecurringQuery",
    "RecurringQueryBuilder",
    "RedoopRuntime",
    "ReduceTaskRequest",
    "SemanticAnalyzer",
    "SourceStats",
    "WindowAwareCacheController",
    "WindowSpec",
    "cache_file_name",
    "concat_finalizer",
    "count_window_spec",
    "make_policy",
    "merging_finalizer",
    "pair_pid",
    "pane_file_name",
    "pane_name",
    "parse_pane_name",
    "payload_checksum",
    "split_pid",
]
