"""Content-addressed campaign store (incremental fault injection).

A fault-injection campaign is a pure function of its inputs: netlist,
stimuli, zone definitions, observation points, simulator setup and the
fault descriptor.  :mod:`repro.store` content-addresses that function —
every fault gets a :mod:`~repro.store.fingerprint` covering exactly the
inputs that can influence its outcome — and persists the per-fault
results in an append-only SQLite-indexed store
(:mod:`~repro.store.db`) with golden-record blobs
(:mod:`~repro.store.blobs`).

:class:`~repro.store.cache.CampaignCache` is the façade the campaign
engines consult: unchanged faults are served from the store, only the
delta after a netlist or stimuli edit is re-simulated, and a killed
campaign resumes exactly where it stopped.  The query layer
(:mod:`~repro.store.query`) compares measured DC/SFF across recorded
runs and reports which zones regressed.
"""

from .blobs import BlobStore, CorruptBlobError
from .cache import CacheStats, CampaignCache, CampaignPlan
from .errors import StoreIOError
from .db import (
    ACTIVE_JOB_STATES,
    AnomalyRow,
    OutcomeRow,
    StoreBusyError,
    StoreDB,
)
from .fingerprint import (
    FP_VERSION,
    FingerprintContext,
    SupportIndex,
    fault_descriptor,
)
from .fsck import FsckResult, fsck_store
from .query import (
    GcResult,
    RunDiff,
    StoreStats,
    ZoneChange,
    diff_runs,
    gc_store,
    store_stats,
)

__all__ = [
    "BlobStore", "CorruptBlobError",
    "CacheStats", "CampaignCache", "CampaignPlan",
    "ACTIVE_JOB_STATES", "AnomalyRow", "OutcomeRow",
    "StoreBusyError", "StoreDB", "StoreIOError",
    "FP_VERSION", "FingerprintContext", "SupportIndex",
    "fault_descriptor",
    "FsckResult", "fsck_store",
    "GcResult", "RunDiff", "StoreStats", "ZoneChange",
    "diff_runs", "gc_store", "store_stats",
]
