"""Campaign orchestration: resumable multi-dataset search campaigns.

This package turns the fast single-search kernel (:mod:`repro.search`) into
a multi-scenario service. A declarative spec (:class:`CampaignSpec`, YAML/
JSON/dict) expands a grid of {dataset × search algorithm × seed} into jobs;
:class:`CampaignRunner` executes them through the shared evaluation engine
with bounded concurrency and journals everything to a campaign directory —
JSONL manifest, per-genome evaluation records (the persistent
:class:`PersistentEvaluationCache`), and per-job Pareto fronts — so a
killed campaign resumes exactly where it stopped. Resumed runs are
bit-identical to uninterrupted ones: job results are pure functions of
their specs, and the SHA-256 per-genome seeding of
:func:`repro.search.evaluator.genome_seed` makes every cached evaluation
exactly what a fresh one would produce.

Typical use (also exposed as ``repro campaign run|resume|status|report``)::

    from repro.campaign import CampaignRunner, CampaignSpec

    spec = CampaignSpec.from_dict({
        "name": "demo",
        "datasets": ["whitewine", "seeds"],
        "pipeline": {"fast": True},
        "searches": [{"algorithm": "ga", "population_size": 8,
                      "n_generations": 3}],
    })
    summary = CampaignRunner(spec, "campaign_out").run()

See ``docs/campaigns.md`` for the spec format, resume semantics and the
cache/journal layout on disk, and ``docs/fabric.md`` for the multi-worker
fault-tolerant fabric (:mod:`repro.campaign.fabric`) layered on top — a
lease/heartbeat/requeue coordinator (``repro campaign coordinate``) plus
elastic workers (``repro campaign work``) over the same campaign
directory, with the byte-identical-results guarantee intact.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    JournalRecord,
    PersistentEvaluationCache,
    SimulatedCrash,
    baseline_key,
    evaluation_context_key,
    load_baseline,
    load_journal_records,
    save_baseline,
)
from .columnar import ColumnarFront, load_front_npz, write_front_npz
from .fabric import (
    ChaosPolicy,
    FabricCoordinator,
    FabricRunSummary,
    FabricStatus,
    FabricWorker,
    FaultSpec,
    LeaseDirectory,
    LeaseLost,
    RetryPolicy,
    WorkerRunSummary,
)
from .journal import (
    CampaignJournal,
    campaign_status,
    format_status,
    mark_campaign_completed,
    persist_spec,
    read_json,
    write_json_atomic,
)
from .report import build_report, collect_fronts, format_report, write_report
from .runner import CampaignRunner, CampaignRunSummary, JobOutcome, execute_job
from .spec import (
    ALGORITHMS,
    CampaignSpec,
    JobSpec,
    SearchSpec,
    load_spec,
    parse_shard,
    select_shard,
)

__all__ = [
    "ALGORITHMS",
    "CACHE_SCHEMA_VERSION",
    "CampaignJournal",
    "CampaignRunSummary",
    "CampaignRunner",
    "CampaignSpec",
    "ChaosPolicy",
    "ColumnarFront",
    "FabricCoordinator",
    "FabricRunSummary",
    "FabricStatus",
    "FabricWorker",
    "FaultSpec",
    "JobOutcome",
    "JobSpec",
    "JournalRecord",
    "LeaseDirectory",
    "LeaseLost",
    "PersistentEvaluationCache",
    "RetryPolicy",
    "SearchSpec",
    "SimulatedCrash",
    "WorkerRunSummary",
    "baseline_key",
    "build_report",
    "campaign_status",
    "collect_fronts",
    "evaluation_context_key",
    "execute_job",
    "format_report",
    "format_status",
    "load_baseline",
    "load_front_npz",
    "load_journal_records",
    "load_spec",
    "mark_campaign_completed",
    "parse_shard",
    "persist_spec",
    "read_json",
    "save_baseline",
    "select_shard",
    "write_front_npz",
    "write_json_atomic",
    "write_report",
]
