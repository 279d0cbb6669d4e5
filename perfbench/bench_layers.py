"""Which public calls of each layer the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<call>``; a per-layer time metric is the total
self time of its spans over the traced cells, in seconds.  The Session
phases are the exception: ``session.<phase>_s`` is the total *inclusive*
duration of the phase spans opened directly under ``Session.run``, so
the phases of a cell add up to (almost all of) the cell.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import repro.api.session as api_session
from repro.api.session import Session
from repro.campaign import registries
from repro.campaign.cache import ResultCache
from repro.campaign.checkpoint import CheckpointJournal
from repro.core.detection import LocalDetector
from repro.core.offload import OffloadEngine
from repro.core.oplog import OperationLog
from repro.crypto.cipher import StreamCipher
from repro.crypto.compression import Compressor
from repro.defenses.base import Defense
from repro.forensics.engine import ForensicsEngine
from repro.host.filesystem import SimpleFS
from repro.ssd import flash as ssd_flash
from repro.ssd.device import SSD
from repro.ssd.flash import PageContent
from repro.ssd.ftl import FTL
from repro.ssd.gc import GarbageCollector
from repro.workloads import synthetic
from repro.workloads.replay import TraceReplayer

from bench_cells import SWEEP_ATTACKS
from bench_trace import Tracer

PHASES = ("provision", "workload", "attack", "score_recovery", "detect", "score_forensics")

#: (span name, per-layer metric) for every metric that is a self time.
SELF_TIME_METRICS = [
    ("workloads.profile_workload", "workloads.profile_workload_s"),
    ("workloads.replay", "workloads.replay_self_s"),
    ("ssd.device.write", "ssd.device.write_s"),
    ("ssd.device.read", "ssd.device.read_s"),
    ("ssd.device.trim", "ssd.device.trim_s"),
    ("ssd.ftl.write", "ssd.ftl.write_s"),
    ("ssd.ftl.relocate", "ssd.ftl.relocate_s"),
    ("ssd.gc.collect", "ssd.gc.collect_s"),
    ("ssd.gc.select_victim", "ssd.gc.select_victim_s"),
    ("ssd.flash.content_from_bytes", "ssd.flash.content_from_bytes_s"),
    ("core.oplog.append", "core.oplog.append_s"),
    ("core.offload.drain", "core.offload.drain_s"),
    ("core.detection.on_host_op", "core.detection.on_host_op_s"),
    ("forensics.verify_chain", "forensics.verify_chain_s"),
    ("forensics.timeline", "forensics.timeline_s"),
    ("forensics.classify", "forensics.classify_s"),
    ("forensics.recover_to", "forensics.recover_to_s"),
    ("crypto.shannon_entropy", "crypto.shannon_entropy_s"),
    ("crypto.encrypt", "crypto.encrypt_s"),
    ("crypto.compress", "crypto.compress_s"),
    ("host.populate", "host.populate_s"),
    ("host.fs_write", "host.fs_write_s"),
    ("campaign.cache.get", "campaign.cache.get_s"),
    ("campaign.cache.put", "campaign.cache.put_s"),
    ("campaign.journal.append", "campaign.journal.append_s"),
] + [(f"attacks.{attack}.execute", f"attacks.{attack}.execute_s") for attack in SWEEP_ATTACKS]

COUNT_METRICS = [
    "workloads.replay_records",
    "ssd.host_reads",
    "ssd.host_writes",
    "ssd.host_trims",
    "ssd.gc.passes",
    "ssd.gc.pages_relocated",
    "ssd.gc.blocks_erased",
    "ssd.flash.pages_programmed",
    "core.oplog.entries",
    "core.offload.wire_bytes",
    "core.retention.pressure_evicted",
]


def install(tracer: Tracer, counts: Counter) -> None:
    """Wrap each layer's public calls; counts land in ``counts``."""

    def count_replay(result) -> None:
        counts["workloads.replay_records"] += result.records_replayed

    def count_gc(result) -> None:
        counts["ssd.gc.passes"] += 1
        counts["ssd.gc.pages_relocated"] += result.pages_relocated
        counts["ssd.gc.blocks_erased"] += result.blocks_erased

    # -- api.session: the cell and its phases
    tracer.patch_method(Session, "run", "session.run", on_result=lambda r: session_counts(counts, r))
    tracer.patch_method(Session, "provision", "session.provision")
    for name in list(registries.WORKLOADS):
        tracer.patch_dict(registries.WORKLOADS, name, lambda fn: tracer.wrap("session.workload", fn))
    for name in list(registries.ATTACKS):
        tracer.patch_dict(registries.ATTACKS, name, lambda build, name=name: _traced_attack(tracer, name, build))
    tracer.patch_function(api_session.score_recovery, "session.score_recovery")
    tracer.patch_function(api_session.score_forensics, "session.score_forensics")
    for method in ("detect", "detection_time_us", "detection_reports"):
        tracer.patch_method(Defense, method, "session.detect")
    # -- workloads
    tracer.patch_function(synthetic.profile_workload, "workloads.profile_workload")
    tracer.patch_method(TraceReplayer, "replay", "workloads.replay", on_result=count_replay)
    # -- ssd
    for method in ("write", "read", "trim"):
        tracer.patch_method(SSD, method, f"ssd.device.{method}")
    tracer.patch_method(FTL, "write", "ssd.ftl.write")
    tracer.patch_method(FTL, "relocate_valid_page", "ssd.ftl.relocate")
    tracer.patch_method(FTL, "relocate_stale_page", "ssd.ftl.relocate")
    tracer.patch_method(GarbageCollector, "collect", "ssd.gc.collect", on_result=count_gc)
    tracer.patch_method(GarbageCollector, "select_victim", "ssd.gc.select_victim")
    tracer.patch_method(PageContent, "from_bytes", "ssd.flash.content_from_bytes")
    # -- core
    tracer.patch_method(OperationLog, "append", "core.oplog.append")
    tracer.patch_method(OffloadEngine, "drain", "core.offload.drain")
    tracer.patch_method(OffloadEngine, "drain_all", "core.offload.drain")
    tracer.patch_method(LocalDetector, "on_host_op", "core.detection.on_host_op")
    # -- forensics
    for method in ("verify_chain", "timeline", "classify", "recover_to"):
        tracer.patch_method(ForensicsEngine, method, f"forensics.{method}")
    # -- crypto and host
    tracer.patch_function(ssd_flash.shannon_entropy, "crypto.shannon_entropy")
    tracer.patch_method(StreamCipher, "encrypt", "crypto.encrypt")
    tracer.patch_method(Compressor, "compress", "crypto.compress")
    tracer.patch_method(SimpleFS, "populate", "host.populate")
    tracer.patch_method(SimpleFS, "create_file", "host.fs_write")
    tracer.patch_method(SimpleFS, "overwrite_file", "host.fs_write")
    # -- campaign persistence
    tracer.patch_method(ResultCache, "get", "campaign.cache.get")
    tracer.patch_method(ResultCache, "put", "campaign.cache.put")
    tracer.patch_method(CheckpointJournal, "append_cell", "campaign.journal.append")


def session_counts(counts: Counter, result) -> None:
    """Add one executed session's device, offload and retention counts."""
    defense = result.defense
    device = getattr(defense.device, "ssd", defense.device)
    metrics = device.metrics
    counts["ssd.host_reads"] += metrics.host_reads
    counts["ssd.host_writes"] += metrics.host_writes
    counts["ssd.host_trims"] += metrics.host_trims
    counts["host_pages_written"] += metrics.host_pages_written
    counts["ssd.flash.pages_programmed"] += metrics.flash_pages_programmed
    rssd = getattr(defense, "rssd", None)
    if rssd is not None:
        counts["core.oplog.entries"] += rssd.oplog.total_entries
        counts["core.offload.wire_bytes"] += rssd.offload.stats.wire_bytes
        counts["offload_raw_bytes"] += rssd.offload.stats.raw_bytes
        counts["offload_compressed_bytes"] += rssd.offload.stats.compressed_bytes
        counts["core.retention.pressure_evicted"] += rssd.retention.stats.pages_pressure_evicted


def _traced_attack(tracer: Tracer, name: str, build):
    """An attack builder whose attacks record an ``attacks.<name>.execute`` span."""

    def build_traced(seed):
        attack = build(seed)
        attack.execute = tracer.wrap(f"attacks.{name}.execute", attack.execute)
        return attack

    return build_traced


def phase_seconds(tracer: Tracer) -> Dict[str, float]:
    """Inclusive seconds per Session phase, over every traced cell."""
    children = tracer.inclusive_children_of("session.run")
    phases = {phase: children.get(f"session.{phase}", 0.0) for phase in PHASES}
    phases["attack"] = sum(
        seconds for name, seconds in children.items() if name.startswith("attacks.")
    )
    return phases


def layer_metrics(tracer: Tracer, counts: Counter) -> Dict[str, float]:
    """The per-layer metrics drawn from spans and counts alone."""
    self_times = tracer.self_times()
    metrics = {f"session.{phase}_s": seconds for phase, seconds in phase_seconds(tracer).items()}
    metrics.update({metric: self_times.get(span, 0.0) for span, metric in SELF_TIME_METRICS})
    metrics.update({name: float(counts[name]) for name in COUNT_METRICS})
    host_pages = counts["host_pages_written"]
    metrics["ssd.gc.relocations_per_host_page"] = (
        counts["ssd.gc.pages_relocated"] / host_pages if host_pages else 0.0
    )
    raw = counts["offload_raw_bytes"]
    metrics["core.offload.compression_ratio"] = (
        counts["offload_compressed_bytes"] / raw if raw else 0.0
    )
    return metrics
