"""Named factories for every grid dimension.

The campaign engine executes cells in worker processes, so a cell spec
carries only *names*; this module resolves them to live objects.  The
defense registry is the canonical list of Table-1 rows (the capability
matrix re-exports it), the attack registry covers the paper's attack
families plus the classic-ransomware destruction variants, workload
registries describe the pre-attack victim activity, and device configs
map to SSD geometries.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.attacks.adaptive import (
    EntropyMimicryAttack,
    EvasionPolicy,
    IntermittentEncryptionAttack,
    RateThrottledAttack,
    TrimInterleavedWipeAttack,
)
from repro.attacks.base import AttackEnvironment, NoOpAttack, RansomwareAttack
from repro.attacks.classic import ClassicRansomware, DestructionMode
from repro.attacks.gc_attack import GCAttack
from repro.attacks.timing_attack import TimingAttack
from repro.attacks.trimming_attack import TrimmingAttack
from repro.defenses.base import Defense
from repro.defenses.flashguard import FlashGuardDefense
from repro.defenses.rblocker import RBlockerDefense
from repro.defenses.rssd_adapter import RSSDDefense
from repro.defenses.software import (
    CloudBackupDefense,
    CryptoDropDefense,
    JournalingFSDefense,
    ShieldFSDefense,
    UnveilDefense,
)
from repro.defenses.ssdinsider import SSDInsiderDefense
from repro.defenses.timessd import TimeSSDDefense
from repro.defenses.unprotected import UnprotectedSSD
from repro.sim import SimClock, US_PER_HOUR
from repro.ssd.geometry import SSDGeometry

DefenseFactory = Callable[[SSDGeometry, SimClock], Defense]
AttackBuilder = Callable[[int], RansomwareAttack]

# ---------------------------------------------------------------------------
# Defenses (the rows of the paper's Table 1, plus the unprotected floor)
# ---------------------------------------------------------------------------

DEFENSES: Dict[str, DefenseFactory] = {
    "LocalSSD": lambda geometry, clock: UnprotectedSSD(geometry=geometry, clock=clock),
    "Unveil": lambda geometry, clock: UnveilDefense(geometry=geometry, clock=clock),
    "CryptoDrop": lambda geometry, clock: CryptoDropDefense(geometry=geometry, clock=clock),
    "CloudBackup": lambda geometry, clock: CloudBackupDefense(geometry=geometry, clock=clock),
    "ShieldFS": lambda geometry, clock: ShieldFSDefense(geometry=geometry, clock=clock),
    "JFS": lambda geometry, clock: JournalingFSDefense(geometry=geometry, clock=clock),
    "FlashGuard": lambda geometry, clock: FlashGuardDefense(geometry=geometry, clock=clock),
    "TimeSSD": lambda geometry, clock: TimeSSDDefense(geometry=geometry, clock=clock),
    "SSDInsider": lambda geometry, clock: SSDInsiderDefense(geometry=geometry, clock=clock),
    "RBlocker": lambda geometry, clock: RBlockerDefense(geometry=geometry, clock=clock),
    "RSSD": lambda geometry, clock: RSSDDefense(geometry=geometry, clock=clock),
}

# ---------------------------------------------------------------------------
# Attacks (column families; each builder takes the cell's attack seed)
# ---------------------------------------------------------------------------

ATTACKS: Dict[str, AttackBuilder] = {
    # -- the benign column: no attack at all (pure workload measurement;
    # -- the offload-throughput and false-positive experiments use it).
    "none": lambda seed: NoOpAttack(seed=seed),
    "classic": lambda seed: ClassicRansomware(
        destruction=DestructionMode.OVERWRITE, seed=seed
    ),
    "classic-delete": lambda seed: ClassicRansomware(
        destruction=DestructionMode.DELETE, seed=seed
    ),
    "classic-trim": lambda seed: ClassicRansomware(
        destruction=DestructionMode.TRIM, seed=seed
    ),
    "gc-attack": lambda seed: GCAttack(seed=seed),
    "timing-attack": lambda seed: TimingAttack(seed=seed),
    "trimming-attack": lambda seed: TrimmingAttack(seed=seed),
    # -- adaptive (detection-aware) family; the suffix-less names run the
    # -- light policy, the suffixed variants are the evasion-strength axis.
    "entropy-mimicry": lambda seed: EntropyMimicryAttack(seed=seed),
    "entropy-mimicry-strong": lambda seed: EntropyMimicryAttack(
        policy=EvasionPolicy.strong(), seed=seed
    ),
    "intermittent-encrypt": lambda seed: IntermittentEncryptionAttack(seed=seed),
    "intermittent-encrypt-sparse": lambda seed: IntermittentEncryptionAttack(
        policy=EvasionPolicy.strong(), seed=seed
    ),
    "low-slow-v2": lambda seed: RateThrottledAttack(seed=seed),
    "low-slow-v2-strong": lambda seed: RateThrottledAttack(
        policy=EvasionPolicy.strong(), seed=seed
    ),
    "trim-interleave": lambda seed: TrimInterleavedWipeAttack(seed=seed),
}

#: The four attack columns the paper's Table 1 scores.
DEFAULT_ATTACKS: List[str] = ["classic", "gc-attack", "timing-attack", "trimming-attack"]

#: The adaptive-attack columns the detection-quality (ROC) pipeline
#: scores by default; the ``-strong`` / ``-sparse`` registry variants
#: extend the sweep along the evasion-strength axis.
EVASIVE_ATTACKS: List[str] = [
    "entropy-mimicry",
    "intermittent-encrypt",
    "low-slow-v2",
    "trim-interleave",
]

#: Every evasion-strength variant, for the nightly full sweep.
EVASIVE_ATTACKS_FULL: List[str] = EVASIVE_ATTACKS + [
    "entropy-mimicry-strong",
    "intermittent-encrypt-sparse",
    "low-slow-v2-strong",
]

# ---------------------------------------------------------------------------
# Pre-attack workload generators
# ---------------------------------------------------------------------------


def office_edit_activity(
    env: AttackEnvironment,
    rng: random.Random,
    hours: float,
    recent_edit_fraction: float,
    sessions: int = 6,
) -> None:
    """Simulate a user working on the victim files before the attack.

    Edits are spread over ``hours``; a final burst of edits lands
    shortly before the attack so that snapshot-based defenses have
    changes they have not yet backed up -- the reason backup recovery is
    partial rather than complete.  (This is the capability matrix's
    historical user-activity model, verbatim.)
    """
    files = env.fs.list_files()
    if not files:
        return
    session_gap_us = int(hours * US_PER_HOUR / sessions)
    for session in range(sessions):
        env.clock.advance(session_gap_us)
        for name in rng.sample(files, max(1, len(files) // 4)):
            data = env.fs.read_file(name)
            edited = data[: len(data) // 2] + b" edited v%d " % session + data[len(data) // 2 :]
            env.fs.overwrite_file(name, edited[: len(data)])
    # Recent, not-yet-backed-up edits right before the attack.
    recent = rng.sample(files, max(1, int(len(files) * recent_edit_fraction)))
    env.clock.advance(US_PER_HOUR // 2)
    for name in recent:
        data = env.fs.read_file(name)
        edited = (b"last minute change " + data)[: len(data)]
        env.fs.overwrite_file(name, edited)
    env.clock.advance(US_PER_HOUR // 4)


def idle_activity(
    env: AttackEnvironment,
    rng: random.Random,
    hours: float,
    recent_edit_fraction: float,
) -> None:
    """A victim machine that merely ages: time passes, nothing is edited.

    Exercises defenses whose retention windows expire on wall-clock time
    even without write traffic.
    """
    env.clock.advance(int(hours * US_PER_HOUR))


#: Workload generators share one signature: (env, rng, hours, recent_fraction).
ActivityFn = Callable[[AttackEnvironment, random.Random, float, float], None]


def trace_replay_activity(volume: str) -> ActivityFn:
    """Build a workload replaying a profiled MSR/FIU storage trace.

    The returned activity synthesizes a trace matching the named
    volume's profile (:func:`repro.analysis.retention.lookup_volume`)
    over half the device's exported capacity and replays it in
    timestamp order under 30,000x time compression -- the retention
    experiments' standard setting.  ``hours`` is interpreted as seconds
    of original (uncompressed) trace time, so the legacy experiments'
    ``duration_s=0.1`` maps to ``user_activity_hours=0.1``; a
    non-positive duration replays nothing.  The trace seed is drawn
    from the workload rng, so campaign cells reproduce bit-identically.
    """

    def activity(
        env: AttackEnvironment,
        rng: random.Random,
        hours: float,
        recent_edit_fraction: float,
    ) -> None:
        if hours <= 0:
            return
        from repro.analysis.retention import lookup_volume
        from repro.workloads.replay import TraceReplayer
        from repro.workloads.synthetic import profile_workload

        profile = lookup_volume(volume)
        records = profile_workload(
            profile,
            capacity_pages=env.device.capacity_pages // 2,  # type: ignore[attr-defined]
            duration_s=hours,
            seed=rng.randrange(1 << 31),
            stream_id=env.user_stream,
            time_compression=30_000.0,
        )
        TraceReplayer(env.device).replay(records)  # type: ignore[arg-type]

    return activity


#: Every trace volume the retention analysis knows (MSR plus FIU).
TRACE_VOLUMES: List[str] = [
    "hm", "prn", "proj", "rsrch", "src", "stg", "ts", "usr", "wdev", "web",
    "email", "fiu-res", "online", "webresearch", "webusers",
]

WORKLOADS: Dict[str, ActivityFn] = {
    "office-edit": office_edit_activity,
    "idle": idle_activity,
}
WORKLOADS.update(
    {f"trace-{volume}": trace_replay_activity(volume) for volume in TRACE_VOLUMES}
)

# ---------------------------------------------------------------------------
# Device configurations
# ---------------------------------------------------------------------------

DEVICE_CONFIGS: Dict[str, Callable[[], SSDGeometry]] = {
    "tiny": SSDGeometry.tiny,
    "small": SSDGeometry.small,
}


def _check(registry: Dict[str, object], names: List[str], kind: str) -> None:
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(
            f"unknown {kind} {sorted(unknown)}; known: {sorted(registry)}"
        )
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated {kind} name {repeated[0]!r}; each may appear once")


def validate_names(
    defenses: List[str],
    attacks: List[str],
    workloads: List[str],
    device_configs: List[str],
) -> None:
    """Fail fast on any unknown grid name (listing the known ones) or any
    name repeated on an axis (it would give two cells the same key)."""
    _check(DEFENSES, defenses, "defenses")
    _check(ATTACKS, attacks, "attacks")
    _check(WORKLOADS, workloads, "workloads")
    _check(DEVICE_CONFIGS, device_configs, "device configs")
