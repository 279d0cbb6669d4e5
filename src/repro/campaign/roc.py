"""Detection-quality (ROC) evaluation over campaign cells.

The campaign artifact records whether each defense *eventually* fired;
this module measures how well the underlying detector primitives
separate malicious writes from benign ones.  Each cell of an evasion
grid is executed once with a
:class:`~repro.core.detection.DetectionTraceObserver` attached, then
every detector primitive (absolute entropy, entropy jump, sliding
window) is swept across its threshold grid offline, producing one ROC
curve per (defense, attack, workload, device, detector).

Everything is deterministic: cell seeds derive from the campaign seed,
the sweep is pure arithmetic over the recorded stream, and the artifact
serializes canonically -- so ROC artifacts are bit-identical across
backends and execution orders and can be pinned by a golden file, just
like campaign artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.grid import CampaignGrid, CellSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal
from repro.campaign.runner import ExperimentRunner
from repro.campaign.sweep import SweepArtifact, SweepRecord, run_sweep
from repro.core.detection import (
    DETECTOR_DEFAULTS,
    DetectionTraceObserver,
    detector_names,
    sweep_detector,
)

#: Bump when the ROC artifact schema changes; readers refuse newer versions.
ROC_ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class RocPoint(SweepRecord):
    """One detector threshold's confusion counts over a cell's write stream.

    Rates are stored (not recomputed) so the serialized artifact is
    self-contained and bit-comparable.
    """

    threshold: float
    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    true_positive_rate: float
    false_positive_rate: float
    precision: float


@dataclass(frozen=True)
class RocCurve(SweepRecord):
    """The full threshold sweep of one detector over one cell.

    ``auc`` is the trapezoidal area under the (FPR, TPR) curve anchored
    at (0,0) and (1,1); ``*_at_default`` report the operating point at
    the detector's deployed threshold; ``defense_detected`` is whether
    the cell's *actual* defense flagged the scenario, for comparing the
    swept primitive against the shipped detector.
    """

    cell_key: str
    defense: str
    attack: str
    workload: str
    device_config: str
    detector: str
    default_threshold: float
    tpr_at_default: float
    fpr_at_default: float
    auc: float
    defense_detected: bool
    samples: int
    points: List[RocPoint] = field(default_factory=list)

    @property
    def curve_key(self) -> str:
        """Stable identifier: cell key plus detector name."""
        return f"{self.cell_key}#{self.detector}"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RocCurve":
        """Rebuild a curve (and its points) from its JSON form."""
        payload = dict(data)
        points = [RocPoint(**point) for point in payload.pop("points", [])]
        return cls(points=points, **payload)


def auc_from_points(points: Sequence[RocPoint]) -> float:
    """Trapezoidal area under the ROC curve described by ``points``.

    The curve is anchored at (0, 0) and (1, 1); duplicate FPR values
    collapse to their best TPR so the sweep grid's density does not
    change the area.
    """
    best_tpr: Dict[float, float] = {}
    for point in points:
        fpr = point.false_positive_rate
        best_tpr[fpr] = max(best_tpr.get(fpr, 0.0), point.true_positive_rate)
    coords = sorted(best_tpr.items())
    if not coords or coords[0][0] > 0.0:
        coords.insert(0, (0.0, 0.0))
    if coords[-1][0] < 1.0:
        coords.append((1.0, 1.0))
    area = 0.0
    for (fpr_a, tpr_a), (fpr_b, tpr_b) in zip(coords, coords[1:]):
        area += (fpr_b - fpr_a) * (tpr_a + tpr_b) / 2.0
    return area


def run_roc_cell(spec: CellSpec) -> List[RocCurve]:
    """Execute one cell with labelled-op capture and sweep every detector.

    Module-level (and returning plain dataclasses) so process pools can
    pickle it, exactly like :func:`repro.campaign.engine.run_cell`.  The
    cell runs as a ``ScenarioSpec`` + ``Session`` with the
    :class:`~repro.core.detection.DetectionTraceObserver` subscribed to
    the session's event bus -- ROC labelling is an ordinary subscriber.
    """
    from repro.campaign.engine import execute_cell_scenario

    observer = DetectionTraceObserver()
    scenario = execute_cell_scenario(spec, observers=[observer])
    samples = observer.samples(scenario.attack_outcome.malicious_streams)
    curves: List[RocCurve] = []
    for detector in detector_names():
        default_threshold = DETECTOR_DEFAULTS[detector]
        points = [
            RocPoint(
                threshold=threshold,
                true_positives=matrix.true_positives,
                false_positives=matrix.false_positives,
                true_negatives=matrix.true_negatives,
                false_negatives=matrix.false_negatives,
                true_positive_rate=matrix.true_positive_rate,
                false_positive_rate=matrix.false_positive_rate,
                precision=matrix.precision,
            )
            for threshold, matrix in sweep_detector(samples, detector)
        ]
        # The operating point is scored explicitly at the deployed
        # default, so it is correct even if the sweep grid is tuned to
        # no longer contain that exact threshold.
        ((_, default_matrix),) = sweep_detector(
            samples, detector, thresholds=(default_threshold,)
        )
        curves.append(
            RocCurve(
                cell_key=spec.cell_key,
                defense=spec.defense,
                attack=spec.attack,
                workload=spec.workload,
                device_config=spec.device_config,
                detector=detector,
                default_threshold=default_threshold,
                tpr_at_default=default_matrix.true_positive_rate,
                fpr_at_default=default_matrix.false_positive_rate,
                auc=auc_from_points(points),
                defense_detected=scenario.detected,
                samples=len(samples),
                points=points,
            )
        )
    return curves


@dataclass
class RocArtifact(SweepArtifact):
    """A completed detection-quality run: grid description plus curves.

    Curves are keyed ``cell_key#detector`` and sorted by that key;
    :meth:`curve` and :attr:`curve_keys` are the curve-named lookups.
    """

    records_field = "curves"
    record_key = "curve_key"
    record_noun = "curve"
    record_type = RocCurve
    latest_version = ROC_ARTIFACT_VERSION

    campaign_seed: int
    grid: Dict[str, object]
    curves: List[RocCurve] = field(default_factory=list)
    version: int = ROC_ARTIFACT_VERSION

    curve = SweepArtifact.cell
    curve_keys = SweepArtifact.cell_keys


def run_roc(
    grid: CampaignGrid,
    backend: str = "sequential",
    jobs: int = 0,
    filters: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
    specs: Optional[List[CellSpec]] = None,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable[[int, CellSpec, List[RocCurve]], None]] = None,
) -> RocArtifact:
    """Execute a grid's cells with detection-quality (ROC) capture.

    The same contract as :func:`repro.campaign.engine.run_campaign`:
    every cell runs as a ``ScenarioSpec`` + ``Session`` with the
    labelled-op capture subscribed to the session bus, ``specs``
    overrides the grid expansion, results assemble order-independently,
    and any backend yields a bit-identical artifact.  ``cache`` /
    ``journal`` / ``resume`` / ``after_cell`` opt into the persistence
    layer of :func:`~repro.campaign.sweep.run_sweep` -- one journal
    record per cell, carrying that cell's full curve list.
    """
    from repro.campaign.engine import cell_spec_hash

    if specs is None:
        specs = grid.cells(filters)
    run = run_sweep(
        "roc",
        ROC_ARTIFACT_VERSION,
        grid.seed,
        grid.describe(),
        specs,
        run_roc_cell,
        key_fn=attrgetter("cell_key"),
        hash_fn=cell_spec_hash,
        encode=lambda curves: [curve.to_dict() for curve in curves],
        decode=lambda payload: [RocCurve.from_dict(curve) for curve in payload],
        backend=backend,
        jobs=jobs,
        runner=runner,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )
    curves = [curve for cell_curves in run.results for curve in cell_curves]
    return RocArtifact(grid.seed, grid.describe(), curves).with_provenance(run)
