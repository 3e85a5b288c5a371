"""Loop sub-type classification (Figures 13-15).

Every 5G-OFF transition is classified from the signaling records around
it, exactly the way the paper's cause analysis works:

* an ``SCGFailureInformation`` just before the OFF -> **N2E2**;
* a reestablishment request with ``handoverFailure`` -> **N1E2**,
  with ``otherFailure`` (a radio link failure) -> **N1E1**;
* a handover reconfiguration that releases the SCG -> **N2E1**;
* an SCG release without a failure report -> the legacy **A2-B1** loop
  of prior work (F12; absent with current operator policies);
* an ``MM5G DEREGISTERED`` exception over SA splits into the three S1
  sub-types: a just-commanded SCell modification -> **S1E3**; a serving
  SCell missing from every recent measurement report -> **S1E1**; a
  serving SCell persistently reporting very poor RSRQ -> **S1E2**.

A loop's sub-type is the majority vote over its OFF transitions.

The classifier reads the trace's columnar tables
(:mod:`repro.core.columnar`): every trigger-window membership test is a
pair of ``np.searchsorted`` bounds into a per-kind time array, batched
across all OFF transitions of the run.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.cells.cell import CellIdentity, Rat
from repro.core.cellset import CellSet
from repro.core.columnar import IntervalColumns, RecordColumns

# How far around an OFF transition we look for its trigger.
_TRIGGER_WINDOW_BEFORE_S = 2.5
_TRIGGER_WINDOW_AFTER_S = 0.6
_REPORT_LOOKBACK_S = 8.0
_POOR_RSRQ_DB = -19.9


class LoopSubtype(enum.Enum):
    """The paper's seven loop sub-types plus the legacy and unknown buckets."""

    S1E1 = "S1E1"
    S1E2 = "S1E2"
    S1E3 = "S1E3"
    N1E1 = "N1E1"
    N1E2 = "N1E2"
    N2E1 = "N2E1"
    N2E2 = "N2E2"
    N2_A2B1 = "N2-A2B1"
    UNKNOWN = "UNKNOWN"

    @property
    def loop_type(self) -> str:
        """The coarse type: S1, N1 or N2 (Figure 13)."""
        if self.value.startswith("S1"):
            return "S1"
        if self.value.startswith("N1"):
            return "N1"
        if self.value.startswith("N2"):
            return "N2"
        return "UNKNOWN"


@dataclass(frozen=True)
class OffTransition:
    """One classified 5G-OFF transition.

    ``problem_cell`` is the cell the cause analysis pivots on (section
    5.3): the bad-apple SCell for S1E1/S1E2, the modification target for
    S1E3, the handover/redirect target for N2E1/N1E2, the failing PCell
    for N1E1, and the PSCell whose SCG failed for N2E2.
    """

    time_s: float
    subtype: LoopSubtype
    problem_cell: "CellIdentity | None" = None


def _window_count(times: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> np.ndarray:
    """How many of ``times`` fall in each inclusive ``[lo, hi]`` window."""
    return (np.searchsorted(times, hi, side="right")
            - np.searchsorted(times, lo, side="left"))


def _on_cellset_before(icolumns: IntervalColumns,
                       t_off: float) -> CellSet | None:
    """The serving cell set that was active just before the OFF
    transition: the last ON interval with ``start < t_off + eps`` and
    ``end <= t_off + eps``."""
    cutoff = t_off + 1e-6
    index = int(np.searchsorted(icolumns.on_end, cutoff, side="right")) - 1
    while index >= 0 and not (icolumns.on_start[index] < cutoff):
        index -= 1
    if index < 0:
        return None
    return icolumns.cellsets[icolumns.on_cellset_id[index]]


def _classify_sa_exception(rcolumns: RecordColumns,
                           icolumns: IntervalColumns,
                           t_off: float) -> tuple[LoopSubtype,
                                                  CellIdentity | None]:
    """Split an MM-DEREGISTERED exception into S1E1 / S1E2 / S1E3."""
    mod_index = int(np.searchsorted(rcolumns.scellmod_t, t_off - 2.0,
                                    side="left"))
    if mod_index < rcolumns.scellmod_t.size \
            and rcolumns.scellmod_t[mod_index] <= t_off + 1e-6:
        return (LoopSubtype.S1E3,
                rcolumns.scellmod[mod_index].scell_add_mod[0].identity)

    cellset = _on_cellset_before(icolumns, t_off)
    if cellset is None or cellset.pcell is None:
        return LoopSubtype.UNKNOWN, None
    serving_scells = [cell for cell in cellset.mcg_scells if cell.rat is Rat.NR]
    if not serving_scells:
        return LoopSubtype.UNKNOWN, None

    report_lo = int(np.searchsorted(rcolumns.meas_t,
                                    t_off - _REPORT_LOOKBACK_S, side="left"))
    report_hi = int(np.searchsorted(rcolumns.meas_t, t_off, side="right"))
    recent_reports = rcolumns.meas_reports[report_lo:report_hi]
    if recent_reports:
        for scell in serving_scells:
            seen = any(report.measurement_of(scell) is not None
                       for report in recent_reports)
            if not seen:
                return LoopSubtype.S1E1, scell
        poor_votes = 0
        worst_scell = None
        for report in recent_reports:
            for scell in serving_scells:
                measurement = report.measurement_of(scell)
                if measurement is not None and measurement.rsrq_db <= _POOR_RSRQ_DB:
                    poor_votes += 1
                    worst_scell = scell
                    break
        if poor_votes >= max(1, len(recent_reports) // 2):
            return LoopSubtype.S1E2, worst_scell
    return LoopSubtype.UNKNOWN, None


def classify_loop(rcolumns: RecordColumns,
                  icolumns: IntervalColumns,
                  ) -> tuple[LoopSubtype, list[OffTransition]]:
    """Classify every OFF transition and majority-vote the loop sub-type.

    The trigger windows of *all* OFF transitions are bounded at once
    (``searchsorted`` per record kind); the per-transition loop then only
    dispatches on the precomputed bounds, in trigger priority order
    (SCG failure, reestablishment, DEREGISTERED, SCG-releasing handover,
    plain SCG release), plus the small per-report S1 analysis.

    An N1 loop loses the 4G connection *somewhere within* the OFF
    period — e.g. OP_A's blind redirect to a weak twin fails a second
    or two after the SCG-releasing handover that started the OFF — so
    the reestablishment search spans the whole period, while the other
    triggers are looked up right around the transition itself.
    """
    seg_on = icolumns.seg_on
    off_indices = np.flatnonzero(seg_on[:-1] & ~seg_on[1:]) + 1
    if off_indices.size == 0:
        return LoopSubtype.UNKNOWN, []
    t_offs = icolumns.seg_start[off_indices]
    t_ends = icolumns.seg_end[off_indices]
    window_lo = t_offs - _TRIGGER_WINDOW_BEFORE_S
    window_hi = t_offs + _TRIGGER_WINDOW_AFTER_S

    has_scg_failure = _window_count(rcolumns.scg_failure_t,
                                    window_lo, window_hi) > 0
    # Reestablishment search spans the whole OFF period (N1 loops lose
    # the 4G leg somewhere within it), not just the trigger window.
    reest_first = np.searchsorted(rcolumns.reest_t, window_lo, side="left")
    has_dereg = _window_count(rcolumns.dereg_t, window_lo, window_hi) > 0
    ho_first = np.searchsorted(rcolumns.ho_release_t, window_lo, side="left")
    has_ho_release = _window_count(rcolumns.ho_release_t,
                                   window_lo, window_hi) > 0
    has_scg_release = _window_count(rcolumns.scg_release_t,
                                    window_lo, window_hi) > 0
    # The PSCell of the latest SCG config at or before t_off + after.
    pscell_pos = np.searchsorted(rcolumns.scg_config_t, window_hi,
                                 side="right") - 1

    transitions: list[OffTransition] = []
    for k in range(off_indices.size):
        t_off = float(t_offs[k])
        subtype = LoopSubtype.UNKNOWN
        problem_cell: CellIdentity | None = None
        reest_index = int(reest_first[k])
        if has_scg_failure[k]:
            subtype = LoopSubtype.N2E2
            if pscell_pos[k] >= 0:
                problem_cell = rcolumns.scg_config_pscells[pscell_pos[k]]
        elif reest_index < rcolumns.reest_t.size \
                and rcolumns.reest_t[reest_index] <= float(t_ends[k]):
            request = rcolumns.reest[reest_index]
            subtype = LoopSubtype.N1E2 if request.cause == "handoverFailure" \
                else LoopSubtype.N1E1
            problem_cell = request.cell
        elif has_dereg[k]:
            subtype, problem_cell = _classify_sa_exception(
                rcolumns, icolumns, t_off)
        elif has_ho_release[k]:
            problem_cell = rcolumns.ho_release_targets[int(ho_first[k])]
            subtype = LoopSubtype.N2E1
        elif has_scg_release[k]:
            subtype = LoopSubtype.N2_A2B1
            if pscell_pos[k] >= 0:
                problem_cell = rcolumns.scg_config_pscells[pscell_pos[k]]
        transitions.append(OffTransition(t_off, subtype, problem_cell))

    votes = Counter(transition.subtype for transition in transitions
                    if transition.subtype is not LoopSubtype.UNKNOWN)
    if not votes:
        return LoopSubtype.UNKNOWN, transitions
    return votes.most_common(1)[0][0], transitions
