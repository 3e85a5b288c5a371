"""SA and NSA session simulators.

A session binds one UE (device capabilities), one operator (policy +
deployment) and one location, runs the RRC machinery tick by tick
(1 Hz, matching the paper's timescales) and emits a
:class:`~repro.traces.log.SignalingTrace` — the same artifact a
Network-Signal-Guru capture plus tcpdump would produce in the field.

Nothing in here "scripts" a loop: loops emerge when the policy's
inconsistent ON/OFF triggers happen to co-exist at the location, which
is exactly the paper's F8.

The RRC logic decides over cell *indices* into the run's
:class:`CellTable` (the environment's cells, in order): the UE context,
the serving sets, candidate lists and network decisions all hold
indices.  A :class:`~repro.cells.cell.CellIdentity` is looked up for
the records a session emits and for the few identity-keyed calls: idle
cell selection and the throughput sampler (``observe_identity``),
``fresh_rsrp``, ``blind_scell_set`` and ``redirect_target``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.core.seeding import stable_seed
from repro.radio.environment import CellObservation, RadioEnvironment
from repro.radio.geometry import Point
from repro.rrc.capabilities import DeviceCapabilities
from repro.rrc.network import NsaNetworkLogic, SaNetworkLogic
from repro.rrc.policies import OperatorPolicy
from repro.rrc.ue import RrcState, UeContext
from repro.throughput.model import DataRateModel
from repro.traces.log import SignalingTrace, TraceMetadata
from repro.traces.records import (
    CellMeasurement,
    MeasurementReportRecord,
    MmStateRecord,
    RrcReconfigurationCompleteRecord,
    RrcReconfigurationRecord,
    RrcReestablishmentCompleteRecord,
    RrcReestablishmentRequestRecord,
    RrcReleaseRecord,
    RrcSetupCompleteRecord,
    RrcSetupRecord,
    RrcSetupRequestRecord,
    ScellAddMod,
    ScgFailureRecord,
    SystemInfoRecord,
    ThroughputSampleRecord,
)

# UE modem failure-detection timing (ticks are seconds).
UNMEASURABLE_LIMIT_TICKS = 9
POOR_RSRQ_LIMIT_TICKS = 11
POOR_RSRQ_THRESHOLD_DB = -23.0
SCELL_MOD_COOLDOWN_S = 8.0
HANDOVER_COOLDOWN_S = 8.0
SCG_CHANGE_COOLDOWN_S = 10.0
NEIGHBOUR_REPORT_FLOOR_DBM = -120.0
LTE_SELECTION_THRESHOLD_DBM = -120.0


@dataclass
class RunConfig:
    """Configuration of one experiment run."""

    duration_s: int = 300
    run_seed: int = 0
    metadata: TraceMetadata = field(default_factory=TraceMetadata)
    rate_model: DataRateModel = field(default_factory=DataRateModel)
    point_provider: Callable[[int], Point] | None = None


@dataclass(frozen=True)
class CellTable:
    """A run's cells by index: the static columns the RRC logic reads.

    Index ``i`` is ``environment.cells[i]``.  ``relevant[i]`` says
    whether the cell can matter at the run's location (every cell on a
    moving run); ``relevant_lte`` and ``relevant_nr`` list the relevant
    indices of each RAT in index order, which is the order every
    candidate scan walks them in.
    """

    cells: list[DeployedCell]
    identities: list[CellIdentity]
    rats: list[Rat]
    channels: list[int]
    pcis: list[int]
    relevant: list[bool]
    relevant_lte: list[int]
    relevant_nr: list[int]
    index: dict[CellIdentity, int]

    @classmethod
    def build(cls, cells: list[DeployedCell], relevant: list[int]) -> "CellTable":
        identities = [cell.identity for cell in cells]
        rats = [identity.rat for identity in identities]
        flags = [False] * len(cells)
        for index in relevant:
            flags[index] = True
        return cls(cells=cells, identities=identities, rats=rats,
                   channels=[identity.channel for identity in identities],
                   pcis=[identity.pci for identity in identities],
                   relevant=flags,
                   relevant_lte=[i for i in relevant if rats[i] is Rat.LTE],
                   relevant_nr=[i for i in relevant if rats[i] is Rat.NR],
                   index={identity: i for i, identity in enumerate(identities)})


class TickView(NamedTuple):
    """One tick's radio over every cell of ``table``, by cell index."""

    table: CellTable
    rsrp: list[float]
    rsrq: list[float]
    measurable: list[bool]


class RadioSampler:
    """Per-run radio sampling, computed as per-cell columns when built.

    The environment's cells are interned to indices (:attr:`table`),
    and every tick's RSRP (location mean + fading), RSRQ and
    measurability of every cell is computed up front: each cell's fading
    over the whole run in one draw, the means once per cell (stationary)
    or per tick at that tick's point (moving).  The rows are converted
    to Python lists once, so views and observations carry Python floats
    and bools.  Valid ticks are ``0 .. config.duration_s - 1``.
    """

    def __init__(self, environment: RadioEnvironment, point: Point,
                 config: RunConfig, cutoff_margin_db: float = 8.0) -> None:
        self._environment = environment
        self._point = point
        self._config = config
        propagation = environment.propagation
        cells = environment.cells
        ticks = config.duration_s
        if config.point_provider is None:
            means = [propagation.mean_rsrp_dbm(cell, point) for cell in cells]
            floor = propagation.noise_floor_dbm - cutoff_margin_db
            relevant = [index for index, mean in enumerate(means) if mean > floor]
            self._mean_rows = [means] * ticks  # the same row every tick
        else:
            self._mean_rows = [[propagation.mean_rsrp_dbm(cell, self.point_at(tick))
                                for cell in cells] for tick in range(ticks)]
            relevant = list(range(len(cells)))
        self.table = CellTable.build(cells, relevant)
        fading = np.array([propagation.fading_series(cell, config.run_seed, ticks)
                           for cell in cells]).reshape(len(cells), ticks)
        rsrp = np.array(self._mean_rows).reshape(ticks, len(cells)) + fading.T
        margins = np.array([cell.interference_margin_db for cell in cells])
        self._views = [TickView(self.table, *row) for row in zip(
            rsrp.tolist(), propagation.rsrq_db(rsrp, margins).tolist(),
            propagation.is_measurable(rsrp).tolist())]

    def _check(self, tick: int) -> None:
        if not 0 <= tick < self._config.duration_s:
            raise ValueError(f"tick {tick} outside the run's "
                             f"0..{self._config.duration_s - 1}")

    def point_at(self, tick: int) -> Point:
        if self._config.point_provider is not None:
            return self._config.point_provider(tick)
        return self._point

    def observe_identity(self, identity: CellIdentity, tick: int) -> CellObservation:
        """Observation of one specific cell (even if very weak)."""
        index = self.table.index[identity]
        self._check(tick)
        view = self._views[tick]
        return CellObservation(self.table.cells[index], view.rsrp[index],
                               view.rsrq[index], view.measurable[index])

    def observe(self, tick: int) -> TickView:
        """This tick's view of every cell; the RRC logic reads the
        radio-relevant ones (``table.relevant``)."""
        self._check(tick)
        return self._views[tick]

    def fresh_rsrp(self, identity: CellIdentity, tick: int,
                   label: str = "exec") -> float:
        """Execution-time re-sample of one cell (independent fading draw)."""
        index = self.table.index[identity]
        self._check(tick)
        fading = self._environment.propagation.fresh_fading_db(
            self.table.cells[index], self._config.run_seed, tick, label)
        return self._mean_rows[tick][index] + fading


class _SessionBase:
    """State and helpers shared by the SA and NSA simulators."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy,
                 device: DeviceCapabilities, point: Point, config: RunConfig) -> None:
        self.environment = environment
        self.policy = policy
        self.device = device
        self.config = config
        self.sampler = RadioSampler(environment, point, config)
        self.table = self.sampler.table
        self.ue = UeContext()
        self.trace = SignalingTrace(metadata=config.metadata)
        self.rng = np.random.RandomState(stable_seed(config.run_seed, policy.name,
                                                     device.name, "session"))

    def _emit(self, record) -> None:
        # Sub-tick offsets are cosmetic; keep the capture strictly ordered
        # even when two procedures interleave within one tick.
        if self.trace.records and record.time_s < self.trace.records[-1].time_s:
            record = dataclasses.replace(
                record, time_s=self.trace.records[-1].time_s + 0.01)
        self.trace.append(record)

    def _idle_duration_s(self) -> float:
        mean = self.policy.idle_reselection_delay_s
        return float(np.clip(self.rng.normal(mean, 1.2), mean - 3.0, mean + 3.5))

    def _best_to_camp_on(self, identities: list[CellIdentity], tick: int,
                         threshold_dbm: float) -> CellObservation | None:
        """The strongest of ``identities`` above ``threshold_dbm`` (first
        wins a tie)."""
        best: CellObservation | None = None
        for identity in identities:
            observation = self.sampler.observe_identity(identity, tick)
            if observation.rsrp_dbm <= threshold_dbm:
                continue
            if best is None or observation.rsrp_dbm > best.rsrp_dbm:
                best = observation
        return best

    def _strongest_first(self, view: TickView, cells: list[int],
                         floor_dbm: float) -> list[int]:
        """The measurable ``cells`` above ``floor_dbm``, strongest first
        (a stable sort: equal RSRPs keep index order)."""
        rsrp, measurable = view.rsrp, view.measurable
        chosen = [i for i in cells if measurable[i] and rsrp[i] > floor_dbm]
        chosen.sort(key=rsrp.__getitem__, reverse=True)
        return chosen

    def _measurements_for_report(self, view: TickView, serving: list[int],
                                 extra_candidates: list[int],
                                 ) -> tuple[CellMeasurement, ...]:
        identities, relevant = self.table.identities, self.table.relevant
        rsrp, rsrq, measurable = view.rsrp, view.rsrq, view.measurable
        measurements: list[CellMeasurement] = []
        for cell in serving:
            if not (relevant[cell] and measurable[cell]):
                continue  # an unmeasurable serving cell never appears (S1E1)
            measurements.append(CellMeasurement(identities[cell], rsrp[cell],
                                                rsrq[cell], is_serving=True))
        for cell in extra_candidates:
            if cell in serving:
                continue
            measurements.append(CellMeasurement(identities[cell], rsrp[cell],
                                                rsrq[cell]))
        return tuple(measurements)

    def _serving_observations(self, tick: int) -> list[CellObservation]:
        """The measurable serving cells, in serving order."""
        identities = self.table.identities
        serving = [self.sampler.observe_identity(identities[cell], tick)
                   for cell in self.ue.serving_cells()]
        return [obs for obs in serving if obs.measurable]

    def _emit_throughput(self, t: float, mbps: float) -> None:
        jitter = float(self.rng.lognormal(mean=0.0, sigma=0.08)) if mbps > 0 else 1.0
        self._emit(ThroughputSampleRecord(time_s=t + 0.95, mbps=mbps * jitter))


class SaSession(_SessionBase):
    """One 5G SA run (OP_T-style)."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy,
                 device: DeviceCapabilities, point: Point, config: RunConfig) -> None:
        super().__init__(environment, policy, device, point, config)
        self.network = SaNetworkLogic(environment, policy)
        self._pending_blind_add_s: float | None = None
        self._scell_mod_cooldown_until_s = 0.0
        self._pcell_candidates = [cell.identity for channel in self._pcell_channels()
                                  for cell in environment.cells_on_channel(channel, Rat.NR)]
        table = self.table
        report_channels = set(policy.sa_pcell_channels)
        report_channels.update(policy.sa_scell_channels)
        self._report_cells = [i for i in table.relevant_nr
                              if table.channels[i] in report_channels]
        # Per-cell policy, resolved once: is an SCell on this cell on the
        # device's fragile path (S1E1/S1E2), and does a modification
        # adding it fail there (S1E3)?
        self._fragile_scell = [False] * len(table.cells)
        self._fragile_scell_mod = [False] * len(table.cells)
        for i, identity in enumerate(table.identities):
            if identity.rat is not Rat.NR:
                continue  # SA SCells are NR cells
            channel_policy = policy.channel_policy(identity.channel, Rat.NR)
            fragile = (channel_policy.downlink_only_scell_config
                       and device.handles_scell_band_fragile(identity.band.name))
            self._fragile_scell[i] = fragile
            self._fragile_scell_mod[i] = fragile and channel_policy.scell_mod_fragile

    def run(self) -> SignalingTrace:
        for tick in range(self.config.duration_s):
            t = float(tick)
            if self.ue.state is RrcState.IDLE:
                self._step_idle(t, tick)
            else:
                self._step_connected(t, tick)
            self._sample_throughput(t, tick)
        return self.trace

    # ------------------------------------------------------------------

    def _pcell_channels(self) -> list[int]:
        """SA PCell channels, honouring the device's band preference."""
        from repro.cells.bands import band_for_nr_arfcn

        deployed = set(self.environment.channels_of_rat(Rat.NR))
        usable = [ch for ch in self.policy.sa_pcell_channels if ch in deployed]
        for band_name in self.device.sa_band_preference:
            in_band = [ch for ch in usable
                       if band_for_nr_arfcn(ch).name == band_name]
            if in_band:
                return in_band
        return usable

    def _step_idle(self, t: float, tick: int) -> None:
        if t < self.ue.idle_until_s:
            return
        best = self._best_to_camp_on(self._pcell_candidates, tick,
                                     self.policy.selection_threshold_dbm)
        if best is None:
            return
        self._emit(SystemInfoRecord(time_s=t, cell=best.identity,
                                    selection_threshold_dbm=self.policy.selection_threshold_dbm))
        self._emit(RrcSetupRequestRecord(time_s=t + 0.05, cell=best.identity))
        self._emit(RrcSetupRecord(time_s=t + 0.15, cell=best.identity))
        self._emit(RrcSetupCompleteRecord(time_s=t + 0.2, cell=best.identity))
        self.ue.establish(self.table.index[best.identity])
        if self.device.sa_carrier_aggregation:
            self._pending_blind_add_s = t + self.policy.sa_blind_scell_addition_delay_s

    def _step_connected(self, t: float, tick: int) -> None:
        view = self.sampler.observe(tick)
        pcell = self.ue.pcell
        assert pcell is not None

        if self._pending_blind_add_s is not None and t >= self._pending_blind_add_s:
            self._blind_scell_addition(t)
            self._pending_blind_add_s = None

        self._emit_periodic_report(t, view)

        if self._fragile_scell_check(t, view):
            return
        if self._scell_modification_step(t, tick, view):
            return

        weak_ticks = self.ue.note_pcell_strength(view.rsrp[pcell],
                                                 self.policy.rlf_rsrp_threshold_dbm)
        if weak_ticks >= self.policy.rlf_time_to_trigger_s:
            self._emit(RrcReleaseRecord(time_s=t + 0.5))
            self.ue.release_all(idle_until_s=t + self._idle_duration_s())

    def _blind_scell_addition(self, t: float) -> None:
        pcell = self.table.identities[self.ue.pcell]
        scells = self.network.blind_scell_set(pcell, self.device)
        if not scells:
            return
        entries = []
        for identity in scells:
            index = self.ue.add_scell(self.table.index[identity])
            entries.append(ScellAddMod(scell_index=index, identity=identity))
        self._emit(RrcReconfigurationRecord(time_s=t + 0.3, pcell=pcell,
                                            scell_add_mod=tuple(entries)))
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.35, pcell=pcell))

    def _emit_periodic_report(self, t: float, view: TickView) -> None:
        candidates = self._strongest_first(view, self._report_cells,
                                           NEIGHBOUR_REPORT_FLOOR_DBM)
        measurements = self._measurements_for_report(
            view, self.ue.serving_cells(), candidates[:8])
        if measurements:
            self._emit(MeasurementReportRecord(time_s=t + 0.1, event="periodic",
                                               measurements=measurements))

    def _fragile_scell_check(self, t: float, view: TickView) -> bool:
        """OnePlus-12R-style modem exceptions on fragile SCells (S1E1/S1E2).

        Returns True if the whole MCG was released.
        """
        relevant = self.table.relevant
        for index in sorted(self.ue.scells):
            cell = self.ue.scells[index]
            if not self._fragile_scell[cell]:
                continue
            measurable = relevant[cell] and view.measurable[cell]
            unmeasurable_count = self.ue.note_scell_measurability(cell, measurable)
            if unmeasurable_count >= UNMEASURABLE_LIMIT_TICKS:
                self._modem_exception_release(t)  # S1E1
                return True
            if measurable:
                poor_count = self.ue.note_scell_rsrq(cell, view.rsrq[cell],
                                                     POOR_RSRQ_THRESHOLD_DB)
                if poor_count >= POOR_RSRQ_LIMIT_TICKS:
                    self._modem_exception_release(t)  # S1E2
                    return True
        return False

    def _scell_modification_step(self, t: float, tick: int, view: TickView) -> bool:
        """Network-commanded SCell modification; True if it failed (S1E3)."""
        if t < self._scell_mod_cooldown_until_s:
            return False
        decision = self.network.scell_modification(self.ue.scells, view)
        if decision is None:
            return False
        # No time-to-trigger: the network commands the modification on
        # the first tick the replacement is warranted.
        identities = self.table.identities
        pcell = identities[self.ue.pcell]
        added = identities[decision.add_cell]
        new_index = self.ue.next_scell_index
        self._emit(RrcReconfigurationRecord(
            time_s=t + 0.4,
            pcell=pcell,
            scell_add_mod=(ScellAddMod(new_index, added),),
            scell_release_indices=(decision.release_index,),
        ))
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.45, pcell=pcell))
        exec_gap = (self.sampler.fresh_rsrp(added, tick)
                    - self.sampler.fresh_rsrp(identities[decision.release_cell],
                                              tick, label="exec-old"))
        failure_bar = (self.policy.sa_scell_mod_a3_offset_db
                       + self.policy.sa_scell_mod_exec_margin_db)
        if self._fragile_scell_mod[decision.add_cell] and exec_gap < failure_bar:
            self._modem_exception_release(t + 0.46)  # S1E3
            return True
        self.ue.replace_scell(decision.release_index, decision.add_cell)
        self._scell_mod_cooldown_until_s = t + SCELL_MOD_COOLDOWN_S
        return False

    def _modem_exception_release(self, t: float) -> None:
        """The 12R exception: whole MCG dropped, MM deregistered, IDLE."""
        self._emit(MmStateRecord(time_s=t + 0.05, state="DEREGISTERED",
                                 substate="NO_CELL_AVAILABLE"))
        self.ue.release_all(idle_until_s=t + self._idle_duration_s())

    def _sample_throughput(self, t: float, tick: int) -> None:
        if self.ue.state is RrcState.IDLE:
            self._emit_throughput(t, 0.0)
            return
        primary, secondaries = self.config.rate_model.split_primary(
            self._serving_observations(tick))
        mbps = self.config.rate_model.rate_mbps(primary, secondaries,
                                                self.device.mimo_layers)
        self._emit_throughput(t, mbps)


class NsaSession(_SessionBase):
    """One 5G NSA run (OP_A / OP_V-style)."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy,
                 device: DeviceCapabilities, point: Point, config: RunConfig) -> None:
        super().__init__(environment, policy, device, point, config)
        self.network = NsaNetworkLogic(environment, policy)
        self._b1_active = False
        self._b1_config_pending_s: float | None = None
        self._handover_cooldown_until_s = 0.0
        self._scg_change_cooldown_until_s = 0.0
        self._a3_streak_target: int | None = None
        self._a3_streak = 0
        self._broadcast_phase = int(self.rng.randint(0, max(
            1, int(policy.scg_recovery_config_period_s) or 1)))
        self._nsa_capable = device.supports_nsa_with(policy.name)
        self._lte_identities = [cell.identity
                                for cell in environment.cells_of_rat(Rat.LTE)]

    def run(self) -> SignalingTrace:
        for tick in range(self.config.duration_s):
            t = float(tick)
            if self.ue.state is RrcState.IDLE:
                self._step_idle(t, tick)
            else:
                self._step_connected(t, tick)
            self._sample_throughput(t, tick)
        return self.trace

    # ------------------------------------------------------------------

    def _step_idle(self, t: float, tick: int) -> None:
        if t < self.ue.idle_until_s:
            return
        best = self._best_to_camp_on(self._lte_identities, tick,
                                     LTE_SELECTION_THRESHOLD_DBM)
        if best is None:
            return
        self._emit(SystemInfoRecord(time_s=t, cell=best.identity,
                                    selection_threshold_dbm=LTE_SELECTION_THRESHOLD_DBM))
        self._emit(RrcSetupRequestRecord(time_s=t + 0.05, cell=best.identity))
        self._emit(RrcSetupRecord(time_s=t + 0.15, cell=best.identity))
        self._emit(RrcSetupCompleteRecord(time_s=t + 0.2, cell=best.identity))
        self.ue.establish(self.table.index[best.identity])
        if self._nsa_capable:
            self._b1_config_pending_s = t + 0.5

    def _step_connected(self, t: float, tick: int) -> None:
        view = self.sampler.observe(tick)
        pcell = self.ue.pcell
        assert pcell is not None

        if self._b1_config_pending_s is not None and t >= self._b1_config_pending_s:
            self._emit_b1_config(t)

        saw_5g = self._emit_periodic_report(t, view)

        if self._pcell_rlf_check(t, tick, pcell, view):
            return
        if self._handover_step(t, tick, view, saw_5g):
            return
        self._scg_step(t, tick, view)

    def _emit_b1_config(self, t: float) -> None:
        events = tuple(("B1", channel, self.policy.nsa_b1_threshold_dbm)
                       for channel in self.environment.channels_of_rat(Rat.NR))
        self._emit(RrcReconfigurationRecord(
            time_s=t, pcell=self.table.identities[self.ue.pcell], meas_events=events))
        self._b1_active = True
        self._b1_config_pending_s = None

    def _emit_periodic_report(self, t: float, view: TickView) -> bool:
        candidates = self._strongest_first(view, self.table.relevant_lte,
                                           NEIGHBOUR_REPORT_FLOOR_DBM)[:6]
        saw_5g = False
        if self._b1_active and self._nsa_capable:
            nr_candidates = self._strongest_first(view, self.table.relevant_nr,
                                                  self.policy.nsa_b1_threshold_dbm)
            saw_5g = bool(nr_candidates)
            candidates = candidates + nr_candidates[:4]
        measurements = self._measurements_for_report(
            view, self.ue.serving_cells(), candidates)
        if measurements:
            event = "B1" if saw_5g and self.ue.scg_pscell is None else "periodic"
            self._emit(MeasurementReportRecord(time_s=t + 0.1, event=event,
                                               measurements=measurements))
        return saw_5g

    def _pcell_rlf_check(self, t: float, tick: int, pcell: int,
                         view: TickView) -> bool:
        weak_ticks = self.ue.note_pcell_strength(view.rsrp[pcell],
                                                 self.policy.rlf_rsrp_threshold_dbm)
        if weak_ticks < self.policy.rlf_time_to_trigger_s:
            return False
        self._emit(RrcReestablishmentRequestRecord(
            time_s=t + 0.3, cause="otherFailure", cell=self.table.identities[pcell]))
        self._reestablish(t, tick, view)
        return True

    def _reestablish(self, t: float, tick: int, view: TickView) -> None:
        """Reestablish the 4G connection on the strongest cell, or go IDLE."""
        rsrp, measurable = view.rsrp, view.measurable
        threshold = self.policy.rlf_rsrp_threshold_dbm
        candidates = [i for i in self.table.relevant_lte
                      if measurable[i] and rsrp[i] > threshold]
        if not candidates:
            self._emit(RrcReleaseRecord(time_s=t + 0.5))
            self.ue.release_all(idle_until_s=t + self._idle_duration_s())
            self._b1_active = False
            self._b1_config_pending_s = None
            return
        best = max(candidates, key=rsrp.__getitem__)
        self._emit(RrcReestablishmentCompleteRecord(time_s=t + 0.6,
                                                    cell=self.table.identities[best]))
        self.ue.establish(best)
        self._b1_active = False
        if self._nsa_capable:
            self._b1_config_pending_s = t + 1.5
        self._handover_cooldown_until_s = t + HANDOVER_COOLDOWN_S

    def _handover_step(self, t: float, tick: int, view: TickView,
                       saw_5g: bool) -> bool:
        if t < self._handover_cooldown_until_s:
            return False
        decision = self.network.handover_decision(
            self.ue.pcell, view, saw_5g_report=saw_5g,
            scg_active=self.ue.scg_pscell is not None)
        if decision is None:
            self._a3_streak_target = None
            self._a3_streak = 0
            return False
        if not decision.blind:
            # Time-to-trigger: the A3 condition must persist before the
            # handover is commanded (3GPP timeToTrigger), which spaces
            # out the N2E1 ping-pong to the cadence seen in Figure 32.
            if decision.target == self._a3_streak_target:
                self._a3_streak += 1
            else:
                self._a3_streak_target = decision.target
                self._a3_streak = 1
            if self._a3_streak < 6:
                return False
            self._a3_streak = 0
            self._a3_streak_target = None
        target = self.table.identities[decision.target]
        self._emit(RrcReconfigurationRecord(
            time_s=t + 0.3, pcell=self.table.identities[self.ue.pcell],
            handover_target=target,
            release_scg=self.ue.scg_pscell is not None and not decision.keep_scg))
        target_rsrp = self.sampler.fresh_rsrp(target, tick, label="ho")
        if target_rsrp < self.policy.handover_failure_threshold_dbm:
            self._emit(RrcReestablishmentRequestRecord(time_s=t + 0.6,
                                                       cause="handoverFailure",
                                                       cell=target))
            self._reestablish(t + 0.3, tick, view)
            return True
        self.ue.handover(decision.target, keep_scg=decision.keep_scg)
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.5, pcell=target))
        self._handover_cooldown_until_s = t + HANDOVER_COOLDOWN_S
        return True

    def _scg_step(self, t: float, tick: int, view: TickView) -> None:
        if not self._nsa_capable:
            return
        if self.ue.scg_pscell is None:
            if not self._b1_active:
                return
            addition = self.network.scg_addition(self.ue.pcell, view)
            if addition is None:
                return
            pscell, partners = addition
            self._execute_scg_setup(t, tick, pscell, partners)
            return

        pscell = self.ue.scg_pscell
        pscell_rsrp = view.rsrp[pscell]

        if self.policy.legacy_a2b1 and pscell_rsrp < self.policy.legacy_a2_threshold_dbm:
            # The prior-work A2-B1 loop (F12): A2-triggered SCG release
            # with an A2 threshold above the B1 add threshold.
            self._emit(RrcReconfigurationRecord(
                time_s=t + 0.4, pcell=self.table.identities[self.ue.pcell],
                release_scg=True))
            self.ue.release_scg()
            return

        if pscell_rsrp < self.policy.nsa_scg_a2_threshold_dbm:
            self._scg_failure(t, "rlf")
            return

        if t < self._scg_change_cooldown_until_s:
            return
        change = self.network.scg_change(pscell, view)
        if change is not None:
            table = self.table
            pci, channel = table.pcis[change], table.channels[change]
            partners = [i for i in table.relevant_nr
                        if table.pcis[i] == pci and table.channels[i] != channel
                        and view.measurable[i]][:1]
            self._execute_scg_setup(t, tick, change, partners, is_change=True)

    def _execute_scg_setup(self, t: float, tick: int, pscell: int,
                           partners: list[int], is_change: bool = False) -> None:
        identities = self.table.identities
        self._emit(RrcReconfigurationRecord(
            time_s=t + 0.5, pcell=identities[self.ue.pcell],
            scg_pscell=identities[pscell],
            scg_scells=tuple(identities[cell] for cell in partners)))
        ra_rsrp = self.sampler.fresh_rsrp(identities[pscell], tick, label="scg-ra")
        if ra_rsrp < self.policy.scg_ra_failure_threshold_dbm:
            self._scg_failure(t, "randomAccessProblem")
            return
        self.ue.attach_scg(pscell, partners)
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.7,
                                                    pcell=identities[self.ue.pcell]))
        if is_change:
            self._scg_change_cooldown_until_s = t + SCG_CHANGE_COOLDOWN_S

    def _scg_failure(self, t: float, kind: str) -> None:
        failure_type = "randomAccessProblem" if kind == "randomAccessProblem" else "rlf"
        self._emit(ScgFailureRecord(time_s=t + 0.75, failure_type=failure_type))
        self._emit(RrcReconfigurationRecord(
            time_s=t + 0.85, pcell=self.table.identities[self.ue.pcell],
            release_scg=True))
        self.ue.release_scg()
        self._b1_active = False
        self._b1_config_pending_s = self._next_scg_config_time(t)

    def _next_scg_config_time(self, t: float) -> float:
        """When the network next provides the 5G measurement configuration.

        OP_A-style (period 0): within ~2.5 s.  OP_V-style: only at its
        30-second configuration broadcasts, some of which the UE misses —
        hence OFF times in multiples of 30 s (F15, Figure 33).
        """
        period = self.policy.scg_recovery_config_period_s
        if period <= 0:
            return t + 2.5
        k = math.ceil((t + 1.0 - self._broadcast_phase) / period)
        candidate = self._broadcast_phase + k * period
        while self.rng.random_sample() < 0.6:
            candidate += period
        return float(candidate)

    def _sample_throughput(self, t: float, tick: int) -> None:
        if self.ue.state is RrcState.IDLE:
            self._emit_throughput(t, 0.0)
            return
        pcell_obs = self.sampler.observe_identity(
            self.table.identities[self.ue.pcell], tick)
        if self.ue.scg_pscell is None:
            mbps = self.config.rate_model.lte_only_rate_mbps(pcell_obs,
                                                             self.device.mimo_layers)
            self._emit_throughput(t, mbps)
            return
        primary, secondaries = self.config.rate_model.split_primary(
            self._serving_observations(tick))
        mbps = self.config.rate_model.rate_mbps(primary, secondaries,
                                                self.device.mimo_layers)
        self._emit_throughput(t, mbps)


def simulate_run(environment: RadioEnvironment, policy: OperatorPolicy,
                 device: DeviceCapabilities, point: Point,
                 config: RunConfig) -> SignalingTrace:
    """Simulate one run and return its signaling trace.

    Dispatches to the SA or NSA simulator based on the operator's
    deployment mode (Table 3: OP_T runs SA, OP_A / OP_V run NSA).
    """
    if policy.is_sa:
        session: _SessionBase = SaSession(environment, policy, device, point, config)
    else:
        session = NsaSession(environment, policy, device, point, config)
    return session.run()
