"""SA and NSA session simulators.

A session binds one UE (device capabilities), one operator (policy +
deployment) and one location, runs the RRC machinery tick by tick
(1 Hz, matching the paper's timescales) and emits a
:class:`~repro.traces.log.SignalingTrace` — the same artifact a
Network-Signal-Guru capture plus tcpdump would produce in the field.

Nothing in here "scripts" a loop: loops emerge when the policy's
inconsistent ON/OFF triggers happen to co-exist at the location, which
is exactly the paper's F8.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cells.cell import CellIdentity, Rat
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


class RadioSampler:
    """Per-run radio sampling with a stationary-location mean cache."""

    def __init__(self, environment: RadioEnvironment, point: Point,
                 config: RunConfig, cutoff_margin_db: float = 8.0) -> None:
        self._environment = environment
        self._point = point
        self._config = config
        self._moving = config.point_provider is not None
        self._means: dict[CellIdentity, float] = {}
        self._relevant = environment.cells
        if not self._moving:
            floor = environment.propagation.noise_floor_dbm - cutoff_margin_db
            relevant = []
            for cell in environment.cells:
                mean = environment.propagation.mean_rsrp_dbm(cell, point)
                self._means[cell.identity] = mean
                if mean > floor:
                    relevant.append(cell)
            self._relevant = relevant

    def point_at(self, tick: int) -> Point:
        if self._config.point_provider is not None:
            return self._config.point_provider(tick)
        return self._point

    def _mean_rsrp(self, identity: CellIdentity, tick: int) -> float:
        cell = self._environment.cell(identity)
        if self._moving:
            return self._environment.propagation.mean_rsrp_dbm(cell, self.point_at(tick))
        mean = self._means.get(identity)
        if mean is None:
            mean = self._environment.propagation.mean_rsrp_dbm(cell, self._point)
            self._means[identity] = mean
        return mean

    def observe_identity(self, identity: CellIdentity, tick: int) -> CellObservation:
        """Observation of one specific cell (even if very weak)."""
        cell = self._environment.cell(identity)
        propagation = self._environment.propagation
        rsrp = self._mean_rsrp(identity, tick) + propagation.fading_db(
            cell, self._config.run_seed, tick)
        rsrq = propagation.rsrq_db(rsrp, cell.interference_margin_db)
        return CellObservation(cell=cell, rsrp_dbm=rsrp, rsrq_db=rsrq,
                               measurable=propagation.is_measurable(rsrp))

    def observe(self, tick: int) -> dict[CellIdentity, CellObservation]:
        """Observations of every radio-relevant cell this tick."""
        return {cell.identity: self.observe_identity(cell.identity, tick)
                for cell in self._relevant}

    def fresh_rsrp(self, identity: CellIdentity, tick: int,
                   label: str = "exec") -> float:
        """Execution-time re-sample of one cell (independent fading draw)."""
        cell = self._environment.cell(identity)
        fading = self._environment.propagation.fresh_fading_db(
            cell, self._config.run_seed, tick, label)
        return self._mean_rsrp(identity, tick) + fading


class _SessionBase:
    """State and helpers shared by the SA and NSA simulators."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy,
                 device: DeviceCapabilities, point: Point, config: RunConfig) -> None:
        self.environment = environment
        self.policy = policy
        self.device = device
        self.config = config
        self.sampler = RadioSampler(environment, point, config)
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

    def _measurements_for_report(
        self,
        observations: dict[CellIdentity, CellObservation],
        serving: list[CellIdentity],
        extra_candidates: list[CellObservation],
    ) -> tuple[CellMeasurement, ...]:
        measurements: list[CellMeasurement] = []
        for identity in serving:
            observation = observations.get(identity)
            if observation is None or not observation.measurable:
                continue  # an unmeasurable serving cell never appears (S1E1)
            measurements.append(CellMeasurement(identity, observation.rsrp_dbm,
                                                observation.rsrq_db, is_serving=True))
        for observation in extra_candidates:
            if observation.identity in serving:
                continue
            measurements.append(CellMeasurement(observation.identity,
                                                observation.rsrp_dbm,
                                                observation.rsrq_db))
        return tuple(measurements)

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
        self._mod_streak_key: tuple | None = None
        self._mod_streak = 0

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
        channels = self._pcell_channels()
        best: CellObservation | None = None
        for channel in channels:
            for cell in self.environment.cells_on_channel(channel, Rat.NR):
                observation = self.sampler.observe_identity(cell.identity, tick)
                if observation.rsrp_dbm <= self.policy.selection_threshold_dbm:
                    continue
                if best is None or observation.rsrp_dbm > best.rsrp_dbm:
                    best = observation
        if best is None:
            return
        self._emit(SystemInfoRecord(time_s=t, cell=best.identity,
                                    selection_threshold_dbm=self.policy.selection_threshold_dbm))
        self._emit(RrcSetupRequestRecord(time_s=t + 0.05, cell=best.identity))
        self._emit(RrcSetupRecord(time_s=t + 0.15, cell=best.identity))
        self._emit(RrcSetupCompleteRecord(time_s=t + 0.2, cell=best.identity))
        self.ue.establish(best.identity)
        if self.device.sa_carrier_aggregation:
            self._pending_blind_add_s = t + self.policy.sa_blind_scell_addition_delay_s

    def _step_connected(self, t: float, tick: int) -> None:
        observations = self.sampler.observe(tick)
        pcell = self.ue.pcell
        assert pcell is not None
        pcell_obs = observations.get(pcell) or self.sampler.observe_identity(pcell, tick)

        if self._pending_blind_add_s is not None and t >= self._pending_blind_add_s:
            self._blind_scell_addition(t)
            self._pending_blind_add_s = None

        self._emit_periodic_report(t, observations)

        if self._fragile_scell_check(t, observations):
            return
        if self._scell_modification_step(t, tick, observations):
            return

        weak_ticks = self.ue.note_pcell_strength(pcell_obs.rsrp_dbm,
                                                 self.policy.rlf_rsrp_threshold_dbm)
        if weak_ticks >= self.policy.rlf_time_to_trigger_s:
            self._emit(RrcReleaseRecord(time_s=t + 0.5))
            self.ue.release_all(idle_until_s=t + self._idle_duration_s())

    def _blind_scell_addition(self, t: float) -> None:
        scells = self.network.blind_scell_set(self.ue.pcell, self.device)
        if not scells:
            return
        entries = []
        for identity in scells:
            index = self.ue.add_scell(identity)
            entries.append(ScellAddMod(scell_index=index, identity=identity))
        self._emit(RrcReconfigurationRecord(time_s=t + 0.3, pcell=self.ue.pcell,
                                            scell_add_mod=tuple(entries)))
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.35,
                                                    pcell=self.ue.pcell))

    def _emit_periodic_report(self, t: float,
                              observations: dict[CellIdentity, CellObservation]) -> None:
        candidate_channels = set(self.policy.sa_pcell_channels)
        candidate_channels.update(self.policy.sa_scell_channels)
        candidates = [obs for identity, obs in observations.items()
                      if identity.rat is Rat.NR
                      and identity.channel in candidate_channels
                      and obs.measurable
                      and obs.rsrp_dbm > NEIGHBOUR_REPORT_FLOOR_DBM]
        candidates.sort(key=lambda obs: obs.rsrp_dbm, reverse=True)
        measurements = self._measurements_for_report(
            observations, self.ue.serving_identities(), candidates[:8])
        if measurements:
            self._emit(MeasurementReportRecord(time_s=t + 0.1, event="periodic",
                                               measurements=measurements))

    def _fragile_scell_check(self, t: float,
                             observations: dict[CellIdentity, CellObservation]) -> bool:
        """OnePlus-12R-style modem exceptions on fragile SCells (S1E1/S1E2).

        Returns True if the whole MCG was released.
        """
        for index in sorted(self.ue.scells):
            identity = self.ue.scells[index]
            channel_policy = self.policy.channel_policy(identity.channel, Rat.NR)
            fragile = (channel_policy.downlink_only_scell_config
                       and self.device.handles_scell_band_fragile(identity.band.name))
            if not fragile:
                continue
            observation = observations.get(identity)
            measurable = observation is not None and observation.measurable
            unmeasurable_count = self.ue.note_scell_measurability(identity, measurable)
            if unmeasurable_count >= UNMEASURABLE_LIMIT_TICKS:
                self._modem_exception_release(t)  # S1E1
                return True
            if measurable:
                poor_count = self.ue.note_scell_rsrq(identity, observation.rsrq_db,
                                                     POOR_RSRQ_THRESHOLD_DB)
                if poor_count >= POOR_RSRQ_LIMIT_TICKS:
                    self._modem_exception_release(t)  # S1E2
                    return True
        return False

    def _scell_modification_step(self, t: float, tick: int,
                                 observations: dict[CellIdentity, CellObservation]) -> bool:
        """Network-commanded SCell modification; True if it failed (S1E3)."""
        if t < self._scell_mod_cooldown_until_s:
            return False
        decision = self.network.scell_modification(self.ue.scells, observations)
        if decision is None:
            self._mod_streak_key = None
            self._mod_streak = 0
            return False
        # Time-to-trigger: the same replacement must be warranted on two
        # consecutive ticks before the command is issued.
        key = (decision.release_identity, decision.add_identity)
        if key == self._mod_streak_key:
            self._mod_streak += 1
        else:
            self._mod_streak_key = key
            self._mod_streak = 1
        if self._mod_streak < 1:
            return False
        self._mod_streak_key = None
        self._mod_streak = 0
        new_index = self.ue.next_scell_index
        self._emit(RrcReconfigurationRecord(
            time_s=t + 0.4,
            pcell=self.ue.pcell,
            scell_add_mod=(ScellAddMod(new_index, decision.add_identity),),
            scell_release_indices=(decision.release_index,),
        ))
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.45,
                                                    pcell=self.ue.pcell))
        channel_policy = self.policy.channel_policy(decision.add_identity.channel, Rat.NR)
        fragile = (channel_policy.scell_mod_fragile
                   and channel_policy.downlink_only_scell_config
                   and self.device.handles_scell_band_fragile(
                       decision.add_identity.band.name))
        exec_gap = (self.sampler.fresh_rsrp(decision.add_identity, tick)
                    - self.sampler.fresh_rsrp(decision.release_identity, tick,
                                              label="exec-old"))
        failure_bar = (self.policy.sa_scell_mod_a3_offset_db
                       + self.policy.sa_scell_mod_exec_margin_db)
        if fragile and exec_gap < failure_bar:
            self._modem_exception_release(t + 0.46)  # S1E3
            return True
        self.ue.replace_scell(decision.release_index, decision.add_identity)
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
        serving = [self.sampler.observe_identity(identity, tick)
                   for identity in self.ue.serving_identities()]
        serving = [obs for obs in serving if obs.measurable]
        primary, secondaries = self.config.rate_model.split_primary(serving)
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
        self._a3_streak_target: CellIdentity | None = None
        self._a3_streak = 0
        self._broadcast_phase = int(self.rng.randint(0, max(
            1, int(policy.scg_recovery_config_period_s) or 1)))
        self._nsa_capable = device.supports_nsa_with(policy.name)

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
        best: CellObservation | None = None
        for cell in self.environment.cells_of_rat(Rat.LTE):
            observation = self.sampler.observe_identity(cell.identity, tick)
            if observation.rsrp_dbm <= LTE_SELECTION_THRESHOLD_DBM:
                continue
            if best is None or observation.rsrp_dbm > best.rsrp_dbm:
                best = observation
        if best is None:
            return
        self._emit(SystemInfoRecord(time_s=t, cell=best.identity,
                                    selection_threshold_dbm=LTE_SELECTION_THRESHOLD_DBM))
        self._emit(RrcSetupRequestRecord(time_s=t + 0.05, cell=best.identity))
        self._emit(RrcSetupRecord(time_s=t + 0.15, cell=best.identity))
        self._emit(RrcSetupCompleteRecord(time_s=t + 0.2, cell=best.identity))
        self.ue.establish(best.identity)
        if self._nsa_capable:
            self._b1_config_pending_s = t + 0.5

    def _step_connected(self, t: float, tick: int) -> None:
        observations = self.sampler.observe(tick)
        pcell = self.ue.pcell
        assert pcell is not None
        pcell_obs = observations.get(pcell) or self.sampler.observe_identity(pcell, tick)

        if self._b1_config_pending_s is not None and t >= self._b1_config_pending_s:
            self._emit_b1_config(t)

        saw_5g = self._emit_periodic_report(t, observations)

        if self._pcell_rlf_check(t, tick, pcell_obs, observations):
            return
        if self._handover_step(t, tick, observations, saw_5g):
            return
        self._scg_step(t, tick, observations)

    def _emit_b1_config(self, t: float) -> None:
        events = tuple(("B1", channel, self.policy.nsa_b1_threshold_dbm)
                       for channel in self.environment.channels_of_rat(Rat.NR))
        self._emit(RrcReconfigurationRecord(time_s=t, pcell=self.ue.pcell,
                                            meas_events=events))
        self._b1_active = True
        self._b1_config_pending_s = None

    def _emit_periodic_report(self, t: float,
                              observations: dict[CellIdentity, CellObservation]) -> bool:
        lte_neighbours = [obs for identity, obs in observations.items()
                          if identity.rat is Rat.LTE and obs.measurable
                          and obs.rsrp_dbm > NEIGHBOUR_REPORT_FLOOR_DBM]
        lte_neighbours.sort(key=lambda obs: obs.rsrp_dbm, reverse=True)
        candidates = lte_neighbours[:6]
        saw_5g = False
        if self._b1_active and self._nsa_capable:
            nr_candidates = [obs for identity, obs in observations.items()
                             if identity.rat is Rat.NR and obs.measurable
                             and obs.rsrp_dbm > self.policy.nsa_b1_threshold_dbm]
            nr_candidates.sort(key=lambda obs: obs.rsrp_dbm, reverse=True)
            saw_5g = bool(nr_candidates)
            candidates = candidates + nr_candidates[:4]
        measurements = self._measurements_for_report(
            observations, self.ue.serving_identities(), candidates)
        if measurements:
            event = "B1" if saw_5g and self.ue.scg_pscell is None else "periodic"
            self._emit(MeasurementReportRecord(time_s=t + 0.1, event=event,
                                               measurements=measurements))
        return saw_5g

    def _pcell_rlf_check(self, t: float, tick: int, pcell_obs: CellObservation,
                         observations: dict[CellIdentity, CellObservation]) -> bool:
        weak_ticks = self.ue.note_pcell_strength(pcell_obs.rsrp_dbm,
                                                 self.policy.rlf_rsrp_threshold_dbm)
        if weak_ticks < self.policy.rlf_time_to_trigger_s:
            return False
        self._emit(RrcReestablishmentRequestRecord(time_s=t + 0.3,
                                                   cause="otherFailure",
                                                   cell=pcell_obs.identity))
        self._reestablish(t, tick, observations)
        return True

    def _reestablish(self, t: float, tick: int,
                     observations: dict[CellIdentity, CellObservation]) -> None:
        """Reestablish the 4G connection on the strongest cell, or go IDLE."""
        candidates = [obs for identity, obs in observations.items()
                      if identity.rat is Rat.LTE and obs.measurable
                      and obs.rsrp_dbm > self.policy.rlf_rsrp_threshold_dbm]
        if not candidates:
            self._emit(RrcReleaseRecord(time_s=t + 0.5))
            self.ue.release_all(idle_until_s=t + self._idle_duration_s())
            self._b1_active = False
            self._b1_config_pending_s = None
            return
        best = max(candidates, key=lambda obs: obs.rsrp_dbm)
        self._emit(RrcReestablishmentCompleteRecord(time_s=t + 0.6, cell=best.identity))
        self.ue.establish(best.identity)
        self._b1_active = False
        if self._nsa_capable:
            self._b1_config_pending_s = t + 1.5
        self._handover_cooldown_until_s = t + HANDOVER_COOLDOWN_S

    def _handover_step(self, t: float, tick: int,
                       observations: dict[CellIdentity, CellObservation],
                       saw_5g: bool) -> bool:
        if t < self._handover_cooldown_until_s:
            return False
        decision = self.network.handover_decision(
            self.ue.pcell, observations, saw_5g_report=saw_5g,
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
        self._emit(RrcReconfigurationRecord(
            time_s=t + 0.3, pcell=self.ue.pcell,
            handover_target=decision.target,
            release_scg=self.ue.scg_pscell is not None and not decision.keep_scg))
        target_rsrp = self.sampler.fresh_rsrp(decision.target, tick, label="ho")
        if target_rsrp < self.policy.handover_failure_threshold_dbm:
            self._emit(RrcReestablishmentRequestRecord(time_s=t + 0.6,
                                                       cause="handoverFailure",
                                                       cell=decision.target))
            self._reestablish(t + 0.3, tick, observations)
            return True
        self.ue.handover(decision.target, keep_scg=decision.keep_scg)
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.5,
                                                    pcell=decision.target))
        self._handover_cooldown_until_s = t + HANDOVER_COOLDOWN_S
        return True

    def _scg_step(self, t: float, tick: int,
                  observations: dict[CellIdentity, CellObservation]) -> None:
        if not self._nsa_capable:
            return
        nr_observations = {identity: obs for identity, obs in observations.items()
                           if identity.rat is Rat.NR}
        if self.ue.scg_pscell is None:
            if not self._b1_active:
                return
            addition = self.network.scg_addition(self.ue.pcell, nr_observations)
            if addition is None:
                return
            pscell, partners = addition
            self._execute_scg_setup(t, tick, pscell, partners)
            return

        pscell = self.ue.scg_pscell
        pscell_obs = nr_observations.get(pscell)
        pscell_rsrp = (pscell_obs.rsrp_dbm if pscell_obs is not None
                       else self.sampler.observe_identity(pscell, tick).rsrp_dbm)

        if self.policy.legacy_a2b1 and pscell_rsrp < self.policy.legacy_a2_threshold_dbm:
            # The prior-work A2-B1 loop (F12): A2-triggered SCG release
            # with an A2 threshold above the B1 add threshold.
            self._emit(RrcReconfigurationRecord(time_s=t + 0.4, pcell=self.ue.pcell,
                                                release_scg=True))
            self.ue.release_scg()
            return

        if pscell_rsrp < self.policy.nsa_scg_a2_threshold_dbm:
            self._scg_failure(t, "rlf")
            return

        if t < self._scg_change_cooldown_until_s:
            return
        change = self.network.scg_change(pscell, nr_observations)
        if change is not None:
            partners = [identity for identity in nr_observations
                        if identity.pci == change.pci and identity.channel != change.channel
                        and nr_observations[identity].measurable][:1]
            self._execute_scg_setup(t, tick, change, partners, is_change=True)

    def _execute_scg_setup(self, t: float, tick: int, pscell: CellIdentity,
                           partners: list[CellIdentity], is_change: bool = False) -> None:
        self._emit(RrcReconfigurationRecord(time_s=t + 0.5, pcell=self.ue.pcell,
                                            scg_pscell=pscell,
                                            scg_scells=tuple(partners)))
        ra_rsrp = self.sampler.fresh_rsrp(pscell, tick, label="scg-ra")
        if ra_rsrp < self.policy.scg_ra_failure_threshold_dbm:
            self._scg_failure(t, "randomAccessProblem")
            return
        self.ue.attach_scg(pscell, partners)
        self._emit(RrcReconfigurationCompleteRecord(time_s=t + 0.7,
                                                    pcell=self.ue.pcell))
        if is_change:
            self._scg_change_cooldown_until_s = t + SCG_CHANGE_COOLDOWN_S

    def _scg_failure(self, t: float, kind: str) -> None:
        failure_type = "randomAccessProblem" if kind == "randomAccessProblem" else "rlf"
        self._emit(ScgFailureRecord(time_s=t + 0.75, failure_type=failure_type))
        self._emit(RrcReconfigurationRecord(time_s=t + 0.85, pcell=self.ue.pcell,
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
        pcell_obs = self.sampler.observe_identity(self.ue.pcell, tick)
        if self.ue.scg_pscell is None:
            mbps = self.config.rate_model.lte_only_rate_mbps(pcell_obs,
                                                             self.device.mimo_layers)
            self._emit_throughput(t, mbps)
            return
        serving = [self.sampler.observe_identity(identity, tick)
                   for identity in self.ue.serving_identities()]
        serving = [obs for obs in serving if obs.measurable]
        primary, secondaries = self.config.rate_model.split_primary(serving)
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
