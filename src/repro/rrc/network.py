"""Network-side (PCell) decision logic.

The PCell "runs its local logic to determine whether and how to change
the serving cell(s)" (section 5.1).  This module implements that logic
for both deployment modes:

* :class:`SaNetworkLogic` — OP_T-style 5G SA: blind SCell addition of
  the co-sited cell set after setup, and A3-driven intra-channel SCell
  modification.
* :class:`NsaNetworkLogic` — OP_A / OP_V-style 5G NSA: RSRQ-A3 4G
  handover selection with per-channel offsets, the "5G-disabled channel"
  redirect, B1-driven SCG addition and A3-driven SCG change.

All methods are pure decisions over the current tick's view
(:class:`~repro.rrc.session.TickView`): cells are indices into the
run's cell table, which follows ``environment.cells``.  Per-channel
policy values are resolved per cell once, when the logic is built.
Only :meth:`SaNetworkLogic.blind_scell_set` and
:meth:`NsaNetworkLogic.redirect_target`, which run once per setup or
redirect, take and return identities.  Executing a decision (and
failing to execute it, which is where loops come from) is the
session's job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cells.cell import CellIdentity, Rat
from repro.radio.environment import RadioEnvironment
from repro.radio.geometry import Point
from repro.rrc.capabilities import DeviceCapabilities
from repro.rrc.policies import OperatorPolicy

if TYPE_CHECKING:
    from repro.rrc.session import TickView


@dataclass(frozen=True)
class ScellModification:
    """A decided SCell modification: release one sCellIndex, add one cell.

    ``release_cell`` and ``add_cell`` are cell indices.
    """

    release_index: int
    release_cell: int
    add_cell: int


@dataclass(frozen=True)
class HandoverDecision:
    """A decided 4G PCell handover to cell index ``target``."""

    target: int
    keep_scg: bool
    blind: bool  # True for the policy redirect (target never measured)


def _strongest(cells, rsrp: list[float]) -> int | None:
    """The strongest of ``cells`` (the first one wins a tie)."""
    best: int | None = None
    for cell in cells:
        if best is None or rsrp[cell] > rsrp[best]:
            best = cell
    return best


class SaNetworkLogic:
    """OP_T's SA PCell logic."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy) -> None:
        self._environment = environment
        self._policy = policy

    def blind_scell_set(self, pcell: CellIdentity,
                        device: DeviceCapabilities) -> list[CellIdentity]:
        """The SCells added ~3 s after setup, without UE measurements.

        The network pairs the PCell with its co-sited twin on the other
        PCell channel plus the nearest cell on each SCell channel — which
        is how an *unmeasurable* cell can end up serving (S1E1).

        Advanced devices (4 MIMO layers, V17 RRC) get the lean
        configuration: only the co-sited twin, no downlink-only-channel
        SCells (the OnePlus 13R behaviour of F6).
        """
        if not device.sa_carrier_aggregation:
            return []
        pcell_site = Point(*self._environment.cell(pcell).site_xy_m)
        lean = device.mimo_layers >= 4
        chosen: list[CellIdentity] = []
        for channel in self._policy.sa_scell_channels:
            if channel == pcell.channel:
                continue
            channel_policy = self._policy.channel_policy(channel, Rat.NR)
            if not channel_policy.scell_eligible:
                continue
            if lean and channel_policy.downlink_only_scell_config:
                continue
            cells = self._environment.cells_on_channel(channel, Rat.NR)
            if not cells:
                continue
            co_sited = [cell for cell in cells if cell.pci == pcell.pci]
            if co_sited:
                nearest = co_sited[0]
            else:
                nearest = min(cells, key=lambda cell:
                              Point(*cell.site_xy_m).distance_to(pcell_site))
            chosen.append(nearest.identity)
            if len(chosen) >= (1 if lean else device.max_sa_scells):
                break
        return chosen

    def scell_modification(self, serving_scells: dict[int, int],
                           view: TickView) -> ScellModification | None:
        """A3-driven intra-channel SCell replacement (at most one per tick).

        ``serving_scells`` maps sCellIndex to cell index.  For each
        serving SCell, if a same-channel neighbour measures
        ``sa_scell_mod_a3_offset_db`` stronger, command the replacement —
        the S1E3 trigger when the replacement then fails.
        """
        offset = self._policy.sa_scell_mod_a3_offset_db
        table, rsrp, measurable = view.table, view.rsrp, view.measurable
        channels = table.channels
        serving_cells = serving_scells.values()
        for index in sorted(serving_scells):
            serving = serving_scells[index]
            if not (table.relevant[serving] and measurable[serving]):
                continue
            channel = channels[serving]
            best = _strongest((cell for cell in table.relevant_nr
                               if channels[cell] == channel
                               and cell != serving
                               and cell not in serving_cells
                               and measurable[cell]), rsrp)
            if best is None:
                continue
            if rsrp[best] > rsrp[serving] + offset:
                return ScellModification(release_index=index,
                                         release_cell=serving, add_cell=best)
        return None


class NsaNetworkLogic:
    """OP_A / OP_V's NSA (4G PCell) logic."""

    def __init__(self, environment: RadioEnvironment, policy: OperatorPolicy) -> None:
        self._environment = environment
        self._policy = policy
        # Per cell index (read for LTE cells): the A3 offset for handing
        # over to it, whether a PCell on it may hold an SCG, and whether
        # entering it keeps an active one.
        self._a3_offset_db: list[float] = []
        self._allows_scg: list[bool] = []
        self._keeps_scg: list[bool] = []
        for cell in environment.cells:
            channel_policy = policy.channel_policy(cell.channel, Rat.LTE)
            self._a3_offset_db.append(channel_policy.handover_a3_offset_db)
            self._allows_scg.append(channel_policy.allows_scg)
            self._keeps_scg.append(channel_policy.allows_scg
                                   and not channel_policy.drops_scg_on_entry)

    def redirect_target(self, pcell: CellIdentity) -> CellIdentity | None:
        """The blind redirect twin for a "5G-report" redirect, if configured.

        OP_A's 5815 policy (F15): upon receiving any 5G measurement the
        PCell hands the UE to the *same-PCI* cell on the redirect
        channel, without a measurement of the target.
        """
        channel_policy = self._policy.channel_policy(pcell.channel, Rat.LTE)
        redirect_channel = channel_policy.redirect_on_5g_report_to
        if redirect_channel is None:
            return None
        twin = CellIdentity(pci=pcell.pci, channel=redirect_channel, rat=Rat.LTE)
        if self._environment.has_cell(twin):
            return twin
        twins = self._environment.cells_on_channel(redirect_channel, Rat.LTE)
        if not twins:
            return None
        pcell_site = Point(*self._environment.cell(pcell).site_xy_m)
        nearest = min(twins, key=lambda cell:
                      Point(*cell.site_xy_m).distance_to(pcell_site))
        return nearest.identity

    def handover_decision(self, pcell: int, view: TickView, saw_5g_report: bool,
                          scg_active: bool) -> HandoverDecision | None:
        """Pick a 4G handover target, if any trigger fires.

        The policy redirect takes precedence (it fires "immediately" per
        F15); otherwise the per-target-channel RSRQ A3 applies, with the
        asymmetric offsets that produce the N2E1 ping-pong.
        """
        table = view.table
        if saw_5g_report:
            redirect = self.redirect_target(table.identities[pcell])
            if redirect is not None:
                target = table.index[redirect]
                return HandoverDecision(target=target,
                                        keep_scg=scg_active and self._keeps_scg[target],
                                        blind=True)

        if not table.relevant[pcell]:
            return None
        rsrq, measurable = view.rsrq, view.measurable
        serving_rsrq = rsrq[pcell]
        offsets = self._a3_offset_db
        best_target: int | None = None
        best_margin = 0.0
        for cell in table.relevant_lte:
            if cell == pcell or not measurable[cell]:
                continue
            margin = rsrq[cell] - (serving_rsrq + offsets[cell])
            if margin > best_margin:
                best_margin = margin
                best_target = cell
        if best_target is None:
            return None
        return HandoverDecision(target=best_target,
                                keep_scg=scg_active and self._keeps_scg[best_target],
                                blind=False)

    def scg_addition(self, pcell: int,
                     view: TickView) -> tuple[int, list[int]] | None:
        """B1-driven SCG addition: strongest qualifying NR cell as PSCell.

        A co-sited NR cell on a second 5G channel, if deployed, is added
        as the SCG SCell (matching the paired SCG cells of Figures
        30-33, e.g. ``66@632736+66@658080``).
        """
        if not self._allows_scg[pcell]:
            return None
        table, rsrp, measurable = view.table, view.rsrp, view.measurable
        threshold = self._policy.nsa_b1_threshold_dbm
        pscell = _strongest((cell for cell in table.relevant_nr
                             if measurable[cell] and rsrp[cell] > threshold), rsrp)
        if pscell is None:
            return None
        pci, channel = table.pcis[pscell], table.channels[pscell]
        partners = [cell for cell in table.relevant_nr
                    if table.pcis[cell] == pci and table.channels[cell] != channel
                    and measurable[cell]]
        partners.sort(key=rsrp.__getitem__, reverse=True)
        return pscell, partners[:1]

    def scg_change(self, pscell: int, view: TickView) -> int | None:
        """A3-driven PSCell change (the N2E2 trigger when it then fails)."""
        table, rsrp, measurable = view.table, view.rsrp, view.measurable
        if not (table.relevant[pscell] and measurable[pscell]):
            return None
        best = _strongest((cell for cell in table.relevant_nr
                           if cell != pscell and measurable[cell]), rsrp)
        if best is None:
            return None
        if rsrp[best] > rsrp[pscell] + self._policy.nsa_scg_a3_offset_db:
            return best
        return None
