"""UE-side RRC context: states, serving cells, failure counters.

The UE context tracks exactly what a real baseband tracks: the RRC
state, the PCell, the SCell index table (``sCellIndex -> cell``, which
is what ``sCellToReleaseList`` indices refer to), the NSA secondary cell
group, and the per-cell counters that implement time-to-trigger for
failure detection (radio-link failure, the fragile-SCell exceptions of
the OnePlus 12R).

The context never looks inside a cell: a session hands it the run's
cell indices (see :class:`repro.rrc.session.CellTable`), and the two
helpers that need a cell's RAT or channel take that column as an
argument.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from repro.cells.cell import Rat

#: A per-cell column: a list by cell index, or a mapping by cell.
Column = Union[Sequence, Mapping]


class RrcState(enum.Enum):
    """Top-level RRC state of the UE."""

    IDLE = "IDLE"
    CONNECTED = "CONNECTED"


class FiveGState(enum.Enum):
    """The paper's ON/OFF abstraction of the serving configuration."""

    OFF_IDLE = "IDLE"
    OFF_LTE_ONLY = "4G"
    ON_SA = "5G SA"
    ON_NSA = "5G NSA"

    @property
    def is_on(self) -> bool:
        return self in (FiveGState.ON_SA, FiveGState.ON_NSA)


@dataclass
class UeContext:
    """Mutable RRC context of one UE during one run."""

    state: RrcState = RrcState.IDLE
    pcell: int | None = None
    scells: dict[int, int] = field(default_factory=dict)  # sCellIndex -> cell
    scg_pscell: int | None = None
    scg_scells: list[int] = field(default_factory=list)
    next_scell_index: int = 1
    idle_until_s: float = 0.0
    # Failure-detection counters (ticks the condition has persisted).
    unmeasurable_ticks: dict[int, int] = field(default_factory=dict)
    poor_rsrq_ticks: dict[int, int] = field(default_factory=dict)
    pcell_weak_ticks: int = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self.state is RrcState.CONNECTED

    def five_g_state(self, rats: Column) -> FiveGState:
        """Classify the current configuration into the paper's four states
        (``rats`` gives each cell's RAT)."""
        if not self.connected or self.pcell is None:
            return FiveGState.OFF_IDLE
        if rats[self.pcell] is Rat.NR:
            return FiveGState.ON_SA
        if self.scg_pscell is not None:
            return FiveGState.ON_NSA
        return FiveGState.OFF_LTE_ONLY

    def serving_cells(self) -> list[int]:
        """Every serving cell: PCell, MCG SCells, then the SCG."""
        cells: list[int] = []
        if self.pcell is not None:
            cells.append(self.pcell)
        cells.extend(self.scells[index] for index in sorted(self.scells))
        if self.scg_pscell is not None:
            cells.append(self.scg_pscell)
        cells.extend(self.scg_scells)
        return cells

    def scell_index_of(self, cell: int) -> int | None:
        for index, serving in self.scells.items():
            if serving == cell:
                return index
        return None

    def serving_scell_on_channel(self, channel: int, channels: Column) -> int | None:
        """The lowest-indexed SCell on ``channel`` (``channels`` gives
        each cell's channel)."""
        for index in sorted(self.scells):
            if channels[self.scells[index]] == channel:
                return self.scells[index]
        return None

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def establish(self, pcell: int) -> None:
        """Enter CONNECTED on a fresh PCell (RRC setup / reestablishment)."""
        self.state = RrcState.CONNECTED
        self.pcell = pcell
        self.scells.clear()
        self.scg_pscell = None
        self.scg_scells.clear()
        self.next_scell_index = 1
        self._reset_counters()

    def add_scell(self, cell: int) -> int:
        """Add an MCG SCell; returns the assigned sCellIndex."""
        if not self.connected:
            raise RuntimeError("cannot add SCell while IDLE")
        index = self.next_scell_index
        self.next_scell_index += 1
        self.scells[index] = cell
        return index

    def release_scell_index(self, index: int) -> int | None:
        released = self.scells.pop(index, None)
        if released is not None:
            self.unmeasurable_ticks.pop(released, None)
            self.poor_rsrq_ticks.pop(released, None)
        return released

    def replace_scell(self, release_index: int, new_cell: int) -> int:
        """Execute an SCell modification (release one index, add a cell)."""
        self.release_scell_index(release_index)
        return self.add_scell(new_cell)

    def attach_scg(self, pscell: int, scells: list[int]) -> None:
        if not self.connected:
            raise RuntimeError("cannot attach SCG while IDLE")
        self.scg_pscell = pscell
        self.scg_scells = list(scells)

    def release_scg(self) -> None:
        self.scg_pscell = None
        self.scg_scells.clear()

    def handover(self, target: int, keep_scg: bool) -> None:
        """Change the (4G) PCell; MCG SCells are dropped, SCG optionally kept."""
        self.pcell = target
        self.scells.clear()
        self.pcell_weak_ticks = 0
        if not keep_scg:
            self.release_scg()

    def release_all(self, idle_until_s: float) -> None:
        """Drop the whole connection and go IDLE until the given time."""
        self.state = RrcState.IDLE
        self.pcell = None
        self.scells.clear()
        self.scg_pscell = None
        self.scg_scells.clear()
        self.idle_until_s = idle_until_s
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.unmeasurable_ticks.clear()
        self.poor_rsrq_ticks.clear()
        self.pcell_weak_ticks = 0

    # ------------------------------------------------------------------
    # Failure-detection counters
    # ------------------------------------------------------------------

    def note_scell_measurability(self, cell: int, measurable: bool) -> int:
        """Track how long an SCell has been unmeasurable; returns the count."""
        if measurable:
            self.unmeasurable_ticks[cell] = 0
            return 0
        count = self.unmeasurable_ticks.get(cell, 0) + 1
        self.unmeasurable_ticks[cell] = count
        return count

    def note_scell_rsrq(self, cell: int, rsrq_db: float,
                        poor_threshold_db: float) -> int:
        """Track how long an SCell's RSRQ has been poor; returns the count."""
        if rsrq_db > poor_threshold_db:
            self.poor_rsrq_ticks[cell] = 0
            return 0
        count = self.poor_rsrq_ticks.get(cell, 0) + 1
        self.poor_rsrq_ticks[cell] = count
        return count

    def note_pcell_strength(self, rsrp_dbm: float, rlf_threshold_dbm: float) -> int:
        """Track how long the PCell has been below the RLF threshold."""
        if rsrp_dbm >= rlf_threshold_dbm:
            self.pcell_weak_ticks = 0
        else:
            self.pcell_weak_ticks += 1
        return self.pcell_weak_ticks
