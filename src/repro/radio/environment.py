"""The radio environment: deployed cells + propagation.

A :class:`RadioEnvironment` is the single source of radio truth for a
simulation: the deployed cells of one operator area, looked up by
identity, RAT or channel, and the :class:`PropagationModel` that gives
their RSRP at a location.  A session observes it through
:class:`repro.rrc.session.RadioSampler`, which turns a run's RSRP into
the :class:`CellObservation` values (RSRP/RSRQ/measurability per cell)
that the UE's measurement machinery then filters and reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cells.cell import CellIdentity, DeployedCell, Rat
from repro.radio.geometry import Point
from repro.radio.propagation import PropagationModel


@dataclass(frozen=True)
class CellObservation:
    """One cell as seen from one location at one instant."""

    cell: DeployedCell
    rsrp_dbm: float
    rsrq_db: float
    measurable: bool

    @property
    def identity(self) -> CellIdentity:
        return self.cell.identity

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.identity.notation}: {self.rsrp_dbm:.1f} dBm / {self.rsrq_db:.1f} dB"


class RadioEnvironment:
    """All deployed cells of one operator in one area, plus propagation.

    The environment is immutable after construction; per-run variation
    comes from the run seed a sampler draws fading with.
    """

    def __init__(self, cells: list[DeployedCell], propagation: PropagationModel) -> None:
        identities = [cell.identity for cell in cells]
        if len(set(identities)) != len(identities):
            raise ValueError("duplicate cell identities in deployment")
        self._cells = list(cells)
        self._by_identity = {cell.identity: cell for cell in cells}
        self.propagation = propagation

    @property
    def cells(self) -> list[DeployedCell]:
        return list(self._cells)

    def cells_of_rat(self, rat: Rat) -> list[DeployedCell]:
        return [cell for cell in self._cells if cell.rat is rat]

    def cells_on_channel(self, channel: int, rat: Rat) -> list[DeployedCell]:
        return [cell for cell in self._cells
                if cell.channel == channel and cell.rat is rat]

    def channels_of_rat(self, rat: Rat) -> list[int]:
        return sorted({cell.channel for cell in self._cells if cell.rat is rat})

    def cell(self, identity: CellIdentity) -> DeployedCell:
        try:
            return self._by_identity[identity]
        except KeyError:
            raise KeyError(f"cell {identity.notation} not deployed") from None

    def has_cell(self, identity: CellIdentity) -> bool:
        return identity in self._by_identity

    def mean_rsrp_map(self, cell_identity: CellIdentity,
                      points: list[Point]) -> list[float]:
        """Location-mean RSRP of one cell over many points (no fading).

        Used by the section 6 spatial analysis to build RSRP fields
        (Figure 20c/20d) without simulating runs.
        """
        cell = self.cell(cell_identity)
        return [self.propagation.mean_rsrp_dbm(cell, point) for point in points]
