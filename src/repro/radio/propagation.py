"""Propagation model: path loss, shadowing, fast fading.

RSRP at a location is computed as::

    RSRP = tx_power - path_loss(distance, frequency) - shadowing(x, y) + fading(t)

* Path loss follows the log-distance model with a frequency-dependent
  intercept (free-space at 1 m) and an exponent around 3.0-3.7 for the
  urban/suburban morphology of the two test cities.
* Shadowing is a spatially correlated lognormal field, realised as a
  deterministic pseudo-random lattice with bilinear interpolation.  The
  correlation distance (lattice spacing, default 75 m) is what makes the
  paper's section 6 spatial analysis meaningful: nearby locations see
  similar RSRP, distant locations are independent.
* Fast fading is a small zero-mean temporal AR(1) process regenerated per
  (cell, run) so repeated runs at one location differ slightly, which is
  what makes semi-persistent loops possible (F1).
  :meth:`PropagationModel.fading_series` draws a run's whole series at
  once; the session sampler reads it as a column.

Everything is deterministic given the environment seed, the cell
identity and the sample time, so the full measurement campaign is
reproducible bit-for-bit.  Seeded draws come from
:func:`repro.core.seeding.scratch_rng`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cells.cell import DeployedCell
from repro.core.seeding import scratch_rng
from repro.radio.geometry import Point, angular_difference_deg, bearing_deg

#: Tick-to-tick correlation of the AR(1) fast fading.
_FADING_RHO = 0.85


def free_space_path_loss_db(distance_m: float, frequency_mhz: float) -> float:
    """Free-space path loss (Friis) in dB.

    >>> round(free_space_path_loss_db(1000.0, 1937.0), 1)
    98.2
    """
    distance = max(distance_m, 1.0)
    return 20.0 * math.log10(distance / 1000.0) + 20.0 * math.log10(frequency_mhz) + 32.45


def log_distance_path_loss_db(
    distance_m: float,
    frequency_mhz: float,
    exponent: float = 3.2,
    reference_distance_m: float = 10.0,
) -> float:
    """Log-distance path loss with free-space reference at ``reference_distance_m``."""
    distance = max(distance_m, reference_distance_m)
    reference_loss = free_space_path_loss_db(reference_distance_m, frequency_mhz)
    return reference_loss + 10.0 * exponent * math.log10(distance / reference_distance_m)


class ShadowingField:
    """Spatially correlated lognormal shadowing for one cell.

    A lattice of i.i.d. normal values with bilinear interpolation gives a
    field whose correlation distance equals the lattice spacing; values at
    lattice nodes are generated lazily and deterministically from the
    (seed, cell, node) triple.
    """

    def __init__(self, seed: int, cell_key: str, sigma_db: float = 6.0,
                 correlation_distance_m: float = 75.0) -> None:
        if sigma_db < 0:
            raise ValueError("shadowing sigma must be non-negative")
        if correlation_distance_m <= 0:
            raise ValueError("correlation distance must be positive")
        self._seed = seed
        self._cell_key = cell_key
        self.sigma_db = sigma_db
        self.correlation_distance_m = correlation_distance_m
        self._node_cache: dict[tuple[int, int], float] = {}

    def _node_value(self, ix: int, iy: int) -> float:
        cached = self._node_cache.get((ix, iy))
        if cached is not None:
            return cached
        rng = scratch_rng(self._seed, self._cell_key, ix, iy)
        value = float(rng.normal(0.0, self.sigma_db))
        self._node_cache[(ix, iy)] = value
        return value

    def value_db(self, point: Point) -> float:
        """Shadowing in dB at a location (bilinear interpolation of the lattice)."""
        gx = point.x_m / self.correlation_distance_m
        gy = point.y_m / self.correlation_distance_m
        ix, iy = math.floor(gx), math.floor(gy)
        fx, fy = gx - ix, gy - iy
        v00 = self._node_value(ix, iy)
        v10 = self._node_value(ix + 1, iy)
        v01 = self._node_value(ix, iy + 1)
        v11 = self._node_value(ix + 1, iy + 1)
        top = v00 * (1 - fx) + v10 * fx
        bottom = v01 * (1 - fx) + v11 * fx
        return top * (1 - fy) + bottom * fy


@dataclass
class PropagationModel:
    """Bundles path loss + shadowing + fading into one RSRP/RSRQ evaluator.

    Attributes:
        seed: environment seed (shared by every cell's shadowing field).
        path_loss_exponent: morphology exponent (3.0 suburban .. 3.7 urban).
        shadowing_sigma_db: lognormal shadowing standard deviation.
        fading_sigma_db: fast-fading standard deviation per sample.
        noise_floor_dbm: measurement floor; cells below it are invisible
            to the UE (the S1E1 mechanism: "too bad to be measured").
    """

    seed: int = 0
    path_loss_exponent: float = 3.2
    shadowing_sigma_db: float = 6.0
    fading_sigma_db: float = 2.0
    shadowing_correlation_m: float = 75.0
    noise_floor_dbm: float = -125.0

    def __post_init__(self) -> None:
        self._shadowing: dict[str, ShadowingField] = {}
        self._fading: dict[tuple[str, int], list[float]] = {}

    def _shadowing_for(self, cell: DeployedCell) -> ShadowingField:
        key = _cell_key(cell)
        field = self._shadowing.get(key)
        if field is None:
            field = ShadowingField(self.seed, key, self.shadowing_sigma_db,
                                   self.shadowing_correlation_m)
            self._shadowing[key] = field
        return field

    def _antenna_gain_db(self, cell: DeployedCell, point: Point) -> float:
        """Sector antenna gain: 0 dB at boresight, floored at -18 dB off-axis."""
        if cell.azimuth_deg is None:
            return 0.0
        site = Point(*cell.site_xy_m)
        direction = bearing_deg(site, point)
        off_axis = angular_difference_deg(direction, cell.azimuth_deg)
        half_beam = cell.beamwidth_deg / 2.0
        attenuation = 12.0 * (off_axis / max(half_beam, 1.0)) ** 2
        return -min(attenuation, 18.0)

    def mean_rsrp_dbm(self, cell: DeployedCell, point: Point) -> float:
        """Location-mean RSRP (path loss + shadowing + antenna, no fading)."""
        site = Point(*cell.site_xy_m)
        loss = log_distance_path_loss_db(site.distance_to(point), cell.frequency_mhz,
                                         self.path_loss_exponent)
        shadowing = self._shadowing_for(cell).value_db(point)
        gain = self._antenna_gain_db(cell, point)
        return cell.tx_power_dbm - loss - shadowing + gain

    def fading_series(self, cell: DeployedCell, run_seed: int,
                      length: int) -> list[float]:
        """The AR(1) fast-fading term of one cell over ticks ``0..length-1`` of a run.

        One seeded draw gives the first value and one array draw the
        innovations; the recursion runs in Python floats in tick order.
        A legacy generator's array draw equals the same number of scalar
        draws, so a shorter series is a prefix of a longer one.
        """
        if length <= 0:
            return []
        rng = scratch_rng(self.seed, _cell_key(cell), run_seed, "fading")
        value = float(rng.normal(0.0, self.fading_sigma_db))
        innovations = rng.normal(
            0.0, self.fading_sigma_db * math.sqrt(1 - _FADING_RHO ** 2),
            size=length - 1).tolist()
        series = [value]
        for innovation in innovations:
            value = _FADING_RHO * value + innovation
            series.append(value)
        return series

    def fading_db(self, cell: DeployedCell, run_seed: int, tick: int) -> float:
        """The AR(1) fast-fading term of one cell at one tick of one run.

        Keeps each (cell, run) series it computes, redrawn twice as long
        whenever a later tick is asked for.  Only the cell-inventory
        scans use this; a session reads :meth:`fading_series` once per run.
        """
        if tick < 0:
            raise ValueError("tick must be non-negative")
        key = (_cell_key(cell), run_seed)
        series = self._fading.get(key, [])
        if tick >= len(series):
            series = self.fading_series(cell, run_seed,
                                        max(tick + 1, 2 * len(series)))
            self._fading[key] = series
        return series[tick]

    def fresh_fading_db(self, cell: DeployedCell, run_seed: int, tick: int,
                        label: str = "exec") -> float:
        """An independent fading draw, for execution-time re-sampling.

        Command execution (SCell modification, handover random access)
        happens a few hundred milliseconds after the measurement that
        triggered it; this returns a fresh draw uncorrelated with the
        tick's reported value, deterministically from the label.
        """
        rng = scratch_rng(self.seed, _cell_key(cell), run_seed, tick, label)
        return float(rng.normal(0.0, self.fading_sigma_db))

    def rsrp_dbm(self, cell: DeployedCell, point: Point, tick: int, run_seed: int) -> float:
        """Instantaneous RSRP at an integer tick (1 Hz) of one run."""
        fading = self.fading_db(cell, run_seed, tick)
        return self.mean_rsrp_dbm(cell, point) + fading

    def rsrq_db(self, rsrp_dbm: float | np.ndarray,
                interference_margin_db: float | np.ndarray = 0.0,
                ) -> float | np.ndarray:
        """Map RSRP to an RSRQ value: a float, or an array for an array.

        RSRQ in a loaded network degrades roughly linearly as RSRP
        approaches the noise floor; we use a piecewise-linear map
        calibrated to the paper's reported pairs (RSRP -82 / RSRQ -10.5;
        RSRP -108.5 / RSRQ -25.5 in Figure 28), clamped to [-30, -5] dB.
        Arrays map elementwise (with the margin broadcast against them),
        rounding exactly as the scalar form does.
        """
        anchor_good = (-82.0, -10.5)
        anchor_poor = (-108.5, -25.5)
        slope = (anchor_poor[1] - anchor_good[1]) / (anchor_poor[0] - anchor_good[0])
        rsrq = anchor_good[1] + slope * (rsrp_dbm - anchor_good[0]) - interference_margin_db
        clamped = np.minimum(np.maximum(rsrq, -30.0), -5.0)
        return float(clamped) if np.ndim(clamped) == 0 else clamped

    def is_measurable(self, rsrp_dbm: float | np.ndarray) -> bool | np.ndarray:
        """Whether the UE can measure a cell at all (above the noise floor).

        A bool, or a boolean array for an array of RSRP values.
        """
        return rsrp_dbm > self.noise_floor_dbm


def _cell_key(cell: DeployedCell) -> str:
    """The string that keys a cell's shadowing and fading seeds."""
    return f"{cell.identity.rat.value}:{cell.identity.notation}"
