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

Everything is deterministic given the environment seed, the cell
identity and the sample time, so the full measurement campaign is
reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cells.cell import DeployedCell
from repro.core.seeding import stable_seed
from repro.radio.geometry import Point, angular_difference_deg, bearing_deg


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
        node_seed = stable_seed(self._seed, self._cell_key, ix, iy)
        value = float(np.random.RandomState(node_seed).normal(0.0, self.sigma_db))
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


class _FadingProcess:
    """Temporal AR(1) fading for one (cell, run) pair, sampled at integer ticks."""

    def __init__(self, seed: int, sigma_db: float = 2.0, rho: float = 0.85) -> None:
        self._rng = np.random.RandomState(seed)
        self._sigma = sigma_db
        self._rho = rho
        self._values: list[float] = []

    def value_db(self, tick: int) -> float:
        if tick < 0:
            raise ValueError("tick must be non-negative")
        while len(self._values) <= tick:
            if not self._values:
                self._values.append(float(self._rng.normal(0.0, self._sigma)))
            else:
                innovation = self._rng.normal(0.0, self._sigma * math.sqrt(1 - self._rho ** 2))
                self._values.append(self._rho * self._values[-1] + float(innovation))
        return self._values[tick]


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
        self._fading: dict[tuple[str, int], _FadingProcess] = {}

    def _shadowing_for(self, cell: DeployedCell) -> ShadowingField:
        key = f"{cell.identity.rat.value}:{cell.identity.notation}"
        field = self._shadowing.get(key)
        if field is None:
            field = ShadowingField(self.seed, key, self.shadowing_sigma_db,
                                   self.shadowing_correlation_m)
            self._shadowing[key] = field
        return field

    def _fading_for(self, cell: DeployedCell, run_seed: int) -> _FadingProcess:
        key = (f"{cell.identity.rat.value}:{cell.identity.notation}", run_seed)
        process = self._fading.get(key)
        if process is None:
            fading_seed = stable_seed(self.seed, key[0], run_seed, "fading")
            process = _FadingProcess(fading_seed, self.fading_sigma_db)
            self._fading[key] = process
        return process

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

    def fading_db(self, cell: DeployedCell, run_seed: int, tick: int) -> float:
        """The AR(1) fast-fading term of one cell at one tick of one run."""
        return self._fading_for(cell, run_seed).value_db(tick)

    def fresh_fading_db(self, cell: DeployedCell, run_seed: int, tick: int,
                        label: str = "exec") -> float:
        """An independent fading draw, for execution-time re-sampling.

        Command execution (SCell modification, handover random access)
        happens a few hundred milliseconds after the measurement that
        triggered it; this returns a fresh draw uncorrelated with the
        tick's reported value, deterministically from the label.
        """
        cell_key = f"{cell.identity.rat.value}:{cell.identity.notation}"
        seed = stable_seed(self.seed, cell_key, run_seed, tick, label)
        return float(np.random.RandomState(seed).normal(0.0, self.fading_sigma_db))

    def rsrp_dbm(self, cell: DeployedCell, point: Point, tick: int, run_seed: int) -> float:
        """Instantaneous RSRP at an integer tick (1 Hz) of one run."""
        fading = self._fading_for(cell, run_seed).value_db(tick)
        return self.mean_rsrp_dbm(cell, point) + fading

    def rsrq_db(self, rsrp_dbm: float, interference_margin_db: float = 0.0) -> float:
        """Map RSRP to an RSRQ value.

        RSRQ in a loaded network degrades roughly linearly as RSRP
        approaches the noise floor; we use a piecewise-linear map
        calibrated to the paper's reported pairs (RSRP -82 / RSRQ -10.5;
        RSRP -108.5 / RSRQ -25.5 in Figure 28), clamped to [-30, -5] dB.
        """
        anchor_good = (-82.0, -10.5)
        anchor_poor = (-108.5, -25.5)
        slope = (anchor_poor[1] - anchor_good[1]) / (anchor_poor[0] - anchor_good[0])
        rsrq = anchor_good[1] + slope * (rsrp_dbm - anchor_good[0]) - interference_margin_db
        return float(min(max(rsrq, -30.0), -5.0))

    def is_measurable(self, rsrp_dbm: float) -> bool:
        """Whether the UE can measure a cell at all (above the noise floor)."""
        return rsrp_dbm > self.noise_floor_dbm
