"""Section 6: predicting S1 loop probability from RSRP features.

The paper's model, reproduced exactly:

* For each possible cell-set combination *i* at a location, the usage
  ratio is a logistic function of the PCell RSRP gap
  (Figure 21b, F17)::

      u_i = 1 / (1 + exp(-k * gap_P_i))

* The S1E3 loop probability given that combination decays with the
  RSRP gap between the two target (intra-channel) SCells
  (Figure 21a, F16)::

      p_i = max((1 - gap_S_i / t), 0) ** n

* The location's loop probability is ``P = sum_i u_i * p_i``.

``k``, ``t`` and ``n`` are learned by minimising the mean squared error
against loop probabilities measured in the fine-grained (dense) spatial
campaign; the fitted model then predicts the probability at the sparse
reality-check locations (Figure 22).

For S1E1/S1E2 the SCell-gap feature is replaced by the RSRP of the
*worst* serving SCell (the "bad apple"), with a logistic response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import optimize

from repro.cells.cell import Rat

if TYPE_CHECKING:
    # The analysis library must not import the simulator at load time:
    # radio.propagation seeds from repro.core.seeding, so importing
    # radio/rrc here would make ``import repro.radio`` circular.
    from repro.radio.environment import RadioEnvironment
    from repro.radio.geometry import Point
    from repro.rrc.capabilities import DeviceCapabilities
    from repro.rrc.policies import OperatorPolicy

#: Feature value used when a combination has no competing cell at all.
NO_COMPETITOR_GAP_DB = 40.0


@dataclass(frozen=True)
class LocationFeatures:
    """RSRP features of one cell-set combination at one location.

    ``site_pci`` identifies the candidate PCell site the combination
    belongs to (one combination per site, F17).
    """

    pcell_gap_db: float
    scell_gap_db: float
    worst_scell_rsrp_dbm: float
    site_pci: int = -1


def logistic_usage(pcell_gap_db: float, k: float) -> float:
    """u_i = 1 / (1 + exp(-k * gap))."""
    return 1.0 / (1.0 + math.exp(-k * pcell_gap_db))


def s1e3_probability(scell_gap_db: float, t: float, n: float) -> float:
    """p_i = max((1 - gap / t), 0) ** n."""
    base = max(1.0 - scell_gap_db / t, 0.0)
    return base ** n


def s1e12_probability(worst_scell_rsrp_dbm: float, centre_dbm: float,
                      scale_db: float) -> float:
    """Logistic response in the worst SCell's RSRP (weaker -> likelier)."""
    return 1.0 / (1.0 + math.exp((worst_scell_rsrp_dbm - centre_dbm)
                                 / max(scale_db, 1e-6)))


@dataclass
class S1LoopPredictor:
    """Fitted parameters of the section-6 model."""

    k: float = 0.3
    t: float = 12.0
    n: float = 2.0
    e12_centre_dbm: float = -108.0
    e12_scale_db: float = 4.0
    include_e12: bool = False

    def combination_probability(self, features: LocationFeatures) -> float:
        p = s1e3_probability(features.scell_gap_db, self.t, self.n)
        if self.include_e12:
            p_e12 = s1e12_probability(features.worst_scell_rsrp_dbm,
                                      self.e12_centre_dbm, self.e12_scale_db)
            p = 1.0 - (1.0 - p) * (1.0 - p_e12)
        return p

    def predict(self, combinations: list[LocationFeatures]) -> float:
        """P = sum_i u_i p_i, with usage ratios normalised if they exceed 1."""
        if not combinations:
            return 0.0
        usages = [logistic_usage(c.pcell_gap_db, self.k) for c in combinations]
        total_usage = sum(usages)
        if total_usage > 1.0:
            usages = [u / total_usage for u in usages]
        probability = sum(u * self.combination_probability(c)
                          for u, c in zip(usages, combinations))
        return float(min(max(probability, 0.0), 1.0))


def extract_location_features(
    environment: RadioEnvironment,
    policy: OperatorPolicy,
    device: DeviceCapabilities,
    point: Point,
    fragile_channel: int,
) -> list[LocationFeatures]:
    """Build the per-combination features at one location.

    A combination is one choice of target PCell; the SCells it implies
    are the blind-addition set the network would configure (F17: the
    target SCells are used iff the target PCell is used).
    """
    from repro.rrc.network import SaNetworkLogic

    propagation = environment.propagation
    network = SaNetworkLogic(environment, policy)

    # One combination per candidate *site* (cells sharing a PCI are
    # co-sited twins and imply the same blind SCell set, F17): the
    # combination's PCell is the site's strongest PCell-channel cell.
    best_per_site: dict[int, tuple[float, object]] = {}
    for channel in policy.sa_pcell_channels:
        for cell in environment.cells_on_channel(channel, Rat.NR):
            mean = propagation.mean_rsrp_dbm(cell, point)
            if mean <= policy.selection_threshold_dbm:
                continue
            current = best_per_site.get(cell.pci)
            if current is None or mean > current[0]:
                best_per_site[cell.pci] = (mean, cell)
    candidates = sorted(best_per_site.values(), key=lambda pair: pair[0],
                        reverse=True)[:4]
    if not candidates:
        return []

    features: list[LocationFeatures] = []
    for mean, cell in candidates:
        others = [other_mean for other_mean, other in candidates if other is not cell]
        pcell_gap = mean - max(others) if others else NO_COMPETITOR_GAP_DB

        scells = network.blind_scell_set(cell.identity, device)
        fragile_serving = [identity for identity in scells
                           if identity.channel == fragile_channel]
        if fragile_serving:
            serving = fragile_serving[0]
            serving_mean = propagation.mean_rsrp_dbm(environment.cell(serving), point)
            rivals = [propagation.mean_rsrp_dbm(rival, point)
                      for rival in environment.cells_on_channel(fragile_channel, Rat.NR)
                      if rival.identity != serving]
            scell_gap = (abs(serving_mean - max(rivals)) if rivals
                         else NO_COMPETITOR_GAP_DB)
        else:
            scell_gap = NO_COMPETITOR_GAP_DB

        if scells:
            worst = min(propagation.mean_rsrp_dbm(environment.cell(identity), point)
                        for identity in scells)
        else:
            worst = 0.0
        features.append(LocationFeatures(pcell_gap_db=pcell_gap,
                                         scell_gap_db=scell_gap,
                                         worst_scell_rsrp_dbm=worst,
                                         site_pci=cell.pci))
    return features


def fit_s1e3_model(
    feature_sets: list[list[LocationFeatures]],
    observed_probabilities: list[float],
    include_e12: bool = False,
) -> S1LoopPredictor:
    """Fit (k, t, n) — and the E1/E2 response if requested — by MSE.

    Parameters are optimised in log space to enforce positivity, with
    Nelder-Mead (the problem is tiny: 3-5 parameters, tens of points).
    """
    if len(feature_sets) != len(observed_probabilities):
        raise ValueError("feature sets and observations must align")
    if not feature_sets:
        raise ValueError("need at least one training location")

    targets = np.asarray(observed_probabilities, dtype=float)

    def build(params: np.ndarray) -> S1LoopPredictor:
        k = math.exp(params[0])
        t = math.exp(params[1])
        n = math.exp(params[2])
        predictor = S1LoopPredictor(k=k, t=t, n=n, include_e12=include_e12)
        if include_e12:
            predictor.e12_centre_dbm = params[3]
            predictor.e12_scale_db = math.exp(params[4])
        return predictor

    base_initial = (math.log(0.3), math.log(12.0), math.log(2.0))

    def loss(params: np.ndarray) -> float:
        predictor = build(params)
        predictions = np.array([predictor.predict(features)
                                for features in feature_sets])
        mse = float(np.mean((predictions - targets) ** 2))
        # Mild regularisation keeps (t, n) identifiable: without it only
        # the ratio n/t matters once the curve degenerates to an
        # exponential, and the optimiser wanders off to huge values.
        penalty = 1e-4 * float(np.sum((params[:3] - np.asarray(base_initial)) ** 2))
        return mse + penalty

    initial = list(base_initial)
    if include_e12:
        initial += [-106.0, math.log(4.0)]
    result = optimize.minimize(loss, np.asarray(initial), method="Nelder-Mead",
                               options={"maxiter": 4000, "xatol": 1e-4,
                                        "fatol": 1e-7})
    return build(result.x)
