"""Table 1: programmatic checks of the paper's eighteen findings.

Each checker evaluates one finding (F1..F18) against campaign results
and returns a :class:`FindingResult` with a verdict and one line of
evidence — turning the paper's qualitative summary table into an
executable artifact.  Findings that need extra inputs (device matrices,
the dense spatial study) accept them as optional arguments and report
``checked=False`` when the input is missing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaign.dataset import CampaignResult
from repro.core.channels import channel_usage_breakdown, scell_mod_failure_ratios
from repro.core.classify import LoopSubtype
from repro.core.loops import LoopKind


@dataclass(frozen=True)
class FindingResult:
    """Outcome of checking one paper finding."""

    finding: str
    description: str
    holds: bool
    evidence: str
    checked: bool = True


def check_f1(result: CampaignResult) -> FindingResult:
    """F1: loops occur often and are mostly persistent."""
    ratios = [result.for_operator(op).loop_ratio() for op in result.operators]
    loop_runs = [run for run in result.runs if run.has_loop]
    persistent = sum(1 for run in loop_runs
                     if run.analysis.loop_kind is LoopKind.PERSISTENT)
    share = persistent / len(loop_runs) if loop_runs else 0.0
    holds = bool(ratios) and min(ratios) > 0.2 and share > 0.5
    return FindingResult(
        "F1", "5G ON-OFF loops are common and mostly persistent", holds,
        f"loop ratios {[f'{r:.0%}' for r in ratios]}, "
        f"persistent share {share:.0%}")


def check_f2(result: CampaignResult) -> FindingResult:
    """F2: loops observed widely, across all operators and areas."""
    areas_with_loops = sum(
        1 for area in result.areas if result.for_area(area).loop_ratio() > 0)
    holds = areas_with_loops >= max(len(result.areas) - 1, 1)
    return FindingResult(
        "F2", "Loops observed widely across areas and operators", holds,
        f"loops in {areas_with_loops}/{len(result.areas)} areas")


def check_f3(result: CampaignResult) -> FindingResult:
    """F3: loops cycle every tens of seconds with noticeable OFF share."""
    cycles = result.all_cycles()
    if not cycles:
        return FindingResult("F3", "Frequent cycles with noticeable OFF time",
                             False, "no cycles", checked=False)
    median_cycle = float(np.median([c.cycle_s for c in cycles]))
    median_ratio = float(np.median([c.off_ratio for c in cycles]))
    holds = 5.0 < median_cycle < 150.0 and median_ratio > 0.03
    return FindingResult(
        "F3", "Frequent cycles with noticeable OFF time", holds,
        f"median cycle {median_cycle:.0f}s, median OFF share {median_ratio:.0%}")


def check_f4(result: CampaignResult) -> FindingResult:
    """F4: 5G OFF hurts speed; operator-specific severity (OP_T worst)."""
    losses = {}
    for op in result.operators:
        values = [run.analysis.performance.median_speed_loss_mbps
                  for run in result.for_operator(op).runs if run.has_loop]
        if values:
            losses[op] = float(np.median(values))
    holds = bool(losses) and ("OP_T" not in losses
                              or losses["OP_T"] == max(losses.values()))
    evidence = ", ".join(f"{op} {value:.0f} Mbps"
                         for op, value in sorted(losses.items()))
    return FindingResult("F4", "OFF periods cost throughput, worst for OP_T",
                         holds, f"median losses: {evidence}")


def check_f5(device_matrix: dict[str, dict[str, CampaignResult]] | None
             ) -> FindingResult:
    """F5: NSA loops across (almost) all phone models."""
    if not device_matrix:
        return FindingResult("F5", "NSA loops across phone models", False,
                             "device matrix not provided", checked=False)
    ok = True
    for op in ("OP_A", "OP_V"):
        for device_name, result in device_matrix.get(op, {}).items():
            if op == "OP_A" and device_name == "OnePlus 10 Pro":
                ok = ok and result.loop_ratio() == 0.0
            else:
                ok = ok and result.loop_ratio() > 0.0
    return FindingResult("F5", "NSA loops across phone models "
                         "(except 10 Pro on OP_A)", ok,
                         "per-device NSA loop ratios all positive")


def check_f6(device_matrix: dict[str, dict[str, CampaignResult]] | None
             ) -> FindingResult:
    """F6: SA loops only with the OnePlus 12R."""
    if not device_matrix or "OP_T" not in device_matrix:
        return FindingResult("F6", "SA loops only on OnePlus 12R", False,
                             "device matrix not provided", checked=False)
    per_device = device_matrix["OP_T"]
    ok = per_device.get("OnePlus 12R", CampaignResult()).loop_ratio() > 0.0
    for device_name, result in per_device.items():
        if device_name != "OnePlus 12R":
            ok = ok and result.loop_ratio() == 0.0
    return FindingResult("F6", "SA loops only on OnePlus 12R", ok,
                         "12R loops; all other models at 0%")


def check_f7(result: CampaignResult) -> FindingResult:
    """F7: three loop types — S1 over SA, N1/N2 over NSA."""
    sa_types = {run.analysis.subtype.loop_type
                for run in result.for_operator("OP_T").runs if run.has_loop}
    nsa_types = set()
    for op in ("OP_A", "OP_V"):
        nsa_types |= {run.analysis.subtype.loop_type
                      for run in result.for_operator(op).runs if run.has_loop}
    # The split must be clean, and at least one loop must exist to check.
    holds = sa_types <= {"S1"} and nsa_types <= {"N1", "N2"} \
        and bool(sa_types or nsa_types)
    return FindingResult("F7", "S1 over SA; N1/N2 over NSA", holds,
                         f"SA types {sorted(sa_types)}, "
                         f"NSA types {sorted(nsa_types)}")


def check_f9(result: CampaignResult) -> FindingResult:
    """F9: S1 releases pivot on one/few bad-apple SCells."""
    pivots = 0
    s1_transitions = 0
    for run in result.for_operator("OP_T").runs:
        for transition in run.analysis.transitions:
            if transition.subtype.loop_type == "S1":
                s1_transitions += 1
                if transition.problem_cell is not None:
                    pivots += 1
    holds = s1_transitions > 0 and pivots / max(s1_transitions, 1) > 0.8
    return FindingResult("F9", "A few bad-apple SCells ruin the whole MCG",
                         holds,
                         f"{pivots}/{s1_transitions} S1 releases pivot on an "
                         f"identified SCell")


def check_f12(result: CampaignResult) -> FindingResult:
    """F12: the legacy A2-B1 loop of prior work is not observed."""
    legacy = sum(1 for run in result.runs if run.has_loop
                 and run.analysis.subtype is LoopSubtype.N2_A2B1)
    return FindingResult("F12", "Prior-work A2-B1 loops absent",
                         legacy == 0, f"{legacy} A2-B1 loop runs")


def check_f13(result: CampaignResult) -> FindingResult:
    """F13: S1E3 dominant over SA; N2 dominant over NSA."""
    op_t = result.for_operator("OP_T").subtype_breakdown()
    s1e3_max = bool(op_t) and op_t.get(LoopSubtype.S1E3, 0.0) == \
        max(op_t.values())
    n2_ok = True
    for op in ("OP_A", "OP_V"):
        breakdown = result.for_operator(op).subtype_breakdown()
        if breakdown:
            n2 = sum(share for subtype, share in breakdown.items()
                     if subtype.loop_type == "N2")
            n2_ok = n2_ok and n2 > 0.5
    return FindingResult("F13", "S1E3 dominant for SA; N2 for NSA",
                         s1e3_max and n2_ok,
                         f"OP_T S1E3 share "
                         f"{op_t.get(LoopSubtype.S1E3, 0.0):.0%}")


def check_f14(result: CampaignResult) -> FindingResult:
    """F14: one problem channel per operator dominates its loops."""
    usage = channel_usage_breakdown(result.for_operator("OP_T").analyses)
    dominant = usage.get("loop", {}).get(387410, 0.0)
    baseline = usage.get("no-loop", {}).get(387410, 0.0)
    failures = scell_mod_failure_ratios(result.for_operator("OP_T").analyses)
    problem_ratio = failures.get(387410)
    holds = dominant > baseline and problem_ratio is not None \
        and problem_ratio.failure_ratio > 0.05
    return FindingResult(
        "F14", "Problem channel 387410 dominates OP_T loops", holds,
        f"loop usage {dominant:.0%} vs no-loop {baseline:.0%}; "
        f"mod-failure {problem_ratio.failure_ratio:.0%}" if problem_ratio
        else "no modification attempts")


def check_f15(result: CampaignResult) -> FindingResult:
    """F15: OP_V's SCG recovery is far slower than OP_A's."""
    delays = {}
    for op in ("OP_A", "OP_V"):
        values = []
        for run in result.for_operator(op).runs:
            values.extend(run.analysis.scg_meas_delays)
        if values:
            delays[op] = float(np.median(values))
    holds = "OP_A" in delays and "OP_V" in delays \
        and delays["OP_V"] > 3 * delays["OP_A"]
    evidence = ", ".join(f"{op} median {value:.1f}s"
                         for op, value in sorted(delays.items()))
    return FindingResult("F15", "OP_V's 30s-broadcast policy delays 5G "
                         "recovery", holds, evidence or "no SCG failures",
                         checked=bool(delays))


def check_all(result: CampaignResult,
              device_matrix: dict[str, dict[str, CampaignResult]] | None = None,
              ) -> list[FindingResult]:
    """Evaluate every checkable finding; Table 1 as code."""
    return [
        check_f1(result),
        check_f2(result),
        check_f3(result),
        check_f4(result),
        check_f5(device_matrix),
        check_f6(device_matrix),
        check_f7(result),
        check_f9(result),
        check_f12(result),
        check_f13(result),
        check_f14(result),
        check_f15(result),
    ]
