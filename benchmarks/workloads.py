"""Workloads of the flexbid benchmark: their cases, anchors and signal plans.

This module is plain data and imports nothing from flexbid, so that the
set-up probe can time ``import flexbid`` itself.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED = SRC / "flexbid" / "configs"
LOCAL = HERE / "configs"

#: relative tolerance of the gamma anchors; refinement lowers the optimum
#: by its 1e-7 relative objective floor, so this leaves a factor 10
GAMMA_RTOL = 1e-6
#: relative tolerance of the required-ramp anchors
RAMP_RTOL = 1e-5
#: inflation of the certified capacity in the controls that must fail
CONTROL_SCALE = 1.01
#: verifier tolerance, as in acceptance criterion 6
CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    """One config: solved, gated against its anchors, then certified.

    ``gamma`` and ``ramp`` are anchors in kW and kW/s, checked at
    GAMMA_RTOL and RAMP_RTOL.  ``gamma_pct`` is an anchor in percent of
    rated power with an absolute tolerance in percentage points.
    ``random_signals`` is the number of seeded random signals certified
    per operation, on top of the five fixed criterion-6 signals.
    """

    name: str
    config: pathlib.Path
    random_signals: int
    gamma: float | None = None
    ramp: float | None = None
    gamma_pct: tuple[float, float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]


# The 8 h cut keeps one epigraph column per masked policy entry at ~4 s a
# case; the full-day configs take ~155 s each.  The anchors were recorded
# from the seed code.
ADJUSTABLE_STUDY = Workload(
    name="adjustable_study",
    cases=(
        Case("lead1h", LOCAL / "powerwall_8h_lead1h.cfg", random_signals=24,
             gamma=2.7966098898305107, ramp=5.600564411246202),
        Case("lead30min", LOCAL / "powerwall_8h_lead30min.cfg", random_signals=24,
             gamma=2.8688521721311497, ramp=5.744808168271862),
        Case("lead15min", LOCAL / "powerwall_8h_lead15min.cfg", random_signals=24,
             gamma=2.903225516129034, ramp=5.813440278537638),
    ),
)

# Criterion 4: (buffer / 2) / horizon for one and two days, 0.89 % of
# rated power for seven.
FIXED_HORIZONS = Workload(
    name="fixed_horizons",
    cases=(
        Case("1day", SHIPPED / "powerwall_1day.cfg", random_signals=6, gamma=7.5 / 24),
        Case("2day", SHIPPED / "powerwall_2day.cfg", random_signals=6, gamma=7.5 / 48),
        Case("7day", SHIPPED / "powerwall_7day.cfg", random_signals=6,
             gamma_pct=(0.89, 0.02)),
    ),
)

# Criterion 6 certifies 5 fixed plus 995 random signals; one ramped
# operation keeps that mix at a tenth of the size.  The held reference runs
# a per-instant eval_reference loop, ~10x slower, so it gets a smaller set.
CERTIFY_DAY = Workload(
    name="certify_day",
    cases=(
        Case("ramped", SHIPPED / "powerwall_1day.cfg", random_signals=95, gamma=7.5 / 24),
        Case("held", LOCAL / "powerwall_1day_held.cfg", random_signals=5, gamma=7.5 / 24),
    ),
)

WORKLOADS = {w.name: w for w in (ADJUSTABLE_STUDY, FIXED_HORIZONS, CERTIFY_DAY)}
