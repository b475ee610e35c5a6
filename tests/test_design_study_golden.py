"""The design study's bits, pinned at three points of the design region.

A design study is what one op of the benchmark's ``design_scan`` runs:
walk-offs from the bundled BBO Sellmeier data at a pump wavelength and
cut angle with 3.5 deg cones, then at a pump waist r_p and crystal
length L one ``efficiency_curve`` (50 lengths x ``DEFAULT_MU_VALUES``),
one ``maximize_eta`` over xi on [0.1, 10] and one ``ceiling_scan`` over
10 lengths.  ``tests/data/golden_design_study.json`` holds the ``repr``
of every eta, of the optimum's argmax, eta_max and bracket, its
iteration count and the ceiling's etas, so a change to how the study
checks or builds its values cannot move a bit unnoticed (the other
goldens hold 9 digits).  Regenerate it, only where a change of the
numbers is intended, with

    PYTHONPATH=src python tests/test_design_study_golden.py \
        > tests/data/golden_design_study.json
"""

import json
import math
import sys
from pathlib import Path

import pytest

from spdcfc import (DEFAULT_MU_VALUES, ExperimentConfig, PhaseMatchGeometry,
                    SweepSpec, build_walkoff_set, bundled_bbo, ceiling_scan,
                    efficiency_curve, maximize_eta)

GOLDEN = Path(__file__).parent / "data" / "golden_design_study.json"

# (pump wavelength um, cut angle deg, r_p um, L um): two corners and the
# middle of the benchmark's design ranges
POINTS = ((0.405, 41.5, 30.0, 500.0),
          (0.4125, 42.75, 75.0, 2750.0),
          (0.42, 44.0, 120.0, 5000.0))
CONE_DEG = 3.5
W_UM, MU = 1.48, 49.0


def study(point) -> dict:
    pump_um, cut_deg, rp, length = point
    walkoffs = build_walkoff_set(bundled_bbo(), PhaseMatchGeometry.degenerate(
        pump_wavelength=pump_um, cut_angle=math.radians(cut_deg),
        external_cone_angle=math.radians(CONE_DEG)))
    base = ExperimentConfig(length, rp, W_UM, MU, walkoffs)
    curve = efficiency_curve(SweepSpec(
        tuple(length * k / 25 for k in range(1, 51)), DEFAULT_MU_VALUES, base))
    best = maximize_eta(base, "xi", (0.1, 10.0))
    ceiling = ceiling_scan(rp, walkoffs,
                           [length * k / 5 for k in range(1, 11)])
    return {"point": list(point),
            "etas": [repr(row.eta) for row in curve.rows],
            "argmax": repr(best.argmax),
            "eta_max": repr(best.eta_max),
            "bracket": repr(best.bracket),
            "iterations": best.iterations,
            "ceiling": [repr(eta) for _, eta in ceiling]}


@pytest.fixture(scope="module")
def golden() -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(POINTS)))
def test_design_study_keeps_its_bits(index, golden):
    assert golden[index]["point"] == list(POINTS[index])
    assert study(POINTS[index]) == golden[index]


if __name__ == "__main__":
    json.dump([study(p) for p in POINTS], sys.stdout, indent=1)
    sys.stdout.write("\n")
