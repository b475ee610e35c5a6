"""Each depth integral of the oracle on its own range [0, t], t <= L.

The pair density squared and each singles arm fall with birth depth as
a Gaussian exp(-g tau^2), so each integral is spent within sqrt(40 / g)
of the entry face, and the oracle's Gauss-Legendre rule for it spans
[0, min(L, sqrt(40 / g))] (`_depth_ranges`).  The tests check that the
cut loses nothing a rule on the whole crystal finds, that a cut made
too short is caught by the comparison with the closed form, that an
integral which does not decay keeps the whole crystal, and that the
ranges scale with the lengths.
"""

import math
from dataclasses import replace

import pytest

from spdcfc import ExperimentConfig, WalkOffSet, efficiency, eta_numeric
from spdcfc import oracle
from spdcfc.oracle import (_densities, _depth_ranges, _eta_on_grid,
                           _gauss_legendre, _gaussians)

from conftest import REFERENCE_WALKOFFS, reference_config

# configs with at least one range shorter than the crystal: the
# reference design at 30 mm (all three cut), a wide-domain point (the
# pair only) and a narrow mode in a long crystal (the pair and arm 1)
CUT = {
    "reference-30mm": reference_config(30000.0),
    "wide": ExperimentConfig(2e4, 300.0, 4.0, 20.0,
                             WalkOffSet(0.05, 0.12, 0.03)),
    "xi=0.2": ExperimentConfig(5000.0, 30.0, 1.48, 4.0, REFERENCE_WALKOFFS),
}
N_TRANS, EXTENT = 96, 6.0


def whole_crystal_level(cfg, n_tau):
    """A level with all three integrals on [0, L]: one row of depths,
    which the kernel applies to every block."""
    nodes, weights = _gauss_legendre(n_tau)
    taus = 0.5 * cfg.crystal_length * (nodes + 1.0)
    tau_w = 0.5 * cfg.crystal_length * weights
    pair, singles, idle = _densities(cfg, taus, N_TRANS, EXTENT)
    p12 = float((tau_w * pair ** 2).sum())
    p1, p2 = (tau_w * singles * idle).sum(axis=1).tolist()
    return p12 / math.sqrt(p1 * p2), p12, p1, p2


@pytest.fixture
def fresh_gaussians():
    # _gaussians keeps the last config's ranges: none may outlive a patch
    _gaussians.cache_clear()
    yield
    _gaussians.cache_clear()


@pytest.mark.parametrize("name", CUT)
def test_a_cut_level_agrees_with_a_whole_crystal_level(name):
    cfg = CUT[name]
    assert min(_depth_ranges(cfg)) < 0.6 * cfg.crystal_length  # the premise
    cut = _eta_on_grid(cfg, 64, N_TRANS, EXTENT)
    whole = whole_crystal_level(cfg, 256)
    # two rules on the same integrand differ by the rounding of their
    # exponents, ~1e-13 at these sizes; the cut adds nothing to it
    assert cut == pytest.approx(whole, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", CUT)
def test_what_a_cut_leaves_out_is_below_1e_15(name):
    # each integrand on [t, L], by its own 256-point rule, against the
    # integral the level keeps on [0, t]; a cut at exp(-30) instead of
    # exp(-40) would leave out ~1e-14
    cfg = CUT[name]
    length = cfg.crystal_length
    nodes, weights = _gauss_legendre(256)
    kept = _eta_on_grid(cfg, 64, N_TRANS, EXTENT)[1:]
    cut = 0
    for k, t in enumerate(_depth_ranges(cfg)):
        if t == length:
            continue
        cut += 1
        taus = t + 0.5 * (length - t) * (nodes + 1.0)
        pair, singles, idle = _densities(cfg, taus, N_TRANS, EXTENT)
        integrand = pair ** 2 if k == 0 else singles[k - 1] * idle
        left_out = float((0.5 * (length - t) * weights * integrand).sum())
        assert 0.0 <= left_out < 1e-15 * kept[k]
    assert cut


@pytest.mark.parametrize("k", range(3), ids=["pair", "arm1", "arm2"])
def test_a_range_cut_to_a_quarter_fails_the_check(k, monkeypatch,
                                                   fresh_gaussians):
    # g x 16: the integral then ends where its integrand is exp(-2.5) of
    # its entry value, and eta moves past the CLI's 1e-4 threshold
    cfg = CUT["reference-30mm"]
    closed = efficiency(cfg).eta
    assert abs(eta_numeric(cfg).eta_numeric - closed) <= 1e-12 * closed
    ranges = _depth_ranges(cfg)
    assert max(ranges) < cfg.crystal_length  # all three are cut
    short = tuple(t / 4.0 if j == k else t for j, t in enumerate(ranges))
    monkeypatch.setattr(oracle, "_depth_ranges", lambda c: short)
    _gaussians.cache_clear()
    assert abs(eta_numeric(cfg).eta_numeric - closed) > 1e-4 * closed


@pytest.mark.parametrize("walkoffs, whole", [
    ((0.0, 0.0, 0.0), (True, True, True)),
    # the pair's decay is 0 here, but its drift is not
    ((0.05, 0.05, 0.0), (False, False, True)),
    ((0.0, 0.05, 0.0), (False, True, False)),
], ids=["no-drift", "arm2-still", "arm1-still"])
@pytest.mark.parametrize("length", [1e6, 1e150])
def test_an_integral_without_drift_keeps_the_whole_crystal(walkoffs, whole,
                                                           length):
    cfg = ExperimentConfig(length, 53.0, 1.48, 49.0, WalkOffSet(*walkoffs))
    assert tuple(t == length for t in _depth_ranges(cfg)) == whole
    assert all(0.0 < t <= length for t in _depth_ranges(cfg))


def test_a_level_without_drift_is_the_whole_crystal_level():
    cfg = replace(reference_config(3000.0),
                  walkoffs=WalkOffSet(0.0, 0.0, 0.0))
    got = _eta_on_grid(cfg, 16, N_TRANS, EXTENT)
    assert [v.hex() for v in got] == [
        v.hex() for v in whole_crystal_level(cfg, 16)]


@pytest.mark.parametrize("k", [-300, -60, -7, 1, 13, 60, 300])
@pytest.mark.parametrize("name", [*CUT, "reference-3mm"])
def test_ranges_scale_with_the_lengths(name, k):
    cfg = CUT.get(name) or reference_config(3000.0)
    s = 2.0 ** k
    scaled = replace(cfg, crystal_length=cfg.crystal_length * s,
                     pump_waist=cfg.pump_waist * s,
                     fiber_mode_radius=cfg.fiber_mode_radius * s)
    assert _depth_ranges(scaled) == tuple(t * s for t in _depth_ranges(cfg))
