"""A Sellmeier pole inside the validity range is refused when the model
is built.

n^2 = c0 + c1 / (lambda^2 - c2) - c3 lambda^2 has a pole at
lambda = sqrt(c2).  Inside the range it leaves n^2 undefined there, and
the exact index check needs lambda^2 - c2 of one sign on the range.
A pole anywhere in the range, its ends included, ends in one DomainError
that names the polarization and the pole.
"""

import json
import re

import pytest

from spdcfc import IndexModel, bundled_bbo, load_index_model
from spdcfc.errors import DomainError

from test_cli import run_cli

RANGE = (0.5, 1.0)
CALM = (2.5, 0.01, 0.01, 0.0)  # pole at 0.1 um, far below the range


def model(ordinary, extraordinary=CALM, range_um=RANGE) -> IndexModel:
    return IndexModel(material="test crystal", ordinary=ordinary,
                      extraordinary=extraordinary, range_um=range_um)


@pytest.mark.parametrize("ordinary, pole", [
    ((2.9, 0.01, 0.25, 0.0), "0.5000"),    # on a sample: was ZeroDivisionError
    ((2.9, 0.001, 0.2601, 0.0), "0.5100"),  # between samples: used to build
    ((2.9, 0.0, 0.36, 0.0), "0.6000"),     # c1 = 0: 0.0 / 0.0 on a sample
    ((2.9, 0.01, 1.0, 0.0), "1.0000"),     # at the upper end
], ids=["on-sample", "between-samples", "zero-c1", "upper-end"])
def test_ordinary_pole_in_range_is_a_domain_error(ordinary, pole):
    with pytest.raises(DomainError) as info:
        model(ordinary)
    assert str(info.value) == (f"test crystal: ordinary Sellmeier pole at "
                               f"{pole} um inside the range [0.5, 1.0]")


def test_extraordinary_pole_in_range_is_a_domain_error():
    with pytest.raises(DomainError,
                       match=r"^test crystal: extraordinary Sellmeier pole at "
                             r"0\.7000 um inside the range"):
        model((2.9, 0.01, 0.01, 0.0), extraordinary=(2.5, 0.01, 0.49, 0.0))


@pytest.mark.parametrize("c2", [0.2499, 1.5, 0.0, -0.3])
def test_pole_outside_the_range_still_builds(c2):
    built = model((2.9, 0.01, c2, 0.0))
    assert built.ordinary[2] == c2


def test_bundled_bbo_pole_lies_below_its_range():
    bbo = bundled_bbo()
    lo, _ = bbo.range_um
    assert bbo.ordinary[2] < lo * lo and bbo.extraordinary[2] < lo * lo


def pole_file(tmp_path, ordinary) -> str:
    doc = {"material": "test crystal", "citation": "none",
           "ordinary": {"form": "sellmeier-1", "coeffs": list(ordinary),
                        "range_um": list(RANGE)},
           "extraordinary": {"form": "sellmeier-1", "coeffs": list(CALM),
                             "range_um": list(RANGE)}}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_index_model_names_the_file(tmp_path):
    path = pole_file(tmp_path, (2.9, 0.01, 0.25, 0.0))
    with pytest.raises(DomainError, match=re.escape(
            f"{path}: test crystal: ordinary Sellmeier pole at 0.5000 um")):
        load_index_model(path)


@pytest.mark.parametrize("ordinary", [(2.9, 0.01, 0.25, 0.0),
                                      (2.9, 0.001, 0.2601, 0.0)],
                         ids=["on-sample", "between-samples"])
def test_params_with_a_pole_file_exits_2_with_one_line(ordinary, tmp_path,
                                                       capsys):
    path = pole_file(tmp_path, ordinary)
    code, out, err = run_cli(["params", "--sellmeier", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: bad Sellmeier file: {path}: "
                          "test crystal: ordinary Sellmeier pole at 0.5")
    assert err.count("\n") == 1
