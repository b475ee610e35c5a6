"""A Sellmeier file is refused unless both polarizations name the form
sellmeier-1, with one message that lists both forms as the file gives
them, whatever the interpreter's hash seed."""

import json
import os
import subprocess
import sys

import pytest

from spdcfc.cli import main

from test_number_rule import SELLMEIER_FILE

HASH_SEEDS = ["0", "1", "2", "3", "7", "13", "29"]


def sellmeier_file(tmp_path, ordinary_form, extraordinary_form) -> str:
    doc = json.loads(SELLMEIER_FILE.read_text(encoding="utf-8"))
    doc["ordinary"]["form"] = ordinary_form
    doc["extraordinary"]["form"] = extraordinary_form
    path = tmp_path / "sellmeier.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("forms, shown", [
    ((None, "sellmeier-1"), "[None, 'sellmeier-1']"),
    (("sellmeier-1", 1), "['sellmeier-1', 1]"),
    ((None, None), "[None, None]"),
], ids=["null", "one", "both-null"])
def test_non_text_form_message_does_not_depend_on_hash_seed(forms, shown,
                                                            tmp_path):
    path = sellmeier_file(tmp_path, *forms)
    runs = [subprocess.run(
        [sys.executable, "-m", "spdcfc", "params", "--sellmeier", path],
        env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True,
        text=True) for seed in HASH_SEEDS]
    assert {run.returncode for run in runs} == {2}
    assert {run.stdout for run in runs} == {""}
    assert {run.stderr for run in runs} == {
        f"usage error: bad Sellmeier file: {path}: unsupported dispersion "
        f"forms {shown}\n"}


@pytest.mark.parametrize("forms, shown", [
    (("other", "other"), "['other', 'other']"),
    (("sellmeier-1", "other"), "['sellmeier-1', 'other']"),
], ids=["other", "two-forms"])
def test_text_forms_other_than_sellmeier_1_are_refused(forms, shown,
                                                       tmp_path, capsys):
    path = sellmeier_file(tmp_path, *forms)
    assert main(["params", "--sellmeier", path]) == 2
    assert capsys.readouterr().err == (
        f"usage error: bad Sellmeier file: {path}: unsupported dispersion "
        f"forms {shown}\n")
