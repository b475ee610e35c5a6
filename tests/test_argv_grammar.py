"""Seeded argv grammar: every command line ends in exit 0, 1 or 2, cleanly.

Draws command lines for all five subcommands from a fixed seed, with
adversarial numbers (zero, negatives, subnormals, huge values, NaN and
infinities) in every numeric flag and, in about a fifth of the
``--sellmeier`` draws, a Sellmeier file with a pole inside its range.
Each line runs in-process through ``cli.main``.  No exception may
escape; exit 0 writes at most one ``note:`` line on stderr, exit 1
exactly one ``error:`` line, and exit 2 either one ``usage error:`` line
or argparse's own usage block.
"""

import json
import random
import re

import pytest

from spdcfc.cli import SELLMEIER_PATH_ENV, main
from spdcfc.core import VARIABLES

SEED = 20261019
DRAWS_PER_COMMAND = 100

ADVERSARIAL = ["0", "-1", "1e-320", "1e-150", "1e-7", "1e150", "1e300",
               "nan", "inf", "-inf"]
# grid sizes stay small so that no draw allocates much
GRID_SIZES = ["0", "-1", "1", "2", "8", "16", "1.5", "nan", "1e3"]
# numeric flags a draw may add to its base line, with a sane value;
# params takes only the geometry ones
GEOMETRY = {"--pump-nm": "415", "--cut-angle-deg": "42.9",
            "--cone-angle-deg": "3.5"}
OPTIONAL = {"--mfd-um": "4.19", "--f-mm": "8", "--dbl-mm": "400", **GEOMETRY}

ARGPARSE_ERROR = re.compile(r"^spdcfc(?: \w+)?: error: ")


def pole_file(tmp_path) -> str:
    # bundled-like BBO data whose ordinary pole sits at 0.707 um
    doc = {"material": "pole", "citation": "",
           "ordinary": {"form": "sellmeier-1",
                        "coeffs": [2.7359, 0.01878, 0.5, 0.01354],
                        "range_um": [0.205, 1.06]},
           "extraordinary": {"form": "sellmeier-1",
                             "coeffs": [2.3753, 0.01224, 0.01667, 0.01516],
                             "range_um": [0.205, 1.06]}}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    return str(path)


def base(rng: random.Random, command: str, pole: str) -> list:
    # a line that runs at the reference design point, as [flag, value] pairs
    if rng.random() < 0.5:
        pairs = [["--Mp", "0.07631"], ["--M", "0.07243"], ["--QK", "0.036215"]]
    elif rng.random() < 0.2:
        pairs = [["--sellmeier", pole]]
    else:
        pairs = [["--sellmeier"]]
    if command == "params":
        return pairs
    pairs += [["--rp-um", "53"], ["--w-um", "1.48"]]
    if command == "sweep":
        pairs.append(["--L-range", "1:3:1"])
        if rng.random() < 0.5:
            pairs.append(["--mu", "25,49"])
        return pairs
    pairs += [["--L-mm", "3"], ["--mu", "49"]]
    if command == "optimize":
        pairs += [["--var", rng.choice(VARIABLES)], ["--bounds", "1:100"]]
    return pairs


def mutate(rng: random.Random, pairs: list, optional: dict) -> None:
    # one adversarial number in a present or an added flag, or a flag dropped
    if rng.random() < 0.1 and len(pairs) > 1:
        pairs.pop(rng.randrange(len(pairs)))
        return
    if rng.random() < 0.3:
        flag = rng.choice(list(optional))
        pairs.append([flag, optional[flag]])
    pair = rng.choice(pairs)
    if len(pair) == 1:  # a bare --sellmeier
        return
    if pair[0] in ("--n-tau", "--n-trans"):
        pair[1] = rng.choice(GRID_SIZES)
    elif pair[0] == "--var":
        pair[1] = rng.choice([*VARIABLES, "L"])
    elif pair[0] == "--sellmeier":
        pair[1] = rng.choice(ADVERSARIAL)  # a file that does not exist
    else:  # one part of a colon or comma list, or the whole number
        parts = re.split(r"([:,])", pair[1])
        parts[2 * rng.randrange(len(parts) // 2 + 1)] = rng.choice(ADVERSARIAL)
        pair[1] = "".join(parts)


def draw(rng: random.Random, command: str, pole: str) -> list:
    pairs = base(rng, command, pole)
    if command == "oracle" and rng.random() < 0.3:
        pairs += [["--n-tau", "8"], ["--n-trans", "16"]]
    for _ in range(rng.choice([0, 1, 1, 1, 2, 2, 3])):
        mutate(rng, pairs, GEOMETRY if command == "params" else OPTIONAL)
    if rng.random() < 0.3:
        pairs.append(["--format", "json"])
    rng.shuffle(pairs)
    return [command] + [token for pair in pairs for token in pair]


def problem(code, err: str):
    # None when the run ended as the CLI documents, else what went wrong
    lines = err.splitlines()
    if code == 0:  # optimize may note a maximum on the bracket boundary
        if err == "" or len(lines) == 1 and lines[0].startswith("note: "):
            return None
        return "stderr on success"
    if code == 1:
        if len(lines) == 1 and lines[0].startswith("error: "):
            return None
        return "exit 1 without exactly one error line"
    if code == 2:
        if len(lines) == 1 and lines[0].startswith("usage error: "):
            return None
        if (lines and lines[0].startswith("usage: spdcfc")
                and ARGPARSE_ERROR.match(lines[-1])):
            return None
        return "exit 2 without a usage error"
    return f"exit code {code!r}"


@pytest.mark.parametrize("index, command", enumerate(
    ["eval", "sweep", "optimize", "oracle", "params"]))
def test_every_argv_ends_in_a_documented_exit(index, command, capsys,
                                              monkeypatch, tmp_path):
    monkeypatch.delenv(SELLMEIER_PATH_ENV, raising=False)
    rng = random.Random(SEED + index)
    pole = pole_file(tmp_path)
    failures = []
    for _ in range(DRAWS_PER_COMMAND):
        argv = draw(rng, command, pole)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage failures
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is the finding
            capsys.readouterr()
            failures.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        _, err = capsys.readouterr()
        found = problem(code, err)
        if found is not None:
            failures.append((argv, found, err))
    assert failures == []
