"""Byte-for-byte CLI output on a fixed corpus of invocations.

Each entry of ``CORPUS`` runs ``main(argv)`` in-process; its stdout, exit
code and any file it writes must match the section of
``tests/data/cli_golden.txt`` headed by the same command line.  The corpus
covers every subcommand and the kernels riesz:1, riesz:2, riesz:4, log and
power:0.5, on seeded random and equally spaced configurations.

After an intended change of output, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from circlepol.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

# where a template names a file in the per-run directory
DIR = "{dir}/"

CORPUS = [
    ("polarization", "--kernel", "riesz:1", "--config", DIR + "rand5.json"),
    ("polarization", "--kernel", "riesz:2", "--config", DIR + "rand8.json"),
    ("polarization", "--kernel", "riesz:4", "--config", DIR + "rand13.json"),
    ("polarization", "--kernel", "log", "--config", DIR + "rand3.json"),
    ("polarization", "--kernel", "power:0.5", "--config", DIR + "rand8.json"),
    ("polarization", "--kernel", "riesz:2", "--config", DIR + "rand6.csv",
     "--units", "turns"),
    ("polarization", "--kernel", "riesz:4", "--equally-spaced", "32"),
    ("polarization", "--kernel", "log", "--equally-spaced", "7"),
    ("polarization", "--kernel", "power:0.5", "--equally-spaced", "16"),
    ("polarization", "--kernel", "riesz:1", "--equally-spaced", "1"),
    ("profile", "--kernel", "riesz:2", "--config", DIR + "rand5.json",
     "--resolution", "24"),
    ("profile", "--kernel", "log", "--equally-spaced", "4", "--resolution", "16"),
    ("profile", "--kernel", "power:0.5", "--config", DIR + "rand3.json",
     "--resolution", "12"),
    ("optimize", "--kernel", "log", "--n", "3", "--restarts", "2",
     "--max-iters", "300"),
    ("optimize", "--kernel", "riesz:2", "--n", "2", "--restarts", "2",
     "--max-iters", "300", "--seed", "3"),
    ("optimize", "--kernel", "riesz:1", "--n", "1", "--restarts", "2",
     "--max-iters", "300"),
    ("optimize", "--kernel", "power:0.5", "--n", "2", "--restarts", "2",
     "--max-iters", "300"),
    ("transport", "--source", DIR + "rand5.json", "--target", DIR + "equal5.json"),
    ("transport", "--source", DIR + "rand8.json", "--target", DIR + "equal8.json",
     "--kernel", "riesz:2", "--min-curve", DIR + "curve.csv", "--grid", "11"),
    ("transport", "--source", DIR + "rand3.json", "--target", DIR + "rand3b.json",
     "--kernel", "log", "--min-curve", DIR + "curve.csv", "--grid", "5"),
    ("exact", "--m", "1"),
    ("exact", "--m", "3", "--json"),
    ("exact", "--m", "4"),
    ("asympt", "--s", "2", "--n", "1,2,8,32"),
    ("asympt", "--s", "1", "--n", "4,16"),
    ("asympt", "--s", "0.5", "--n", "3,9"),
    ("energy", "--s", "2", "--n", "1,2,5,12"),
    ("energy", "--s", "1.5", "--n", "3,7"),
    ("check", "--kernel", "riesz:2", "--pair", "0,1,0.1", "--pair", "1,1,0.2",
     "--samples", "200"),
    ("check", "--kernel", "log", "--pair", "0.5,3,0.3", "--samples", "100"),
    ("check", "--kernel", "power:0.5", "--pair", "2,5,0.25", "--samples", "50"),
]


def _random_angles(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    gaps = rng.dirichlet(np.ones(n)) * (2.0 * math.pi)
    anchor = rng.uniform(0.0, 2.0 * math.pi)
    return [float(a) for a in anchor + np.concatenate(([0.0], np.cumsum(gaps[:-1])))]


def write_inputs(directory: Path) -> None:
    """Configuration files the corpus reads, identical on every run."""
    for name, seed, n in (("rand3", 3, 3), ("rand3b", 33, 3), ("rand5", 5, 5),
                          ("rand8", 8, 8), ("rand13", 13, 13)):
        (directory / f"{name}.json").write_text(json.dumps(_random_angles(seed, n)))
    turns = [a / (2.0 * math.pi) for a in _random_angles(6, 6)]
    (directory / "rand6.csv").write_text("".join(f"{t!r}\n" for t in turns))
    for n in (5, 8):
        angles = [2.0 * math.pi * k / n for k in range(n)]
        (directory / f"equal{n}.json").write_text(json.dumps(angles))


def header(template) -> str:
    return "$ circlepol " + " ".join(arg.replace(DIR, "") for arg in template)


def render(template, directory: Path) -> str:
    """Header, stdout, exit code and written CSV of one invocation."""
    argv = [arg.replace(DIR, f"{directory}/") for arg in template]
    curve = directory / "curve.csv"
    curve.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    text = f"{header(template)}\n{out.getvalue()}[exit {code}]\n"
    if curve.exists():
        text += "--- curve.csv\n" + curve.read_text()
    return text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    """Sections of the golden file, keyed by their header line."""
    chunks = re.split(r"(?m)^(?=\$ circlepol )", GOLDEN.read_text())
    return {chunk.split("\n", 1)[0]: chunk for chunk in chunks if chunk}


@pytest.mark.parametrize("template", CORPUS, ids=header)
def test_cli_output_matches_golden(template, inputs, golden):
    assert render(template, inputs) == golden[header(template)]


def test_golden_covers_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(header(t) for t in CORPUS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("".join(render(t, directory) for t in CORPUS))
    print(f"wrote {GOLDEN}", file=sys.stderr)
