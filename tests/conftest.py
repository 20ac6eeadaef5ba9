import contextlib
import io
from collections import namedtuple

import numpy as np
import pytest

from rieszvar import ScoredCandidates, build_grid, sample_catalog
from rieszvar.cli import main


@pytest.fixture
def unit_grid():
    """[0, 1] with h = 1/256."""
    return build_grid(1, [0.0], 1 / 256, [257])


@pytest.fixture
def fine_unit_grid():
    """[0, 1] with h = 1/1024."""
    return build_grid(1, [0.0], 1 / 1024, [1025])


@pytest.fixture
def symmetric_grid():
    """[-1, 1] with h = 2/2047 (no node at the origin)."""
    return build_grid(1, [-1.0], 2 / 2047, [2048])


def unit_disk(h):
    """2D grid on [-1, 1]^2 with spacing h, masked to the open unit disk."""
    n = int(round(2.0 / h)) + 1
    return build_grid(
        2, [-1.0, -1.0], h, [n, n],
        lambda pts: np.linalg.norm(pts, axis=-1) < 1.0,
    )


@pytest.fixture
def disk_grid():
    """2D grid on [-1, 1]^2 with h = 0.1 masked to the open unit disk."""
    return unit_disk(0.1)


def linear(grid, slope=1.0, intercept=0.0):
    return sample_catalog(grid, "linear", {"slope": slope, "intercept": intercept})


def const_weight(grid, value=1.0):
    return sample_catalog(grid, "constant", {"value": value})


def scored_set(entries):
    """ScoredCandidates from (center, radius, score) triples; osc and mass are 1."""
    ones = np.ones(len(entries))
    return ScoredCandidates([np.atleast_1d(c) for c, _, _ in entries],
                            [r for _, r, _ in entries], ones, ones,
                            [s for _, _, s in entries])


BallScore = namedtuple("BallScore", "ball oscillation weight_mass score")


def ball_scores(scored):
    """Every candidate of a ScoredCandidates as a per-ball record, in order."""
    return [BallScore(scored.ball(i), float(scored.oscillation[i]),
                      float(scored.weight_mass[i]), float(scored.score[i]))
            for i in range(len(scored))]


def as_balls(candidates):
    """Every candidate of a CandidateSet as a Ball, in order."""
    return [candidates.ball(i) for i in range(len(candidates))]


CliResult = namedtuple("CliResult", "exit_code output exception")


def run_cli(args):
    """``toolkit *args`` in process, with stdout and stderr captured together.

    argparse's ``SystemExit`` becomes the exit code; any other exception is
    returned with exit code 1.
    """
    output, exception = io.StringIO(), None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            code = main(args)
        except SystemExit as exc:
            code, exception = exc.code, exc
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, output.getvalue(), exception)
