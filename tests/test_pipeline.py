"""plan(): the one solve pipeline behind `bootplan solve`."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from bootplan import circuit as circuits
from bootplan.baselines import after_every_red, greedy_topological
from bootplan.circuit import eval_levels
from bootplan.exact import exact_bootstrap
from bootplan.generate import layered, red_chain
from bootplan.lp import solve_relaxation
from bootplan.pipeline import METHODS, plan
from bootplan.rounding import derandomized_round
from strategies import build

# The two golden circuits of test_acceptance_07 and their budgets.
SHARED_FAN_OUT = build(
    "wrbrr", (0, 1, 2), (1, 2, 2), (2, 3, 1), (1, 3, 1), (3, 4, 1), (2, 4, 1)
)
GOLDEN = [(SHARED_FAN_OUT, 1, frozenset({1, 3})), (red_chain(7), 3, frozenset({3, 6}))]


@pytest.mark.parametrize("circuit, level, rounded", GOLDEN, ids=["fan-out", "red-chain"])
def test_golden_marks_through_plan(circuit, level, rounded):
    direct = {
        "lp-round": derandomized_round(
            circuit, level, solve_relaxation(circuit, level).tables
        ).marks,
        "exact": exact_bootstrap(circuit, level).witness,
        "after-red": after_every_red(circuit),
        "greedy": greedy_topological(circuit, level),
    }
    assert set(direct) == set(METHODS)
    for method in METHODS:
        result = plan(circuit, level, method)
        assert result.marks == direct[method]
        assert result.verified
    assert plan(circuit, level).marks == rounded


def test_steps_that_ran_are_reported():
    circuit, level, _ = GOLDEN[1]
    by_lp = plan(circuit, level)
    assert by_lp.lp.objective == pytest.approx(2.0)
    assert by_lp.exact is None
    by_exact = plan(circuit, level, "exact")
    assert by_exact.exact.optimum == 2
    assert by_exact.lp is None and by_exact.rounding is None
    baseline = plan(circuit, level, "greedy")
    assert baseline.lp is None and baseline.rounding is None and baseline.exact is None


def test_lp_round_rounds_the_certified_table():
    circuit, level, _ = GOLDEN[1]
    result = plan(circuit, level)
    assert result.rounding == derandomized_round(circuit, level, result.lp.tables)


@pytest.mark.parametrize(
    "circuit", [red_chain(7), layered(6, 5, 0.5, 3), build("wwb", (0, 2, 1), (1, 2, 1))],
    ids=["red-chain", "layered", "no-red"],
)
def test_budgets_above_the_depth_plan_like_the_depth(circuit):
    # No interesting path exists at or above the unmarked circuit's highest
    # level, so a budget of 10**9 must solve at that level, not fill 10**9
    # rows of the length table.
    depth = max(1, max(eval_levels(circuit, frozenset())))
    assert plan(circuit, 10**9) == plan(circuit, depth)


def test_level_sweeps_are_looked_up_through_their_module():
    # Three sweeps reach wrappers on bootplan.circuit: the budget clamp's and
    # the ones inside rounding's check and plan's final check.  Of the two
    # checks only plan's is looked up there; rounding's goes through
    # bootplan.rounding.
    calls = {"eval_levels": 0, "is_feasible_by_levels": 0}

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(circuits, name, counted(name, getattr(circuits, name)))
        plan(red_chain(5), 2)
    assert calls == {"eval_levels": 3, "is_feasible_by_levels": 1}


def test_unknown_method_raises():
    with pytest.raises(ValueError, match="unknown method 'simplex'"):
        plan(red_chain(3), 1, "simplex")


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(blocks[0], {})
