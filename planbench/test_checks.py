"""Each checker rejects a known-bad output; the generators match bootplan's.

    python3 -m pytest planbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import graphs  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bootplan import formats, generate, rounding  # noqa: E402
from checks import CheckFailed  # noqa: E402


def red_chain(length: int) -> graphs.Graph:
    """One White source doubled into a chain of Red vertices."""
    names = ["w0"] + [f"r{i}" for i in range(1, length + 1)]
    colors = [graphs.WHITE] + [graphs.RED] * length
    return graphs._graph(names, colors, [None] + [(i, i) for i in range(length)])


@pytest.mark.parametrize("seed", [0, 7])
def test_generators_replay_bootplan(seed):
    ours = graphs.layered(6, 9, 0.4, seed).text()
    assert ours == formats.format_circuit(generate.layered(6, 9, 0.4, seed))
    ours = graphs.random_circuit(21, seed).text()
    assert ours == formats.format_circuit(generate.random_circuit(21, seed))


def test_evaluator_rejects_infeasible_marks():
    g = red_chain(5)  # levels 1..5
    checks.check_feasible(g, 5, [])
    checks.check_feasible(g, 2, ["r2", "r4"])
    with pytest.raises(CheckFailed, match="level 3 > 2"):
        checks.check_feasible(g, 2, ["r2"])
    with pytest.raises(CheckFailed, match="unknown vertex"):
        checks.check_feasible(g, 2, ["r2", "nope"])


def test_path_sweep_rejects_short_interesting_path():
    g = red_chain(4)  # L = 2: interesting paths r1-r2-r3 and r2-r3-r4
    rows = [[1, 2], [2, 3]]
    checks.check_lp(g, 2, [0, 0, 1, 0, 0], 1.0, rows)
    with pytest.raises(CheckFailed, match="length 0.500000000 < 1"):
        checks.check_lp(g, 2, [0, 0.5, 0, 0.5, 0], 1.0, rows)


def test_highs_rejects_wrong_objective():
    g = red_chain(4)
    # Feasible weights summing to 2: an upper bound, but not the optimum 1.
    with pytest.raises(CheckFailed, match="HiGHS finds 1.0"):
        checks.check_lp(g, 2, [0, 1, 0, 1, 0], 2.0, [[1, 2], [2, 3]])
    with pytest.raises(CheckFailed, match="weights sum"):
        checks.check_lp(g, 2, [0, 0, 1, 0, 0], 2.0, [[1, 2], [2, 3]])


def test_rows_must_be_interesting_paths():
    g = red_chain(4)
    with pytest.raises(CheckFailed, match="Red vertices, expected 2"):
        checks.check_lp(g, 2, [0, 0, 1, 0, 0], 1.0, [[1, 2, 3]])
    with pytest.raises(CheckFailed, match="no edge"):
        checks.check_lp(g, 2, [0, 0, 1, 0, 0], 1.0, [[1, 3]])


def test_chain_rejects_out_of_range_counts():
    checks.check_chain(2, 1.5, 3, optimum=2)
    with pytest.raises(CheckFailed, match="outside \\[LP, L\\*LP\\]"):
        checks.check_chain(2, 1.5, 4)
    with pytest.raises(CheckFailed, match="outside \\[LP, L\\*LP\\]"):
        checks.check_chain(2, 1.5, 1)
    with pytest.raises(CheckFailed, match="optimum 1 outside"):
        checks.check_chain(2, 1.5, 3, optimum=1)
    with pytest.raises(CheckFailed, match="rounded 3 != optimum 2"):
        checks.check_chain(1, 2.0, 3, optimum=2)


def test_verdict_must_match_evaluator():
    checks.check_verdict(2, 3, "r3", False, 3, "r3")
    with pytest.raises(CheckFailed, match="verdict"):
        checks.check_verdict(2, 3, "r3", True, 2, "")
    with pytest.raises(CheckFailed, match="evaluator 3"):
        checks.check_verdict(2, 3, "r3", False, 3, "r4")


def test_program_outputs_pass_the_checks():
    for inst in workloads.exact_small(3, count=14)[10:]:
        bench = run.Bench([inst], tracer=None)
        bench._serve_instance(0, inst)
        assert bench.errors == [] and bench.failed == 0


def test_bench_flags_a_wrong_rounding(monkeypatch):
    inst = workloads.lp_dense(1, count=1)[0]

    def no_marks(circuit, level, tables):
        return rounding.RoundingOutcome(marks=frozenset(), t_used=0.0, cardinality=0)

    monkeypatch.setattr(rounding, "derandomized_round", no_marks)
    bench = run.Bench([inst], tracer=None)
    bench._serve_instance(0, inst)
    assert len(bench.errors) == 1 and "infeasible" in bench.errors[0]


def test_tracer_attributes_self_time():
    inst = workloads.lp_dense(2, count=1)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        span = tracer.begin_request(1)
        serve.solve(inst.text, inst.level, "lp-round")
        total = tracer.end_request(span)
    finally:
        tracer.uninstall()
    layers = tracer.layer_totals()
    self_times = [v for k, v in layers.items() if k.endswith("_s") and k != "lp.solve_s"]
    assert sum(self_times) == pytest.approx(total)
    assert layers["lp.master_calls"] == layers["paths.level_lengths_calls"] - 1
    assert layers["lp.master_s"] > layers["paths.level_lengths_s"]


def test_raising_request_counts_as_failed(monkeypatch):
    instances = workloads.exact_small(1, count=14)[12:]
    solve = serve.solve

    def exact_raises(text, level, method):
        if method == "exact":
            raise RuntimeError("injected")
        return solve(text, level, method)

    monkeypatch.setattr(serve, "solve", exact_raises)
    bench = run.Bench(instances, tracer=None)
    for i, inst in enumerate(instances):
        bench._serve_instance(i, inst)
    assert (bench.attempted, bench.failed, bench.errors) == (4, 2, [])
    assert bench.instance_times == [[], []]
