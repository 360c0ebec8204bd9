"""The four workloads: seeded instance sets and the requests served per instance.

Every instance is drawn from a slot-specific generator seeded by
`random.Random("<workload>/<seed>/<slot>")`, so the same workload seed always
gives the same texts, and the label records the generator call (with the
drawn instance seed) that reproduces each one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import worst_level
from graphs import Graph, layered, random_circuit, threshold_marks


@dataclass(frozen=True)
class Request:
    """One CLI-equivalent call: `solve --method M` or `check <marks>`."""

    kind: str  # "solve" or "check"
    method: str = ""  # solve only: lp-round, exact or greedy
    marks_text: str = ""  # check only
    expect_worst: int = -1  # check only: the benchmark's own max level
    expect_violator: str = ""  # check only: first vertex at that level, if over L


@dataclass(frozen=True)
class Instance:
    label: str  # the generator call that reproduces the text
    graph: Graph
    text: str
    level: int
    requests: tuple[Request, ...]


def _instance(label: str, graph: Graph, level: int, requests) -> Instance:
    return Instance(label, graph, graph.text(), level, tuple(requests))


def _slot_rng(workload: str, seed: int, slot: int) -> random.Random:
    # String seeds are hashed with SHA-512, so slot draws are stable across
    # Python versions and independent between slots and workloads.
    return random.Random(f"{workload}/{seed}/{slot}")


LP_ROUND = (Request("solve", "lp-round"),)
LP_DENSE_SLOTS = 128
LP_DEEP_SLOTS = 10
CHECK_LARGE_SLOTS = 1
EXACT_SMALL_SLOTS = 60


def lp_dense(seed: int, count: int | None = None) -> list[Instance]:
    """Layered 10 x 15 circuits (150 vertices), red fraction 0.5, L = 2.

    Many interesting paths overlap, so the restricted master carries over
    90 % of the time.  The time of one instance spreads by about 40 %
    between seeds (Bland's rule takes very different pivot counts), so the
    workload uses many small instances rather than a few large ones.
    """
    out = []
    for slot in range(LP_DENSE_SLOTS if count is None else count):
        s = _slot_rng("lp-dense", seed, slot).randrange(2**31)
        g = layered(10, 15, 0.5, s)
        out.append(_instance(f"layered(10, 15, 0.5, seed={s})", g, 2, LP_ROUND))
    return out


def lp_deep(seed: int, count: int | None = None) -> list[Instance]:
    """Layered 20 x 500 circuits (10^4 vertices), red fraction 0.12, L = 10.

    The master stays near a hundred rows or fewer, and every row-generation
    round re-sweeps the length table over n * (L + 1) cells, so
    paths.level_lengths and parsing carry the time.  Not in BENCHMARK.json:
    its few marks per instance spread too much between seeds (README).
    """
    out = []
    for slot in range(LP_DEEP_SLOTS if count is None else count):
        s = _slot_rng("lp-deep", seed, slot).randrange(2**31)
        g = layered(20, 500, 0.12, s)
        out.append(_instance(f"layered(20, 500, 0.12, seed={s})", g, 10, LP_ROUND))
    return out


def _marks_text(graph: Graph, marks) -> str:
    return "\n".join(sorted(graph.names[v] for v in marks)) + "\n"


def check_large(seed: int, count: int | None = None) -> list[Instance]:
    """Layered 25 x 4000 circuits (10^5 vertices, ~6 MB of text), L = 4.

    Each is served as `solve --method greedy`, then `check` of a feasible
    mark file (the benchmark's own sweep marking at level L-1) and of an
    infeasible one (the same file with the marks of the middle layers
    dropped until the benchmark's own evaluator sees a level above L).
    """
    level = 4
    layers, width = 25, 4000
    out = []
    for slot in range(CHECK_LARGE_SLOTS if count is None else count):
        s = _slot_rng("check-large", seed, slot).randrange(2**31)
        g = layered(layers, width, 0.3, s)
        feasible = threshold_marks(g, level - 1)
        worst_ok, _ = worst_level(g, feasible)
        if worst_ok > level:
            raise RuntimeError("threshold sweep produced an infeasible mark set")
        dropped = set(feasible)
        layer = layers // 2
        while True:
            dropped -= set(range(layer * width, (layer + 1) * width))
            worst_bad, violator_bad = worst_level(g, dropped)
            if worst_bad > level:
                break
            layer += 1
        requests = (
            Request("solve", "greedy"),
            Request("check", marks_text=_marks_text(g, feasible),
                    expect_worst=worst_ok, expect_violator=""),
            Request("check", marks_text=_marks_text(g, dropped),
                    expect_worst=worst_bad, expect_violator=g.names[violator_bad]),
        )
        out.append(_instance(f"layered({layers}, {width}, 0.3, seed={s})", g, level, requests))
    return out


def exact_small(seed: int, count: int | None = None) -> list[Instance]:
    """60 circuits of 16-24 vertices, each solved with exact and lp-round.

    Slots 0-11 are all-Red layered 6 x 3 circuits (18 vertices, 15
    candidates) at L = 1, drawn until every vertex of layers 1-4 feeds
    another.  At L = 1 every Red vertex with a successor must be marked, so
    their optimum is exactly those 12 vertices, the first 12 candidates, and
    brute force enumerates all subsets of up to 11 of 15 candidates plus one
    (32 193) whatever the seed: these carry the workload's time.  Slots
    12-59 are random_circuit(n) with n in 16..24 at L = 2 or 3, whose LP is
    fractional, so the chain LP <= OPT <= rounded is tested where it can be
    strict; they are many so that the median request time is steady.
    """
    requests = (Request("solve", "exact"), Request("solve", "lp-round"))
    out = []
    for slot in range(EXACT_SMALL_SLOTS if count is None else count):
        rng = _slot_rng("exact-small", seed, slot)
        if slot < 12:
            while True:
                s = rng.randrange(2**31)
                g = layered(6, 3, 1.0, s)
                if all(g.succs[v] for v in range(3, 15)):
                    break
            out.append(_instance(f"layered(6, 3, 1.0, seed={s})", g, 1, requests))
        else:
            s = rng.randrange(2**31)
            n = 16 + (slot - 12) % 9
            level = 2 + slot % 2
            g = random_circuit(n, s)
            out.append(_instance(f"random_circuit({n}, seed={s})", g, level, requests))
    return out


WORKLOADS = {
    "lp-dense": lp_dense,
    "lp-deep": lp_deep,
    "check-large": check_large,
    "exact-small": exact_small,
}
