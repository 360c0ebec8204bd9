"""Planning benchmark for bootplan.

    python3 planbench/run.py --workload lp-dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; bootplan is imported from its `src/`.  The
run builds the workload's instances from the seed (as text, in memory),
times a fresh process's import plus one fixed request a few times (`setup_s`),
makes one untimed warm-up request per instance, then serves whole rounds
of every instance's requests for about `--seconds` seconds.  Each request
is timed alone, on one thread, with `gc.collect()` between requests, and
its output is checked outside the timed region by `checks.py`.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the calls into bootplan are wrapped in
spans (see `tracing.py`) and the metrics are per layer, per round.  The
result and, when traced, the spans are also written under `planbench/out/`.
The exit code is 1 when any output fails a check, 2 when the checkout has
no `src/bootplan`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402  (checks and workloads import no bootplan)
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3
REQUEST_TIMEOUT_S = 60  # a request over this counts as failed
MEASURE_CAP_S = 150  # no new round starts after this, whatever --seconds says

END_TO_END = {
    "plan_s": "s",
    "request_s.p50": "s",
    "bootstraps": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "formats.parse_s": "s",
    "circuit.validate_s": "s",
    "circuit.eval_levels_s": "s",
    "circuit.eval_levels_calls": "count",
    "lp.solve_s": "s",
    "lp.self_s": "s",
    "lp.iterations": "count",
    "lp.rows": "count",
    "lp.master_s": "s",
    "lp.master_calls": "count",
    "lp.master_max_rows": "count",
    "lp.master_max_cols": "count",
    "paths.level_lengths_s": "s",
    "paths.level_lengths_calls": "count",
    "rounding.round_s": "s",
    "rounding.breakpoints": "count",
    "rounding.feasibility_checks": "count",
    "baselines.greedy_s": "s",
    "exact.exact_s": "s",
    "exact.subsets_explored": "count",
    "request.self_s": "s",
    "trace.plan_s": "s",
}
# Metrics that are maxima over the run, not sums to divide by the rounds.
MAXIMA = ("lp.master_max_rows", "lp.master_max_cols")


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request took over {REQUEST_TIMEOUT_S} s")


def require_checkout() -> None:
    if not (SRC / "bootplan" / "__init__.py").is_file():
        print(f"error: no bootplan sources under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def measure_setup(workload: str) -> list[float]:
    """Import plus first request in fresh processes (see setup_probe.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            sys.exit(f"error: setup probe exited with {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Bench:
    """Serves one workload's instances and checks every output."""

    def __init__(self, instances, tracer):
        import serve  # imports bootplan, found only once require_checkout ran

        self.serve = serve
        self.instances = instances
        self.tracer = tracer
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.request_times: list[float] = []
        self.instance_times: list[list[float]] = [[] for _ in instances]
        self.cardinality: dict[tuple[int, int], int] = {}
        self.layer = {name: 0.0 for name in PER_LAYER}

    def _call(self, inst, req):
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        try:
            if req.kind == "solve":
                return self.serve.solve(inst.text, inst.level, req.method)
            return self.serve.check(inst.text, req.marks_text, inst.level)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def _fail_check(self, inst, req, message: str) -> None:
        self.errors.append(f"{inst.label} L={inst.level} {req.kind} {req.method}: {message}")

    def _check(self, i: int, j: int, inst, req, out, found: dict) -> None:
        """Judge one output; `found` collects this round's results per instance."""
        try:
            if req.kind == "check":
                checks.check_verdict(inst.level, req.expect_worst, req.expect_violator,
                                     out.feasible, out.worst, out.violator)
                return
            if not out.verified:
                raise checks.CheckFailed("the program reports its own marks infeasible")
            marked = checks.check_feasible(inst.graph, inst.level, out.marks)
            card = len(marked)
            if card != len(out.marks):
                raise checks.CheckFailed("marks repeat a vertex")
            if self.cardinality.setdefault((i, j), card) != card:
                raise checks.CheckFailed(
                    f"{card} marks, {self.cardinality[(i, j)]} on an earlier request"
                )
            found[req.method] = card
            if req.method == "exact" and out.optimum != card:
                raise checks.CheckFailed(f"optimum {out.optimum} but {card} marks")
            if req.method == "lp-round":
                res = out.relaxation
                names = out.parsed.names
                index = inst.graph.index
                weights = [0.0] * inst.graph.n
                for v, w in enumerate(res.weights):
                    weights[index[names[v]]] = w
                rows = [[index[names[v]] for v in row] for row in res.rows]
                checks.check_lp(inst.graph, inst.level, weights, res.objective, rows)
                checks.check_chain(inst.level, res.objective, card)
                found["lp"] = res.objective
        except checks.CheckFailed as exc:
            self._fail_check(inst, req, str(exc))

    def _check_instance(self, inst, found: dict) -> None:
        if "exact" in found and "lp-round" in found:
            try:
                checks.check_chain(inst.level, found["lp"], found["lp-round"], found["exact"])
            except checks.CheckFailed as exc:
                self._fail_check(inst, inst.requests[0], str(exc))

    def _count_layers(self, req, out) -> None:
        if req.kind != "solve":
            return
        layer = self.layer
        if out.relaxation is not None:
            res = out.relaxation
            layer["lp.iterations"] += res.iterations
            layer["lp.rows"] += res.constraints_generated
            cols = len(set().union(*res.rows)) + len(res.rows) if res.rows else 0
            layer["lp.master_max_rows"] = max(layer["lp.master_max_rows"], len(res.rows))
            layer["lp.master_max_cols"] = max(layer["lp.master_max_cols"], cols)
        if out.explored is not None:
            layer["exact.subsets_explored"] += out.explored

    def warm_up(self) -> None:
        for i, inst in enumerate(self.instances):
            gc.collect()
            req = inst.requests[0]
            try:
                out = self._call(inst, req)
            except Exception as exc:  # counted again, as failed, in every timed round
                print(f"warm-up failed: {inst.label}: {exc!r}", file=sys.stderr)
                continue
            self._check(i, 0, inst, req, out, {})

    def measure(self, seconds: float) -> None:
        # Inputs, modules and warm-up state live for the whole run; freezing
        # them keeps the gc.collect() before each request from rescanning
        # them (15 ms per call on lp-dense otherwise).
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        while True:
            for i, inst in enumerate(self.instances):
                self._serve_instance(i, inst)
            self.rounds += 1
            elapsed = time.perf_counter() - start
            # Stop where the next whole round would end past `seconds`
            # by more than half a round.
            if elapsed + 0.5 * elapsed / self.rounds >= min(seconds, MEASURE_CAP_S):
                break

    def _serve_instance(self, i: int, inst) -> None:
        total = 0.0
        ok = True
        found: dict = {}
        for j, req in enumerate(inst.requests):
            gc.collect()
            self.attempted += 1
            span = self.tracer.begin_request(self.attempted) if self.tracer else None
            t0 = time.perf_counter()
            try:
                out = self._call(inst, req)
            except Exception as exc:
                self.failed += 1
                ok = False
                print(f"request failed: {inst.label} {req.kind} {req.method}: {exc!r}",
                      file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if span is not None:
                    self.tracer.end_request(span)
            self.request_times.append(elapsed)
            total += elapsed
            self._check(i, j, inst, req, out, found)
            self._count_layers(req, out)
            del out
        if ok:
            self.instance_times[i].append(total)
            self._check_instance(inst, found)

    def plan_s(self) -> float:
        return sum(statistics.median(t) for t in self.instance_times if t)

    def bootstraps(self) -> int:
        counted = {"lp-round", "greedy"}
        return sum(
            card for (i, j), card in self.cardinality.items()
            if self.instances[i].requests[j].method in counted
        )


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_checkout()
    t0 = time.perf_counter()
    instances = workloads.WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - t0
    setup_samples = [] if args.trace else measure_setup(args.workload)

    import bootplan

    if not Path(bootplan.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bootplan imported from {bootplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    bench = Bench(instances, tracer)
    origin = time.perf_counter()
    bench.warm_up()
    bench.measure(args.seconds)

    if not bench.request_times:
        bench.errors.append("no request succeeded, so no time was measured")
    plan_s = bench.plan_s()
    if tracer is None:
        metrics = {
            "plan_s": plan_s,
            "request_s.p50": statistics.median(bench.request_times or [0.0]),
            "bootstraps": bench.bootstraps(),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        tracer.uninstall()
        for name, value in tracer.layer_totals().items():
            bench.layer[name] += value
        metrics = {
            name: value if name in MAXIMA else value / bench.rounds
            for name, value in bench.layer.items()
        }
        metrics["trace.plan_s"] = plan_s
        units = PER_LAYER
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: _metric(metrics[name], unit) for name, unit in units.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "result": result,
        "seconds": args.seconds,
        "rounds": bench.rounds,
        "input_generation_s": gen_s,
        "setup_samples_s": setup_samples,
        "instances": [
            {
                "label": inst.label,
                "level": inst.level,
                "times_s": times,
                "marks": {req.method: bench.cardinality.get((i, j))
                          for j, req in enumerate(inst.requests) if req.kind == "solve"},
            }
            for i, (inst, times) in enumerate(zip(instances, bench.instance_times))
        ],
        "errors": bench.errors,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl", origin)
    for message in bench.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(instances)} instances, {bench.rounds} rounds, "
        f"inputs {gen_s:.2f} s",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 1 if bench.errors else 0


if __name__ == "__main__":
    sys.exit(main())
