"""Write every benchmark input to disk, with the baselines' mark counts.

    python3 planbench/make_inputs.py --seed 1 --out /tmp/planbench-inputs

For each workload this writes `<out>/<workload>/<slot>.circuit` (and, on
check-large, the two mark files the check requests read) plus a
`manifest.tsv` with the generator call, the noise budget, the requests and
the mark counts of `greedy_topological` and `after_every_red`.  The files
are the texts run.py serves from memory; `bootplan solve <slot>.circuit
--level L` replays a request from the command line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from bootplan import baselines, formats

    for name, build in workloads.WORKLOADS.items():
        folder = Path(args.out) / name
        folder.mkdir(parents=True, exist_ok=True)
        lines = ["slot\tgenerator\tlevel\trequests\tgreedy\tafter_red"]
        greedy_total = after_red_total = 0
        for slot, inst in enumerate(build(args.seed)):
            (folder / f"{slot:02d}.circuit").write_text(inst.text)
            requests = []
            for j, req in enumerate(inst.requests):
                if req.kind == "check":
                    marks = f"{slot:02d}.{j}.marks"
                    (folder / marks).write_text(req.marks_text)
                    requests.append(f"check {marks}")
                else:
                    requests.append(f"solve --method {req.method}")
            circuit = formats.parse_circuit(inst.text)
            greedy = len(baselines.greedy_topological(circuit, inst.level))
            after_red = len(baselines.after_every_red(circuit))
            greedy_total += greedy
            after_red_total += after_red
            lines.append(
                f"{slot:02d}\t{inst.label}\t{inst.level}\t{'; '.join(requests)}\t"
                f"{greedy}\t{after_red}"
            )
        (folder / "manifest.tsv").write_text("\n".join(lines) + "\n")
        print(f"{name}: greedy {greedy_total} marks, after_every_red {after_red_total}")


if __name__ == "__main__":
    main()
