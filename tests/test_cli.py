"""End-to-end runs of the command line through main()."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
from pathlib import Path

import pytest

from bootplan import formats, generate, lp
from bootplan.cli import main
from bootplan.dvd import reduce_to_circuit
from bootplan.errors import IterationLimitExceeded
from bootplan.exact import exact_bootstrap
from oracles import exact_dvd, format_dvd, pull_back, random_dvd

CHAIN = """\
# four multiplications in a row
node w0 white
node r1 red
node r2 red
node r3 red
node r4 red
edge w0 r1 2
edge r1 r2 2
edge r2 r3 2
edge r3 r4 2
"""

FAN_IN_DVD = """\
node a
node b
node c
node d
edge a d
edge b d
edge c d
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_feasible(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    marks = write(tmp_path, "m.txt", "r1\n")
    assert main(["check", circuit, marks, "--level", "3"]) == 0
    out = capsys.readouterr().out
    assert "level 0: 1 vertices" in out
    assert "level 1: 2 vertices" in out
    assert "feasible: max level 3 <= 3" in out


def test_check_infeasible_names_the_violator(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    marks = write(tmp_path, "m.txt", "")
    assert main(["check", circuit, marks, "--level", "3"]) == 1
    assert "infeasible: vertex r4 reaches level 4 > 3" in capsys.readouterr().out


@pytest.mark.parametrize("level", ["0", "-3"])
def test_check_rejects_bad_level(tmp_path, capsys, level):
    circuit = write(tmp_path, "c.txt", CHAIN)
    marks = write(tmp_path, "m.txt", "r1\n")
    assert main(["check", circuit, marks, "--level", level]) == 2
    captured = capsys.readouterr()
    assert "feasible" not in captured.out
    assert "error: noise budget must be an integer >= 1" in captured.err


def test_solve_exact(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    assert main(["solve", circuit, "--level", "3", "--method", "exact"]) == 0
    out = capsys.readouterr().out
    assert "exact_optimum: 1" in out
    assert "cardinality: 1" in out
    assert "verified_feasible: yes" in out
    assert "marks: r1" in out


def test_solve_exact_on_an_empty_circuit(tmp_path, capsys):
    circuit = write(tmp_path, "empty.txt", "")
    assert main(["solve", circuit, "--level", "1", "--method", "exact"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "exact_optimum: 0" in out
    assert "subsets_explored: 1" in out


LAYERED_6X8 = ["gen", "--kind", "layered", "--layers", "6", "--width", "8",
               "--red-fraction", "0.4", "--seed", "1"]


@pytest.mark.parametrize(
    "make, level, options",
    [
        (LAYERED_6X8, "2", ["--method", "lp-round"]),
        (LAYERED_6X8, "2", ["--method", "after-red"]),
        (LAYERED_6X8, "2", ["--method", "greedy"]),
        (["gen", "--kind", "red-chain", "--length", "7"], "3", ["--method", "exact"]),
        (["reduce-dvd", "pair.dvd"], "2", []),
    ],
    ids=["lp-round", "after-red", "greedy", "exact", "reduced"],
)
def test_report_file_marks_pass_check(tmp_path, capsys, monkeypatch, make, level, options):
    # Each command writes the next one's input: the circuit, the report, the marks.
    monkeypatch.chdir(tmp_path)
    Path("pair.dvd").write_text("node a\nnode b\nedge a b\n")
    assert main([*make, "--out", "in.txt"]) == 0
    assert main(["solve", "in.txt", "--level", level, *options, "--out", "r.tsv"]) == 0
    report = dict(line.split("\t", 1) for line in Path("r.tsv").read_text().splitlines())
    assert report["verified_feasible"] == "yes"
    Path("m.txt").write_text(report["marks"] + "\n")
    capsys.readouterr()
    assert main(["check", "in.txt", "m.txt", "--level", level]) == 0
    assert "feasible: max level" in capsys.readouterr().out


def test_solve_lp_round_with_report_file(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    out_file = tmp_path / "report.tsv"
    code = main(["solve", circuit, "--level", "3", "--out", str(out_file)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "lp_objective: 1.000000000" in printed
    assert "cardinality: 1" in printed
    report = dict(
        line.split("\t", 1) for line in out_file.read_text().splitlines() if line
    )
    assert report["method"] == "lp-round"
    assert report["vertices"] == "5"
    assert report["level"] == "3"
    assert report["cardinality"] == "1"
    assert report["verified_feasible"] == "yes"
    assert float(report["lp_objective"]) == 1.0
    assert report["marks"] == "r3"


def test_printed_report_matches_report_file(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    out_file = tmp_path / "report.tsv"
    assert main(["solve", circuit, "--level", "3", "--out", str(out_file)]) == 0
    printed = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()]
    written = [line.split("\t", 1) for line in out_file.read_text().splitlines()]
    assert printed == written
    assert [key for key, _ in written][:8] == [
        "instance", "vertices", "edges", "level",
        "method", "cardinality", "time_s", "verified_feasible",
    ]


def test_solve_trace_file(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    trace = tmp_path / "trace.tsv"
    assert main(["solve", circuit, "--level", "3", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert trace.read_text() == "1\t0.000000000\t1\n2\t1.000000000\t0\n"


def test_solve_baseline_methods(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    assert main(["solve", circuit, "--level", "2", "--method", "greedy"]) == 0
    assert "marks: r2 r4" in capsys.readouterr().out
    assert main(["solve", circuit, "--level", "2", "--method", "after-red"]) == 0
    out = capsys.readouterr().out
    assert "cardinality: 4" in out
    assert "marks: r1 r2 r3 r4" in out


def long_chain(tmp_path):
    """A 25-Red chain: 2**25 candidate subsets, over the exact search's cap."""
    return write(tmp_path, "long.txt", formats.format_circuit(generate.red_chain(25)))


def test_solve_exact_cap_exits_3(tmp_path, capsys):
    code = main(["solve", long_chain(tmp_path), "--level", "3", "--method", "exact"])
    assert code == 3
    assert "error: candidate space over 25 vertices exceeds 16777216 subsets" in (
        capsys.readouterr().err
    )


def test_failed_solve_removes_its_report_file(tmp_path, capsys):
    report = tmp_path / "capped.tsv"
    trace = tmp_path / "capped.trace"
    code = main(
        [
            "solve", long_chain(tmp_path), "--level", "3", "--method", "exact",
            "--out", str(report), "--trace", str(trace),
        ]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err
    assert not report.exists()
    assert trace.exists()  # kept: its rounds explain a failed solve


def test_simplex_iteration_cap_exits_3(tmp_path, capsys, monkeypatch):
    def capped(master):
        raise IterationLimitExceeded("simplex iteration limit hit")

    monkeypatch.setattr(lp.Master, "simplex", capped)
    circuit = write(tmp_path, "c.txt", CHAIN)
    assert main(["solve", circuit, "--level", "3"]) == 3
    assert "error: simplex iteration limit hit" in capsys.readouterr().err


def test_solve_reports_are_frozen(tmp_path, capsys):
    # Every method's report must stay byte-identical apart from the run time.
    inputs = {"chain.txt": generate.red_chain(7)}
    for s in range(3):
        inputs[f"layered{s}.txt"] = generate.layered(5, 3, 0.8, s)
        inputs[f"random{s}.txt"] = generate.random_circuit(
            14, s, white_fraction=0.1, red_fraction=0.8
        )
    variants = [
        ["--method", "lp-round"],
        ["--method", "exact"],
        ["--method", "after-red"],
        ["--method", "greedy"],
    ]
    digest = hashlib.sha256()
    for name, circuit in inputs.items():
        path = write(tmp_path, name, formats.format_circuit(circuit))
        for level in ("1", "2", "3"):
            for variant in variants:
                code = main(["solve", path, "--level", level, *variant])
                lines = capsys.readouterr().out.splitlines(keepends=True)
                digest.update(f"{code}\n".encode())
                digest.update("".join(l for l in lines if not l.startswith("time_s:")).encode())
    assert digest.hexdigest() == (
        "19ff368962887a40d00fbc3c78d3f2cf26d89b1d3ec6d5099476e6c0a0e0b2c7"
    )


def test_solve_lp_objectives_are_frozen(tmp_path, capsys):
    # The lp_objective of every lp-round report pinned above, at levels 1-3:
    # another row set may move the marks, never the LP value.
    inputs = {"chain.txt": generate.red_chain(7)}
    for s in range(3):
        inputs[f"layered{s}.txt"] = generate.layered(5, 3, 0.8, s)
        inputs[f"random{s}.txt"] = generate.random_circuit(
            14, s, white_fraction=0.1, red_fraction=0.8
        )
    objectives = []
    for name, circuit in inputs.items():
        path = write(tmp_path, name, formats.format_circuit(circuit))
        for level in ("1", "2", "3"):
            assert main(["solve", path, "--level", level, "--method", "lp-round"]) == 0
            out = capsys.readouterr().out
            objectives += [
                line.split(": ")[1] for line in out.splitlines() if line.startswith("lp_objective:")
            ]
    assert objectives == [
        "6.000000000", "3.000000000", "2.000000000",  # chain
        "6.000000000", "2.000000000", "1.000000000",  # layered0
        "6.000000000", "3.000000000", "1.000000000",  # random0
        "9.000000000", "3.000000000", "3.000000000",  # layered1
        "5.000000000", "2.500000000", "1.500000000",  # random1
        "6.000000000", "2.000000000", "1.000000000",  # layered2
        "4.000000000", "1.000000000", "1.000000000",  # random2
    ]


def test_reductions_and_witnesses_are_frozen(tmp_path, capsys):
    # reduce-dvd's circuit and map, the exact deletion set and the pulled-back
    # exact mark set must stay byte-identical on random deletion instances,
    # whose vertices carry the default names.
    rng = random.Random(1111)
    digest = hashlib.sha256()
    for _ in range(40):
        n, level = rng.randint(1, 6), rng.choice((2, 3))  # the digest pins this draw order
        inst = random_dvd(n, rng.randint(0, 10**6), 0.5)
        path = write(tmp_path, "h.dvd", format_dvd(inst))
        assert main(["reduce-dvd", path]) == 0
        digest.update(capsys.readouterr().out.encode())
        rmap = reduce_to_circuit(inst)
        deleted = exact_dvd(inst, level)
        marked = exact_bootstrap(rmap.circuit, level, max_subsets=1 << rmap.circuit.n)
        witnesses = (deleted.optimum, deleted.explored, sorted(deleted.witness),
                     marked.optimum, marked.explored, sorted(marked.witness),
                     sorted(pull_back(rmap, marked.witness, level)))
        digest.update(repr(witnesses).encode())
    assert digest.hexdigest() == (
        "fd35006d6a28ed19aecf7e913691b9b3c2b90c946977dc1983178b533c2dbdd5"
    )


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    dvd = write(tmp_path, "h.txt", FAN_IN_DVD)
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    blocked = tmp_path / "r.txt.map"  # reduce-dvd's map path, taken by a directory
    blocked.mkdir()
    runs = [
        (["solve", circuit, "--level", "1", "--out", missing], missing),
        (["solve", circuit, "--level", "1", "--trace", missing], missing),
        (["gen", "--kind", "red-chain", "--out", missing], missing),
        (["reduce-dvd", dvd, "--out", str(tmp_path / "r.txt")], str(blocked)),
    ]
    for argv, unwritable in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write {unwritable}" in captured.err
        if argv[0] == "solve":
            assert captured.out == ""  # failed before solving
    assert not (tmp_path / "r.txt").exists()  # reduce-dvd wrote neither output
    assert blocked.is_dir() and not any(blocked.iterdir())


def test_usage_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["check", missing, missing, "--level", "1"]) == 2
    bad = write(tmp_path, "bad.txt", "node a purple\n")
    assert main(["solve", bad, "--level", "1"]) == 2
    circuit = write(tmp_path, "c.txt", CHAIN)
    assert main(["solve", circuit, "--level", "0"]) == 2
    triple = write(tmp_path, "triple.txt", "node a white\nnode b red\nedge a b 3\n")
    assert main(["solve", triple, "--level", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4
    assert "triple.txt:3: bad multiplicity '3'" in err


def test_solve_has_no_seed_option(tmp_path, capsys):
    # The derandomized scan is the only rounding, so solve takes no seed.
    circuit = write(tmp_path, "c.txt", CHAIN)
    report = tmp_path / "r.tsv"
    with pytest.raises(SystemExit) as exc:
        main(["solve", circuit, "--level", "2", "--seed", "3", "--out", str(report)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not report.exists()


def test_out_of_range_numbers_exit_2(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "layered", "--red-fraction", "7", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "red_fraction must be in [0, 1]" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_red_fraction_is_checked_for_a_kind_that_ignores_it(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "red-chain", "--length", "3", "--red-fraction", "7",
                 "--out", str(out)]) == 2
    assert "error: red_fraction must be in [0, 1], got 7.0" in capsys.readouterr().err
    assert not out.exists()


def test_solve_checks_the_level_before_parsing(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "node a purple\n")
    assert main(["solve", bad, "--level", "0"]) == 2
    err = capsys.readouterr().err
    assert "error: noise budget must be an integer >= 1" in err
    assert "purple" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("node a\nbogus\n", "2: unknown directive 'bogus'"),
        # Node lines are read first, so the duplicate is reported, not the edge.
        ("node a\nedge a ghost\nnode a\n", "3: duplicate node name 'a'"),
    ],
    ids=["unknown-directive", "duplicate-after-bad-edge"],
)
def test_reduce_dvd_names_the_bad_line(tmp_path, capsys, text, message):
    dvd = write(tmp_path, "bad.dvd", text)
    assert main(["reduce-dvd", dvd]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {dvd}:{message}\n"
    assert captured.out == ""


def test_reduce_dvd_takes_no_level(tmp_path, capsys):
    # The reduction is the same for every level, so the option is gone.
    dvd = write(tmp_path, "h.txt", FAN_IN_DVD)
    with pytest.raises(SystemExit) as info:
        main(["reduce-dvd", dvd, "--level", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --level 2" in capsys.readouterr().err


def test_reduce_dvd_takes_no_map_path(tmp_path, capsys):
    # The map always goes to <out>.map, so there is no option to name it.
    dvd = write(tmp_path, "h.txt", FAN_IN_DVD)
    map_path = tmp_path / "m.map"
    with pytest.raises(SystemExit) as info:
        main(["reduce-dvd", dvd, "--map-out", str(map_path)])
    assert info.value.code == 2
    assert f"unrecognized arguments: --map-out {map_path}" in capsys.readouterr().err
    assert not map_path.exists()


def test_outputs_sharing_a_path_exit_2(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    dvd = write(tmp_path, "h.txt", FAN_IN_DVD)
    shared = tmp_path / "shared.txt"
    same = f"{tmp_path}/./shared.txt"  # another spelling of the same path
    (tmp_path / "shared.txt.map").symlink_to(shared)  # reduce-dvd's map path
    runs = [
        ["solve", circuit, "--level", "3", "--out", str(shared), "--trace", str(shared)],
        ["solve", circuit, "--level", "3", "--out", str(shared), "--trace", same],
        ["reduce-dvd", dvd, "--out", str(shared)],
    ]
    for argv in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: outputs {shared} and " in captured.err
        assert captured.err.rstrip().endswith("are the same file")
        assert captured.out == ""
        assert not shared.exists()  # refused before any work


def test_outputs_never_overwrite_the_input(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    dvd = write(tmp_path, "h.map", FAN_IN_DVD)
    other = tmp_path / "other.tsv"
    same = f"{tmp_path}/./c.txt"  # another spelling of the input's path
    runs = [
        (circuit, circuit, ["solve", circuit, "--level", "3", "--out", circuit]),
        (circuit, same, ["solve", circuit, "--level", "3", "--out", str(other), "--trace", same]),
        (dvd, dvd, ["reduce-dvd", dvd, "--out", dvd]),
        (dvd, dvd, ["reduce-dvd", dvd, "--out", str(tmp_path / "h")]),  # its map is h.map
    ]
    for source, output, argv in runs:
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: output {output} is the input file {source}\n"
        assert captured.out == ""
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_hard_links_count_as_the_same_file(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    before = Path(circuit).read_bytes()
    link = tmp_path / "h.txt"
    os.link(circuit, link)
    assert main(["solve", circuit, "--level", "2", "--out", str(link)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: output {link} is the input file {circuit}\n"
    assert captured.out == ""
    assert Path(circuit).read_bytes() == before
    report = write(tmp_path, "r.tsv", "old report\n")
    trace = tmp_path / "t.jsonl"
    os.link(report, trace)
    assert main(["solve", circuit, "--level", "2", "--out", report, "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == f"error: outputs {report} and {trace} are the same file\n"
    assert Path(report).read_text() == "old report\n"


def test_reduce_dvd_to_files(tmp_path):
    dvd = write(tmp_path, "h.txt", FAN_IN_DVD)
    out = tmp_path / "reduced.txt"
    assert main(["reduce-dvd", dvd, "--out", str(out)]) == 0
    reduced = formats.parse_circuit(out.read_text())
    assert reduced.n == 12
    assert (tmp_path / "reduced.txt.map").read_text() == (
        "source\ts0\n"
        "clone\ta\tclone(a)\n"
        "clone\tb\tclone(b)\n"
        "clone\tc\tclone(c)\n"
        "clone\td\tclone(d)\n"
        "gadget\td\tw1(d) w2(d) w3(d)\n"
    )


def test_reduce_dvd_to_stdout(tmp_path, capsys):
    dvd = write(tmp_path, "h.txt", FAN_IN_DVD)
    assert main(["reduce-dvd", dvd]) == 0
    out = capsys.readouterr().out
    assert "node s0 white" in out
    assert "gadget\td\tw1(d) w2(d) w3(d)" in out


def test_gen_writes_parseable_deterministic_files(tmp_path, capsys):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    args = ["gen", "--kind", "layered", "--layers", "4", "--width", "3", "--seed", "9"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    parsed = formats.parse_circuit(first.read_text())
    assert parsed.n == 12

    assert main(["gen", "--kind", "red-chain", "--length", "3"]) == 0
    printed = capsys.readouterr().out
    assert printed == formats.format_circuit(generate.red_chain(3))

    sp = tmp_path / "sp.txt"
    assert main(["gen", "--kind", "series-parallel", "--size", "18", "--out", str(sp)]) == 0
    assert formats.parse_circuit(sp.read_text()).n >= 2


def test_check_rejects_unknown_mark_names(tmp_path, capsys):
    circuit = write(tmp_path, "c.txt", CHAIN)
    marks = write(tmp_path, "m.txt", "r9\n")
    assert main(["check", circuit, marks, "--level", "2"]) == 2
    assert "unknown vertex name" in capsys.readouterr().err


def test_smoke_script_parses():
    script = Path(__file__).with_name("smoke.sh")
    result = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
