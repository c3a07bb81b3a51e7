import argparse
import errno
import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import fct
from fct import (
    arrangement, cli, cluster, ehrhart, grid, kernels, noncrossing, nonnesting, rootsys,
    verify, weyl,
)
from fct.errors import InternalInvariantError, ResourceLimitError
from fct.poly import BivarPoly
from fct.rootsys import TypeSpec, build_root_system

from conftest import FAMILY_TYPES, rsys
from oracles import chain_lists, nc_lists

GOLDEN_H_A2_K1 = {
    "triangle": "H",
    "type": "A2",
    "k": 1,
    "n": 2,
    "monomials": [[0, 0, 1], [1, 0, 1], [1, 1, 2], [2, 2, 1]],
}


def _fresh_env():
    """The environment of a fresh interpreter that imports this ``fct``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fct.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_json_golden(capsys):
    code, out, _ = run(capsys, ["triangle", "H", "--type", "A2", "-k", "1", "--json"])
    assert code == 0
    assert json.loads(out) == GOLDEN_H_A2_K1
    # canonical bytes: sorted keys, no spaces, trailing newline
    assert out == json.dumps(GOLDEN_H_A2_K1, sort_keys=True, separators=(",", ":")) + "\n"


def test_triangle_output_is_deterministic(capsys):
    argv = ["triangle", "M", "--type", "B2", "-k", "2", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_triangle_plain_and_latex(capsys):
    code, out, _ = run(capsys, ["triangle", "M", "--type", "A1", "-k", "1"])
    assert code == 0
    assert out.strip() == "1 - y + xy"
    code, out, _ = run(capsys, ["triangle", "M", "--type", "A1", "-k", "1", "--latex"])
    assert code == 0
    assert "y" in out


def test_triangle_writes_file(tmp_path, capsys):
    target = tmp_path / "h.json"
    code, out, _ = run(
        capsys,
        ["triangle", "H", "--type", "A2", "-k", "1", "--json", "--out", str(target)],
    )
    assert code == 0
    assert json.loads(target.read_text()) == GOLDEN_H_A2_K1


def test_out_writes_the_stdout_bytes(tmp_path, capsys):
    # the chain and sequence dumps are written as text, to either target
    target = tmp_path / "dump.json"
    for what in ("nn", "nc"):
        argv = ["dump", what, "--type", "B3", "-k", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, [*argv, "--out", str(target)]) == (0, "", ""), what
        assert target.read_bytes() == out.encode(), what


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    target = tmp_path / "no" / "such" / "dir" / "h.txt"
    monkeypatch.setattr(
        sys, "argv", ["fct", "triangle", "H", "--type", "A2", "-k", "1", "--out", str(target)]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"fct: cannot write {target}: No such file or directory\n"


def test_empty_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an empty name is refused before any work, not read as stdout
    monkeypatch.chdir(tmp_path)
    for command in (["triangle", "H"], ["dump", "nn"]):
        monkeypatch.setattr(
            sys, "argv", ["fct", *command, "--type", "A2", "-k", "1", "--out", ""]
        )
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2, command
        assert capsys.readouterr() == ("", "fct: --out needs a file name\n"), command
        assert os.listdir(tmp_path) == [], command


def test_failed_out_write_keeps_the_old_target(tmp_path, capsys, monkeypatch):
    # the disk fills after a few bytes: the old file must survive whole,
    # and no temporary file may stay behind
    target = tmp_path / "h.txt"
    target.write_text("old bytes\n")

    def full_disk(path, mode="r"):
        fh = open(path, mode)
        write = fh.write

        def partial_write(text):
            write(text[:4])
            fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.write = partial_write
        return fh

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    monkeypatch.setattr(
        sys, "argv", ["fct", "triangle", "H", "--type", "A2", "-k", "1", "--out", str(target)]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"fct: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
    )
    assert target.read_text() == "old bytes\n"
    assert os.listdir(tmp_path) == ["h.txt"]


def test_verify_ok(capsys):
    # the line names the type as parsed, not as typed
    code, out, _ = run(capsys, ["verify", "h=f", "--type", "b2", "-k", "2"])
    assert code == 0
    assert out == "h=f B2 k=2: ok\n"
    code, out, _ = run(capsys, ["verify", "counts", "--type", "A2", "-k", "3", "--quiet"])
    assert code == 0
    assert out == ""


def test_verify_usage_errors_exit_2(capsys, monkeypatch):
    requests = [
        ["verify", name, "--type", "B2", "-k", "2"] for name in sorted(verify.K1_ONLY)
    ] + [
        ["verify", name, "--type", "A1xA1", "-k", "1"]
        for name in sorted(verify.IRREDUCIBLE_ONLY)
    ] + [
        ["verify", "final", "--type", "B2", "-k", "3"],
        ["triangle", "H", "--type", "Z9", "-k", "1"],
        ["triangle", "H", "--type", "A1_0", "-k", "1"],
        ["verify", "nonsense", "--type", "A2", "-k", "1"],
    ]
    for argv in requests:
        monkeypatch.setattr(sys, "argv", ["fct"] + argv)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2, argv
        capsys.readouterr()
    # the grid skips the k=1 statements at every other k
    assert cli.main(["grid", "acceptance"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    for line in lines[1:-1]:
        row = dict(zip(header, line.split()))
        if row["k"] != "1":
            assert {row[name] for name in verify.K1_ONLY} == {"-"}, line


def test_readme_states_the_identity_domains():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = " ".join(readme.split("\nIdentities: ", 1)[1].split("\n\n")[0].split())

    def names(pattern):
        return sorted(re.search(pattern, paragraph).group(1).split(", "))

    assert names(r"^(.*?)\. ") == sorted(verify.IDENTITIES)
    assert names(r"These need k=1: (.*?)\.") == sorted(verify.K1_ONLY)
    assert names(r"These need an irreducible type: (.*?)\.") == sorted(
        verify.IRREDUCIBLE_ONLY
    )


def test_held_out_miss_fails_with_its_k(capsys, monkeypatch):
    g2 = fct.build_root_system(fct.TypeSpec.parse("G2"))
    # G2 has quasi-period 1: the fit takes k = 1..3, and k = 4, 5 are held out;
    # every sample k is read from one lattice point count, at t = 6k + 1
    wall_histograms = ehrhart.wall_histograms

    def off_at_5(rs, top):
        histograms = list(wall_histograms(rs, top))
        counts = histograms[31]
        histograms[31] = counts[:1] + (counts[1] + 1,) + counts[2:]
        return tuple(histograms)

    monkeypatch.setattr(ehrhart, "wall_histograms", off_at_5)
    assert verify.run_identity("lattice-nar", g2, 1)["held_out_k"] == 5
    code, out, _ = run(capsys, ["verify", "lattice-nar", "--type", "G2", "-k", "1"])
    assert code == 1
    assert json.loads(out)["detail"]["held_out_k"] == 5

    # A2: the fit takes k = 1..3, and k = 4..6 are held out
    h_triangles = nonnesting.h_triangles

    def off_at_last(rs, k):
        samples = h_triangles(rs, k)
        return samples[:-1] + (samples[-1] + BivarPoly.one(),)

    monkeypatch.setattr(nonnesting, "h_triangles", off_at_last)
    code, out, _ = run(capsys, ["verify", "recip", "--type", "A2", "-k", "1"])
    assert code == 1
    assert json.loads(out)["detail"]["held_out_k"] == 6


def test_readme_usage_rules_exit_2(capsys, monkeypatch):
    # every k=0 request is a usage error; recip needs k=1
    for argv in [
        ["dump", "ehrhart", "--type", "A2", "-k", "0"],
        ["verify", "recip", "--type", "A2", "-k", "2"],
    ]:
        monkeypatch.setattr(sys, "argv", ["fct"] + argv)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fct: ")


# Run in a fresh interpreter: atexit runs its handlers last in, first
# out, so this check, registered before entry registers its hook, runs
# after the hook.
EXIT_PROBE = """
import atexit, gc, sys
from fct import cli
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
sys.argv = ["fct", *sys.argv[1:]]
cli.entry()
"""


def test_fct_exits_without_walking_its_heap():
    for argv, code in [
        (["verify", "counts", "--type", "A2", "-k", "1", "--quiet"], 0),
        (["verify", "counts", "--type", "A2", "-k", "0"], 2),
    ]:
        done = subprocess.run(
            [sys.executable, "-c", EXIT_PROBE, *argv],
            env=_fresh_env(), capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (code, "frozen True\n"), argv


def test_entry_in_process_leaves_the_collector_alone(capsys, monkeypatch):
    # the hook freezes the heap only when this process exits
    monkeypatch.setattr(sys, "argv", ["fct", "verify", "counts", "--type", "A2", "-k", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "counts A2 k=1: ok\n"
    assert gc.get_freeze_count() == 0


def test_module_entry_point():

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "fct.cli", *argv],
            env=_fresh_env(), capture_output=True, text=True,
        )

    ok = run_module("verify", "counts", "--type", "A2", "-k", "1")
    assert ok.returncode == 0
    assert ok.stdout == "counts A2 k=1: ok\n"
    bad = run_module("verify", "counts", "--type", "A2", "-k", "0")
    assert bad.returncode == 2
    assert bad.stdout == ""


def test_dump_ehrhart_past_state_bound_exits_4():
    # 2 * 10**8 dilations of A1: the lattice DP is bounded before it starts
    done = subprocess.run(
        [sys.executable, "-m", "fct.cli", "dump", "ehrhart", "--type", "A1",
         "-k", "100000000"],
        env=_fresh_env(), capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 4
    assert done.stdout == ""
    assert "800000008 states" in done.stderr


def test_large_rank_exits_4_before_the_closure():
    # A400 has 80 200 positive roots; its closure would run for minutes
    done = subprocess.run(
        [sys.executable, "-m", "fct.cli", "triangle", "H", "--type", "A400", "-k", "1"],
        env=_fresh_env(), capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 4
    assert done.stdout == ""
    assert "12832000000 steps" in done.stderr


# Run in a fresh interpreter: prints the fct modules and the heavy
# standard library modules loaded after each step, and the modules the
# perfbench tracer patches (argv[1] is the perfbench directory).
LOAD_PROBE = """
import contextlib, io, json, sys

def loaded():
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    return sorted(m for m in sys.modules if m.startswith("fct.") or m in heavy)

steps = {}
import fct.cli
steps["import"] = loaded()
for triangle in "MH":
    with contextlib.redirect_stdout(io.StringIO()):
        fct.cli.main(["triangle", triangle, "--type", "B3", "-k", "1"])
    steps["triangle " + triangle] = loaded()
import fct.verify
steps["verify"] = loaded()
import fct.grid
steps["grid"] = sorted(
    m for m in ("multiprocessing", "socket", "selectors") if m in sys.modules
)
sys.path.insert(0, sys.argv[1])
import tracer
steps["traced"] = sorted({"fct." + m for m, *_ in tracer.SPANS + tracer.COUNTERS})
print(json.dumps(steps))
"""


def test_commands_load_only_their_layers():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    done = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, str(perfbench)],
        env=_fresh_env(), capture_output=True, text=True, check=True,
    )
    steps = json.loads(done.stdout)
    assert steps["import"] == ["fct.cli", "fct.errors", "fct.rootsys"]
    # only the clique census, which triangle H and M never run, reads the
    # compiled core's switch
    unused = {
        "fct.arrangement", "fct.cluster", "fct.ehrhart", "fct.verify",
        "fct.kernels", "fct._fastcore",
    }
    assert not (unused | {"fct.nonnesting"}) & set(steps["triangle M"])
    assert not unused & set(steps["triangle H"])
    assert "fct.kernels" in steps["verify"]
    # the grid forks and pipes with os, pickle and select alone
    assert steps["grid"] == []
    assert set(steps["traced"]) <= set(steps["verify"])


# Run in a fresh interpreter: one dump (argv[1]) on A2 k=1, then the fct
# modules it loaded, the compiled core aside.
DUMP_LOAD_PROBE = """
import contextlib, io, sys
import fct.cli
with contextlib.redirect_stdout(io.StringIO()):
    fct.cli.main(["dump", sys.argv[1], "--type", "A2", "-k", "1"])
print(" ".join(sorted(
    m[4:] for m in sys.modules if m.startswith("fct.") and m != "fct._fastcore"
)))
"""


def test_each_dump_loads_only_its_layers():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    what = next(a for a in commands.choices["dump"]._actions if a.dest == "what")
    assert list(what.choices) == list(cli.DUMPS) == [
        "nn", "fnumbers", "nc", "regions", "ehrhart",
    ]
    common = {"cli", "errors", "rootsys", "_purecore"}
    layers = {
        "nn": {"nonnesting", "poly"},
        "fnumbers": {"cluster", "kernels", "poly"},
        "nc": {"noncrossing", "poly", "weyl"},
        "regions": {"arrangement", "nonnesting", "poly"},
        "ehrhart": {"ehrhart"},
    }
    for name, own in layers.items():
        done = subprocess.run(
            [sys.executable, "-c", DUMP_LOAD_PROBE, name],
            env=_fresh_env(), capture_output=True, text=True, check=True,
        )
        assert set(done.stdout.split()) == common | own, name


def test_verify_choices_are_the_identities_and_grid_columns():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    identity = next(a for a in commands.choices["verify"]._actions if a.dest == "identity")
    # IDENTITIES is a dict, so equal sorted lists also rule out a
    # column named twice
    assert list(identity.choices) == sorted(verify.IDENTITIES) == sorted(cli.GRID_COLUMNS)


def test_argparse_rejects_conflicting_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["triangle", "H", "--type", "A2", "-k", "1", "--json", "--latex"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_resource_bound_exits_4(capsys, monkeypatch):
    # E6 at k = 7 has 10 914 604 geometric chains
    monkeypatch.setattr(
        sys, "argv", ["fct", "verify", "counts", "--type", "E6", "-k", "7"]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    assert "resource bound" in capsys.readouterr().err


def test_out_of_memory_exits_4(capsys, monkeypatch):
    # MemoryError is what any allocation, or the compiled core's allocation
    # checks, raise; in grid the worker sends it back to the parent
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(arrangement, "wall_report", no_memory)
    for argv in (
        ["verify", "pos", "--type", "A2", "-k", "1"],
        ["grid", "acceptance", "--quiet"],
    ):
        arrangement.ceilings_poly.cache_clear()
        monkeypatch.setattr(sys, "argv", ["fct", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 4, argv
        assert capsys.readouterr().err == (
            "fct: resource bound exceeded: out of memory\n"
        ), argv
    arrangement.ceilings_poly.cache_clear()


def test_census_past_subfilter_pair_bound_exits_4(capsys, monkeypatch):
    # the census of E8 at k = 1..3 would visit 23 855 289 chains, counted
    # before the filters are listed
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(nonnesting, "_chain_data", no_walk)
    for command in (["triangle", "H"], ["verify", "counts"]):
        monkeypatch.setattr(sys, "argv", ["fct", *command, "--type", "E8", "-k", "3"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 4, command
        assert "k=1..3 visits 23855289 chains" in capsys.readouterr().err


def test_recip_past_chain_bound_exits_4(capsys, monkeypatch):
    # the census of k = 1..10 would visit 166 255 385 chains of E6
    monkeypatch.setattr(
        sys, "argv", ["fct", "verify", "recip", "--type", "E6", "-k", "1"]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    assert "166255385 chains" in capsys.readouterr().err


def test_census_bound_needs_no_loop_over_k(capsys, monkeypatch):
    # B3 at k = 10**12: the bound of the chain walk and of the delta
    # sequence walk reads at most n + 2 = 5 Fuss-Catalan numbers, not
    # 10**12 of them
    fc = rootsys.fuss_catalan_number
    for command, message in [
        (["triangle", "H"], "k=1..1000000000000 visits"),
        (["dump", "nc"], "k=1000000000000 lists"),
    ]:
        calls = []

        def counting_fc(rs, m):
            calls.append(m)
            return fc(rs, m)

        monkeypatch.setattr(rootsys, "fuss_catalan_number", counting_fc)
        monkeypatch.setattr(
            sys, "argv", ["fct", *command, "--type", "B3", "-k", str(10**12)]
        )
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 4, command
        assert message in capsys.readouterr().err, command
        assert 1 <= len(calls) <= 5, command


def test_compatibility_graph_past_pair_bound_exits_4(capsys, monkeypatch):
    # A1 at k = 10**7 has 10 000 001 vertices, 50 000 005 000 000 pairs
    def no_rotation(*args):
        raise AssertionError("the rotation table was built")

    monkeypatch.setattr(cluster, "colored_rotation", no_rotation)
    for command in (["triangle", "F"], ["dump", "fnumbers"]):
        monkeypatch.setattr(
            sys, "argv", ["fct", *command, "--type", "A1", "-k", "10000000"]
        )
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 4, command
        assert "50000005000000 vertex pairs" in capsys.readouterr().err
    # E8 at k = 2 fits: 248 vertices, 30 628 pairs
    e8 = build_root_system(TypeSpec.parse("E8"))
    assert cluster.vertex_count(e8, 2) == 248
    with pytest.raises(AssertionError, match="the rotation table was built"):
        cluster.compat_masks(e8, 2)


def test_noncrossing_needs_no_group(capsys, monkeypatch):
    def no_group(*args):
        raise AssertionError("the Weyl group was generated")

    built = []

    class CountedElement(weyl.GroupElement):
        def __init__(self, rs, img):
            built.append(img)
            super().__init__(rs, img)

    def clear():
        for fn in vars(noncrossing).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()

    clear()
    monkeypatch.setattr(weyl, "generate_group", no_group)
    try:
        for argv in (
            ["triangle", "M", "--type", "B3", "-k", "2"],
            ["dump", "nc", "--type", "B3", "-k", "2"],
            ["verify", "counts", "--type", "B3", "-k", "2"],
        ):
            code, out, _ = run(capsys, argv)
            assert code == 0, argv
            assert out
        assert out.strip().endswith("ok")
        # the slots are sorted from the tables, not from one group
        # element per member of [1, c], which has 833 for E6
        clear()
        monkeypatch.setattr(weyl, "GroupElement", CountedElement)
        code, out, _ = run(capsys, ["dump", "nc", "--type", "E6", "-k", "1"])
        assert code == 0 and out
        assert len(built) < 833
    finally:
        clear()


def test_noncrossing_past_byte_bound_exits_4(capsys, monkeypatch):
    # the tables of [1, c] of E8xE8 hold FC(W, 2) = 2 313 203 730 084 pairs
    # and 629 006 400 elements x 240 reflections, 4 bytes an entry twice
    def no_walk(*args):
        raise AssertionError("the cover walk started")

    monkeypatch.setattr(weyl, "coxeter_element", no_walk)
    monkeypatch.setattr(weyl, "reflections", no_walk)
    monkeypatch.setattr(
        sys, "argv", ["fct", "triangle", "M", "--type", "E8xE8", "-k", "1"]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    assert "19713322128672 bytes" in capsys.readouterr().err
    # E8 itself fits: 36 244 176 bytes
    e8 = build_root_system(TypeSpec.parse("E8"))
    assert noncrossing.table_bytes(e8) == 36244176 <= noncrossing.TABLE_BYTE_LIMIT


def test_dump_nc_past_sequence_bound_exits_4(capsys, monkeypatch):
    # F4 at k = 40 has 48 822 021 delta sequences
    def no_tables(*args):
        raise AssertionError("the interval tables were built")

    monkeypatch.setattr(noncrossing, "_interval_tables", no_tables)
    monkeypatch.setattr(sys, "argv", ["fct", "dump", "nc", "--type", "F4", "-k", "40"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    assert "48822021 sequences" in capsys.readouterr().err


def test_dump_nc_past_multichain_bound_exits_4(capsys, monkeypatch):
    # B2 at k = 500 has 501 501 delta sequences, within the bound, but
    # the walk down the multichains visits 83 959 750 of them on the way
    def no_tables(*args):
        raise AssertionError("the interval tables were built")

    monkeypatch.setattr(noncrossing, "_interval_tables", no_tables)
    monkeypatch.setattr(sys, "argv", ["fct", "dump", "nc", "--type", "B2", "-k", "500"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    err = capsys.readouterr().err
    assert "501501 sequences and visits 83959750 multichains" in err


def test_past_the_recursion_limit_exits_4(capsys, monkeypatch):
    # the chain walk recurses once per filter of a chain: A1 at these k
    # is within every count bound, but past the interpreter's recursion limit
    for argv in (
        "triangle H --type A1 -k 2000",
        "verify counts --type A1 -k 1200",
        "dump nn --type A1 -k 1500",
        "dump regions --type A1 -k 1500",
    ):
        monkeypatch.setattr(sys, "argv", ["fct", *argv.split()])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 4, argv
        assert capsys.readouterr().err == (
            "fct: resource bound exceeded: recursion too deep\n"
        ), argv


def test_dump_nc_past_the_recursion_limit(capsys, monkeypatch):
    # the delta sequence walk is a loop, so its depth k is not bounded
    # by the recursion limit: A1 has k + 1 sequences
    monkeypatch.setattr(sys, "argv", ["fct", "dump", "nc", "--type", "A1", "-k", "1500"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
    seqs = json.loads(capsys.readouterr().out)
    assert len(seqs) == 1501


def test_arrangement_past_listing_bound_exits_4(capsys, monkeypatch):
    # listing the E8 chains at k = 3 would visit 23 855 289 chains on the
    # way, counted before the filters are listed
    def no_walk(*args):
        raise AssertionError("the walk started")

    monkeypatch.setattr(nonnesting, "_chain_data", no_walk)
    for command in (["verify", "phi"], ["verify", "pos"], ["dump", "regions"]):
        monkeypatch.setattr(sys, "argv", ["fct", *command, "--type", "E8", "-k", "3"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 4, command
        assert "k=1..3 visits 23855289 chains" in capsys.readouterr().err


def test_dump_nc_b4_bytes_match_the_reference(capsys):
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    digest = json.loads(reference.read_text())["cold"]["dump nc --type B4 -k 2"]
    code, out, _ = run(capsys, ["dump", "nc", "--type", "B4", "-k", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dump_nc_e7_bytes_are_pinned(capsys):
    # E7's Weyl group is past GROUP_ORDER_LIMIT, so the group-element
    # oracle of test_noncrossing cannot check these bytes; pin them
    code, out, _ = run(capsys, ["dump", "nc", "--type", "E7", "-k", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1f4ab18043f9ea45f730163b817f9c7a421966b2fac4c4f8af217e17b10d5a62"
    )


@pytest.mark.parametrize("argv, digest", [
    ("dump nn --type E6 -k 2",
     "7dd0763c0033a295b63c876a4bd5cca44d1757398afd540a9ad94a791e611b74"),
    ("dump regions --type F4 -k 2",
     "ce291a5ef12191b834b08e7d46875d0ebf506f35e3438cd184778af8ec2e2c86"),
])
def test_dump_nn_and_regions_bytes_are_pinned(capsys, argv, digest):
    # the chain masks and level vectors past the brute-force oracles'
    # reach, byte for byte
    code, out, _ = run(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_internal_invariant_exits_3(capsys, monkeypatch):
    def boom(argv=None):
        raise InternalInvariantError("wedged")

    monkeypatch.setattr(cli, "main", boom)
    monkeypatch.setattr(sys, "argv", ["fct", "verify", "counts", "--type", "A2", "-k", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    assert "invariant" in capsys.readouterr().err


def test_dump_nn(capsys):
    code, out, _ = run(capsys, ["dump", "nn", "--type", "A2", "-k", "1"])
    assert code == 0
    chains = json.loads(out)
    assert len(chains) == 5


def test_chain_and_sequence_dumps_are_the_json_of_their_lists():
    # built from one text per filter or element, they must be the bytes
    # _json_bytes writes for the whole list
    for name in FAMILY_TYPES + ["B2xG2"]:
        rs = rsys(name)
        for k in (1, 2):
            assert nonnesting.chains_json(rs, k) == cli._json_bytes(chain_lists(rs, k)), (name, k)
            assert noncrossing.nc_json(rs, k) == cli._json_bytes(nc_lists(rs, k)), (name, k)
    # the empty filters of a chain and the empty word of the identity
    assert nonnesting.chains_json(rsys("A1"), 2) == "[[[],[]],[[0],[]],[[0],[0]]]\n"
    assert noncrossing.nc_json(rsys("A1"), 1) == "[[[0],[]],[[],[0]]]\n"


def test_dump_fnumbers(capsys):
    code, out, _ = run(capsys, ["dump", "fnumbers", "--type", "A2", "-k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert sum(c for l, m, c in payload["f"] if l + m == 2) >= 12


def test_dump_nc(capsys):
    code, out, _ = run(capsys, ["dump", "nc", "--type", "B2", "-k", "1"])
    assert code == 0
    assert len(json.loads(out)) == 6


def test_dump_regions(capsys):
    code, out, _ = run(capsys, ["dump", "regions", "--type", "A2", "-k", "1"])
    assert code == 0
    regions = json.loads(out)
    assert len(regions) == 5
    for entry in regions:
        assert set(entry) == {
            "levels", "walls", "floors", "ceilings", "bounded", "CL_k",
        }
    assert sum(e["bounded"] for e in regions) == 2


def test_dump_ehrhart_csv(capsys):
    code, out, _ = run(capsys, ["dump", "ehrhart", "--type", "A1", "-k", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,i,N"
    assert lines[1:] == ["1,0,0", "1,1,1", "2,0,0", "2,1,2", "3,0,1", "3,1,1"]


def test_dump_ehrhart_rejects_reducible(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "argv", ["fct", "dump", "ehrhart", "--type", "A1xA1", "-k", "1"]
    )
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    capsys.readouterr()


def test_grid_unknown_suite(capsys):
    from fct.errors import UsageError

    with pytest.raises(UsageError):
        grid.cells("everything")
    with pytest.raises(SystemExit) as exc:
        cli.main(["grid", "everything"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_grid_acceptance_quiet(capsys, monkeypatch):
    # one clique census per distinct complex, counted in this process
    calls = []
    census = kernels.clique_census

    def counting_census(*args):
        calls.append(args)
        return census(*args)

    monkeypatch.setattr(kernels, "clique_census", counting_census)
    for fn in (cluster.colored_rotation, cluster.build_complex, cluster.f_triangle):
        fn.cache_clear()
    cells = grid.cells("acceptance")
    assert len(cells) == 22
    for cell in cells:
        grid.row(cell)
    assert len(calls) == 24
    assert cli.main(["grid", "acceptance", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def _grid_in_process(cells):
    return [grid.row(cell) for cell in cells]


@pytest.mark.parametrize("cpus, count, workers", [(1, 22, 1), (8, 3, 3)])
def test_grid_forks_one_worker_per_cpu_and_cell(monkeypatch, cpus, count, workers):
    cells = grid.cells("acceptance")[:count]
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counting_fork)
    assert grid.run_cells(cells) == _grid_in_process(cells)
    assert len(forks) == workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _b2_k2_raises(rs, k):
    if (str(rs.typespec), k) == ("B2", 2):
        raise ResourceLimitError("planted bound")
    return None


def _g2_k2_dies(rs, k):
    if (str(rs.typespec), k) == ("G2", 2):
        os._exit(7)
    return None


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
@pytest.mark.parametrize("plant", [None, _b2_k2_raises, _g2_k2_dies])
def test_grid_leaves_no_descriptor_open(monkeypatch, plant):
    if plant is not None:
        monkeypatch.setitem(verify.IDENTITIES, "h=f", plant)
    before = sorted(os.listdir("/proc/self/fd"))
    try:
        outcomes = grid.run_cells(grid.cells("acceptance"))
    except InternalInvariantError:
        assert plant is _g2_k2_dies
    else:
        assert isinstance(outcomes[-1], ResourceLimitError) == (plant is _b2_k2_raises)
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("plant", [None, _b2_k2_raises, _g2_k2_dies])
def test_grid_leaves_the_callers_heap_unfrozen(capsys, monkeypatch, plant):
    # the workers fork from a frozen heap; once they are reaped the
    # caller's collector walks its objects again, however the grid ends
    if plant is not None:
        monkeypatch.setitem(verify.IDENTITIES, "h=f", plant)
    try:
        assert cli.main(["grid", "acceptance", "--quiet"]) == 0
    except (ResourceLimitError, InternalInvariantError):
        assert plant is not None
    assert gc.get_freeze_count() == 0


def test_grid_in_dev_mode_warns_of_nothing():
    # dev mode reports, among other things, every pipe file left unclosed
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "fct.cli", "grid", "acceptance", "--quiet"],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_grid_workers_match_the_cells_run_in_process(capsys, monkeypatch):
    for flags in ([], ["--quiet"]):
        argv = ["grid", "acceptance", *flags]
        parallel = run(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(grid, "run_cells", _grid_in_process)
            assert run(capsys, argv) == parallel, flags


def _fail_on(cells):
    """An h=f that fails on the given (type, k) cells."""
    h_eq_f = verify.IDENTITIES["h=f"]

    def identity(rs, k):
        if (str(rs.typespec), k) in cells:
            return {"planted": True}
        return h_eq_f(rs, k)

    return identity


def test_grid_fail_lines_come_in_grid_order(capsys, monkeypatch):
    # F4 k=2 is dispatched before A1 k=1 but comes after it in the grid
    monkeypatch.setitem(
        verify.IDENTITIES, "h=f", _fail_on({("A1", 1), ("F4", 2)})
    )
    code, out, err = run(capsys, ["grid", "acceptance"])
    assert code == 1
    assert err.splitlines() == [
        "h=f A1 k=1: FAIL {'planted': True}",
        "h=f F4 k=2: FAIL {'planted': True}",
    ]
    assert out.count("FAIL") == 2
    assert out.splitlines()[-1] == "grid: acceptance, 22 cell(s), 2 failure(s)"


def test_grid_cell_error_after_earlier_fail_lines(capsys, monkeypatch):
    # A1 k=1 fails before B2 k=2 raises; F4 k=1, later, also fails
    fail = _fail_on({("A1", 1), ("F4", 1)})

    def identity(rs, k):
        if (str(rs.typespec), k) == ("B2", 2):
            raise ResourceLimitError("planted bound")
        return fail(rs, k)

    monkeypatch.setitem(verify.IDENTITIES, "h=f", identity)
    monkeypatch.setattr(sys, "argv", ["fct", "grid", "acceptance"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "h=f A1 k=1: FAIL {'planted': True}\n"
        "fct: resource bound exceeded: planted bound\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_grid_worker_death_exits_3(capsys, monkeypatch):
    h_eq_f = verify.IDENTITIES["h=f"]

    def identity(rs, k):
        if (str(rs.typespec), k) == ("G2", 2):
            os._exit(7)
        return h_eq_f(rs, k)

    monkeypatch.setitem(verify.IDENTITIES, "h=f", identity)
    monkeypatch.setattr(sys, "argv", ["fct", "grid", "acceptance", "--quiet"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 3
    assert "G2 k=2" in capsys.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Run in a fresh interpreter: every cell's result is a function, which
# no pipe can carry, so the worker fails with its exception escaping.
# One worker, so no sibling can end it first.
UNSENDABLE_RESULT = """
import os, sys
from fct import cli, grid
grid.row = lambda cell: lambda: None
os.sched_getaffinity = lambda pid: {0}
sys.argv = ["fct", "grid", "acceptance"]
cli.entry()
"""


def test_grid_worker_never_returns_into_the_caller():
    # a worker whose exception escapes ends there: it must not go on to
    # print the table or a traceback of its own
    done = subprocess.run(
        [sys.executable, "-c", UNSENDABLE_RESULT],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert re.fullmatch(
        r"fct: internal invariant violated: grid worker died on cell \w+ k=\d "
        r"without a result\n",
        done.stderr,
    ), done.stderr


def test_verify_fail_line_bytes(capsys, monkeypatch):
    monkeypatch.setitem(verify.IDENTITIES, "h=f", _fail_on({("B2", 2)}))
    code, out, err = run(capsys, ["verify", "h=f", "--type", "b2", "-k", "2", "--quiet"])
    assert code == 1
    assert out == '{"detail":{"planted":true},"identity":"h=f","k":2,"type":"B2"}\n'
    assert err == ""


def test_grid_cells_keep_the_identity_domains(monkeypatch):
    # cost reads the Fuss-Catalan number at the depth of the cell's census
    monkeypatch.setattr(grid, "fuss_catalan_number", lambda rs, depth: depth)
    recip_cells = 0
    for suite in ("acceptance", "extended"):
        for cell in grid.cells(suite):
            name, k, identities = cell
            assert list(identities) == [i for i in cli.GRID_COLUMNS if i in identities], cell
            spec = TypeSpec.parse(name)
            if k != 1:
                assert not verify.K1_ONLY & set(identities), cell
            if len(spec.factors) != 1:
                assert not verify.IRREDUCIBLE_ONLY & set(identities), cell
            recip = "recip" in identities
            recip_cells += recip
            assert grid.cost(cell) == (spec.rank + 4 if recip else k), cell
    assert recip_cells == 16
    # recip's depth has one home, in verify; F4 k=1, whose recip census
    # goes to depth 8, is the costliest acceptance cell
    monkeypatch.setattr(verify, "recip_depth", lambda rs: 40)
    assert grid.cost(("F4", 1, ("recip",))) == 40
    monkeypatch.undo()
    assert max(grid.cells("acceptance"), key=grid.cost)[:2] == ("F4", 1)


def test_unexpected_exception_exits_3_with_its_traceback(capsys, monkeypatch):
    def planted_key_error(rs, k):
        raise KeyError("planted")

    monkeypatch.setitem(verify.IDENTITIES, "h=f", planted_key_error)
    for argv in (["verify", "h=f", "--type", "B2", "-k", "2"], ["grid", "acceptance"]):
        monkeypatch.setattr(sys, "argv", ["fct", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("Traceback"), argv
        assert "KeyError: 'planted'" in captured.err, argv
        # the raising frame: a grid worker sends it back as a note
        assert "in planted_key_error" in captured.err, argv
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_closed_reader_ends_fct_as_it_ends_cat():
    """A reader gone before fct writes: fct dies of SIGPIPE, as cat
    does, with no traceback."""
    for argv in (["dump", "nn", "--type", "B2", "-k", "2"], ["grid", "acceptance"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fct.cli", *argv],
                env=_fresh_env(), stdout=write, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        finally:
            os.close(write)
        assert done.returncode == -signal.SIGPIPE, (argv, done.stderr)
        assert done.stderr == "", argv


def test_grid_table_shape(capsys):
    assert cli.main(["grid", "acceptance"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split()[:5] == ["type", "k", "|NN|", "facets", "|NC|"]
    assert len(lines) == 1 + 22 + 1
    assert lines[-1] == "grid: acceptance, 22 cell(s), 0 failure(s)"
    assert "FAIL" not in out
