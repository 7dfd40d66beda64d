"""CLI contract: exit codes, report schema, determinism."""

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envchain.catalog import build_catalog, enumerate_subgroups
from envchain import MAX_KMAX, CheckRecord, chains, cli, grp, suites, symnat
from envchain.cli import main
from envchain.grp import nilpotency_class, parse_group_file
from envchain.perm import format_cycles
from views import catalog_file

ROOT = Path(__file__).resolve().parent.parent
REACH = ROOT / "tests" / "data" / "reach"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def render(report: dict, fmt: str) -> str:
    """The whole report as `main` writes it, its pieces joined."""
    if fmt == "json-like":
        return "".join(cli._json_chunks(report))
    return "".join(cli._text_chunks(report, cli._summary(report)))


def strip_timing_text(out: str) -> str:
    return "\n".join(l for l in out.splitlines() if not l.startswith("time: "))


def strip_timing_json(out: str) -> dict:
    doc = json.loads(out)
    doc.pop("timings", None)
    return doc


def flat_checks(report: dict) -> list[tuple]:
    """The report's checks as (id, claim, status, witness), each id under
    its block's prefix, in order."""
    return [(prefix + cid, claim, status, witness)
            for prefix, records in report["checks"] for cid, claim, status, witness in records]


def report_digest(out: str) -> str:
    """SHA-256 of a json-like report without timings, serialized canonically."""
    canon = json.dumps(strip_timing_json(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.fixture
def s3_files(tmp_path):
    g = tmp_path / "s3.grp"
    g.write_text(catalog_file("S3"))
    h = tmp_path / "h.grp"
    h.write_text("degree: 3\n(0 1)\n")
    return str(g), str(h)


def test_ekchain_s3(capsys, s3_files):
    g, h = s3_files
    code, out = run(capsys, "ekchain", g, h, "--kmax", "3")
    assert code == 0
    assert "orders=[6, 2, 2, 2]" in out
    assert "guaranteed_stable=True" in out
    assert "[pass] ekchain-descending" in out


def test_ekchain_auto_kmax_uses_class(capsys, s3_files):
    g, h = s3_files
    code, out = run(capsys, "ekchain", g, h)
    assert code == 0
    assert "orders=[6, 2]" in out  # class-1 subgroup: window of one step


def test_ekchain_whole_group(capsys, s3_files):
    g, _ = s3_files
    code, out = run(capsys, "ekchain", g, g, "--kmax", "2")
    assert code == 0
    assert "orders=[6, 6, 6]" in out


def test_ekchain_json_schema(capsys, s3_files):
    g, h = s3_files
    code, out = run(capsys, "ekchain", g, h, "--kmax", "2", "--format", "json-like")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"tool_version", "command", "checks", "witnesses", "timings"}
    assert doc["command"]["name"] == "ekchain"
    assert doc["witnesses"][0]["orders"] == [6, 2, 2]


def test_ekchain_subgroup_not_contained(capsys, tmp_path, s3_files):
    g, _ = s3_files
    bad = tmp_path / "bad.grp"
    bad.write_text("degree: 3\n(0 1 2)\n(0 2 1)\n")
    ok_code, _ = run(capsys, "ekchain", g, str(bad), "--kmax", "2")
    assert ok_code == 0  # 3-cycles do lie in S3
    notin = tmp_path / "notin.grp"
    notin.write_text("degree: 4\n(0 1 2 3)\n")
    code, _ = run(capsys, "ekchain", g, str(notin), "--kmax", "2")
    assert code == 2


def test_ekchain_parse_error_reports_line(capsys, tmp_path, s3_files):
    g, _ = s3_files
    bad = tmp_path / "broken.grp"
    bad.write_text("degree: 3\n(0 9)\n")
    code = main(["ekchain", g, str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2" in captured.err


def test_group_file_line_ends_only_at_a_newline(capsys, tmp_path):
    # "\f" is whitespace inside a line: the third line is the error's
    g = tmp_path / "f.grp"
    g.write_text("degree: 4\n(0 1)\f(2 3)\n(0 5)\n")
    code = main(["ekchain", str(g), str(g)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"envchain: error: {g}: line 3: point 5 >= degree 4 (at offset 3)\n"


@pytest.mark.parametrize("content", [
    b"degree: 3\n(0 1)  # \xff\n",  # not UTF-8
    "degree: 3\n(0 \u00b2)\n".encode(),  # int() raises on a superscript two
    "degree: 3\n(0 \u0661)\n".encode(),  # int() reads an Arabic-Indic one as 1
    b"degree: 1_0\n(0 1)\n",  # int() reads 10
])
def test_ekchain_unreadable_group_file_exit_2(capsys, tmp_path, s3_files, content):
    g, _ = s3_files
    bad = tmp_path / "bad.grp"
    bad.write_bytes(content)
    code = main(["ekchain", g, str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"envchain: error: {bad}: ") or \
        captured.err.startswith(f"envchain: error: cannot read {bad}: ")


def test_group_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    # editors on Windows often save UTF-8 with a leading byte-order mark
    (tmp_path / "catalog").mkdir()
    g, h, c = tmp_path / "S3.grp", tmp_path / "h.grp", tmp_path / "catalog" / "S3.grp"
    argvs = [(*cmd, "--format", fmt) for fmt in ("text", "json-like")
             for cmd in (("ekchain", str(g), str(h)), ("verify", "--catalog-dir", str(c.parent)))]
    reports = []
    for mark in (b"", b"\xef\xbb\xbf"):
        for path, text in ((g, catalog_file("S3")), (c, catalog_file("S3")), (h, "degree: 3\n(0 1)\n")):
            path.write_bytes(mark + text.encode())
        runs = [run(capsys, *argv) for argv in argvs]
        reports.append([(code, strip_timing_text(out) if argv[-1] == "text" else strip_timing_json(out))
                        for argv, (code, out) in zip(argvs, runs)])
    assert reports[0] == reports[1]
    assert [code for code, _ in reports[1]] == [0] * 4


@pytest.mark.parametrize("content", [
    b"\xef\xbb\xbf\xef\xbb\xbfdegree: 3\n(0 1)\n",  # a second mark
    b"degree: 3\n\xef\xbb\xbf(0 1)\n",  # a mark at the start of a later line
    b"degree: 3\n(0 1)\xef\xbb\xbf\n",
])
def test_group_file_with_a_byte_order_mark_elsewhere_exit_2(capsys, tmp_path, s3_files, content):
    g, _ = s3_files
    bad = tmp_path / "bad.grp"
    bad.write_bytes(content)
    code = main(["ekchain", g, str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"envchain: error: {bad}: line ")


def test_ekchain_degree_over_bound_exit_2(capsys, tmp_path, s3_files):
    g, _ = s3_files
    wide = tmp_path / "wide.grp"
    wide.write_text("degree: 2000000\n(0 1)\n")
    code = main(["ekchain", str(wide), g])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 1" in captured.err


@pytest.mark.parametrize("kmax", [[], ["--kmax", "3"]], ids=["default", "given"])
def test_ekchain_computes_the_subgroup_class_once(capsys, monkeypatch, kmax):
    # one central series for H's class, read for the default window, the
    # stability reason and the report
    s6 = ROOT / "perfbench" / "groups" / "s6"
    series, central_series_indices = [], grp.central_series_indices
    monkeypatch.setattr(grp, "central_series_indices",
                        lambda *a: series.append(a) or central_series_indices(*a))
    code, out = run(capsys, "ekchain", str(s6 / "S6.grp"), str(s6 / "p16.grp"), *kmax)
    assert code == 0
    assert len(series) == 1
    assert "subgroup_class=2" in out and f"kmax={kmax[1] if kmax else 2}" in out


def forbid_input(monkeypatch):
    """Make reading a group file, closing a group, running a chain or the
    model fail the test."""
    monkeypatch.setattr(cli, "_read_group_file", lambda *a: pytest.fail("a file was read"))
    monkeypatch.setattr(grp, "closure", lambda *a, **kw: pytest.fail("a group was closed"))
    monkeypatch.setattr(chains, "ek_chain", lambda *a: pytest.fail("a chain ran"))
    monkeypatch.setattr(symnat, "counterexample_checks", lambda *a: pytest.fail("the model ran"))


@pytest.mark.parametrize("kmax", ["0", "65"])
def test_ekchain_kmax_out_of_range_runs_no_chain(capsys, monkeypatch, s3_files, kmax):
    forbid_input(monkeypatch)
    assert main(["ekchain", *s3_files, "--kmax", kmax]) == 2
    assert capsys.readouterr().err == ("envchain: error: kmax must be >= 1\n" if kmax == "0" else
                                       "envchain: error: kmax 65 exceeds the limit 64\n")


@pytest.mark.parametrize("argv, err", [
    (["ekchain", "S3", "H", "--cap", "0"], "cap must be >= 1"),
    (["verify", "--catalog-dir", "DIR", "--cap", "0"], "cap must be >= 1"),
    (["verify", "--catalog-dir", "DIR", "--kmax", "0"], "kmax must be >= 1"),
    (["verify", "--catalog-dir", "DIR", "--kmax", "65"], "kmax 65 exceeds the limit 64"),
    (["counterexample", "--levels", "1"], "levels must be >= 2"),
    (["counterexample", "--scan-max", "0"], "scan-max must be >= 1"),
    (["counterexample", "--oracle-depth", "-1"], "oracle-depth must be >= 0"),
    (["ekchain", "S3", "H", "--cap", "-1"], "cap must be >= 1"),
    (["verify", "--kmax", "1", "--cap", "0"], "cap must be >= 1"),
    (["ekchain", "S3", "H", "--kmax", "100000000"], "kmax 100000000 exceeds the limit 64"),
    (["verify", "--suite", "structure", "--kmax", "65"], "kmax 65 exceeds the limit 64"),
], ids=["ekchain-cap", "verify-cap", "verify-kmax0", "verify-kmax65", "levels", "scan-max",
        "oracle-depth", "ekchain-cap-negative", "verify-builtin-cap", "ekchain-kmax-1e8",
        "verify-structure-kmax65"])
def test_option_out_of_range_reads_no_input(capsys, monkeypatch, s3_files, argv, err):
    # every option is checked in `main`, before its command reads a file
    cdir = Path(s3_files[0]).parent
    argv = [{"S3": s3_files[0], "H": s3_files[1], "DIR": str(cdir)}.get(a, a) for a in argv]
    forbid_input(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"envchain: error: {err}\n" and captured.out == ""


def test_ekchain_kmax_at_the_limit_exits_0(capsys, s3_files):
    assert main(["ekchain", *s3_files, "--kmax", str(MAX_KMAX)]) == 0


@pytest.mark.parametrize("subgroup, err", [
    ("malformed-3.grp", "{path}: line 2: repeated point 1 (at offset 6)"),
    ("c2-3.grp", "subgroup degree 3 does not match group degree 7"),
], ids=["malformed", "degree"])
def test_ekchain_subgroup_file_is_checked_before_the_group_is_closed(capsys, monkeypatch,
                                                                     subgroup, err):
    path = REACH / "ek" / subgroup
    monkeypatch.setattr(grp, "closure", lambda *a, **kw: pytest.fail("a group was closed"))
    assert main(["ekchain", str(REACH / "s7" / "S7.grp"), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"envchain: error: {err.format(path=path)}\n" and captured.out == ""


def test_ekchain_cap_exceeded(capsys, s3_files):
    g, h = s3_files
    code, _ = run(capsys, "ekchain", g, h, "--cap", "3")
    assert code == 3


def test_ekchain_closes_the_subgroup_only_inside_the_group(capsys, tmp_path, monkeypatch, s3_files):
    # H's generators are checked against G and closed by G.generated_subgroup,
    # so G's cap bounds H; generators outside G whose own closure would pass
    # the cap are a usage error, not a resource limit
    from envchain import grp

    closure, closed = grp.closure, []
    monkeypatch.setattr(grp, "closure", lambda *a, **kw: closed.append(a) or closure(*a, **kw))
    assert run(capsys, "ekchain", *s3_files, "--kmax", "2")[0] == 0
    assert len(closed) == 1  # G's
    g, h = tmp_path / "c2.grp", tmp_path / "s4.grp"
    g.write_text("degree: 4\n(0 1)\n")
    h.write_text("degree: 4\n(0 1 2 3)\n(0 1)\n")
    code = main(["ekchain", str(g), str(h), "--cap", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "envchain: error: subgroup generator (0 1 2 3) is not in the group\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["ekchain", "S3", "H", "--cap", "3"],
    ["verify", "--kmax", "1", "--cap", "3"],
    ["verify", "--kmax", "1", "--cap", "3", "--catalog-dir", "DIR"],
])
def test_cap_overflow_exit_3(capsys, s3_files, argv):
    # the closure BFS holds the identity and the two generators of S3 (or
    # of A4, the first built-in group), then a fourth element
    cdir = Path(s3_files[0]).parent
    argv = [{"S3": s3_files[0], "H": s3_files[1], "DIR": str(cdir)}.get(a, a) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "envchain: resource limit: closure exceeded cap 3 (at least 4 elements)\n"
    assert captured.out == ""


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_custom_catalog(capsys, tmp_path):
    cdir = tmp_path / "cat"
    cdir.mkdir()
    (cdir / "S3.grp").write_text(catalog_file("S3"))
    (cdir / "D8.grp").write_text(catalog_file("D8"))
    code, out = run(capsys, "verify", "--suite", "all", "--kmax", "3",
                    "--catalog-dir", str(cdir))
    assert code == 0
    assert "fail=0" in out
    assert "S3:" in out and "D8:" in out


def test_verify_deterministic_output(capsys, tmp_path):
    cdir = tmp_path / "cat"
    cdir.mkdir()
    (cdir / "D8.grp").write_text(catalog_file("D8"))
    args = ("verify", "--suite", "structure", "--kmax", "2", "--catalog-dir", str(cdir))
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert strip_timing_text(first) == strip_timing_text(second)


def test_verify_json_deterministic_and_self_describing(capsys, tmp_path):
    cdir = tmp_path / "cat"
    cdir.mkdir()
    (cdir / "S3.grp").write_text(catalog_file("S3"))
    args = ("verify", "--suite", "bryant", "--kmax", "2",
            "--catalog-dir", str(cdir), "--format", "json-like")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert strip_timing_json(first) == strip_timing_json(second)
    doc = strip_timing_json(first)
    assert doc["tool_version"]
    assert all({"id", "claim", "status"} <= set(c) for c in doc["checks"])


def test_verify_check_limit_exit_3(capsys, tmp_path, monkeypatch):
    cdir = tmp_path / "cat"
    cdir.mkdir()
    (cdir / "S3.grp").write_text(catalog_file("S3"))
    args = ("verify", "--suite", "all", "--kmax", "3", "--catalog-dir", str(cdir),
            "--format", "json-like")
    code, out = run(capsys, *args)
    assert code == 0
    n = len(json.loads(out)["checks"])
    monkeypatch.setattr(cli, "MAX_CHECKS", n)
    assert run(capsys, *args)[0] == 0
    monkeypatch.setattr(cli, "MAX_CHECKS", n - 1)
    code = main(list(args))
    captured = capsys.readouterr()
    assert code == 3
    assert f"resource limit: report exceeded the limit of {n - 1} checks" in captured.err
    assert captured.out == ""


def test_verify_catalog_entry_that_is_a_directory_exit_2(capsys, tmp_path):
    (tmp_path / "S3.grp").write_text(catalog_file("S3"))
    (tmp_path / "x.grp").mkdir()
    code = main(["verify", "--kmax", "1", "--catalog-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"envchain: error: cannot read {tmp_path / 'x.grp'}: ")


def run_with_timeout(*argv, timeout=60, preexec_fn=None) -> subprocess.CompletedProcess:
    """The CLI in a fresh process, killed after `timeout` s, so a read that
    blocks fails the test instead of hanging the suite; `preexec_fn` runs in
    the child before the interpreter starts."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "envchain.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn)


@pytest.mark.parametrize("command", ["ekchain", "verify"])
def test_group_storage_bound_exit_3(tmp_path, command):
    # a 10,000-cycle passes the default cap of 20,000 elements, but its
    # group would store 10^8 image entries: closure stops at grp.MAX_ENTRIES
    (tmp_path / "C.grp").write_text("degree: 10000\n(" + " ".join(map(str, range(10000))) + ")\n")
    g = str(tmp_path / "C.grp")
    argv = {"ekchain": ["ekchain", g, g, "--kmax", "1"], "verify": ["verify", "--catalog-dir", str(tmp_path)]}
    proc = run_with_timeout(*argv[command], timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (
        f"envchain: resource limit: closure exceeded the bound of {grp.MAX_ENTRIES} stored image "
        f"entries (order x degree) at degree 10000 (at least {grp.MAX_ENTRIES // 10000 + 1} elements)\n")


def test_repeated_generator_lines_read_in_bounded_memory(tmp_path):
    # 20,000 identity lines at degree 10,000 held as one image tuple each
    # would take 1.6 GB; the child may map 1 GB of address space
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    (tmp_path / "f.grp").write_text("degree: 10000\n" + "()\n" * 20000)
    g = str(tmp_path / "f.grp")
    proc = run_with_timeout("ekchain", g, g, "--format", "json-like", timeout=30, preexec_fn=limit_memory)
    assert (proc.returncode, proc.stderr) == (0, "")
    (witness,) = json.loads(proc.stdout)["witnesses"]
    assert (witness["group_order"], witness["subgroup_order"]) == (1, 1)


def test_group_file_line_costs_its_own_length(tmp_path):
    # 59,988 distinct lines at degree 10,000 that spell only () and (0 1):
    # read as the points each moves, not as a degree-length tuple (about
    # 0.3 ms a line, 36 s for this run, when every line built one)
    lines = []
    for i in range(2, 10_000):
        lines += [f"({i})", f"( {i} )", f"(0 1)({i})", f"({i})(1 0)", f"(0 1) ({i})", f"(1 0)( {i})"]
    assert len(set(lines)) >= 50_000
    (tmp_path / "f.grp").write_text("degree: 10000\n" + "\n".join(lines) + "\n")
    g = str(tmp_path / "f.grp")
    proc = run_with_timeout("ekchain", g, g, "--format", "json-like", timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    (witness,) = json.loads(proc.stdout)["witnesses"]
    assert (witness["group_order"], witness["subgroup_order"]) == (2, 2)


# Run by a small interpreter that starts the CLI and reads its rusage: a
# child's ru_maxrss starts at the RSS of the process it was forked from, so
# a CLI started from the test process would read at least the test's RSS.
_OWN_PEAK = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[2:])\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "open(sys.argv[1], 'w').write(f'{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}')\n"
)


def run_own_peak(tmp_path, *argv, timeout=60) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, own peak RSS in MB) of the CLI in a fresh
    process, the peak read with `os.wait4`."""
    stats = tmp_path / "own-peak"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _OWN_PEAK, str(stats), sys.executable, "-m", "envchain.cli",
                           *argv], env=env, capture_output=True, text=True, timeout=timeout)
    code, peak_kb = map(int, stats.read_text().split())
    return code, proc.stdout, proc.stderr, peak_kb / 1024


def transpositions_file(tmp_path) -> str:
    """The 9,999 transpositions (0 1) ... (0 9999) at degree 10,000."""
    (tmp_path / "T.grp").write_text("degree: 10000\n" + "".join(f"(0 {i})\n" for i in range(1, 10000)))
    return str(tmp_path / "T.grp")


def test_group_file_past_the_storage_bound_exits_before_building_tuples(tmp_path):
    # the identity and the first 839 distinct generators already pass the 838
    # elements grp.MAX_ENTRIES allows at degree 10,000, so the group file is
    # refused before any image tuple is built: building those 839 tuples of
    # 10,000 entries took 80 MB
    t = transpositions_file(tmp_path)
    code, out, err, peak_mb = run_own_peak(tmp_path, "ekchain", t, t)
    assert (code, out) == (3, "")
    assert err == (
        f"envchain: resource limit: closure exceeded the bound of {grp.MAX_ENTRIES} stored image "
        f"entries (order x degree) at degree 10000 (at least {grp.MAX_ENTRIES // 10000 + 2} elements)\n")
    assert peak_mb < 30, f"own peak RSS {peak_mb:.1f} MB"


def test_subgroup_file_is_looked_up_in_the_group(capsys, tmp_path):
    # a subgroup file is never closed on its own: its generators are only
    # looked up in G, here the trivial group of the one-point cycles, each
    # as it is built, so the first, (0 1), ends the read before the other
    # 838 kept ones are built (their 10,000-entry tuples took 80 MB)
    (tmp_path / "M.grp").write_text("degree: 10000\n" + "".join(f"({i})\n" for i in range(10000)))
    code, out, err, peak_mb = run_own_peak(tmp_path, "ekchain", str(tmp_path / "M.grp"), transpositions_file(tmp_path))
    assert (code, out) == (2, "")
    assert err == "envchain: error: subgroup generator (0 1) is not in the group\n"
    assert peak_mb < 30, f"own peak RSS {peak_mb:.1f} MB"
    # the error names the first generator outside G, not the first generator
    (tmp_path / "C2.grp").write_text("degree: 3\n(0 1)\n")
    (tmp_path / "H.grp").write_text("degree: 3\n(0 1)\n(1 2)\n(0 1 2)\n")
    assert main(["ekchain", str(tmp_path / "C2.grp"), str(tmp_path / "H.grp")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "envchain: error: subgroup generator (1 2) is not in the group\n")


def test_ekchain_fifo_group_file_exit_2(tmp_path):
    (tmp_path / "S3.grp").write_text(catalog_file("S3"))
    fifo = tmp_path / "sub.grp"
    os.mkfifo(fifo)
    proc = run_with_timeout("ekchain", str(tmp_path / "S3.grp"), str(fifo))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"envchain: error: cannot read {fifo}: not a regular file\n"


def test_verify_catalog_entry_that_is_a_fifo_exit_2(tmp_path):
    (tmp_path / "S3.grp").write_text(catalog_file("S3"))
    os.mkfifo(tmp_path / "x.grp")
    proc = run_with_timeout("verify", "--kmax", "1", "--catalog-dir", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"envchain: error: cannot read {tmp_path / 'x.grp'}: not a regular file\n"


def assert_write_error(proc: subprocess.Popen):
    """Exit 2 and one stderr line naming the write error, nothing else."""
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.startswith("envchain: error: cannot write report: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "Exception ignored" not in err


def cli_process(argv, unbuffered, stdout, wrap=()) -> subprocess.Popen:
    """The CLI in a fresh process, started through the command `wrap`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([*wrap, sys.executable, "-m", "envchain.cli", *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("size", ["small", "large"])
def test_report_to_a_full_device_exit_2(s3_files, unbuffered, size):
    # the small report fits in the stdout buffer, so only the flush fails;
    # the large one fails on its first write
    argv = (["ekchain", *s3_files] if size == "small"
            else ["verify", "--kmax", "2", "--format", "json-like"])
    with open("/dev/full", "w") as full:
        assert_write_error(cli_process(argv, unbuffered, full))


@pytest.mark.parametrize("unbuffered", [False, True])
def test_report_to_a_closed_pipe_exit_2(unbuffered):
    # the 1.5 MB report is more than a pipe holds, so the writer is still
    # writing when the reader closes its end after the first read
    proc = cli_process(["verify", "--kmax", "2", "--format", "json-like"],
                       unbuffered, subprocess.PIPE)
    assert os.read(proc.stdout.fileno(), 10) == b'{\n  "check'
    proc.stdout.close()
    assert_write_error(proc)


@pytest.mark.parametrize("unbuffered", [False, True])
def test_report_to_a_closed_stdout_exit_2(unbuffered):
    # with fd 1 closed at start-up the interpreter sets sys.stdout to None
    close_fd1 = ("sh", "-c", 'exec "$0" "$@" >&-')
    assert_write_error(cli_process(["counterexample", "--levels", "3"], unbuffered, None, close_fd1))


def test_verify_catalog_entry_not_utf8_exit_2(capsys, tmp_path):
    (tmp_path / "S3.grp").write_text(catalog_file("S3"))
    (tmp_path / "bad.grp").write_bytes(b"# caf\xe9\ndegree: 2\n(0 1)\n")
    code = main(["verify", "--kmax", "1", "--catalog-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"envchain: error: cannot read {tmp_path / 'bad.grp'}: ")


def test_verify_catalog_parse_error_names_the_file(capsys, tmp_path):
    (tmp_path / "bad.grp").write_text("degree: 3\n(0 9)\n")
    code = main(["verify", "--kmax", "1", "--catalog-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"envchain: error: {tmp_path / 'bad.grp'}: line 2: "
                            "point 9 >= degree 3 (at offset 3)\n")


def test_verify_catalog_dir_is_read_before_any_group_is_closed(capsys, tmp_path, monkeypatch):
    (tmp_path / "a.grp").write_text(catalog_file("S3"))
    (tmp_path / "b.grp").write_text("degree: 3\n(0 9)\n")
    monkeypatch.setattr(grp, "closure", lambda *a, **kw: pytest.fail("a group was closed"))
    code = main(["verify", "--kmax", "1", "--catalog-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"envchain: error: {tmp_path / 'b.grp'}: line 2: "
                            "point 9 >= degree 3 (at offset 3)\n")


def test_verify_empty_catalog_dir(capsys, tmp_path):
    code, _ = run(capsys, "verify", "--catalog-dir", str(tmp_path))
    assert code == 2


def test_counterexample_small(capsys):
    code, out = run(capsys, "counterexample", "--levels", "3", "--scan-max", "2")
    assert code == 0
    assert "sizes=[2, 4, 8]" in out
    assert "[pass] model-level1" in out
    assert "[pass] model-oracle-i3" in out
    assert "commutator=(0 1)(2 3)" in out


def test_counterexample_exhausted_scan_fails(capsys):
    # with a deep enough model, an exhausted scan is a genuine failure
    code, out = run(capsys, "counterexample", "--levels", "5", "--scan-max", "3")
    assert code == 1
    assert "[fail] witness-k2" in out
    # k = 3 would scan k' in 4..3, which is empty: nothing was tested
    assert "[skipped] witness-k3\n    no k' to scan for k=3: the range 4..3 is empty\n" in out


def test_counterexample_shallow_scan_skips(capsys):
    # witnesses whose scan runs off the computed depth are undecided
    code, out = run(capsys, "counterexample", "--levels", "4", "--scan-max", "12")
    assert code == 0
    assert "[skipped] witness-k2" in out


def test_counterexample_deterministic(capsys):
    args = ("counterexample", "--levels", "4", "--scan-max", "4", "--format", "json-like")
    c1, first = run(capsys, *args)
    c2, second = run(capsys, *args)
    assert c1 == c2
    assert strip_timing_json(first) == strip_timing_json(second)


@pytest.mark.parametrize("part", ["bits", "sigma", "power"])
def test_counterexample_wrong_witness_commutator_fails(capsys, monkeypatch, part):
    # the commutator is compared with the paired block swap in each part of
    # its normal form B(bits) P(sigma) f^power; a mismatch is a failure whose
    # witness names the commutator
    witness, bad = symnat.descent_witness, []

    def wrong(k, scan_max, model):
        w = witness(k, scan_max, model)
        if k != 1:
            return w
        c = w.commutator
        bad.append({"bits": c._replace(bits=c.bits ^ symnat.BitFn((1,), (0,))),
                    "sigma": c._replace(sigma=symnat.BlockPerm.swap(0, 1)),
                    "power": c._replace(power=1)}[part])
        return w._replace(commutator=bad[0])

    monkeypatch.setattr(symnat, "descent_witness", wrong)
    code, out = run(capsys, "counterexample", "--levels", "4", "--scan-max", "12")
    assert code == 1
    text = bad[0].to_text()
    assert "[pass] witness-k0\n" in out
    assert f"[fail] witness-k1\n    commutator={text}\n" in out
    assert f"witness descent: commutator={text} g=" in out
    assert "summary: checks=20 pass=18 fail=1 skipped=1\n" in out


def test_counterexample_levels_bound(capsys, monkeypatch):
    forbid_input(monkeypatch)
    assert main(["counterexample", "--levels", "1"]) == 2
    assert capsys.readouterr().err == "envchain: error: levels must be >= 2\n"


@pytest.mark.parametrize("scan_max", ["0", "-1"])
def test_counterexample_scan_max_bound(capsys, monkeypatch, scan_max):
    forbid_input(monkeypatch)
    code = main(["counterexample", "--levels", "3", "--scan-max", scan_max])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "envchain: error: scan-max must be >= 1\n"


@pytest.mark.parametrize("depth", ["-1", "-5"])
def test_counterexample_oracle_depth_bound(capsys, monkeypatch, depth):
    forbid_input(monkeypatch)
    code = main(["counterexample", "--levels", "3", "--oracle-depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "envchain: error: oracle-depth must be >= 0\n"


def test_counterexample_oracle_depth_zero_runs_no_oracle(capsys):
    code, out = run(capsys, "counterexample", "--levels", "3", "--oracle-depth", "0",
                    "--format", "json-like")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"]["args"]["oracle_depth"] == 0
    assert not any(c["id"].startswith("model-oracle") for c in doc["checks"])


# Digests recorded before the chain model moved to basis form; a change that
# alters either report on purpose must say so and re-pin them.


def test_counterexample_report_pinned(capsys):
    code, out = run(capsys, "counterexample", "--levels", "8", "--scan-max", "12",
                    "--format", "json-like")
    assert code == 0
    assert report_digest(out) == "718cf8b95433482d9ef82676e99a84d485e1e8d79ba9d9861590c7569f0ab72a"


def test_counterexample_deep_report_pinned(capsys):
    # recorded while every member of every level was still built as a BitFn
    code, out = run(capsys, "counterexample", "--levels", "11", "--scan-max", "18",
                    "--format", "json-like")
    assert code == 0
    assert report_digest(out) == "36032fe9ab781cb65889fb95ac4332200ee841063b65db2fe440c799aeb7bfc1"


def test_verify_builtin_report_pinned(capsys):
    code, out = run(capsys, "verify", "--kmax", "4", "--format", "json-like")
    assert code == 0
    assert report_digest(out) == "67b6a321db86f6ea8b89c40bf2b03debfb04517319800239ea7c9c6ce69d8215"


def test_verify_order_128_report_pinned(capsys, monkeypatch):
    # the Sylow 2-subgroup of S8; the digest was recorded before chain runs
    # were memoized and filters moved to generating sets
    monkeypatch.chdir(ROOT)
    code, out = run(capsys, "verify", "--kmax", "4", "--catalog-dir", "tests/data",
                    "--format", "json-like")
    assert code == 0
    assert report_digest(out) == "254a7c1ec6afd71095da22dda1e3e8a2aeb03736a19c85ec1001ad36f855a0d8"


# --- one suites run per conjugacy class ------------------------------------------


def verify_catalog(name: str) -> tuple[list[str], dict]:
    """The `verify` options choosing catalog `name`, and its groups."""
    if name == "builtin":
        return [], build_catalog()
    root = ROOT / "perfbench" / "groups" / "verify"
    return ["--catalog-dir", str(root)], {
        f.stem: parse_group_file(f.read_text(encoding="utf-8")) for f in sorted(root.glob("*.grp"))}


def literal_blocks(catalog: dict, suite: str, kmax: int) -> dict:
    """Every enumerated subgroup's blocks from a suites run of its own, keyed
    by (group name, label), in report order."""
    return {(gname, label): suites.run_suites(G, H, suite, kmax)
            for gname, G in sorted(catalog.items()) for label, H, _ in enumerate_subgroups(G)}


def literal_report(args, literal: dict) -> dict:
    report = cli._new_report("verify", {
        "suite": args.suite, "kmax": args.kmax, "cap": args.cap,
        "catalog": "builtin" if args.catalog_dir is None else args.catalog_dir,
    })
    for (gname, label), blocks in literal.items():
        for tail, records in blocks:
            cli._add_checks(report, f"{gname}:{label}:{tail}", records)
    return report


@pytest.mark.parametrize("kmax", [1, 4])
@pytest.mark.parametrize("suite", ["bryant", "structure", "nilpotent"])
@pytest.mark.parametrize("name", ["builtin", "bench"])
def test_conjugate_subgroups_get_equal_records(name, suite, kmax):
    # conjugation by an element of G is an automorphism of G, so each
    # member's own run gives its class's first member's (tail, records)
    _, catalog = verify_catalog(name)
    literal = literal_blocks(catalog, suite, kmax)
    shared = 0
    for gname, G in sorted(catalog.items()):
        subs = enumerate_subgroups(G)
        label_of = {H: label for label, H, _ in subs}
        for label, H, first in subs:
            if first != H:
                assert literal[gname, label] == literal[gname, label_of[first]]
                shared += 1
    assert shared > 0


@pytest.mark.parametrize("suite", ["bryant", "structure", "nilpotent", "all"])
@pytest.mark.parametrize("name", ["builtin", "bench"])
def test_verify_reuse_report_equals_the_literal_report(monkeypatch, name, suite):
    options, catalog = verify_catalog(name)
    args = cli.build_parser().parse_args(["verify", "--suite", suite, *options])
    blocks = literal_blocks(catalog, suite, args.kmax)
    literal = literal_report(args, blocks)
    runs = []
    run_suites = suites.run_suites
    monkeypatch.setattr(suites, "run_suites", lambda G, H, *a: runs.append(H) or run_suites(G, H, *a))
    report = cli.cmd_verify(args)
    # the suites ran on each class's first member only
    assert len(runs) == sum(len({first for *_, first in enumerate_subgroups(G)})
                            for G in catalog.values())
    assert len(runs) < len(blocks)
    for fmt in ("json-like", "text"):
        assert render(report, fmt) == render(literal, fmt)
    statuses = Counter(status for _, _, status, _ in flat_checks(report))
    assert cli._summary(report) == {s: statuses[s] for s in ("pass", "fail", "skipped")}


@pytest.mark.parametrize("name", ["builtin", "bench"])
def test_verify_report_holds_one_object_per_distinct_records_list(name):
    # equal records lists of any subgroups of any catalog group reach the
    # report as one object, which the writer encodes once
    options, _ = verify_catalog(name)
    report = cli.cmd_verify(cli.build_parser().parse_args(["verify", "--kmax", "4", *options]))
    blocks = report["checks"]
    assert len({id(records) for _, records in blocks}) == len({tuple(records) for _, records in blocks}) == 21


@pytest.mark.parametrize("suite, calls", [("all", 33), ("structure", 33), ("nilpotent", 24)])
def test_verify_runs_the_envelope_terms_once_per_structure_run(monkeypatch, suite, calls):
    # the bench catalog's 33 classes: one `ek_term_data` run serves the
    # structure lists, the three-group triples and the nilpotent suite, which
    # alone runs one for each of its 24 nilpotent first members
    options, _ = verify_catalog("bench")
    args = cli.build_parser().parse_args(["verify", "--suite", suite, "--kmax", "4", *options])
    ek_term_data, runs = suites.ek_term_data, []
    monkeypatch.setattr(suites, "ek_term_data", lambda *a: runs.append(a) or ek_term_data(*a))
    cli.cmd_verify(args)
    assert len(runs) == calls


def test_verify_runs_each_envelope_at_the_deepest_depth_a_suite_reads(monkeypatch):
    # kmax for the structure suite, max(class, 1) + 3 for a nilpotent H
    options, catalog = verify_catalog("bench")
    args = cli.build_parser().parse_args(["verify", "--kmax", "4", *options])
    ek_term_data, runs = suites.ek_term_data, []
    monkeypatch.setattr(suites, "ek_term_data", lambda *a: runs.append(a) or ek_term_data(*a))
    cli.cmd_verify(args)
    want = []
    for G in map(catalog.get, sorted(catalog)):
        for _, H, first in enumerate_subgroups(G):
            if H is first:
                c = nilpotency_class(H)
                want.append((H.indices, 4 if c is None else max(4, max(c, 1) + 3)))
    assert [(h, depth) for _, h, depth in runs] == want
    assert Counter(depth for *_, depth in runs) == {4: 27, 5: 3, 6: 2, 7: 1}


def test_verify_class_with_a_failing_first_member_runs_member_by_member(monkeypatch):
    # a failure's witness names elements of H, so every member of a class
    # whose first member fails gets a run, and a witness, of its own
    nilpotent = suites.verify_nilpotent_envelope

    groups = []

    def planted(G, hs, *rest):
        groups.append(G)
        records = nilpotent(G, hs, *rest)
        if len(hs) != 2:
            return records
        witness = suites._describe(G, hs - {G.identity_idx})
        return [*records, chains.CheckRecord("planted", "no involution", "fail", witness)]

    monkeypatch.setattr(suites, "verify_nilpotent_envelope", planted)
    _, catalog = verify_catalog("builtin")
    args = cli.build_parser().parse_args(["verify", "--suite", "nilpotent", "--kmax", "1"])
    literal = literal_report(args, literal_blocks(catalog, "nilpotent", 1))
    formatted = []
    monkeypatch.setattr(suites, "format_cycles", lambda p: formatted.append(p) or format_cycles(p))
    report = cli.cmd_verify(args)
    assert render(report, "text") == render(literal, "text")
    assert render(report, "json-like") == render(literal, "json-like")
    # S3's three transpositions are one class, and each names its own
    assert sorted(witness for cid, _, status, witness in flat_checks(report)
                  if status == "fail" and cid.startswith("S3:")) == ["{(0 1)}", "{(0 2)}", "{(1 2)}"]
    assert cli._summary(report)["fail"] > 0
    # a witness formats only the elements it names, once per record
    named = [witness[1:-1] for _, _, status, witness in flat_checks(report) if status == "fail"]
    assert groups and sorted(map(format_cycles, formatted)) == sorted(named)


def test_counterexample_model_budget_check(capsys, monkeypatch):
    monkeypatch.setattr(symnat, "MODEL_BUDGET", 100)
    code, out = run(capsys, "counterexample", "--levels", "5", "--format", "json-like")
    assert code == 3
    doc = json.loads(out)
    assert doc["checks"][0] == {
        "id": "model-budget",
        "claim": "chain model fits the memory budget",
        "status": "fail",
        "witness": "budget exceeded after level 3 (341 > 100 stored bits)",
    }
    assert doc["partial"] is True
    assert doc["witnesses"][0] == {"type": "levels", "sizes": [2, 4, 8]}


# --- model checks on the basis masks ---------------------------------------------
# The CLI checks each level of the chain model on its basis masks.  These
# tests run it on given bases and compare its verdicts with the checks it
# made before, on the BitFn of each mask, copied here.


def bitfn_periodicity_bad(basis, W):
    bad = [b for b in (symnat._from_mask(m, W) for m in basis)
           if b.prefix or W % b.period != 0]
    return f"e.g. {sorted(bad)[0].to_text()}" if bad else None


def bitfn_support_bad(basis, W):
    bad = []
    for b in (symnat._from_mask(m, W) for m in basis):
        if not b.is_zero and any(not any(b(x) for x in range(s, s + W))
                                 for s in range(0, 4 * W, W)):
            bad.append(b)
    return f"e.g. {sorted(bad)[0].to_text()}" if bad else None


def bitfn_xor_closed(basis):
    span = [0]
    for b in basis:
        span += [s ^ b for s in span]
    return len(set(span)) == 1 << len(basis) and 0 in span


def model_verdicts(monkeypatch, bases):
    """{check id: (status, witness)} of `counterexample` on a model whose
    levels 1.. have the given bases; the descent scan is stubbed out."""
    model = symnat.IterChainModel([[]] + bases)
    monkeypatch.setattr(symnat, "iterated_centralizer_model", lambda levels: model)

    def no_scan(k, scan_max, model):
        raise symnat.DescentScanError("not scanned", exhausted=False)

    monkeypatch.setattr(symnat, "descent_witness", no_scan)
    args = argparse.Namespace(levels=max(len(bases), 2), scan_max=1, oracle_depth=0)
    return {cid: (status, witness) for cid, _, status, witness in
            flat_checks(cli.cmd_counterexample(args))}


def bitfn_verdicts(bases):
    """The same checks as the CLI made them on BitFns, level 1 excepted."""
    out = {}
    for i, basis in enumerate(bases, start=1):
        W = 2 ** i
        for cid, witness in (("periodicity", bitfn_periodicity_bad(basis, W)),
                             ("support", bitfn_support_bad(basis, W))):
            out[f"model-{cid}-i{i}"] = ("fail" if witness else "pass", witness)
        out[f"model-xor-closed-i{i}"] = ("pass" if bitfn_xor_closed(basis) else "fail", None)
    return out


def assert_same_model_checks(monkeypatch, bases):
    got = model_verdicts(monkeypatch, bases)
    for cid, verdict in bitfn_verdicts(bases).items():
        assert got[cid] == verdict, (cid, bases)


def test_model_checks_on_masks_match_bitfn_checks_on_the_model(monkeypatch):
    model = symnat.iterated_centralizer_model(12)
    bases = [model.basis(i) for i in range(1, 13)]
    got = model_verdicts(monkeypatch, bases)
    assert got["model-level1"] == ("pass", None)
    assert_same_model_checks(monkeypatch, bases)
    assert all(status == "pass" for cid, (status, _) in got.items() if cid.startswith("model-"))


def test_model_checks_on_masks_match_bitfn_checks_on_random_masks(monkeypatch):
    # masks within one block, as the model builds them; small levels draw
    # dependent bases and the zero mask often
    rng = random.Random(20)
    for _ in range(40):
        bases = [[rng.getrandbits(2 ** i) for _ in range(rng.randint(1, i + 2))]
                 for i in range(1, 6)]
        assert_same_model_checks(monkeypatch, bases)


@pytest.mark.parametrize("bases", [
    [[1 << 2]],
    [[(1 << 2) | 1]],
    [[0b11], [1 << 4]],
    [[0b11], [(1 << 4) | 1, 0b0110]],
    [[0b11], [0b1111, 0b0101, 0b1010]],  # dependent
    [[0b11], [0b0110, 0b0110]],  # repeated
    [[0b11], [0, 0b0110]],  # holds zero
    [[0b11], [0b0011, 1 << 4, (1 << 4) | 0b0011], [1 << 9, 1 << 8 | 1 << 9]],
], ids=str)
def test_model_checks_on_masks_match_bitfn_checks_on_malformed_bases(monkeypatch, bases):
    assert_same_model_checks(monkeypatch, bases)


def test_model_checks_on_masks_never_pass_what_bitfn_checks_fail(monkeypatch):
    # A mask wider than its 2^i block is malformed, and the mask periodicity
    # check fails every one.  The BitFn check read all its bits as one block,
    # and passed the mask when that block repeats with a period dividing 2^i.
    # The mask support check reads only the first block; it fails only masks
    # the BitFn support check failed too.
    rng = random.Random(21)
    for _ in range(300):
        i = rng.randint(1, 4)
        W = 2 ** i
        m = rng.getrandbits(rng.randint(W + 1, 4 * W)) | 1 << W
        got = model_verdicts(monkeypatch, [[0b11]] * (i - 1) + [[m]])
        assert got[f"model-periodicity-i{i}"][0] == "fail"
        if got[f"model-support-i{i}"][0] == "fail":
            assert bitfn_support_bad([m], W) is not None
    # a wide mask repeating its block: only the BitFn check passed it
    got = model_verdicts(monkeypatch, [[0b11], [0b1001_1001]])
    assert got["model-periodicity-i2"] == ("fail", "e.g. |1001")
    assert bitfn_periodicity_bad([0b1001_1001], 4) is None


def test_counterexample_malformed_model_reports(capsys, monkeypatch):
    # the text the BitFn checks wrote for this model
    model = symnat.IterChainModel([[], [0b11], [0b0011, 1 << 4, (1 << 4) | 0b0011]])
    monkeypatch.setattr(symnat, "iterated_centralizer_model", lambda levels: model)
    code, out = run(capsys, "counterexample", "--levels", "2", "--oracle-depth", "0")
    assert code == 1
    assert strip_timing_text(out).split("\n")[2:] == [
        "[pass] model-level1",
        "[pass] model-sizes-strict",
        "[pass] model-periodicity-i1",
        "[pass] model-support-i1",
        "[pass] model-xor-closed-i1",
        "[fail] model-periodicity-i2",
        "    e.g. |00001",
        "[fail] model-support-i2",
        "    e.g. |00001",
        "[fail] model-xor-closed-i2",
        "[skipped] witness-k0",
        "    no witness for k=0 with k' <= 1; model depth 2 is too shallow to scan to 12",
        "witness levels: sizes=[2, 8]",
        "summary: checks=9 pass=5 fail=3 skipped=1",
    ]
    monkeypatch.setattr(symnat, "iterated_centralizer_model",
                        lambda levels: symnat.IterChainModel([[], [0b01]]))
    code, out = run(capsys, "counterexample", "--levels", "2")
    assert code == 1
    assert "[fail] model-level1\n    level 1 = {|0, |10}\n" in out


def test_counterexample_model_size_and_oracle_failures(capsys, monkeypatch):
    # level 2 holds only the constants: its size does not grow, and it is
    # not the level the enumeration finds
    model = symnat.IterChainModel([[], [0b11], [0b1111]])
    monkeypatch.setattr(symnat, "iterated_centralizer_model", lambda levels: model)
    code, out = run(capsys, "counterexample", "--levels", "2", "--oracle-depth", "2")
    assert code == 1
    assert strip_timing_text(out).split("\n")[2:] == [
        "[pass] model-level1",
        "[fail] model-sizes-strict",
        "    sizes=[2, 2]",
        "[pass] model-periodicity-i1",
        "[pass] model-support-i1",
        "[pass] model-xor-closed-i1",
        "[pass] model-periodicity-i2",
        "[pass] model-support-i2",
        "[pass] model-xor-closed-i2",
        "[pass] model-oracle-i1",
        "[fail] model-oracle-i2",
        "[skipped] witness-k0",
        "    no witness for k=0 with k' <= 1; model depth 2 is too shallow to scan to 12",
        "witness levels: sizes=[2, 2]",
        "summary: checks=11 pass=8 fail=2 skipped=1",
    ]


# --- raw report bytes --------------------------------------------------------
# SHA-256 and length of the stdout itself, with the total time set to 0 in
# json-like and the `time: ` line dropped in text; recorded before checks were
# held as tuples and written from a template.

RAW_PINS = {
    ("verify", "--kmax", "4", "--format", "text"):
        ("9c284a1fef195eadbc545de094f92d76127f5c6e6557b63ab5c2b2552c914745", 1237215),
    ("verify", "--kmax", "4", "--format", "json-like"):
        ("92c71ae1cf71eab8a5246bcebe51a8f95b0d3a0c2aac9b3f14b441d56d67ea13", 3470562),
    ("counterexample", "--levels", "8", "--scan-max", "12", "--format", "text"):
        ("f82901150af2b5a8f0c340a2c89bef7890d5fb156d04e8380b843ccd0ad7f9cb", 1687),
    ("counterexample", "--levels", "8", "--scan-max", "12", "--format", "json-like"):
        ("ad0a89a97f4ee467e541967c4999cccae481f01a3f08433e1b2cc32fc8cad087", 6402),
}


@pytest.mark.parametrize("argv", list(RAW_PINS), ids=" ".join)
def test_report_raw_bytes_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    if argv[-1] == "json-like":
        out, n = re.subn(r'"total_s": [^,\n}]+', '"total_s": 0', out)
        assert n == 1
    else:
        out = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("time: "))
    raw = out.encode()
    assert (hashlib.sha256(raw).hexdigest(), len(raw)) == RAW_PINS[argv]


# --- renderers against their dict-based forms -----------------------------------


def as_dicts(report: dict) -> dict:
    """The report with its blocks as one list of the check dicts they stand
    for, each id under its block's prefix."""
    checks = []
    for cid, claim, status, witness in flat_checks(report):
        c = {"id": cid, "claim": claim, "status": status}
        if witness is not None:
            c["witness"] = witness
        checks.append(c)
    return dict(report, checks=checks)


def render_text_dicts(report: dict) -> str:
    """The text renderer over dict checks, as it was before checks were tuples."""
    lines = [f"envchain {report['tool_version']}"]
    cmd = report["command"]
    args = " ".join(f"{k}={v}" for k, v in cmd["args"].items())
    lines.append(f"command: {cmd['name']} {args}".rstrip())
    for c in report["checks"]:
        lines.append(f"[{c['status']}] {c['id']}")
        if "witness" in c:
            lines.append(f"    {c['witness']}")
    for w in report["witnesses"]:
        kv = " ".join(f"{k}={w[k]}" for k in sorted(w) if k != "type")
        lines.append(f"witness {w['type']}: {kv}")
    n = {"pass": 0, "fail": 0, "skipped": 0}
    for c in report["checks"]:
        n[c["status"]] += 1
    lines.append(f"summary: checks={sum(n.values())} pass={n['pass']} fail={n['fail']} skipped={n['skipped']}")
    if report["timings"]:
        lines.append(f"time: {report['timings'].get('total_s', 0.0)}s")
    return "\n".join(lines) + "\n"


# One check of a json-like chunk; ids, claims and witnesses are escaped, so
# this text starts every check and nothing else.
CHECK_OPEN = '\n    {\n      "claim": '


def piece_sizes(blocks) -> list[int]:
    """The checks in each piece of a report's checks: a piece ends at the
    first block boundary where it holds `_CHUNK` checks or more."""
    sizes, n = [], 0
    for _, records in blocks:
        n += len(records)
        if n >= cli._CHUNK:
            sizes.append(n)
            n = 0
    return sizes + [n] if n else sizes


def assert_renders_as_dicts(report: dict):
    """Both renderers give the dict form's bytes, whole and in pieces; the
    pieces end on block boundaries, and all but the last hold at least
    `_CHUNK` checks."""
    assert all(type(b) is tuple and len(b) == 2 for b in report["checks"])
    assert all(len(r) == 4 for _, records in report["checks"] for r in records)
    dicts = as_dicts(report)
    want_json = json.dumps(dicts, sort_keys=True, indent=2) + "\n"
    want_text = render_text_dicts(dicts)
    json_chunks, text_chunks = list(cli._json_chunks(report)), list(cli._text_chunks(report, cli._summary(report)))
    assert "".join(json_chunks) == want_json and "".join(text_chunks) == want_text
    sizes = piece_sizes(report["checks"])
    assert len(json_chunks) == len(text_chunks) == len(sizes) + 1
    assert [c.count(CHECK_OPEN) for c in json_chunks[:-1]] == sizes


# Strings that json escapes: quotes, backslashes, control and non-ASCII
# characters, and lone surrogates.
tricky = st.text(st.one_of(st.characters(), st.sampled_from('"\\\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600\ud800\udc00')),
                 max_size=12)
# Prefixes may end and ids start with half of a surrogate pair, which json
# escapes as the pair's two halves when they meet.
prefixes = st.builds(str.__add__, tricky, st.sampled_from(["", "\ud83d", "\\", '"']))
ids = st.builds(str.__add__, st.sampled_from(["", "\ude00", "u", '"']), tricky)
scalars = st.one_of(st.integers(-10**6, 10**6), st.booleans(), tricky)
values = st.one_of(scalars, st.lists(st.one_of(st.integers(0, 99), tricky), max_size=4))


@st.composite
def reports(draw) -> dict:
    claims = draw(st.lists(tricky, min_size=1, max_size=4))
    record = st.tuples(ids, st.sampled_from(claims), st.sampled_from(["pass", "fail", "skipped"]),
                       st.one_of(st.none(), tricky))
    # a shared tuple stands in several blocks, as the all-pass k-lists do
    shared = draw(st.lists(st.lists(record, min_size=1, max_size=4).map(tuple), min_size=1, max_size=2))
    records = st.one_of(st.lists(record, max_size=4), st.sampled_from(shared))
    report = {
        "tool_version": draw(tricky),
        "command": {"name": draw(tricky), "args": draw(st.dictionaries(tricky, scalars, max_size=4))},
        "checks": draw(st.lists(st.tuples(prefixes, records), max_size=6)),
        "witnesses": draw(st.lists(
            st.builds(lambda w, t: dict(w, type=t), st.dictionaries(tricky, values, max_size=4), tricky),
            max_size=3,
        )),
        "timings": draw(st.one_of(st.just({}), st.builds(lambda t: {"total_s": t},
                                                         st.floats(0, 100)))),
    }
    if draw(st.booleans()):
        report["partial"] = True
    return report


@settings(max_examples=100, deadline=None)
@given(reports())
def test_render_matches_dict_form(report):
    assert_renders_as_dicts(report)


@settings(max_examples=60, deadline=None)
@given(reports(), st.integers(1, 3))
def test_render_in_small_chunks_matches_dict_form(report, chunk):
    # up to 6 blocks of up to 4 checks: a piece ends on the first block
    # boundary at or past the chunk size, so pieces of one block, of several,
    # and pieces holding more than the chunk size all occur
    cli._CHUNK, saved = chunk, cli._CHUNK
    try:
        assert_renders_as_dicts(report)
    finally:
        cli._CHUNK = saved


def test_render_joins_a_surrogate_pair_split_across_prefix_and_id():
    report = cli._new_report("verify", {})
    pair = ("\ude00-k0", "claim \ud83d\ude00", "pass", None)
    cli._add_checks(report, "G:\ud83d", [pair, ("b", "c", "fail", "\ud83d")])
    cli._add_checks(report, "\ud83d", (pair,))
    assert render(report, "json-like").count('"id": "G:\\ud83d\\ude00-k0"') == 1
    assert_renders_as_dicts(report)


class FreshRecords(list):
    """A records list freed to the allocator itself, not to CPython's list
    free list, so the next one made is likely to take its address and id."""

    __slots__ = ()


def fresh_blocks(blocks):
    """The blocks with each records list built anew as it is read, so a list
    is freed once written and a later one may take its id."""
    return ((prefix, FreshRecords(records)) for prefix, records in blocks)


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_render_blocks_built_as_read_matches_dict_form(monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    blocks = [(f"B{i}:", [(f"c{i}-{j}", f"claim {j}", "pass", None) for j in range(i % 3 + 1)])
              for i in range(200)]
    report = cli._new_report("verify", {})
    dicts = as_dicts(dict(report, checks=blocks))
    report["checks"] = fresh_blocks(blocks)
    assert render(report, "json-like") == json.dumps(dicts, sort_keys=True, indent=2) + "\n"
    # the text checks between the two header lines and the summary line
    text = render_text_dicts(dicts).split("\n", 2)[2].rsplit("\n", 2)[0] + "\n"
    assert "".join(cli._check_chunks(fresh_blocks(blocks), cli._text_pair, str)) == text


def assert_main_writes_chunks(capsys, monkeypatch, s3_files, fmt, name):
    reports, chunks = [], []
    chunked = getattr(cli, name)

    def spy(report, *n):
        reports.append(report)
        for chunk in chunked(report, *n):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(cli, name, spy)
    monkeypatch.setattr(cli, "_CHUNK", 7)
    code, out = run(capsys, "verify", "--suite", "bryant", "--kmax", "2", "--catalog-dir",
                    str(Path(s3_files[0]).parent), "--format", fmt)
    assert code == 0
    blocks = reports[0]["checks"]
    n = sum(len(records) for _, records in blocks)
    assert n == blocks.size and n > 14 and len(blocks) > 1
    assert len(chunks) == len(piece_sizes(blocks)) + 1 > 2
    assert out == "".join(chunks) == render(reports[0], fmt)


def test_main_writes_the_rendered_bytes_in_chunks(capsys, monkeypatch, s3_files):
    assert_main_writes_chunks(capsys, monkeypatch, s3_files, "json-like", "_json_chunks")


def test_main_writes_the_text_report_in_chunks(capsys, monkeypatch, s3_files):
    assert_main_writes_chunks(capsys, monkeypatch, s3_files, "text", "_text_chunks")


@pytest.mark.parametrize("fmt", ["text", "json-like"])
def test_main_counts_the_checks_once(capsys, monkeypatch, s3_files, fmt):
    # one count serves the text summary line and the exit code
    summary, reports = cli._summary, []
    monkeypatch.setattr(cli, "_summary", lambda report: reports.append(report) or summary(report))
    code, out = run(capsys, "verify", "--suite", "bryant", "--kmax", "2", "--catalog-dir",
                    str(Path(s3_files[0]).parent), "--format", fmt)
    assert code == 0 and out and len(reports) == 1


def test_render_empty_checks():
    report = cli._new_report("verify", {"kmax": 1})
    report["timings"]["total_s"] = 0.5
    assert render(report, "json-like").startswith('{\n  "checks": [],\n  "command": {')
    assert_renders_as_dicts(report)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "all", "--kmax", "2"),
    ("counterexample", "--levels", "5"),
    ("ekchain", "S3", "H", "--kmax", "3"),
])
def test_render_real_reports_match_dict_form(s3_files, argv):
    argv = [{"S3": s3_files[0], "H": s3_files[1]}.get(a, a) for a in argv]
    args = cli.build_parser().parse_args(argv)
    report = args.func(args)
    report["timings"]["total_s"] = 1.25
    assert report["checks"]
    assert_renders_as_dicts(report)


def test_every_report_record_is_a_check_record(monkeypatch, s3_files):
    def report(*argv):
        args = cli.build_parser().parse_args([{"S3": s3_files[0], "H": s3_files[1]}.get(a, a) for a in argv])
        return args.func(args)

    reports = [report("ekchain", "S3", "H", "--kmax", "3"),
               report("verify", "--kmax", "2"),
               report("counterexample", "--levels", "8"),
               report("counterexample", "--levels", "13")]
    assert reports[-1]["partial"] is True

    def exhausted(k, scan_max, model):
        raise symnat.DescentScanError(f"no witness for k={k}", exhausted=True)

    monkeypatch.setattr(symnat, "descent_witness", exhausted)
    reports.append(report("counterexample", "--levels", "4"))
    for rep in reports:
        records = [r for _, records in rep["checks"] for r in records]
        assert records and all(type(r) is CheckRecord for r in records)
    # in the last, planted report an exhausted scan is a failure with the
    # scan's text as its witness
    assert [r for r in records if r.id.startswith("witness-")] == [
        (f"witness-k{k}", "a strict-descent witness exists in the scanned range", "fail",
         f"no witness for k={k}") for k in range(3)]
    assert chains.CheckRecord is CheckRecord


def test_passing_model_checks_are_equal_records():
    first, _, _ = symnat.counterexample_checks(5, 4, 2)
    again, _, _ = symnat.counterexample_checks(5, 4, 2)
    assert [r.id for r in first] == [r.id for r in again]
    passed = [(a, b) for a, b in zip(first, again) if a.status == "pass"]
    assert passed and all(a == b == (a.id, a.claim, "pass", None) for a, b in passed)
