"""Each CLI subcommand imports only the engine it runs, and only a CLI
process freezes its start-up heap.

Every check starts a fresh interpreter with `src` on the path, runs one
import or one `cli.main` call there, and reads which modules it added to
`sys.modules`.  Start-up is paid again by every CLI process, so an engine a
subcommand never calls must not be imported on its path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """\
import sys
before = set(sys.modules)
{body}
print(" ".join(sorted(set(sys.modules) - before)))
"""


def loaded(body: str, cwd: Path) -> set[str]:
    """Modules that running `body` in a fresh interpreter imports."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def run_main(argv: list[str]) -> str:
    # the report goes to stdout before the module list; a failing exit raises
    return f"from envchain import cli\nassert cli.main({argv!r}) == 0"


def test_cli_import_leaves_the_engines_out(tmp_path):
    mods = loaded("import envchain.cli", tmp_path)
    assert "envchain.cli" in mods
    for name in ("envchain.grp", "envchain.chains", "envchain.suites", "envchain.catalog",
                 "envchain.symnat", "envchain.perm", "dataclasses"):
        assert name not in mods


def test_chains_import_leaves_the_suites_out(tmp_path):
    mods = loaded("import envchain.chains", tmp_path)
    assert "envchain.chains" in mods
    assert "envchain.suites" not in mods
    assert "envchain.catalog" not in mods


def test_counterexample_loads_no_finite_engine(tmp_path):
    mods = loaded(run_main(["counterexample", "--levels", "3", "--scan-max", "2"]), tmp_path)
    assert "envchain.symnat" in mods
    assert "envchain.perm" not in mods
    assert "envchain.grp" not in mods
    assert "envchain.chains" not in mods
    assert "envchain.suites" not in mods
    assert "envchain.catalog" not in mods
    assert "dataclasses" not in mods


@pytest.mark.parametrize("argv", [
    ["ekchain", "S4.grp", "S3.grp", "--kmax", "2"],
    ["verify", "--suite", "bryant", "--kmax", "1"],
])
def test_finite_commands_load_no_model(tmp_path, argv):
    (tmp_path / "S4.grp").write_text("degree: 4\n(0 1)\n(0 1 2 3)\n")
    (tmp_path / "S3.grp").write_text("degree: 4\n(0 1)\n(0 1 2)\n")
    mods = loaded(run_main(argv), tmp_path)
    assert "envchain.chains" in mods
    assert "envchain.symnat" not in mods
    assert "dataclasses" not in mods
    # only verify runs the lemma suites over the catalog's subgroups
    verify = argv[0] == "verify"
    assert ("envchain.suites" in mods) == verify
    assert ("envchain.catalog" in mods) == verify


_SMALLEST_MODEL = ["counterexample", "--levels", "2", "--scan-max", "1"]


def test_main_on_sys_argv_freezes_the_start_up_heap(tmp_path):
    # the `envchain` script and `python -m envchain.cli` call main() bare
    body = (f"import gc\nfrom envchain import cli\nsys.argv = ['envchain', *{_SMALLEST_MODEL!r}]\n"
            "assert gc.get_freeze_count() == 0\n"
            "assert cli.main() == 0\n"
            "assert gc.get_freeze_count() > 0, gc.get_freeze_count()")
    loaded(body, tmp_path)


def test_main_on_explicit_argv_leaves_the_heap_unfrozen(tmp_path):
    # tests and library callers pass argv; their heap stays collectable
    body = run_main(_SMALLEST_MODEL) + "\nimport gc\nassert gc.get_freeze_count() == 0, gc.get_freeze_count()"
    loaded(body, tmp_path)
