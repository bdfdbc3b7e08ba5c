"""Start-up footprint: each subcommand loads only the SciPy packages it calls.

Every case runs in a fresh interpreter, so a module-level SciPy import
anywhere in the package shows up as a loaded module here.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TABLE = os.path.join(SRC, "peqfdn", "data", "median_t60.csv")

# Runs the CLI with the given arguments, then prints its exit code and the
# SciPy modules the run loaded.
PROBE = """\
import json, sys
from peqfdn import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules(workdir, *argv) -> set[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=workdir, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0, done.stderr
    return set(modules)


def loaded(modules: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A fit at the default budget, and the SciPy modules it loaded."""
    workdir = tmp_path_factory.mktemp("startup")
    fit_path = str(workdir / "fit.json")
    modules = scipy_modules(workdir, "fit", "--t60", TABLE, "--out", fit_path, "--quiet")
    return workdir, fit_path, modules


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules(tmp_path) == set()


def test_export_loads_no_scipy(fitted):
    workdir, fit_path, _ = fitted
    assert scipy_modules(workdir, "export", "--fit", fit_path, "--out-dir",
                         str(workdir / "coeffs"), "--quiet") == set()


def test_fit_and_campaign_load_only_the_optimizer(fitted):
    workdir, _, fit_modules = fitted
    campaign_modules = scipy_modules(
        workdir, "campaign", "--synthetic", "2", "--bands", "4", "--iterations", "2000",
        "--workers", "1", "--out-dir", str(workdir / "campaign"), "--quiet",
    )
    for modules in (fit_modules, campaign_modules):
        assert loaded(modules, "scipy.optimize")
        assert not loaded(modules, "scipy.signal")
        assert not loaded(modules, "scipy.io")


def test_render_loads_the_signal_package(fitted):
    workdir, fit_path, _ = fitted
    modules = scipy_modules(workdir, "render", "--fit", fit_path, "--out",
                            str(workdir / "ir.wav"), "--lines", "2", "--quiet")
    assert loaded(modules, "scipy.signal")
