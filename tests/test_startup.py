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

# Runs a CLI render with scipy.signal imported before it (argv[1] "signal")
# or after it ("kernel"), then checks that sosfilt and the kernel render_ir
# loaded give the same bits.  Prints what PROBE prints.
KERNEL_PROBE = """\
import json, sys
import numpy as np
from peqfdn import cli, fdn
if sys.argv[1] == "signal":
    from scipy.signal import sosfilt
code = cli.main(sys.argv[2:])
if sys.argv[1] == "kernel":
    from scipy.signal import sosfilt
sos = fdn._octave_band_sos(1000.0, 48000.0)
x = np.random.default_rng(0).standard_normal(4800)
by_kernel = x[np.newaxis].copy()
fdn._sos_kernel()(sos, by_kernel, np.zeros((1, 2, 2)))
if not np.array_equal(sosfilt(sos, x), by_kernel[0]):
    code = "sosfilt and the kernel differ"
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

def scipy_modules(workdir, *argv, probe=PROBE) -> set[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv],
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


def test_fit_and_campaign_load_no_scipy(fitted):
    workdir, _, fit_modules = fitted
    campaign_modules = scipy_modules(
        workdir, "campaign", "--synthetic", "2", "--bands", "4", "--iterations", "2000",
        "--workers", "1", "--out-dir", str(workdir / "campaign"), "--quiet",
    )
    assert fit_modules == set()
    assert campaign_modules == set()


def test_render_loads_only_the_sos_kernel(fitted):
    workdir, fit_path, _ = fitted
    modules = scipy_modules(workdir, "render", "--fit", fit_path, "--out",
                            str(workdir / "kernel.wav"), "--lines", "2", "--quiet")
    assert "scipy.signal._sosfilt" in modules
    assert "scipy.signal" not in modules
    assert not loaded(modules, "scipy.io")
    assert not loaded(modules, "scipy.stats")


@pytest.mark.parametrize("first", ["kernel", "signal"])
def test_kernel_and_signal_package_share_one_module(fitted, first):
    workdir, fit_path, _ = fitted
    modules = scipy_modules(workdir, first, "render", "--fit", fit_path, "--out",
                            str(workdir / f"{first}.wav"), "--lines", "2", "--duration", "0.5",
                            "--quiet", probe=KERNEL_PROBE)
    assert "scipy.signal" in modules
