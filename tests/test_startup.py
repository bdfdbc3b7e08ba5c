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

# Runs a CLI fit with scipy.optimize imported before it (argv[1] "package")
# or after it ("kernel"), calls least_squares once, then checks that the
# MINPACK module the fit registered and the package's are one object.  Prints what
# PROBE prints.
MINPACK_PROBE = """\
import json, sys
import numpy as np
from peqfdn import cli, fdn
if sys.argv[1] == "package":
    import scipy.optimize
code = cli.main(sys.argv[2:])
fit_module = sys.modules.get("scipy.optimize._minpack")
if sys.argv[1] == "kernel":
    import scipy.optimize
solved = scipy.optimize.least_squares(lambda x: x - 3.0, np.zeros(2), method="lm")
from scipy.optimize import _minpack
if not np.allclose(solved.x, 3.0):
    code = "least_squares did not solve"
elif not (scipy.optimize._minpack_py._minpack is _minpack is fit_module
          and fdn.scipy_kernel("scipy.optimize._minpack", "_lmder") is _minpack._lmder):
    code = "the fit and scipy.optimize load two MINPACK modules"
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


def test_fit_and_campaign_load_only_the_minpack_kernel(fitted):
    workdir, _, fit_modules = fitted
    campaign_modules = scipy_modules(
        workdir, "campaign", "--synthetic", "2", "--bands", "4", "--iterations", "2000",
        "--workers", "1", "--out-dir", str(workdir / "campaign"), "--quiet",
    )
    for modules in (fit_modules, campaign_modules):
        assert {m for m in modules if loaded({m}, "scipy.optimize")} == {
            "scipy.optimize._minpack"
        }
        assert not loaded(modules, "scipy.signal")
        assert not loaded(modules, "scipy.io")


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


@pytest.mark.parametrize("first", ["kernel", "package"])
def test_minpack_kernel_and_optimize_package_share_one_module(tmp_path, first):
    modules = scipy_modules(tmp_path, first, "fit", "--t60", TABLE, "--out",
                            str(tmp_path / "fit.json"), "--quiet", probe=MINPACK_PROBE)
    assert "scipy.optimize" in modules
