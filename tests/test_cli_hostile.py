"""Property test: hostile numeric options are refused, never a traceback.

Each example gives one to three numeric options of one subcommand a value
drawn from nan, +-inf, 0, -1, 1e300 and 1e-300, over small fixed budgets.
Every run must exit 1, refused as input, with an error message and no
file written.  The one exception is a learning rate of 1e300: a valid
input whose fit diverges, so its run may instead exit 2.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peqfdn import cli

HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")

# Per subcommand: the fixed arguments, then each numeric option with the
# drawn values it accepts as valid, which are left out of its draws.
# "LO" and "HI" are the two ends of --delay-range.  Valid draws: a learning
# rate of 1e-300 is a positive rate, a range from 1e-300 s starts at one
# sample, and seed 0 is the default.
COMMANDS = {
    "fit": (
        ["--t60", "{table}", "--out", "{out}/fit.json", "--bands", "4", "--iterations", "50"],
        {"--fs": (), "--bands": (), "--iterations": (), "--lr": ("1e-300",),
         "--delay-ms": (), "--delay-samples": ()},
    ),
    "export": (
        ["--fit", "{fit}", "--out-dir", "{out}/sos", "--lines", "2"],
        {"--lines": (), "--delay-samples": (), "LO": ("1e-300",), "HI": ()},
    ),
    "render": (
        ["--fit", "{fit}", "--out", "{out}/ir.wav", "--lines", "2", "--duration", "0.5"],
        {"--lines": (), "--delay-samples": (), "LO": ("1e-300",), "HI": (), "--duration": ()},
    ),
    "campaign": (
        ["--synthetic", "2", "--bands", "4", "--iterations", "50", "--workers", "1",
         "--out-dir", "{out}/campaign"],
        {"--synthetic": (), "--bands": (), "--iterations": (), "--workers": (),
         "--seed": ("0",), "--fs": ()},
    ),
}


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, options = COMMANDS[command]
    names = draw(st.permutations(sorted(options)))[: draw(st.integers(1, 3))]
    values = {
        name: draw(st.sampled_from([v for v in HOSTILE if v not in options[name]]))
        for name in names
    }
    argv = [command] + fixed
    if "LO" in values or "HI" in values:
        argv += ["--delay-range", f"{values.pop('LO', '0.015')}:{values.pop('HI', '0.12')}"]
    for name, value in values.items():
        argv += [f"{name}={value}"]  # "=" keeps argparse from reading -1 as an option
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("hostile")
    table = base / "flat.csv"
    table.write_text("freq_hz,t60_s\n" + "".join(
        f"{f:.6g},1.0\n" for f in np.geomspace(20.0, 20000.0, 31)
    ))
    fit_path = base / "fit.json"
    argv = ["fit", "--t60", str(table), "--out", str(fit_path), "--bands", "4",
            "--iterations", "300", "--quiet"]
    assert cli.main(argv) == 0
    return base, {"table": str(table), "fit": str(fit_path), "out": str(base / "out")}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=hostile_argv())
def test_hostile_numeric_options_are_refused(inputs, argv):
    base, fields = inputs
    argv = [arg.format(**fields) for arg in argv]
    before = sorted(base.rglob("*"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    message = err.getvalue()
    assert rc in ((1, 2) if "--lr=1e300" in argv else (1,)), (argv, rc, message)
    assert "Traceback" not in message
    assert "error:" in message
    assert sorted(base.rglob("*")) == before
