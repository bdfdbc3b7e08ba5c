"""Property tests: hostile numbers are refused, never a traceback.

Each example of the first test gives one to three numeric options of one
subcommand a value drawn from nan, +-inf, 0, -1, 1e300 and 1e-300, over
small fixed budgets.  Every run must exit 1, refused as input, with an
error message and no file written.  The one exception is a learning rate
of 1e300: a valid input whose fit diverges, so its run may instead exit 2.

The second test puts such values, and -1e300, into one to three fields of
a fit file that export and render read.  Some of those files are valid
(a 1e-300 dB band is flat), and some hold a network that would not decay,
so each run may exit 0, 1 or 2; a refused run names its error and writes
no file.
"""

import contextlib
import io
import json
import math
import shutil

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


FIT_FIELDS = ("fs", "m_ref", "fc_hz", "gain_db", "q")  # the last three of one band
FIT_VALUES = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 1e-300, -1e-300)


@st.composite
def hostile_fit_file(draw):
    fields = draw(st.permutations(FIT_FIELDS))[: draw(st.integers(1, 3))]
    values = {name: draw(st.sampled_from(FIT_VALUES)) for name in fields}
    return draw(st.sampled_from(["export", "render"])), draw(st.integers(0, 3)), values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=hostile_fit_file())
def test_hostile_fit_files_exit_cleanly(inputs, case):
    base, fields = inputs
    command, band, values = case
    with open(fields["fit"], encoding="utf-8") as handle:
        doc = json.load(handle)
    for name, value in values.items():
        (doc if name in ("fs", "m_ref") else doc["bands"][band])[name] = value
    path = base / "hostile.fit.json"
    path.write_text(json.dumps(doc))
    out = base / "out"
    argv = {
        "export": ["export", "--fit", str(path), "--out-dir", str(out / "sos"), "--lines", "2"],
        "render": ["render", "--fit", str(path), "--out", str(out / "ir.wav"), "--lines", "2",
                   "--duration", "0.2"],
    }[command]
    before = sorted(base.rglob("*"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--quiet"])
    message = err.getvalue()
    assert rc in (0, 1, 2), (case, rc, message)
    assert "Traceback" not in message
    if rc != 0:
        assert "error:" in message, (case, message)
        assert sorted(base.rglob("*")) == before, case
    shutil.rmtree(out, ignore_errors=True)
