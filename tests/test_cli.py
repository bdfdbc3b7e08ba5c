"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest
from scipy.io import wavfile

from peqfdn import (
    FittedPeq,
    SosCascade,
    cli,
    digital_magnitude,
    digitize,
    network_to_sos,
    scale_to_delay,
)
from peqfdn.digitize import digitization_report
from peqfdn.targets import FrequencyGrid

FLAT_TABLE = "freq_hz,t60_s\n" + "".join(
    f"{f:.6g},1.0\n" for f in np.geomspace(20.0, 20000.0, 31)
)


# The 12-band fit of a synthetic room T60 curve (cosine series in log T60,
# peak 2.5 s) whose top bell (24.07 kHz) and high shelf (29.2 kHz) sit above
# the 24 kHz Nyquist frequency, as (kind, fc_hz, gain_db, q).
ABOVE_NYQUIST_BANDS = (
    ("low_shelf", 153.8490206877763, -2.3040009328877398, 0.8811023870168554),
    ("bell", 179.35447273918135, -1.432447890675439, 1.0603565737988063),
    ("bell", 249.51601572890186, -1.8941330538797276, 0.935598788864347),
    ("bell", 382.32604638987874, -2.59151444419661, 0.7573095514201983),
    ("bell", 652.4442844875085, -3.2735877753329485, 0.6029433657303842),
    ("bell", 1357.4306788203387, -3.3756224494216194, 0.5065640984940336),
    ("bell", 3277.3412064908225, -3.592196837384921, 0.5035565344158232),
    ("bell", 6454.409150033876, -4.405223414610386, 0.5473655302947633),
    ("bell", 10579.582124815326, -5.615783478011608, 0.5881854671613614),
    ("bell", 16877.046054460447, -6.951431453591983, 0.668441220434438),
    ("bell", 24070.973026723357, -8.535138229108451, 0.8975525497611629),
    ("high_shelf", 29232.58655752723, -6.844202763614273, 1.2572164715554615),
)

# The 12-band CLI-default fit of a synthetic room T60 table whose high shelf
# sits at 0.9975 Nyquist, as (kind, fc_hz, gain_db, q).  Scored only on its
# design grid, the digitizer gave that shelf a pole of radius 0.99999988 at
# 23580 Hz, between grid points: every line peaked at +75 to +93 dB there,
# export passed it, and render wrote a WAV that overflowed float32.
NEAR_NYQUIST_SHELF_BANDS = (
    ("low_shelf", 10.413868253606877, -14.296945576285871, 2.6731717561843586),
    ("bell", 14.061487212291665, -11.971236542817643, 1.1452594504445779),
    ("bell", 47.86589095909526, -8.262157645488504, 0.28618168372201014),
    ("bell", 101.81486907901933, -5.134372911155616, 0.42951903483605997),
    ("bell", 171.53852966208743, -4.749645143884379, 0.4584958026207034),
    ("bell", 300.17205239508263, -2.3192198055531237, 0.49489846435496393),
    ("bell", 604.0354248535689, -1.8290003871310077, 0.4680567285654331),
    ("bell", 1538.0247137310812, -1.5957008801198287, 0.4440723099641541),
    ("bell", 3721.761770372921, -1.1362932389620206, 0.4764241855520587),
    ("bell", 10358.543682093696, -1.7687635070377776, 0.39654535693412724),
    ("bell", 22538.500845467723, -0.9442684554298798, 0.862179045938016),
    ("high_shelf", 23939.505968956968, -0.3440778419925436, 1.5809477447841809),
)


def write_fit(path, bands, m_ref=4800):
    rows = [dict(zip(("kind", "fc_hz", "gain_db", "q"), band)) for band in bands]
    path.write_text(json.dumps({"fs": 48000.0, "m_ref": m_ref, "bands": rows}))
    return str(path)


def read_export(out_dir):
    """(delay, sections) per manifest line, sections as read from the CSV."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    lines = []
    for entry in manifest["lines"]:
        rows = (out_dir / entry["csv"]).read_text().strip().splitlines()[1:]
        sections = np.array([[float(v) for v in row.split(",")] for row in rows])
        lines.append((entry["delay_samples"], sections))
    return lines


@pytest.fixture
def flat_csv(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT_TABLE)
    return str(path)


def run_fit(flat_csv, tmp_path, name="fit.json", extra=()):
    out = str(tmp_path / name)
    rc = cli.main(
        [
            "fit",
            "--t60",
            flat_csv,
            "--out",
            out,
            "--bands",
            "4",
            "--iterations",
            "600",
            "--quiet",
            *extra,
        ]
    )
    assert rc == 0
    return out


def test_fit_writes_result_and_report(flat_csv, tmp_path):
    out = run_fit(flat_csv, tmp_path)
    doc = json.loads(open(out).read())
    assert doc["fs"] == 48000.0
    assert doc["m_ref"] == 4800.0  # default reference delay is 100 ms
    assert len(doc["bands"]) == 4
    report = json.loads(open(str(tmp_path / "fit.report.json")).read())
    # 120 Adam steps, then the polish evaluations taken, at most 18.
    assert 120 < report["iterations"] <= 120 + 18
    assert len(report["loss_trace_downsampled"]) == -(-report["iterations"] // 100)
    assert report["final_mse"] < 1e-2
    assert report["curve"] == "flat"
    assert (report["ops_per_sample"], report["parameters"]) == (36, 12)


def test_fit_delay_flags(flat_csv, tmp_path):
    out = run_fit(flat_csv, tmp_path, extra=["--delay-ms", "50"])
    assert json.loads(open(out).read())["m_ref"] == 2400.0
    out = run_fit(flat_csv, tmp_path, name="fit2.json", extra=["--delay-samples", "960"])
    assert json.loads(open(out).read())["m_ref"] == 960.0


def test_fit_output_is_byte_reproducible(flat_csv, tmp_path):
    a = run_fit(flat_csv, tmp_path, name="a.json")
    b = run_fit(flat_csv, tmp_path, name="b.json")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_fit_progress_goes_to_stderr(flat_csv, tmp_path, capsys):
    out = str(tmp_path / "fit.json")
    rc = cli.main(
        ["fit", "--t60", flat_csv, "--out", out, "--bands", "4",
         "--iterations", "600"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "iter" in captured.err
    assert captured.out == ""


def test_fit_missing_table_exits_1(tmp_path, capsys):
    rc = cli.main(["fit", "--t60", str(tmp_path / "absent.csv"), "--out", "x.json"])
    assert rc == 1
    assert "absent.csv" in capsys.readouterr().err


def test_fit_too_few_bands_exits_1(flat_csv, tmp_path):
    rc = cli.main(
        ["fit", "--t60", flat_csv, "--out", str(tmp_path / "x.json"), "--bands", "2"]
    )
    assert rc == 1


def test_fit_divergence_exits_2(flat_csv, tmp_path):
    rc = cli.main(
        ["fit", "--t60", flat_csv, "--out", str(tmp_path / "x.json"),
         "--bands", "4", "--iterations", "30", "--lr", "1e8", "--quiet"]
    )
    assert rc == 2


def test_export_writes_one_file_pair_per_line(flat_csv, tmp_path):
    fit_path = run_fit(flat_csv, tmp_path)
    # 64 lines are digitized as one network too, shortest line first.
    for n_lines in (8, 64):
        out_dir = tmp_path / f"sos{n_lines}"
        rc = cli.main(
            ["export", "--fit", fit_path, "--out-dir", str(out_dir), "--lines", str(n_lines),
             "--quiet"]
        )
        assert rc == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["lines"]) == n_lines
        assert sum(entry["sections"] for entry in manifest["lines"]) == n_lines * 4
        for entry in manifest["lines"]:
            assert (out_dir / entry["csv"]).exists()
            doc = json.loads((out_dir / entry["json"]).read_text())
            assert len(doc["sections"]) == 4
            assert doc["digitization"]["max_abs_dev_below_db"] <= 0.5


def test_export_explicit_delays(flat_csv, tmp_path):
    fit_path = run_fit(flat_csv, tmp_path)
    out_dir = tmp_path / "sos"
    rc = cli.main(
        ["export", "--fit", fit_path, "--out-dir", str(out_dir),
         "--delay-samples", "480,777", "--quiet"]
    )
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [e["delay_samples"] for e in manifest["lines"]] == [480, 777]


def test_export_designs_each_section_once(flat_csv, tmp_path, monkeypatch):
    fit_path = run_fit(flat_csv, tmp_path)
    designed = []
    design = digitize._design

    def counting_design(band, *args):
        designed.append(band)
        return design(band, *args)

    monkeypatch.setattr(digitize, "_design", counting_design)
    out_dir = tmp_path / "sos"
    rc = cli.main(
        ["export", "--fit", fit_path, "--out-dir", str(out_dir), "--lines", "3",
         "--quiet"]
    )
    assert rc == 0
    assert len(designed) == 3 * 4
    fitted = FittedPeq.from_dict(json.loads(open(fit_path).read()))
    freqs = FrequencyGrid.log_spaced(fitted.fs, size=512).freqs
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["lines"]:
        doc = json.loads((out_dir / entry["json"]).read_text())
        columns = ("b0", "b1", "b2", "a0", "a1", "a2")
        cascade = SosCascade([[s[c] for c in columns] for s in doc["sections"]], doc["fs"])
        params = scale_to_delay(fitted, entry["delay_samples"])
        assert doc["digitization"] == digitization_report(params, cascade, freqs)


def test_export_keeps_the_given_delay_order(tmp_path):
    # Lines are digitized shortest first, each starting its search from the
    # line before, but come back in the order given.
    fit_path = write_fit(tmp_path / "fit.json", NEAR_NYQUIST_SHELF_BANDS)
    exports = {}
    for order in ("1753,720,5759,971", "720,971,1753,5759"):
        out_dir = tmp_path / order
        argv = ["export", "--fit", fit_path, "--out-dir", str(out_dir), "--quiet"]
        assert cli.main(argv + ["--delay-samples", order]) == 0
        exports[order] = read_export(out_dir)
    given = exports["1753,720,5759,971"]
    assert [m for m, _ in given] == [1753, 720, 5759, 971]
    fitted = FittedPeq.from_dict(json.loads(open(fit_path).read()))
    want = network_to_sos(fitted, [1753, 720, 5759, 971])
    assert [sections.tolist() for _, sections in given] == [c.sections.tolist() for c in want]
    assert sorted((m, s.tolist()) for m, s in given) == [
        (m, s.tolist()) for m, s in exports["720,971,1753,5759"]
    ]


def test_near_nyquist_shelf_exports_and_renders_a_decaying_network(tmp_path):
    fit_path = write_fit(tmp_path / "fit.json", NEAR_NYQUIST_SHELF_BANDS)
    out_dir = tmp_path / "sos"
    assert cli.main(["export", "--fit", fit_path, "--out-dir", str(out_dir), "--quiet"]) == 0
    freqs = np.linspace(0.0, 24000.0, 200_001)
    lines = read_export(out_dir)
    assert len(lines) == 8
    for m, sections in lines:
        peak = digital_magnitude(SosCascade(sections, 48000.0), freqs).max()
        assert peak < 0.0, f"line {m} peaks at {peak:+.2f} dB"
    wav_path = tmp_path / "ir.wav"
    assert cli.main(["render", "--fit", fit_path, "--out", str(wav_path), "--quiet"]) == 0
    _, ir = wavfile.read(wav_path)
    ir = ir.astype(np.float64)
    assert np.isfinite(ir).all()
    tenth = ir.size // 10
    assert np.sum(ir[-tenth:] ** 2) < 1e-3 * np.sum(ir[:tenth] ** 2)


def test_render_refuses_a_response_the_wav_cannot_hold(flat_csv, tmp_path, capsys, monkeypatch):
    # A finite float64 response past float32's range: exit 2, naming the
    # sample, and neither the WAV nor the decay table is written.
    fit_path = run_fit(flat_csv, tmp_path)
    render = cli.render_ir

    def loud_render(cfg):
        return render(cfg) * 1e39

    monkeypatch.setattr(cli, "render_ir", loud_render)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = ["render", "--fit", fit_path, "--lines", "2", "--duration", "0.5"]
    assert cli.main([*argv, "--out", str(tmp_path / "ir.wav"), "--quiet"]) == 2
    assert "which a WAV of 32-bit floats cannot hold" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_export_rejects_bad_inputs(flat_csv, tmp_path, capsys):
    fit_path = run_fit(flat_csv, tmp_path)
    assert cli.main(["export", "--fit", fit_path, "--out-dir", str(tmp_path / "d"),
                     "--delay-samples", ""]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a fit\"}")
    assert cli.main(["export", "--fit", str(bad), "--out-dir", str(tmp_path / "d")]) == 1
    assert cli.main(["export", "--fit", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path / "d")]) == 1


def test_corners_above_nyquist_export_and_render(tmp_path):
    fit_path = tmp_path / "fit.json"
    bands = [
        {"kind": kind, "fc_hz": fc, "gain_db": gain, "q": q}
        for kind, fc, gain, q in ABOVE_NYQUIST_BANDS
    ]
    fit_path.write_text(json.dumps({"fs": 48000.0, "m_ref": 4800, "bands": bands}))
    out_dir = tmp_path / "sos"
    rc = cli.main(
        ["export", "--fit", str(fit_path), "--out-dir", str(out_dir), "--lines", "8",
         "--quiet"]
    )
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["lines"]) == 8
    for entry in manifest["lines"]:
        doc = json.loads((out_dir / entry["json"]).read_text())
        assert doc["digitization"]["max_abs_dev_below_db"] <= 0.5
    rc = cli.main(
        ["render", "--fit", str(fit_path), "--out", str(tmp_path / "ir.wav"),
         "--lines", "8", "--duration", "1.0", "--quiet"]
    )
    assert rc == 0


@pytest.mark.parametrize(
    "bands",
    [
        # Below -0.7 dB from 20 Hz up, but the low shelf lifts DC to +6 dB
        # at the reference delay.
        [
            {"kind": "low_shelf", "fc_hz": 4.0, "gain_db": 6.0, "q": 0.7},
            {"kind": "bell", "fc_hz": 200.0, "gain_db": -6.0, "q": 0.2},
            {"kind": "high_shelf", "fc_hz": 8000.0, "gain_db": -6.0, "q": 0.7},
        ],
        # Above 0 dB everywhere.
        [
            {"kind": "low_shelf", "fc_hz": 100.0, "gain_db": 1.0, "q": 0.7},
            {"kind": "bell", "fc_hz": 1000.0, "gain_db": 3.0, "q": 0.7},
            {"kind": "high_shelf", "fc_hz": 8000.0, "gain_db": 1.0, "q": 0.7},
        ],
    ],
    ids=["dc_lift", "above_0db"],
)
def test_export_and_render_refuse_a_cascade_that_does_not_decay(tmp_path, capsys, bands):
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps({"fs": 48000.0, "m_ref": 4800, "bands": bands}))
    out_dir = tmp_path / "sos"
    wav_path = tmp_path / "ir.wav"
    assert cli.main(["export", "--fit", str(fit_path), "--out-dir", str(out_dir)]) == 2
    assert "would not decay" in capsys.readouterr().err
    # With --duration set, render refuses by the same line rule as export.
    assert cli.main(["render", "--fit", str(fit_path), "--out", str(wav_path),
                     "--duration", "0.5"]) == 2
    assert "would not decay" in capsys.readouterr().err
    assert not out_dir.exists()
    assert not wav_path.exists()


def test_render_writes_wav_and_decay_table(flat_csv, tmp_path):
    fit_path = run_fit(flat_csv, tmp_path)
    wav_path = tmp_path / "ir.wav"
    rc = cli.main(
        ["render", "--fit", fit_path, "--out", str(wav_path), "--lines", "4",
         "--duration", "2.0", "--quiet"]
    )
    assert rc == 0
    rate, data = wavfile.read(wav_path)
    assert rate == 48000
    assert data.size == 2 * 48000
    decay = (tmp_path / "ir.decay.csv").read_text().strip().splitlines()
    assert decay[0] == "band_hz,t60_s,residual"
    broadband = float(decay[1].split(",")[1])
    assert 0.8 <= broadband <= 1.2


def test_failed_write_leaves_no_file(flat_csv, tmp_path, monkeypatch):
    fit_path = run_fit(flat_csv, tmp_path)
    out_dir = tmp_path / "out"

    def failing_write_wav(handle, ir, fs):
        handle.write(b"RIFF")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_wav", failing_write_wav)
    rc = cli.main(
        ["render", "--fit", fit_path, "--out", str(out_dir / "ir.wav"), "--lines", "4",
         "--duration", "0.5", "--quiet"]
    )
    assert rc == 1
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize("command", ["fit", "render"])
def test_a_sidecar_that_cannot_be_written_leaves_neither_file(
    flat_csv, tmp_path, capsys, command
):
    # A directory where the sidecar goes: the main file is not left behind.
    out_dir = tmp_path / "out"
    if command == "fit":
        argv = ["fit", "--t60", flat_csv, "--bands", "4", "--iterations", "100"]
        out, sidecar = out_dir / "fit.json", out_dir / "fit.report.json"
    else:
        argv = ["render", "--fit", run_fit(flat_csv, tmp_path), "--lines", "2",
                "--duration", "0.5"]
        out, sidecar = out_dir / "ir.wav", out_dir / "ir.decay.csv"
    argv = [*argv, "--out", str(out), "--quiet"]
    sidecar.mkdir(parents=True)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert not out.exists()
    assert os.listdir(out_dir) == [sidecar.name]
    assert os.listdir(sidecar) == []
    # Nor is a previous run's main file deleted: the directory is refused
    # before any file is written.
    sidecar.rmdir()
    assert cli.main(argv) == 0
    previous = out.read_bytes()
    sidecar.unlink()
    sidecar.mkdir()
    assert cli.main(argv) == 1
    assert f"Is a directory: '{sidecar}'" in capsys.readouterr().err
    assert out.read_bytes() == previous
    assert sorted(os.listdir(out_dir)) == sorted([out.name, sidecar.name])


def test_an_export_whose_manifest_cannot_be_written_leaves_no_line_file(
    flat_csv, tmp_path, capsys
):
    fit_path = run_fit(flat_csv, tmp_path)
    out_dir = tmp_path / "out"
    (out_dir / "manifest.json").mkdir(parents=True)
    capsys.readouterr()
    argv = ["export", "--fit", fit_path, "--out-dir", str(out_dir), "--lines", "2", "--quiet"]
    assert cli.main(argv) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert os.listdir(out_dir) == ["manifest.json"]
    # A previous run's line files survive a refused run.
    (out_dir / "manifest.json").rmdir()
    assert cli.main(argv) == 0
    previous = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
    (out_dir / "manifest.json").unlink()
    (out_dir / "manifest.json").mkdir()
    assert cli.main(argv) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == sorted(previous)
    for name, data in previous.items():
        if name != "manifest.json":
            assert (out_dir / name).read_bytes() == data


def test_a_campaign_whose_histogram_cannot_be_written_keeps_the_previous_summary(
    tmp_path, capsys
):
    out_dir = tmp_path / "campaign"
    argv = ["campaign", "--synthetic", "2", "--out-dir", str(out_dir), "--bands", "4",
            "--iterations", "100", "--quiet"]
    assert cli.main(argv) == 0
    previous = (out_dir / "summary.json").read_bytes()
    (out_dir / "histogram.csv").unlink()
    (out_dir / "histogram.csv").mkdir()
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert (out_dir / "summary.json").read_bytes() == previous
    assert sorted(os.listdir(out_dir)) == ["histogram.csv", "summary.json"]


def test_an_output_path_that_links_to_a_directory_replaces_the_link(tmp_path):
    # Only a real directory is refused: os.replace replaces a link, and the
    # directory it pointed to is left as it was.
    target = tmp_path / "elsewhere"
    target.mkdir()
    link = tmp_path / "fit.json"
    link.symlink_to(target)
    cli._write_atomic((str(link), "{}\n"))
    assert not link.is_symlink() and link.read_text() == "{}\n"
    assert os.listdir(target) == []


def test_render_is_byte_reproducible(flat_csv, tmp_path):
    fit_path = run_fit(flat_csv, tmp_path)
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    for path in (a, b):
        rc = cli.main(
            ["render", "--fit", fit_path, "--out", str(path), "--lines", "4",
             "--quiet"]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_rejects_zero_duration(flat_csv, tmp_path):
    fit_path = run_fit(flat_csv, tmp_path)
    rc = cli.main(
        ["render", "--fit", fit_path, "--out", str(tmp_path / "x.wav"),
         "--duration", "0"]
    )
    assert rc == 1


# Inputs the library refuses, each with the parts of the bad value the
# message must name.  {fit} and {table} are inputs; {out} is where the
# command would write.  The render_too_short and render_nothing_measurable
# cases are refused only after the render, so they check that render
# measures before it writes.
@pytest.mark.parametrize(
    "argv, named",
    [
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--delay-samples", "0,480"],
         ["got 0"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--delay-samples", "0,480"],
         ["got 0"]),
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--delay-range", "0.2:0.1"],
         ["0.2", "0.1"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--delay-range", "0.2:0.1"],
         ["0.2", "0.1"]),
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--delay-range", "0.015:inf"],
         ["0.015", "inf"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--delay-range", "0.015:inf"],
         ["0.015", "inf"]),
        (["fit", "--t60", "{table}", "--out", "{out}/fit.json", "--delay-ms", "0"],
         ["got 0"]),
        (["campaign", "--synthetic", "0", "--out-dir", "{out}"], ["got 0"]),
        (["campaign", "--t60-dir", "{table}", "--out-dir", "{out}"], ["{table}"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--duration", "0.00003"],
         ["too short"]),
        (["fit", "--t60", "{table}", "--out", "{out}/fit.json", "--delay-ms", "nan"],
         ["got nan"]),
        (["fit", "--t60", "{table}", "--out", "{out}/fit.json", "--delay-samples", "inf"],
         ["got inf"]),
        # Shorter than the shortest default delay: every band is silent.
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--duration", "0.015"],
         ["no band", "measurable decay"]),
        # Under one sample: no integer delay fits inside the range.
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--delay-range", "1e-9:1e-8",
          "--lines", "8"], ["1e-09", "1e-08", "8 distinct"]),
        # A 48-million-sample line scales the bands past what the digitizer
        # designs; the refusal names the line and the band gain, not NaNs.
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--lines", "2",
          "--delay-range", "0.015:1e3"], ["delay line of 4799999", " dB at "]),
        # Sizes refused before any digitizing or allocation.
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--delay-range", "0.015:1e300"],
         ["0.015", "1e+300", "2**26"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--duration", "1e300"],
         ["1e+300 s render", "2**26"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--duration", "1e6"],
         ["1e+06 s render", "2**26"]),
        # The default length is worked out first, so the size refusal comes
        # before the digitizer sees a 40-million-sample line.
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav",
          "--delay-samples", "40000000,40000001"], ["80000001 samples", "2**26"]),
        # Repeated delays are refused with the delays, before the digitizer
        # refuses the 4.8-million-sample line.
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--duration", "0.5",
          "--delay-samples", "720,720,4799999"], ["distinct", "(720, 720, 4799999)"]),
        (["fit", "--t60", "{table}", "--out", "{out}/fit.json", "--bands", "100000"],
         ["100000 bands", "512 grid points"]),
        (["campaign", "--synthetic", "2", "--out-dir", "{out}", "--bands", "100000"],
         ["100000 bands", "512 grid points"]),
        (["fit", "--t60", "{table}", "--out", "{out}/fit.json", "--fs", "1e300"],
         ["got 1e+300"]),
        (["campaign", "--synthetic", "2", "--out-dir", "{out}", "--fs", "1e300"],
         ["got 1e+300"]),
        (["campaign", "--synthetic", "2", "--out-dir", "{out}", "--seed", "-1"],
         ["seed", "got -1"]),
        # The default range spans 5041 integer delays, of which the search
        # places at most 643 pairwise coprime.
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--lines", "99999999999999999999"],
         ["99999999999999999999 distinct", "5041 integers"]),
        (["render", "--fit", "{fit}", "--out", "{out}/ir.wav", "--lines", "6000"],
         ["6000 distinct", "5041 integers"]),
        (["export", "--fit", "{fit}", "--out-dir", "{out}", "--lines", "800"],
         ["800 distinct coprime delays at fs=48000.0"]),
        (["campaign", "--synthetic", "99999999999999999999", "--out-dir", "{out}"],
         ["99999999999999999999 synthetic curves", "2**26"]),
    ],
    ids=[
        "export_delay_0", "render_delay_0", "export_range", "render_range",
        "export_range_inf", "render_range_inf",
        "fit_delay_ms_0", "campaign_synthetic_0", "campaign_dir_is_file",
        "render_too_short_to_measure", "fit_delay_ms_nan", "fit_delay_samples_inf",
        "render_nothing_measurable", "export_range_below_one_sample",
        "export_line_too_deep_to_digitize", "export_range_1e300", "render_duration_1e300",
        "render_duration_1e6",
        "render_default_length_huge_delays", "render_delays_repeated",
        "fit_bands_100000", "campaign_bands_100000", "fit_fs_1e300", "campaign_fs_1e300",
        "campaign_seed_negative",
        "export_lines_huge", "render_lines_6000", "export_lines_800", "campaign_synthetic_huge",
    ],
)
def test_library_refusals_exit_1_and_write_nothing(flat_csv, tmp_path, capsys, argv, named):
    fields = {"fit": run_fit(flat_csv, tmp_path), "table": flat_csv, "out": str(tmp_path / "out")}
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main([arg.format(**fields) for arg in argv]) == 1
    err = capsys.readouterr().err
    for part in named:
        assert part.format(**fields) in err
    assert sorted(tmp_path.rglob("*")) == before


# Fit files whose fields the library refuses, by (field, band index or None
# for a top-level field, value), with the parts the message must name, and
# those a default-length render names (None: the same).  The first four used
# to end in a bare OverflowError or ZeroDivisionError.
@pytest.mark.parametrize("command", ["export", "render", "render_duration"])
@pytest.mark.parametrize(
    "field, band, value, named, length_named",
    [
        ("gain_db", 1, 1e300, ["delay line of 720 samples", " dB at ", "float64"],
         ["band of 1e+300 dB", "float64"]),
        ("gain_db", 1, -1e300, ["delay line of 720 samples", " dB at ", "float64"],
         ["band of -1e+300 dB", "float64"]),
        ("q", 1, 1e-300, ["delay line of 720 samples", "(Q 1e-300)", "no finite, stable section"],
         ["(Q 1e-300)", "magnitude past float64's range"]),
        ("q", 0, 1e-300, ["delay line of 720 samples", "(Q 1e-300)", "no finite, stable section"],
         ["(Q 1e-300)", "magnitude past float64's range"]),
        ("m_ref", None, 10**400, ["{fit}", "malformed fitted-PEQ document", "OverflowError"], None),
        # Refused where it is read, by the rule fit applies, not deep in the
        # digitizer with a 30-digit delay line.
        ("fs", None, 1e300, ["{fit}", "fs must be > 0 and <= 1e+07 Hz, got 1e+300"], None),
        ("bands", None, None, ["{fit}", "malformed fitted-PEQ document", "TypeError"], None),
    ],
    ids=["gain_1e300", "gain_-1e300", "q_1e-300", "low_shelf_q_1e-300", "m_ref_10**400",
         "fs_1e300", "bands_null"],
)
def test_fit_file_refusals_exit_1_and_write_nothing(
    flat_csv, tmp_path, capsys, command, field, band, value, named, length_named
):
    run_fit(flat_csv, tmp_path)
    doc = json.loads((tmp_path / "fit.json").read_text())
    (doc if band is None else doc["bands"][band])[field] = value
    fit_path = tmp_path / "hostile.json"
    fit_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "export": ["export", "--out-dir", str(out)],
        "render": ["render", "--out", str(out / "ir.wav")],
        "render_duration": ["render", "--out", str(out / "ir.wav"), "--duration", "0.5"],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main([*argv, "--fit", str(fit_path), "--lines", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if command == "render" and length_named is not None:
        # The default length comes from the fit's response at its reference
        # delay, worked out before any line is digitized.
        named = length_named
        assert "delay line" not in err
    for part in named:
        assert part.format(fit=fit_path) in err
    assert sorted(tmp_path.rglob("*")) == before


def test_render_refuses_a_rate_the_wav_header_cannot_hold(flat_csv, tmp_path, capsys,
                                                         monkeypatch):
    # A fit at 44100.4 Hz used to render to a WAV whose header said 44100,
    # and then to digitize and render before write_wav refused it.
    fit_path = run_fit(flat_csv, tmp_path, extra=("--fs", "44100.4"))

    def not_reached(*args, **kwargs):
        raise AssertionError("the rate is refused before any digitizing or rendering")

    monkeypatch.setattr(cli, "network_to_sos", not_reached)
    monkeypatch.setattr(cli, "render_ir", not_reached)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = ["render", "--fit", fit_path, "--lines", "2", "--duration", "0.3"]
    assert cli.main([*argv, "--out", str(tmp_path / "ir.wav")]) == 1
    assert "a WAV holds a whole number of Hz, got fs 44100.4" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_near_zero_db_bands_are_designed_as_identity(flat_csv, tmp_path):
    # A -1e-16 dB bell leaves A = 10^(G/40) at 1.0: it exports as the
    # identity section, where it used to be refused as past the designed gains.
    run_fit(flat_csv, tmp_path)
    doc = json.loads((tmp_path / "fit.json").read_text())
    doc["bands"][1]["gain_db"] = -1e-16
    fit_path = tmp_path / "tiny.json"
    fit_path.write_text(json.dumps(doc))
    out = tmp_path / "sos"
    assert cli.main(["export", "--fit", str(fit_path), "--out-dir", str(out), "--lines", "2",
                     "--quiet"]) == 0
    line = json.loads((out / "line00_m720.json").read_text())
    assert line["sections"][1] == {"b0": 1.0, "b1": 0.0, "b2": 0.0, "a0": 1.0, "a1": 0.0, "a2": 0.0}


@pytest.mark.parametrize("command", ["fit", "export", "render", "campaign"])
def test_non_utf8_files_exit_1_and_write_nothing(tmp_path, capsys, command):
    # A UTF-16 byte-order mark is not UTF-8: reading used to raise UnicodeDecodeError.
    tables = tmp_path / "tables"
    tables.mkdir()
    bad = tables / "utf16.csv"
    bad.write_bytes(b"\xff\xfe" + FLAT_TABLE.encode("utf-16-le"))
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--t60", str(bad), "--out", str(out / "fit.json")],
        "export": ["export", "--fit", str(bad), "--out-dir", str(out)],
        "render": ["render", "--fit", str(bad), "--out", str(out / "ir.wav")],
        "campaign": ["campaign", "--t60-dir", str(tables), "--out-dir", str(out)],
    }[command]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert sorted(tmp_path.rglob("*")) == before


def test_files_that_start_with_a_utf8_byte_order_mark_are_read(flat_csv, tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with one; it used to fail the header check.
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + FLAT_TABLE.encode("utf-8"))
    plain = run_fit(flat_csv, tmp_path, name="plain.json")
    marked = run_fit(str(bom_csv), tmp_path, name="marked.json")
    assert open(marked, "rb").read() == open(plain, "rb").read()
    bom_fit = tmp_path / "bom.fit.json"
    bom_fit.write_bytes(b"\xef\xbb\xbf" + open(plain, "rb").read())
    for fit_path, out_dir in ((plain, tmp_path / "plain"), (str(bom_fit), tmp_path / "marked")):
        argv = ["export", "--fit", fit_path, "--out-dir", str(out_dir), "--lines", "2", "--quiet"]
        assert cli.main(argv) == 0
    for (m_plain, plain_sos), (m_marked, marked_sos) in zip(
        read_export(tmp_path / "plain"), read_export(tmp_path / "marked"), strict=True
    ):
        assert m_plain == m_marked
        assert np.array_equal(plain_sos, marked_sos)


def test_fit_refuses_a_vanishing_t60(tmp_path, capsys):
    # The target of a 1e-300 s T60 is -6e300 dB: its squared error overflows.
    table = tmp_path / "vanishing.csv"
    table.write_text("freq_hz,t60_s\n100,1e-300\n1000,1.0\n")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["fit", "--t60", str(table), "--out", str(tmp_path / "fit.json")]) == 1
    err = capsys.readouterr().err
    assert "T60 1e-300 s" in err and "-6000 dB" in err
    assert sorted(tmp_path.rglob("*")) == before


# design workload seed 11's second synthetic table: T60 at 31 log-spaced
# points from 20 Hz to 20 kHz, falling to 0.33 s and rising to 2.5 s.
SEED_11_SYNTH1_T60 = (
    0.445482, 0.43187, 0.417733, 0.403204, 0.388609, 0.374401, 0.361099, 0.349242,
    0.33936, 0.331961, 0.327531, 0.326553, 0.329521, 0.336973, 0.349514, 0.367855,
    0.392834, 0.425451, 0.466897, 0.518588, 0.582209, 0.659765, 0.753645, 0.866688,
    1.00223, 1.16413, 1.35658, 1.58384, 1.84952, 2.15544, 2.5,
)


def test_default_fit_decays_below_the_grid(tmp_path):
    # A fit free below 20 Hz lifted this table's 720-sample line to +3.7 dB
    # at 8 Hz, and export refused it.
    table = tmp_path / "synth1.csv"
    table.write_text("freq_hz,t60_s\n" + "".join(
        f"{f:.6g},{t:.6g}\n" for f, t in zip(np.geomspace(20.0, 20000.0, 31), SEED_11_SYNTH1_T60)
    ))
    fit_path = str(tmp_path / "fit.json")
    assert cli.main(["fit", "--t60", str(table), "--out", fit_path, "--quiet"]) == 0
    out_dir = tmp_path / "sos"
    assert cli.main(["export", "--fit", fit_path, "--out-dir", str(out_dir), "--quiet"]) == 0
    assert len(json.loads((out_dir / "manifest.json").read_text())["lines"]) == 8


@pytest.mark.parametrize("t60_s", ["0.15", "0.05"])
def test_short_t60_tables_fit_at_cli_defaults(tmp_path, t60_s):
    # Polish trial steps on these tables overflow the kernel; they used to end
    # the fit with exit 2.
    table = tmp_path / "short.csv"
    table.write_text(f"freq_hz,t60_s\n100,{t60_s}\n10000,{t60_s}\n")
    fit_path = tmp_path / "fit.json"
    assert cli.main(["fit", "--t60", str(table), "--out", str(fit_path), "--quiet"]) == 0
    report_text = (tmp_path / "fit.report.json").read_text()
    for text in (fit_path.read_text(), report_text):
        assert "NaN" not in text and "Infinity" not in text
    report = json.loads(report_text)
    # The first 20 downsampled losses are every 100th of the 2000 Adam steps.
    assert report["final_mse"] <= min(report["loss_trace_downsampled"][:20])


def test_campaign_synthetic_artifacts(tmp_path):
    out_dir = tmp_path / "campaign"
    rc = cli.main(
        ["campaign", "--synthetic", "3", "--out-dir", str(out_dir), "--bands", "4",
         "--iterations", "300", "--quiet"]
    )
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_curves"] == 3
    assert summary["bands"] == 4
    assert summary["n_points"] == 3 * 512
    histogram = (out_dir / "histogram.csv").read_text().strip().splitlines()
    assert histogram[0] == "bin_lo_pct,bin_hi_pct,count"
    assert sum(int(line.split(",")[2]) for line in histogram[1:]) == summary["n_points"]


def test_campaign_over_directory(flat_csv, tmp_path):
    table_dir = tmp_path / "tables"
    table_dir.mkdir()
    (table_dir / "a.csv").write_text(FLAT_TABLE)
    (table_dir / "b.csv").write_text(
        "freq_hz,t60_s\n100,2.0\n1000,1.5\n10000,1.0\n"
    )
    out_dir = tmp_path / "campaign"
    rc = cli.main(
        ["campaign", "--t60-dir", str(table_dir), "--out-dir", str(out_dir),
         "--bands", "4", "--iterations", "300", "--quiet"]
    )
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_curves"] == 2
    names = {c["name"] for c in summary["curves"]}
    assert names == {"a", "b"}


def test_campaign_source_validation(tmp_path, capsys):
    assert cli.main(["campaign", "--out-dir", str(tmp_path / "x")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["campaign", "--t60-dir", str(empty),
                     "--out-dir", str(tmp_path / "x")]) == 1
    assert cli.main(["campaign", "--t60-dir", str(tmp_path / "missing"),
                     "--out-dir", str(tmp_path / "x")]) == 1


def test_no_temp_files_left_behind(flat_csv, tmp_path):
    run_fit(flat_csv, tmp_path)
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".tmp")]
    assert leftovers == []
