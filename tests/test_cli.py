"""Command-line behavior: artifacts, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest
from scipy.io import wavfile

from peqfdn import BiquadCoeffs, FittedPeq, SosCascade, cli, digitize, scale_to_delay
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
            "--grid",
            "128",
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
    assert report["iterations"] == 600
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
         "--iterations", "600", "--grid", "128"]
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
    out_dir = tmp_path / "sos"
    rc = cli.main(
        ["export", "--fit", fit_path, "--out-dir", str(out_dir), "--lines", "8",
         "--quiet"]
    )
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert len(manifest["lines"]) == 8
    assert sum(entry["sections"] for entry in manifest["lines"]) == 8 * 4
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
    design = digitize.band_to_biquad

    def counting_design(band, fs):
        designed.append(band)
        return design(band, fs)

    monkeypatch.setattr(digitize, "band_to_biquad", counting_design)
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
        cascade = SosCascade(
            tuple(
                BiquadCoeffs(s["b0"], s["b1"], s["b2"], s["a1"], s["a2"], doc["fs"])
                for s in doc["sections"]
            )
        )
        params = scale_to_delay(fitted, entry["delay_samples"])
        assert doc["digitization"] == digitization_report(params, cascade, freqs)


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


def test_campaign_synthetic_artifacts(tmp_path):
    out_dir = tmp_path / "campaign"
    rc = cli.main(
        ["campaign", "--synthetic", "3", "--out-dir", str(out_dir), "--bands", "4",
         "--iterations", "300", "--grid", "96", "--quiet"]
    )
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_curves"] == 3
    assert summary["bands"] == 4
    assert summary["n_points"] == 3 * 96
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
         "--bands", "4", "--iterations", "300", "--grid", "96", "--quiet"]
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
