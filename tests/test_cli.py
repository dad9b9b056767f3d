"""Exercise the command line entry points in-process via main(argv)."""

import json

import pytest

from bpcam import RunConfig
from bpcam.cli import OUTPUT_DIR_ENV, main
from bpcam.model import predict


def tiny_config() -> RunConfig:
    # 61 px is the smallest ROI whose background annulus is non-empty,
    # so the analysis completes with a real (if unimpressive) SNR
    return RunConfig().replace(
        roi_height=61, roi_width=61,
        n_frames=40, n_dark_frames=80,
        n_bootstrap=0, seed=5,
    )


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One simulated tiny run, produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config().as_dict()))
    run_dir = root / "run"
    rc = main(["simulate", "--config", str(cfg_path), "--out-dir", str(run_dir)])
    assert rc == 0
    return str(cfg_path), run_dir


def test_predict_table(capsys):
    assert main(["predict"]) == 0
    out = capsys.readouterr().out
    assert "sigma_pos_um" in out
    assert "28.3436" in out
    assert "3388.89" in out  # mode count


def test_predict_json_matches_library(capsys):
    assert main(["predict", "--json"]) == 0
    got = json.loads(capsys.readouterr().out)
    want = predict(RunConfig()).as_dict()
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value)


def test_simulate_writes_stacks_and_banner(cli_run, capsys):
    _, run_dir = cli_run
    for name in ("dark.bpcm", "image.bpcm", "farfield.bpcm", "sim_summary.json"):
        assert (run_dir / name).exists()


def test_analyze_then_report(cli_run, capsys):
    cfg_path, run_dir = cli_run
    rc = main(["analyze", "--config", cfg_path, "--run-dir", str(run_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "EPR violation" in out
    for name in ("report.json", "report.txt",
                 "image_difference_cross_section.csv",
                 "farfield_sum_cross_section.csv"):
        assert (run_dir / name).exists()

    assert main(["report", "--run-dir", str(run_dir)]) == 0
    rendered = capsys.readouterr().out
    assert "EPR violation" in rendered
    assert "sigma_pos" in rendered

    stack = str(run_dir / "image.bpcm")
    assert main(["report", "--stack", stack, "--run-dir", str(run_dir)]) == 0
    described = capsys.readouterr().out
    assert "binary" in described
    assert "image" in described
    assert "EPR violation" in described  # report follows the description


def test_analyze_rejects_foreign_config(cli_run, tmp_path, capsys):
    cfg_path, run_dir = cli_run
    other = tmp_path / "other.json"
    other.write_text(json.dumps(tiny_config().replace(seed=6).as_dict()))

    rc = main(["analyze", "--config", str(other), "--run-dir", str(run_dir),
               "--out-dir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "digest" in err

    rc = main(["analyze", "--config", str(other), "--run-dir", str(run_dir),
               "--out-dir", str(tmp_path), "--ignore-digest"])
    assert rc == 0
    assert (tmp_path / "report.json").exists()


def test_analyze_flags_override_the_config(cli_run, tmp_path):
    _, run_dir = cli_run
    # the file asks for resamples and the default gate; the flags override both
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config().replace(n_bootstrap=5).as_dict()))
    rc = main(["analyze", "--config", str(cfg_path), "--run-dir", str(run_dir),
               "--out-dir", str(tmp_path), "--snr-gate", "3", "--bootstrap", "0"])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["snr_gate"] == 3.0
    assert report["errors"] == {}


def test_analyze_wants_stacks(tmp_path, capsys):
    rc = main(["analyze", "--run-dir", str(tmp_path)])
    assert rc == 1
    assert "stack not found" in capsys.readouterr().err

    rc = main(["analyze", "--image", str(tmp_path / "image.bpcm")])
    assert rc == 1
    assert "both --image and --farfield" in capsys.readouterr().err


def test_report_missing_file(tmp_path, capsys):
    rc = main(["report", "--run-dir", str(tmp_path)])
    assert rc == 1
    assert "report not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "--config", "missing.json"],
    ["report", "--stack", "missing.bpcm"],
    ["report", "--report", "."],  # a directory where a report.json should be
])
def test_unreadable_file_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_report_that_is_not_json_exits_1(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("{not json")
    assert main(["report", "--report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not valid JSON" in err


def test_bad_config_values_exit_1_before_any_output(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"attenuation_mode": "junk"}))
    assert main(["predict", "--config", str(cfg_path)]) == 1
    assert "attenuation_mode" in capsys.readouterr().err
    out_dir = tmp_path / "run"
    assert main(["simulate", "--seed", "-1", "--out-dir", str(out_dir)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_misuse_exits_2(capsys):
    for argv in ([], ["frobnicate"], ["simulate", "--plane", "sideways"],
                 ["simulate", "--threshold-k", "3.5"]):  # k is always calibrated
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bpcam" in capsys.readouterr().out


def test_output_dir_env_is_the_default(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from-env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        tiny_config().replace(n_frames=4, n_dark_frames=20).as_dict()))
    assert main(["simulate", "--config", str(cfg_path), "--plane", "image"]) == 0
    assert (target / "image.bpcm").exists()
    capsys.readouterr()
