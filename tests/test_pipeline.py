import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import falsikit
from falsikit import dynamics, pipeline
from falsikit.cli import main as cli_main
from falsikit.dynamics import (IsolatedSystem, SimulationDivergedError, add_measurement_noise,
                               band_limited_record, simulate)
from falsikit.pipeline import (ConfigError, RunManifest, _read_ledger, emit_report,
                               ingest_measurement, ingest_timeseries, parse_config,
                               run_pipeline, write_timeseries)
from falsikit.priors import generate_ensemble

CONFIG_TEMPLATE = """\
[run]
master_seed = 11
samples_per_class = 8
output_dir = out

[building]
story_masses = 300 300 300
story_stiffnesses = 40 40 40
base_mass = 500

[noise]
sigma_fraction = 0.15

[measurement]
file = measured.tsv

[excitation]
calibration = cal.tsv
prediction = pred.tsv
prediction_truth = pred_truth.tsv

[class:boucwen]
binding = boucwen
k_post = lognormal 4.5 0.25
c_b = lognormal 20 4
r_k = uniform 0.16 0.0058
Q_y = uniform 4.75 0.2887

[class:aashto]
binding = aashto
k_post = lognormal 4.5 0.25
c_b = lognormal 20 4
r_k = uniform 0.16 0.0058
r_d = uniform 2.5 0.2887
"""

BILINEAR_CLASS = """
[class:bilinear]
binding = bilinear
k_post = lognormal 4.5 0.25
c_b = lognormal 20 4
r_k = uniform 0.16 0.0058
Q_y = uniform 4.75 0.2887
"""

JPWRI_CLASS = """
[class:jpwri]
binding = jpwri
k_post = lognormal 4.5 0.25
c_b = lognormal 20 4
r_k = uniform 0.16 0.0058
r_d = uniform 2.5 0.2887
"""


@pytest.fixture
def workspace(tmp_path, building):
    """Config file plus excitation/measurement artifacts for a small run."""
    cal = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
    pred = band_limited_record(5.0, 0.05, seed=4, peak=2.5)
    iso = IsolatedSystem(building, "boucwen", k_post=4.0, c_b=20.0, r_k=0.1667, Q_y=5.0)
    truth = simulate(iso, cal, dt_int=0.005)
    pred_truth = simulate(iso, pred, dt_int=0.005)
    d = add_measurement_noise(truth, 0.2, np.random.default_rng(1))
    write_timeseries(tmp_path / "cal.tsv", 0.05, cal.samples)
    write_timeseries(tmp_path / "pred.tsv", 0.05, pred.samples)
    write_timeseries(tmp_path / "measured.tsv", 0.05, d.d)
    write_timeseries(tmp_path / "pred_truth.tsv", 0.05, pred_truth.d)
    config_path = tmp_path / "run.ini"
    config_path.write_text(CONFIG_TEMPLATE)
    return config_path


class TestIngestTimeseries:
    def test_round_trip(self, tmp_path):
        values = np.sin(np.arange(40.0))
        path = tmp_path / "series.tsv"
        write_timeseries(path, 0.05, values)
        rec = ingest_timeseries(path)
        assert rec.dt == pytest.approx(0.05)
        np.testing.assert_array_equal(rec.samples, values)

    def test_header_and_commas(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("time,accel\n0.0,1.0\n0.1,2.0\n0.2,3.0\n")
        rec = ingest_timeseries(path)
        assert rec.dt == pytest.approx(0.1)
        np.testing.assert_array_equal(rec.samples, [1.0, 2.0, 3.0])

    def test_header_after_comment(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("# recorded 2026-01-01\ntime,accel\n0.0,1.0\n0.1,2.0\n")
        rec = ingest_timeseries(path)
        assert rec.dt == pytest.approx(0.1)
        np.testing.assert_array_equal(rec.samples, [1.0, 2.0])
        d = ingest_measurement(path, channel_names=("accel",))
        np.testing.assert_array_equal(d.d, [1.0, 2.0])

    def test_second_non_numeric_line_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("# recorded 2026-01-01\ntime,accel\nunits,m/s2\n0.0,1.0\n0.1,2.0\n")
        with pytest.raises(ValueError, match="non-numeric data at line 3"):
            ingest_timeseries(path)

    def test_wide_table_round_trip(self, tmp_path):
        # fewer rows than columns: written as given, not transposed
        table = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "wide.tsv"
        write_timeseries(path, 0.05, table)
        d = ingest_measurement(path)
        assert d.channel_names == ("channel_0", "channel_1", "channel_2", "channel_3")
        np.testing.assert_array_equal(d.by_channel(), table)

    def test_measurement_of_three_channels(self, tmp_path):
        path = tmp_path / "m3.tsv"
        path.write_text("0.0\t1.0\t2.0\t3.0\n0.1\t4.0\t5.0\t6.0\n")
        d = ingest_measurement(path)
        assert d.channel_names == ("channel_0", "channel_1", "channel_2")
        assert d.dt == pytest.approx(0.1)
        np.testing.assert_array_equal(d.d, np.arange(1.0, 7.0))
        with pytest.raises(ValueError, match=r"expected 3 columns \(time \+ 2 channel"):
            ingest_measurement(path, channel_names=("x", "y"))

    def test_non_uniform_grid_reports_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\n0.1\t2.0\n0.25\t3.0\n")
        with pytest.raises(ValueError, match="non-uniform time grid at data row 3"):
            ingest_timeseries(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\n0.1\tnan\n")
        with pytest.raises(ValueError, match="non-finite"):
            ingest_timeseries(path)

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t1.0\t9.0\n0.1\t2.0\t9.0\n")
        with pytest.raises(ValueError, match="columns"):
            ingest_timeseries(path)

    def test_measurement_stacking(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0.0\t1.0\t2.0\n0.1\t3.0\t4.0\n")
        d = ingest_measurement(path, channel_names=("x", "y"))
        np.testing.assert_array_equal(d.d, [1.0, 2.0, 3.0, 4.0])


class TestParseConfig:
    def test_parses_full_config(self, workspace):
        config = parse_config(workspace)
        assert config.ensemble.samples_per_class == 8
        assert [c.class_id for c in config.ensemble.class_specs] == ["boucwen", "aashto"]
        assert config.ensemble.class_specs[0].parameter_names == \
            ("k_post", "c_b", "r_k", "Q_y")
        assert config.fdr.alpha == pytest.approx(0.05)

    def test_missing_key_names_path(self, workspace):
        text = workspace.read_text().replace("master_seed = 11\n", "")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match=r"\[run\] master_seed"):
            parse_config(workspace)

    def test_unknown_binding_lists_registered(self, workspace):
        text = workspace.read_text().replace("binding = aashto", "binding = magic")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match="registered bindings"):
            parse_config(workspace)

    def test_bad_prior_reports_key(self, workspace):
        text = workspace.read_text().replace("Q_y = uniform 4.75 0.2887",
                                             "Q_y = uniform wide")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match="Q_y"):
            parse_config(workspace)

    def test_unknown_prior_flag_names_class_and_key(self, workspace):
        text = workspace.read_text().replace("Q_y = uniform 4.75 0.2887",
                                             "Q_y = normal 4.75 0.2887 postive")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match=r"\[class:boucwen\] Q_y: .*'postive'"):
            parse_config(workspace)

    @pytest.mark.parametrize("flag", ["positive", "positive_only"])
    def test_positive_prior_flag(self, workspace, flag):
        text = workspace.read_text().replace("Q_y = uniform 4.75 0.2887",
                                             f"Q_y = normal 4.75 0.2887 {flag}")
        workspace.write_text(text)
        assert parse_config(workspace).ensemble.class_specs[0].priors[3].positive_only

    @pytest.mark.parametrize("modes", ["1", "1.5 2", "1 2 3"])
    def test_damping_modes_two_integers(self, workspace, modes):
        text = workspace.read_text().replace("base_mass = 500",
                                             f"base_mass = 500\ndamping_modes = {modes}")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match=r"\[building\] damping_modes"):
            parse_config(workspace)

    def test_prediction_inputs_with_one_stem(self, workspace):
        (workspace.parent / "other").mkdir()
        shutil.copy(workspace.parent / "pred.tsv", workspace.parent / "other" / "pred.tsv")
        workspace.write_text(workspace.read_text().replace(
            "prediction = pred.tsv", "prediction = pred.tsv other/pred.tsv").replace(
            "prediction_truth = pred_truth.tsv", ""))
        with pytest.raises(ConfigError, match=r"\[excitation\] prediction: .*stem"):
            parse_config(workspace)

    def test_missing_referenced_file(self, workspace):
        text = workspace.read_text().replace("calibration = cal.tsv",
                                             "calibration = missing.tsv")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match="missing.tsv"):
            parse_config(workspace)

    def test_alpha_domain_checked(self, workspace):
        text = workspace.read_text().replace("[building]", "alpha = 2.0\n\n[building]")
        workspace.write_text(text)
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(workspace)

    def test_readme_minimal_config_parses(self, tmp_path):
        # a key removed from the code but still shown in the README fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"A minimal config:\s*```ini\n(.*?)```", readme, re.S)
        assert block, "README has no minimal config block"
        for name in ("cal.tsv", "pred.tsv", "measured.tsv"):
            write_timeseries(tmp_path / name, 0.05, np.sin(np.arange(20.0)))
        (tmp_path / "run.ini").write_text(block.group(1))
        config = parse_config(tmp_path / "run.ini")
        assert [c.class_id for c in config.ensemble.class_specs] == ["boucwen"]

    def test_readme_names_every_manifest_field(self):
        # a manifest field added to the code but not described in the README fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert [f.name for f in dataclasses.fields(RunManifest) if f"`{f.name}`" not in readme] \
            == []

    def test_binding_registry(self, workspace):
        # each binding is an isolator variant, and the config takes its PARAMETERS
        assert sorted(IsolatedSystem.PARAMETERS) == sorted(
            ("boucwen", "bilinear", "aashto", "jpwri", "modified_aashto", "caltrans"))
        text = workspace.read_text()
        aashto = text[text.index("binding = aashto"):]
        for variant, names in IsolatedSystem.PARAMETERS.items():
            fixed = "".join(f"fixed_{name} = 0.5\n" for name in names[1:])
            workspace.write_text(text.replace(
                aashto, f"binding = {variant}\n{names[0]} = lognormal 4.5 0.25\n{fixed}"))
            spec = parse_config(workspace).ensemble.class_specs[1]
            assert (spec.physics_binding, spec.parameter_names) == (variant, names[:1])
            assert tuple(spec.fixed_constants) == names[1:]


class TestRunPipeline:
    def test_end_to_end_artifacts(self, workspace):
        config = parse_config(workspace)
        manifest = run_pipeline(config)
        out = config.output_dir
        assert (out / "verdicts.tsv").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "estimates.tsv").is_file()
        ledger = (out / "verdicts.tsv").read_text().splitlines()
        assert len(ledger) == 1 + 16   # header + 8 models x 2 classes
        assert 0.0 <= manifest.savings_ratio <= 1.0
        for cid, c in manifest.counts.items():
            assert c["n_u"] + c["n_f"] == c["n_s"] == 8
        # prediction simulated only for classes with survivors
        survivors = sum(c["n_u"] for c in manifest.counts.values() if c["n_u"])
        assert manifest.prediction_simulations == survivors * 1
        round_trip = RunManifest.from_json((out / "manifest.json").read_text())
        assert round_trip.savings_ratio == manifest.savings_ratio

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        config = parse_config(workspace)
        first = {}
        for _ in range(2):
            manifest = run_pipeline(config)
            emit_report(manifest, config.output_dir)
            payload = json.loads(manifest.to_json())
            del payload["stage_seconds"]
            for batches in payload["batches"].values():   # timings, as stage_seconds
                for work in batches.values():
                    del work["seconds"]
            files = {name: (config.output_dir / name).read_bytes()
                     for name in ("verdicts.tsv", "report.txt")}
            assert files == first.setdefault("files", files)
            assert payload == first.setdefault("manifest", payload)

    def test_stage_resume(self, workspace):
        # each stage's manifest holds what the stages it ran did, and the defaults otherwise
        config = parse_config(workspace)
        out = config.output_dir

        def written(manifest):
            on_disk = json.loads((out / "manifest.json").read_text())
            assert on_disk == json.loads(manifest.to_json())
            return on_disk

        manifests = {"simulate": written(run_pipeline(config, stage="simulate"))}
        sim_path = out / "sim_boucwen.npy"
        assert sim_path.is_file()
        stamp = sim_path.stat().st_mtime_ns
        manifests["falsify"] = written(run_pipeline(config, stage="falsify"))
        assert sim_path.stat().st_mtime_ns == stamp   # reused, not recomputed
        manifests["predict"] = written(run_pipeline(config, stage="predict"))

        classes = ("boucwen", "aashto")
        rows = [line.split("\t") for line in (out / "verdicts.tsv").read_text().splitlines()[1:]]
        n_u = {cid: sum(int(row[-1]) for row in rows if row[0] == cid) for cid in classes}
        survivors = [cid for cid in classes if n_u[cid]]
        assert survivors
        counts = {cid: {"n_s": 8, "n_u": n_u[cid], "n_f": 8 - n_u[cid]} for cid in classes}
        savings = sum(8 - n for n in n_u.values()) / 16
        sigma = [0.15 * ingest_measurement(config.measurement_path).d.std()]
        margins = {"log_bound", "margin_min", "margin_median", "margin_max", "falsified_log_mass"}
        calibration = {str(config.calibration_path): 10}
        expected = {
            "simulate": dict(master_seed=11, counts={}, savings_ratio=0.0,
                             prediction_simulations=0,
                             prediction_inputs=0, noise_sigma=[],
                             dt_int=0.005, substeps_per_sample=calibration),
            "falsify": dict(master_seed=11, counts=counts, savings_ratio=savings,
                            prediction_simulations=0,
                            prediction_inputs=0, noise_sigma=sigma,
                            dt_int=0.005, substeps_per_sample=calibration),
            "predict": dict(master_seed=11, counts=counts, savings_ratio=savings,
                            prediction_simulations=sum(n_u.values()), prediction_inputs=1,
                            noise_sigma=sigma,
                            dt_int=0.005, substeps_per_sample=dict(
                                calibration, **{str(config.prediction_paths[0]): 10})),
        }
        # stepper, models and model steps of each batch; the later stages reuse the calibration
        steppers = {"boucwen": "device_step", "aashto": "block_map"}
        work = {"simulate": {"simulate": {cid: (steppers[cid], 8, 8 * 100) for cid in classes}},
                "falsify": {},
                "predict": {"predict": {cid: (steppers[cid], n_u[cid], n_u[cid] * 100)
                                        for cid in survivors}}}
        stats = {"simulate": {}, "falsify": dict.fromkeys(classes, margins),
                 "predict": {cid: margins | ({"effective_sample_size"} if n_u[cid] else set())
                             for cid in classes}}
        errors = {"simulate": set(), "falsify": set(),
                  "predict": {f"pred/{cid}" for cid in survivors}}
        stages = {"simulate": ["simulate"], "falsify": ["falsify", "simulate"],
                  "predict": ["falsify", "predict", "simulate"]}
        artifacts = {"simulate": ["simulations"], "falsify": ["simulations", "verdict_ledger"],
                     "predict": ["estimates", "predictions", "simulations", "verdict_ledger",
                                 "weights"]}
        for stage, manifest in manifests.items():
            assert {key: manifest[key] for key in expected[stage]} == expected[stage], stage
            assert {name: {variant: (b["stepper"], b["models"], b["model_steps"])
                           for variant, b in batches.items()}
                    for name, batches in manifest["batches"].items()} == work[stage], stage
            assert {cid: set(c) for cid, c in manifest["class_stats"].items()} == stats[stage]
            assert set(manifest["prediction_errors"]) == errors[stage]
            assert sorted(manifest["stage_seconds"]) == stages[stage]
            assert sorted(manifest["artifacts"]) == artifacts[stage]

    def test_predict_reads_the_ledger(self, workspace, monkeypatch):
        # falsify then predict: predict draws, loads and scores nothing and keeps the ledger
        config = parse_config(workspace)
        run_pipeline(config, stage="falsify")
        ledger = config.output_dir / "verdicts.tsv"
        stamp = ledger.stat().st_mtime_ns
        calibration = ingest_timeseries(config.calibration_path)
        calls = {"generate_ensemble": 0, "residuals": 0, "falsify_classes": 0, "load": 0,
                 "calibration": 0}
        for module, name in ((pipeline, "generate_ensemble"), (pipeline, "residuals"),
                             (pipeline, "falsify_classes"), (pipeline.np, "load")):
            def counted(*args, _fn=getattr(module, name), _key=name, **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        integrate = dynamics.integrate_rk4

        def counting(system, record, **kwargs):
            if np.array_equal(record.samples, calibration.samples):
                calls["calibration"] += 1
            return integrate(system, record, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_rk4", counting)
        manifest = run_pipeline(config, stage="predict")
        assert calls == dict.fromkeys(calls, 0)
        assert ledger.stat().st_mtime_ns == stamp
        assert manifest.prediction_simulations == sum(c["n_u"] for c in manifest.counts.values())

    def test_ledger_values_round_trip(self, workspace):
        # the θ, log L and log B read back are the ones computed, bit for bit
        config = parse_config(workspace)
        run_pipeline(config, stage="falsify")
        thetas, verdicts = _read_ledger(config.output_dir / "verdicts.tsv", config.ensemble)
        drawn = generate_ensemble(config.ensemble)
        d = ingest_measurement(config.measurement_path, channel_names=("base_abs_accel",))
        for cid, theta in thetas.items():
            assert theta.tobytes() == drawn[cid].tobytes()
            h = np.load(config.output_dir / f"sim_{cid}.npy")
            scored = pipeline.falsify_classes({cid: pipeline.residuals(h, d)},
                                              config.noise_model(d), config.fdr)[cid]
            assert verdicts[cid].log_likelihood.tobytes() == scored.log_likelihood.tobytes()
            assert verdicts[cid].log_bound == scored.log_bound

    @pytest.mark.parametrize("change", ["alpha", "measurement", "seed"])
    def test_predict_recomputes_a_stale_ledger(self, workspace, change):
        # a changed alpha, measurement or seed gives the ledger a fresh run gives
        out = workspace.parent / "out"
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 0
        stale = (out / "verdicts.tsv").read_bytes()
        extra = []
        if change == "alpha":
            workspace.write_text(workspace.read_text().replace("[building]",
                                                               "alpha = 0.2\n\n[building]"))
        elif change == "measurement":
            measured = workspace.parent / "measured.tsv"
            record = ingest_timeseries(measured)   # negated: the same sigma, other residuals
            write_timeseries(measured, record.dt, -record.samples)
        else:
            extra = ["--seed-override", "12"]
        assert cli_main(["run", "--config", str(workspace), "--stage", "predict", *extra]) == 0
        reused = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        shutil.rmtree(out)
        assert cli_main(["run", "--config", str(workspace), "--stage", "all", *extra]) == 0
        fresh = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        assert fresh["verdicts.tsv"] != stale
        del reused["report.txt"], fresh["report.txt"]   # the simulate column differs
        assert reused == fresh

    def test_predict_recomputes_an_unreadable_ledger(self, workspace):
        # a ledger short of a row under a matching key is scored again, not trusted
        config = parse_config(workspace)
        run_pipeline(config, stage="falsify")
        ledger = config.output_dir / "verdicts.tsv"
        whole = ledger.read_text()
        ledger.write_text(whole[:whole.rindex("\n", 0, -1) + 1])
        run_pipeline(config, stage="predict")
        assert ledger.read_text() == whole

    def test_two_stages_match_one_run(self, workspace):
        # falsify + predict writes what --stage all writes, but for what it simulated
        workspace.write_text(workspace.read_text() + BILINEAR_CLASS)
        config = parse_config(workspace)
        runs = []
        for stages in (("falsify", "predict"), ("all",)):
            shutil.rmtree(config.output_dir, ignore_errors=True)
            for stage in stages:
                manifest = json.loads(run_pipeline(config, stage=stage).to_json())
            del manifest["stage_seconds"]
            manifest["batches"].pop("simulate", None)   # the predict stage reused the calibration
            for work in manifest["batches"]["predict"].values():
                del work["seconds"]
            files = {p.name: p.read_bytes() for p in config.output_dir.iterdir()
                     if p.name != "manifest.json"}
            runs.append((manifest, files))
        assert runs[0] == runs[1]
        assert "verdict_key.txt" in runs[0][1]

    def test_class_and_input_order_move_no_bit(self, workspace):
        # 7 models a class: the stacked batches are not a whole number of 8 models wide;
        # at sigma 0.5 every class keeps survivors, so both kinds run on both inputs
        write_timeseries(workspace.parent / "pred2.tsv", 0.05,
                         band_limited_record(5.0, 0.05, seed=5, peak=3.0).samples)
        text = workspace.read_text().replace("samples_per_class = 8", "samples_per_class = 7")
        text = text.replace("sigma_fraction = 0.15", "sigma_fraction = 0.5")
        text = (text.replace("prediction_truth = pred_truth.tsv", "") + BILINEAR_CLASS
                + JPWRI_CLASS)
        head, *classes = text.split("[class:")
        texts = [head.replace("prediction = pred.tsv", "prediction = pred.tsv pred2.tsv")
                 + "[class:" + "[class:".join(classes),
                 head.replace("prediction = pred.tsv", "prediction = pred2.tsv pred.tsv")
                 .replace("output_dir = out", "output_dir = reordered")
                 + "[class:" + "[class:".join(classes[::-1])]
        runs = []
        for i, config_text in enumerate(texts):
            path = workspace.parent / f"run{i}.ini"
            path.write_text(config_text)
            config = parse_config(path)
            run_pipeline(config)
            runs.append({p.name: p.read_bytes() for p in config.output_dir.iterdir()})
        per_class = [name for name in runs[0]
                     if name.endswith(".npy") or name.startswith(("weights_", "prediction_"))]
        assert {f"{kind}_{cid}{ext}" for cid in ("boucwen", "bilinear", "aashto", "jpwri")
                for kind, ext in (("sim", ".npy"), ("prediction_pred2", ".tsv"),
                                  ("prediction_pred", ".tsv"))} <= set(per_class)
        for name in per_class:
            assert runs[0][name] == runs[1][name], name
        for name in ("verdicts.tsv", "estimates.tsv"):
            lines = [run[name].decode().splitlines() for run in runs]
            assert lines[0][0] == lines[1][0] and sorted(lines[0]) == sorted(lines[1]), name

    def test_one_batch_for_hysteretic_classes(self, workspace, monkeypatch):
        # two prediction inputs: one hysteretic and one linear batch cover both;
        # at sigma 0.5 every class keeps survivors
        shutil.copy(workspace.parent / "pred.tsv", workspace.parent / "pred2.tsv")
        workspace.write_text(workspace.read_text().replace(
            "prediction = pred.tsv", "prediction = pred.tsv pred2.tsv").replace(
            "prediction_truth = pred_truth.tsv", "").replace(
            "sigma_fraction = 0.15", "sigma_fraction = 0.5") + BILINEAR_CLASS + JPWRI_CLASS)
        calls = []
        integrate = dynamics.integrate_rk4

        def counting(system, record, **kwargs):
            calls.append((system.variant, system.n_models))
            return integrate(system, record, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_rk4", counting)
        manifest = run_pipeline(parse_config(workspace), stage="all")
        n_u = {cid: c["n_u"] for cid, c in manifest.counts.items()}
        assert all(n_u.values())
        expected = [("bilinear+boucwen", 16), ("aashto+jpwri", 16),   # in class id order
                    ("bilinear+boucwen", 2 * (n_u["bilinear"] + n_u["boucwen"])),
                    ("aashto+jpwri", 2 * (n_u["aashto"] + n_u["jpwri"]))]
        assert sorted(calls) == sorted(expected)
        # the manifest times each batch and names its stepper
        assert {stage: {variant: work["stepper"] for variant, work in batches.items()}
                for stage, batches in manifest.batches.items()} \
            == dict.fromkeys(("simulate", "predict"), {"bilinear+boucwen": "device_step",
                                                       "aashto+jpwri": "block_map"})
        for stage, batches in manifest.batches.items():
            seconds = [work["seconds"] for work in batches.values()]
            assert min(seconds) > 0.0 and sum(seconds) <= manifest.stage_seconds[stage]
        out = workspace.parent / "out"
        for label in ("pred", "pred2"):   # the same input twice predicts the same
            for cid in n_u:
                assert ((out / f"prediction_{label}_{cid}.tsv").read_bytes()
                        == (out / f"prediction_pred_{cid}.tsv").read_bytes())

    def test_stacked_divergence_names_class_and_local_index(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
        common = dict(c_b=20.0, r_k=0.1667, Q_y=5.0)
        systems = {
            "boucwen": IsolatedSystem(building, "boucwen", k_post=[4.0, 4.5], **common),
            "aashto": IsolatedSystem(building, "aashto", k_post=4.0, c_b=20.0, r_k=0.1667,
                                     r_d=2.5),
            "bilinear": IsolatedSystem(building, "bilinear", k_post=[4.0, 5.0e4, 4.0], **common),
        }
        with pytest.raises(SimulationDivergedError,
                           match=r"^class 'bilinear': simulation diverged .*\(models \[1\]\)$"):
            dynamics.simulate_classes(systems, {None: rec}, 0.005)

    def test_stacked_inputs_match_single_record_runs(self, building):
        rng = np.random.default_rng(3)
        common = dict(c_b=20.0, r_k=0.16, k_post=rng.uniform(3.5, 5.0, 3))
        systems = {
            "boucwen": IsolatedSystem(building, "boucwen", Q_y=[4.5, 5.0, 5.5], **common),
            "aashto": IsolatedSystem(building, "aashto", r_d=2.5, **common),
            "bilinear": IsolatedSystem(building, "bilinear", Q_y=5.0, **common),
            "caltrans": IsolatedSystem(building, "caltrans", r_d=[2.2, 2.6, 3.0], **common),
        }
        records = {"a": band_limited_record(5.0, 0.05, seed=3, peak=2.0),
                   "b": band_limited_record(5.0, 0.05, seed=4, peak=3.0),
                   "short": band_limited_record(4.0, 0.05, seed=5, peak=4.0)}
        together = dynamics.simulate_classes(systems, records, 0.005)
        for label, record in records.items():
            alone = dynamics.simulate_classes(systems, {None: record}, 0.005)[None]
            for cid, h in alone.items():
                got = together[label][cid]
                assert got.shape == h.shape
                rel_rms = np.linalg.norm(got - h, axis=1) / np.linalg.norm(h, axis=1)
                assert rel_rms.max() <= 1e-12

    def test_stacked_inputs_divergence_names_input(self, building):
        rec = band_limited_record(5.0, 0.05, seed=3, peak=2.0)
        quiet = dynamics.ExcitationRecord(0.05, np.zeros(rec.n_steps))
        common = dict(c_b=20.0, r_k=0.1667, Q_y=5.0)
        systems = {
            "boucwen": IsolatedSystem(building, "boucwen", k_post=[4.0, 4.5], **common),
            "bilinear": IsolatedSystem(building, "bilinear", k_post=[4.0, 5.0e4, 4.0], **common),
        }
        expected = r"^class 'bilinear', input 'strong': simulation diverged .*\(models \[1\]\)$"
        with pytest.raises(SimulationDivergedError, match=expected):
            dynamics.simulate_classes(systems, {"quiet": quiet, "strong": rec}, 0.005)

    def test_bad_stage_rejected(self, workspace):
        with pytest.raises(ValueError, match="stage"):
            run_pipeline(parse_config(workspace), stage="guess")

    def test_report_contents(self, workspace):
        config = parse_config(workspace)
        manifest = run_pipeline(config)
        report = emit_report(manifest, config.output_dir).read_text()
        assert "Falsification summary" in report
        assert "boucwen" in report and "aashto" in report
        assert "savings" in report.lower()
        assert "Parameter estimates" in report
        assert "Log-likelihood margins log L - log B (noise sigma " in report
        for cid, stats in manifest.class_stats.items():
            row = next(line for line in report.splitlines()
                       if line.startswith(cid) and f"{stats['log_bound']:.6g}" in line)
            ess = stats.get("effective_sample_size")
            assert row.endswith(f"{ess:.2f}" if ess is not None else "-")
            mass = stats["falsified_log_mass"]
            assert row.split()[-2] == (f"{mass:.6g}" if mass is not None else "-")
        assert re.search(r"^RK4 step dt_int = 0.005 s; substeps per sample: cal\.tsv 10, "
                         r"pred\.tsv 10$", report, re.MULTILINE)

    def test_manifest_explains_verdicts(self, workspace):
        config = parse_config(workspace)
        falsified = run_pipeline(config, stage="falsify")
        manifest = run_pipeline(config)
        ledger = np.genfromtxt(config.output_dir / "verdicts.tsv", skip_header=1,
                               usecols=(-3, -2), dtype=float)
        measured = ingest_measurement(config.measurement_path)
        assert manifest.noise_sigma == [0.15 * measured.d.std()]
        lo, masses = 0, []
        for cid, c in manifest.counts.items():
            log_l, log_b = ledger[lo:lo + c["n_s"]].T
            lo += c["n_s"]
            stats = manifest.class_stats[cid]
            assert stats["log_bound"] == log_b[0]
            margin = log_l - log_b
            assert [stats["margin_min"], stats["margin_median"], stats["margin_max"]] \
                == pytest.approx([margin.min(), np.median(margin), margin.max()], rel=1e-12)
            dropped = log_l[log_l <= log_b]
            if dropped.size:
                masses.append(logsumexp(dropped) - logsumexp(log_l))
                assert stats["falsified_log_mass"] == pytest.approx(masses[-1], rel=1e-12)
            else:
                assert stats["falsified_log_mass"] is None
            assert "effective_sample_size" not in falsified.class_stats[cid]
            if c["n_u"]:
                weights = np.loadtxt(config.output_dir / f"weights_{cid}.tsv", skiprows=1)[:, 1]
                ess = stats["effective_sample_size"]
                assert ess == pytest.approx(1.0 / np.sum(weights**2), rel=1e-12)
                assert 1.0 <= ess <= c["n_u"]
            else:
                assert "effective_sample_size" not in stats
        assert min(masses) < 0.0 == max(masses)   # one class partly, one wholly falsified
        round_trip = RunManifest.from_json((config.output_dir / "manifest.json").read_text())
        assert round_trip.class_stats == manifest.class_stats
        assert round_trip.noise_sigma == manifest.noise_sigma
        # a manifest written before these fields existed still reads, and reports
        old = json.loads(manifest.to_json())
        del old["class_stats"], old["noise_sigma"], old["dt_int"], old["substeps_per_sample"]
        assert RunManifest.from_json(json.dumps(old)).class_stats == {}
        assert "RK4 step" not in emit_report(RunManifest.from_json(json.dumps(old)),
                                             config.output_dir).read_text()

    def test_manifest_records_batches(self, workspace, monkeypatch):
        # each batch's models and model steps are what integrate_rk4 was asked for: models x
        # record steps, in both stages; at sigma 0.5 every class keeps survivors
        workspace.write_text(workspace.read_text().replace(
            "sigma_fraction = 0.15", "sigma_fraction = 0.5") + BILINEAR_CLASS + JPWRI_CLASS)
        config = parse_config(workspace)
        asked = {}
        integrate = dynamics.integrate_rk4

        def counting(system, record, **kwargs):
            models, steps = asked.get(system.variant, (0, 0))
            asked[system.variant] = (models + system.n_models,
                                     steps + system.n_models * record.n_steps)
            return integrate(system, record, **kwargs)

        monkeypatch.setattr(dynamics, "integrate_rk4", counting)
        steppers = {"bilinear+boucwen": "device_step", "aashto+jpwri": "block_map"}
        for stage, name in (("falsify", "simulate"), ("predict", "predict")):
            asked.clear()
            manifest = run_pipeline(config, stage=stage)
            assert list(manifest.batches) == [name]   # predict reuses the calibration cache
            batches = manifest.batches[name]
            assert {variant: work["stepper"] for variant, work in batches.items()} == steppers
            assert {variant: (work["models"], work["model_steps"])
                    for variant, work in batches.items()} == asked
            if name == "simulate":   # 8 candidates a class, 100 record steps, no substeps factor
                assert asked == dict.fromkeys(steppers, (16, 16 * 100))
        survivors = {variant: sum(manifest.counts[cid]["n_u"] for cid in variant.split("+"))
                     for variant in steppers}
        assert asked == {variant: (n, n * 100) for variant, n in survivors.items()}
        report = emit_report(manifest, config.output_dir).read_text()
        for variant, work in batches.items():
            assert re.search(rf"^predict +{re.escape(variant)} +{work['stepper']} "
                             rf"+{work['models']} +{work['model_steps']}$", report, re.MULTILINE)
        assert "seconds" not in report
        round_trip = RunManifest.from_json((config.output_dir / "manifest.json").read_text())
        assert round_trip.batches == manifest.batches
        # a manifest of the last version, with model_substeps and batch_seconds, still loads
        old = json.loads(manifest.to_json())
        del old["batches"]
        old["model_substeps"] = {"predict": {"boucwen": 1000}}
        old["batch_seconds"] = {"predict": {"boucwen": {"seconds": 0.1, "stepper": "device_step"}}}
        loaded = RunManifest.from_json(json.dumps(old))
        assert loaded.batches == {} and loaded.counts == manifest.counts

    def test_prediction_error_recorded(self, workspace):
        config = parse_config(workspace)
        manifest = run_pipeline(config)
        assert any(key.startswith("pred/") for key in manifest.prediction_errors)
        for err in manifest.prediction_errors.values():
            assert 0.0 <= err < 1.0


class TestCli:
    def test_run_command(self, workspace, capsys):
        rc = cli_main(["run", "--config", str(workspace)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Falsification summary" in out
        assert (workspace.parent / "out" / "manifest.json").is_file()

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_override_changes_ensemble(self, workspace, capsys):
        out = workspace.parent / "out"
        cli_main(["run", "--config", str(workspace)])
        base = (out / "verdicts.tsv").read_text()
        capsys.readouterr()
        cli_main(["run", "--config", str(workspace), "--seed-override", "99"])
        assert (out / "verdicts.tsv").read_text() != base
        # the run names the seed it drew with, which the config hash cannot
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == 99
        assert "Candidates drawn with master seed 99\n" in capsys.readouterr().out

    def test_falsify_after_seed_override_resimulates(self, workspace):
        out = workspace.parent / "out"
        assert cli_main(["run", "--config", str(workspace), "--seed-override", "7"]) == 0
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify",
                         "--seed-override", "8"]) == 0
        reused = (out / "verdicts.tsv").read_text()
        shutil.rmtree(out)
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify",
                         "--seed-override", "8"]) == 0
        assert (out / "verdicts.tsv").read_text() == reused

    def test_new_verdicts_remove_the_last_predictions(self, workspace, capsys):
        out = workspace.parent / "out"
        assert cli_main(["run", "--config", str(workspace)]) == 0
        predicted = {path.name for path in out.glob("*.tsv")}
        assert {"estimates.tsv", "weights_boucwen.tsv", "prediction_pred_boucwen.tsv"} <= predicted
        assert "Parameter estimates" in capsys.readouterr().out
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify",
                         "--seed-override", "99"]) == 0
        assert "Parameter estimates" not in capsys.readouterr().out
        assert sorted(path.name for path in out.glob("*.tsv")) == ["verdicts.tsv"]

    @pytest.mark.parametrize("cid", ["boucwen", "aashto"])   # a Q_y or an r_d prior alone
    def test_single_free_parameter(self, workspace, cid):
        priors = ("k_post = lognormal 4.5 0.25\nc_b = lognormal 20 4\n"
                  "r_k = uniform 0.16 0.0058\n")
        header = f"[class:{cid}]\nbinding = {cid}\n"
        text = workspace.read_text()
        assert header + priors in text
        workspace.write_text(text.replace(
            header + priors, header + "fixed_k_post = 4.5\nfixed_c_b = 20\nfixed_r_k = 0.16\n"))
        assert cli_main(["run", "--config", str(workspace)]) == 0
        ledger = (workspace.parent / "out" / "verdicts.tsv").read_text().splitlines()
        assert len(ledger) == 1 + 16

    def test_threads_and_stage_flags(self, workspace):
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        assert rc == 0

    @pytest.mark.parametrize("binding", ["aashto", "boucwen"])
    def test_diverging_class_exit_code(self, workspace, capsys, binding):
        prior = f"binding = {binding}\nk_post = lognormal 4.5 0.25"
        text = workspace.read_text()
        assert prior in text
        workspace.write_text(text.replace(prior, f"binding = {binding}\nk_post = lognormal 50000 1000"))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: class '{binding}': simulation diverged at t =" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows,dt", [(400, 0.05), (80, 0.05), (100, 0.02)])
    def test_measurement_grid_mismatch_exit_code(self, workspace, capsys, rows, dt):
        # the calibration record has 100 samples at 0.05 s
        measured = workspace.parent / "measured.tsv"
        write_timeseries(measured, dt, np.resize(ingest_timeseries(measured).samples, rows))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        assert rc == 2
        assert "error: [measurement]" in capsys.readouterr().err
        assert not (workspace.parent / "out" / "sim_key.txt").exists()

    def test_missing_measurement_refused_before_simulating(self, workspace, capsys):
        text = workspace.read_text()
        assert "[measurement]\nfile = measured.tsv\n" in text
        workspace.write_text(text.replace("[measurement]\nfile = measured.tsv\n", ""))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "all"])
        assert rc == 2
        assert "error: no [measurement] file configured" in capsys.readouterr().err
        assert not (workspace.parent / "out" / "sim_key.txt").exists()

    @pytest.mark.parametrize("rows,dt", [(40, 0.05), (100, 0.02)])
    def test_prediction_truth_grid_mismatch_exit_code(self, workspace, capsys, rows, dt):
        # the prediction input has 100 samples at 0.05 s
        truth = workspace.parent / "pred_truth.tsv"
        write_timeseries(truth, dt, np.resize(ingest_timeseries(truth).samples, rows))
        rc = cli_main(["run", "--config", str(workspace)])
        assert rc == 2
        assert "error: [excitation] prediction_truth" in capsys.readouterr().err
        assert not (workspace.parent / "out").exists()   # refused before simulating

    @pytest.mark.parametrize("name,rows,message", [
        ("measured.tsv", 80, r"\[measurement\] \S*measured\.tsv: 80 time samples, but the "
                             r"calibration record has 100\n"),
        ("pred_truth.tsv", 40, r"\[excitation\] prediction_truth \S*pred_truth\.tsv: 40 time "
                               r"samples, but its input \S*pred\.tsv has 100\n"),
    ])
    def test_length_mismatch_counts_time_samples(self, workspace, capsys, name, rows, message):
        path = workspace.parent / name
        write_timeseries(path, 0.05, ingest_timeseries(path).samples[:rows])
        assert cli_main(["run", "--config", str(workspace)]) == 2
        assert re.fullmatch("error: " + message, capsys.readouterr().err)

    def test_unsatisfiable_prior_exit_code(self, workspace, capsys):
        text = workspace.read_text()
        assert "Q_y = uniform 4.75 0.2887" in text
        workspace.write_text(text.replace("Q_y = uniform 4.75 0.2887",
                                          "Q_y = normal -100 1 positive"))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "class 'boucwen'" in err and "'Q_y'" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("prior,message", [
        ("Q_y = normal -100 1 positive",
         r"class 'boucwen', sample 0: could not draw a positive value for 'Q_y' "
         r"\(normal mean=-100\.0, std=1\.0\)"),
        # about half the draws overflow to inf
        ("Q_y = lognormal 1.79e308 1e307",
         r"class 'boucwen', sample \d+: non-finite draw for 'Q_y' from lognormal prior"),
        ("Q_y = uniform 1e308 1e308",
         r"\[class:boucwen\] Q_y: uniform prior support mean \+- std\*sqrt\(3\) is wider "
         r"than a float can hold"),
    ])
    def test_bad_prior_exit_code(self, workspace, capsys, prior, message):
        text = workspace.read_text()
        assert "Q_y = uniform 4.75 0.2887" in text
        workspace.write_text(text.replace("Q_y = uniform 4.75 0.2887", prior))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        assert rc == 2
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not (workspace.parent / "out").exists()

    @pytest.mark.filterwarnings("error")
    def test_invalid_draw_exit_code(self, workspace, capsys):
        # an unbounded normal prior draws some k_post <= 0, which no isolator has
        prior = "binding = aashto\nk_post = lognormal 4.5 0.25"
        text = workspace.read_text()
        assert prior in text
        workspace.write_text(text.replace(prior, "binding = aashto\nk_post = normal 1.0 2.0"))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: [class:aashto] k_post must be > 0" in err
        assert "Traceback" not in err

    def test_sigma_count_exit_code(self, workspace, capsys):
        # the isolator measurement has one channel: one sigma, not two
        workspace.write_text(workspace.read_text().replace("sigma_fraction = 0.15",
                                                           "sigma = 0.5 5.0"))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: [noise] sigma" in err
        assert not (workspace.parent / "out").exists()

    def test_stacked_prediction_divergence_exit_code(self, workspace, capsys):
        # a survivor that diverges on the second input only names that input
        pred = ingest_timeseries(workspace.parent / "pred.tsv")
        write_timeseries(workspace.parent / "pred2.tsv", pred.dt, 1.0e7 * pred.samples)
        text = workspace.read_text()
        aashto = text[text.index("[class:aashto]"):]
        workspace.write_text(text.replace(aashto, BILINEAR_CLASS).replace(
            "prediction = pred.tsv", "prediction = pred.tsv pred2.tsv").replace(
            "prediction_truth = pred_truth.tsv", ""))
        rc = cli_main(["run", "--config", str(workspace)])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.match(r"error: class '(boucwen|bilinear)', input 'pred2': simulation diverged "
                        r"at t = [0-9.]+ s \(models \[", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("old,new,message", [
        ("[building]", "alpah = 0.01\n\n[building]", r"\[run\] alpah: unknown key"),
        ("[building]", "phi = 0.95\n\n[building]", r"\[run\] phi: unknown key"),
        ("[building]", "weight_prior = include\n\n[building]",
         r"\[run\] weight_prior: unknown key"),
        ("base_mass = 500", "base_mass = 500\nmass = 5", r"\[building\] mass: unknown key"),
        ("file = measured.tsv", "file = measured.tsv\nchannels = 1",
         r"\[measurement\] channels: unknown key"),
        ("[noise]", "[nosie]", r"unknown section \[nosie\]"),
    ])
    def test_unknown_key_or_section_exit_code(self, workspace, capsys, old, new, message):
        text = workspace.read_text()
        assert old in text
        workspace.write_text(text.replace(old, new))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"^error: " + message, err)
        assert not (workspace.parent / "out").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("base_mass = 500", "base_mass = 5OO",
         r"\[building\] base_mass: expected a number, got '5OO'"),
        ("[building]", "alpha = high\n\n[building]",
         r"\[run\] alpha: expected a number, got 'high'"),
        ("master_seed = 11", "master_seed = 1.5",
         r"\[run\] master_seed: expected an integer, got '1.5'"),
        ("sigma_fraction = 0.15", "sigma_fraction = 0,15",
         r"\[noise\] sigma_fraction: expected a number"),
        ("binding = aashto\n", "binding = aashto\nfixed_n_pow = one\n",
         r"\[class:aashto\] fixed_n_pow: expected a number, got 'one'"),
    ])
    def test_bad_number_exit_code(self, workspace, capsys, old, new, message):
        text = workspace.read_text()
        assert old in text
        workspace.write_text(text.replace(old, new))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"^error: " + message, err)

    @pytest.mark.parametrize("old,new,message", [
        ("[class:aashto]", "[class:]", r"\[class:\] class id must be one or more of"),
        ("[class:aashto]", "[class:a/b]", r"\[class:a/b\] class id must be one or more of"),
        ("binding = boucwen\n", "binding = bilinear\nbogus = uniform 1 0.1\n",
         r"\[class:boucwen\] bogus: the bilinear binding takes no parameter 'bogus'; "
         r"it takes k_post, c_b, r_k, Q_y, n_pow$"),
        ("binding = aashto\n", "binding = aashto\nfixed_n_pow = 2\n",
         r"\[class:aashto\] fixed_n_pow: the aashto binding takes no parameter 'n_pow'"),
        ("Q_y = uniform 4.75 0.2887\n", "",
         r"\[class:boucwen\] the boucwen binding needs 'Q_y', as a prior or a fixed_ value; "
         r"it takes k_post, c_b, r_k, Q_y, n_pow$"),
        ("r_d = uniform 2.5 0.2887\n", "",
         r"\[class:aashto\] the aashto binding needs 'r_d', as a prior or a fixed_ value; "
         r"it takes k_post, c_b, r_k, r_d$"),
        ("Q_y = uniform 4.75 0.2887\n", "fixed_Q_y = 50\nQ_y = uniform 4.75 0.2887\n",
         r"\[class:boucwen\] fixed_Q_y: Q_y already has a prior$"),
        ("binding = aashto\n", "binding = nope\n",
         r"unknown physics binding 'nope'; registered bindings: \['aashto', 'bilinear', "
         r"'boucwen', 'caltrans', 'jpwri', 'modified_aashto'\]$"),
        # a refusal that depends on the drawn candidates comes before the output too
        ("r_k = uniform 0.16 0.0058", "r_k = uniform 0.9 0.2",
         r"\[class:boucwen\] r_k must lie in \(0, 1\)$"),
        ("output_dir = out", "output_dir = out\ndt_int = nan",
         r"\[run\] dt_int: expected a finite number, got 'nan'"),
        ("base_mass = 500", "base_mass = nan",
         r"\[building\] base_mass: expected a finite number, got 'nan'"),
        ("story_stiffnesses = 40 40 40", "story_stiffnesses = 40 inf 40",
         r"\[building\] story_stiffnesses: expected a finite number, got 'inf'"),
        ("master_seed = 11", "master_seed = -5", r"\[run\] master_seed must be >= 0, got -5"),
        ("samples_per_class = 8", "samples_per_class = 0",
         r"\[run\] samples_per_class must be >= 1, got 0"),
        ("sigma_fraction = 0.15", "sigma = -1", r"\[noise\] sigma must be > 0"),
        ("sigma_fraction = 0.15", "sigma_fraction = 0.15\nsigma = 0.5",
         r"\[noise\] sigma_fraction and sigma: give one of them, not both$"),
        ("file = measured.tsv", "file = flat.tsv",
         r"\[noise\] sigma_fraction: channel 'base_abs_accel' of \S*flat\.tsv has a spread of "
         r"0, which gives a sigma of 0, not > 0$"),
        ("base_mass = 500", "base_mass = 500\ndamping_ratio = -0.5",
         r"\[building\]: damping_ratio must be >= 0, got -0.5"),
        ("output_dir = out", "output_dir = cal.tsv",
         r"\[run\] output_dir .*cal\.tsv exists and is not a directory"),
        ("output_dir = out", "output_dir = out\ndt_int = 0.1",
         r"\[run\] dt_int = 0.1 s exceeds the sampling interval dt = 0.05 s of .*cal\.tsv$"),
        ("output_dir = out", "output_dir = out\ndt_int = 0.003",
         r"\[run\] dt_int = 0.003 s does not divide the sampling interval dt = 0.05 s"),
        ("output_dir = out", "output_dir = out\ndt_int = 0.00001",
         r"\[run\] dt_int = 1e-05 s takes 5000 RK4 substeps per sample of .*cal\.tsv; "
         r"at most 1000 are allowed$"),
    ])
    def test_refused_before_output_exit_code(self, workspace, capsys, old, new, message):
        # a measurement that does not vary, for [measurement] file = flat.tsv
        write_timeseries(workspace.parent / "flat.tsv", 0.05, np.zeros(100))
        text = workspace.read_text()
        assert old in text
        workspace.write_text(text.replace(old, new, 1))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "all"])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"^error: " + message, err, re.MULTILINE)
        assert not (workspace.parent / "out").exists()

    def test_refused_draw_keeps_the_cache(self, workspace, capsys):
        # a run refused on its candidates leaves the last run's cache and its key as they were
        out = workspace.parent / "out"
        assert cli_main(["run", "--config", str(workspace), "--stage", "simulate"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert "sim_key.txt" in before
        text = workspace.read_text()
        workspace.write_text(text.replace("r_k = uniform 0.16 0.0058", "r_k = uniform 0.9 0.2", 1))
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 2
        assert "[class:boucwen] r_k must lie in (0, 1)" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        workspace.write_text(text)
        stamp = (out / "sim_boucwen.npy").stat().st_mtime_ns
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 0
        assert (out / "sim_boucwen.npy").stat().st_mtime_ns == stamp   # still reused

    def test_diverging_run_keeps_the_cache(self, workspace, capsys):
        # a candidate that diverges on the calibration record leaves the last cache and its key
        out = workspace.parent / "out"
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 0
        ledger = (out / "verdicts.tsv").read_bytes()
        text = workspace.read_text()
        prior = "binding = boucwen\nk_post = lognormal"
        assert prior + " 4.5 0.25" in text
        workspace.write_text(text.replace(prior + " 4.5 0.25", prior + " 50000 1000"))
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 2
        assert "error: class 'boucwen': simulation diverged" in capsys.readouterr().err
        workspace.write_text(text)
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "simulate" not in manifest["batches"]   # the cache was reused
        assert (out / "verdicts.tsv").read_bytes() == ledger

    def test_cache_of_another_revision_is_simulated_again(self, workspace, monkeypatch):
        # sim_*.npy written under another SIMULATION_REVISION are not reused, however they differ
        config = parse_config(workspace)
        out = config.output_dir
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "SIMULATION_REVISION", dynamics.SIMULATION_REVISION - 1)
            run_pipeline(config, stage="simulate")
        for path in out.glob("sim_*.npy"):   # as other simulation code may have written them
            np.save(path, 1.001 * np.load(path))
        manifest = run_pipeline(config, stage="predict")
        assert sum(work["models"] for work in manifest.batches["simulate"].values()) == 16
        rerun = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        shutil.rmtree(out)
        run_pipeline(config, stage="all")
        assert rerun == {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}

    def test_prediction_file_names_must_differ(self, workspace, capsys):
        # input q_a with class b and input q with class a_b would both write prediction_q_a_b.tsv
        for stem in ("q_a", "q"):
            shutil.copy(workspace.parent / "pred.tsv", workspace.parent / f"{stem}.tsv")
        workspace.write_text(workspace.read_text().replace(
            "prediction = pred.tsv", "prediction = q_a.tsv q.tsv").replace(
            "prediction_truth = pred_truth.tsv", "").replace(
            "[class:boucwen]", "[class:b]").replace("[class:aashto]", "[class:a_b]"))
        assert cli_main(["run", "--config", str(workspace)]) == 2
        assert capsys.readouterr().err == (
            "error: [excitation] prediction: input q_a.tsv with class 'b' and input q.tsv with "
            "class 'a_b' both write prediction_q_a_b.tsv\n")
        assert not (workspace.parent / "out").exists()

    def test_prediction_input_dt_int_exit_code(self, workspace, capsys):
        # the default dt_int is the calibration dt / 10, which 0.0125 s does not divide
        pred = ingest_timeseries(workspace.parent / "pred.tsv")
        write_timeseries(workspace.parent / "pred.tsv", 0.0125, pred.samples)
        workspace.write_text(workspace.read_text().replace("prediction_truth = pred_truth.tsv", ""))
        assert cli_main(["run", "--config", str(workspace), "--stage", "falsify"]) == 0
        rc = cli_main(["run", "--config", str(workspace), "--stage", "predict"])
        assert rc == 2
        assert re.search(r"^error: \[run\] dt_int = 0.005 s \(the default, calibration dt / 10\) "
                         r"does not divide the sampling interval dt = 0.0125 s of .*pred\.tsv$",
                         capsys.readouterr().err, re.MULTILINE)

    @pytest.mark.parametrize("seed", ["-5", "five"])
    def test_bad_seed_override_exit_code(self, workspace, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(workspace), "--seed-override", seed])
        assert exc.value.code == 2
        assert "--seed-override: " in capsys.readouterr().err
        assert not (workspace.parent / "out").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("master_seed = 11\n", "master_seed = 11\nmaster_seed = 12\n",
         r"run\.ini, line 3: \[run\] master_seed: key given twice"),
        ("[run]\n", "master_seed = 11\n[run]\n",
         r"run\.ini, line 1: 'master_seed = 11' comes before the first \[section\] header"),
        ("[noise]\n", "[run]\n[noise]\n", r"run\.ini, line 11: section \[run\] given twice"),
        ("[noise]\n", "output_dir\n[noise]\n",
         r"run\.ini, line 11: expected a \[section\] header or a 'key = value' line"),
    ])
    def test_unreadable_config_exit_code(self, workspace, capsys, old, new, message):
        text = workspace.read_text()
        assert old in text
        workspace.write_text(text.replace(old, new, 1))
        rc = cli_main(["run", "--config", str(workspace), "--stage", "falsify"])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"^error: .*" + message, err)
        assert "Traceback" not in err

    def test_percent_sign_is_literal(self, workspace):
        # values are not interpolated, so a '%' in a path is just a character
        workspace.write_text(workspace.read_text().replace("output_dir = out",
                                                           "output_dir = out%1"))
        assert cli_main(["run", "--config", str(workspace), "--stage", "simulate"]) == 0
        assert (workspace.parent / "out%1" / "sim_boucwen.npy").is_file()

    def test_import_leaves_out_scipy_signal(self):
        code = "import sys, falsikit.cli; sys.exit(int('scipy.signal' in sys.modules))"
        env = dict(os.environ, PYTHONPATH=str(Path(falsikit.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_whole_run_leaves_out_scipy(self, workspace):
        code = ("import contextlib, io, sys, falsikit.cli\n"
                "from falsikit.pipeline import parse_config\n"
                "parse_config('run.ini')\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = falsikit.cli.main(['run', '--config', 'run.ini', '--stage', 'all'])\n"
                "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "sys.exit(f'exit {rc}, loaded {loaded}' if rc or loaded else 0)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(falsikit.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=workspace.parent,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (workspace.parent / "out" / "prediction_pred_boucwen.tsv").is_file()
