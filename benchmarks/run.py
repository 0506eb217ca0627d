"""Falsify-and-predict benchmark of falsikit, one workload per invocation.

    python3 benchmarks/run.py --workload replica --seed 1 --seconds 20 --trace 0

A run makes the workload's inputs from the seed (cached under
``benchmarks/.cache``), then repeats rounds until ``--seconds`` have passed,
at least one.  A round is what a user does: in a new, empty output
directory, ``falsikit run --stage falsify`` and then ``falsikit run --stage
predict``, each in a fresh single-threaded interpreter, plus one more fresh
interpreter that only imports falsikit and parses the config.  The round's
outputs are then checked against the reference computations in
``checks.py``.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics (medians over the run's rounds); with
``--trace 1`` the children record layer spans and it holds the per-layer
metrics instead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 150.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def host_reference_s() -> float:
    """Time of a fixed small-array numpy loop that imports nothing from falsikit.

    It shows whether the host itself was slow during a run.
    """
    rng = np.random.default_rng(0)
    a = 0.3 * rng.standard_normal((8, 8))
    x = rng.standard_normal((64, 8))
    t0 = time.perf_counter()
    for _ in range(40000):
        x = np.tanh(x @ a) + 0.01 * x
    return time.perf_counter() - t0


def bytecode_cached() -> bool:
    return all(Path(importlib.util.cache_from_source(str(source))).is_file()
               for source in (ROOT / "src" / "falsikit").glob("*.py"))


def run_child(config: Path, result: Path, stage=None, spans=None) -> tuple[dict, float]:
    """Run stage.py in a fresh interpreter; its result and its peak RSS [MB]."""
    cmd = [sys.executable, str(BENCH_DIR / "stage.py"), "--config", str(config),
           "--result", str(result)]
    if stage is not None:
        cmd += ["--stage", stage]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # set-up is timed with compiled bytecode, as an installed package has it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(SINGLE_THREAD, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)]))
    log = result.with_suffix(".log")
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                cwd=config.parent)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{' '.join(cmd)} did not finish in {CHILD_TIMEOUT_S} s")
            time.sleep(0.02)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{log.read_text()}")
    outcome = json.loads(result.read_text())
    if not Path(outcome["falsikit"]).is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported falsikit from {outcome['falsikit']}, not from {ROOT / 'src'}")
    return outcome, usage.ru_maxrss / 1024.0


def run_round(workload, seed: int, inputs: Path, reference: dict, trace: bool,
              work: Path, rng: np.random.Generator) -> dict:
    """One falsify-then-predict round in the new directory ``work``."""
    work.mkdir(parents=True)
    config = work / "run.ini"
    config.write_text(workloads.config_text(workload, seed, inputs))
    out = work / "out"
    n_classes = len(workload.classes)
    n_inputs = len(workload.prediction_peaks)
    record = {"setups": [], "failures": [], "attempted": 0, "failed": 0, "spans": {}}

    stage_s, rss = {}, []
    for stage in ("falsify", "predict"):
        spans = work / f"spans_{stage}.json" if trace else None
        outcome, peak = run_child(config, work / f"{stage}.json", stage, spans)
        record["setups"].append(outcome)
        rss.append(peak)
        stage_s[stage] = outcome["stage_s"]
        if stage == "falsify":
            attempted = n_classes * workload.samples_per_class
        else:
            attempted = record["survivors"] * n_inputs
        record["attempted"] += attempted
        if outcome["exit_code"] != 0:
            record["failed"] += attempted
            record["failures"].append(f"--stage {stage} failed: "
                                     f"{outcome.get('error') or outcome['exit_code']}")
            return record
        if trace:
            record["spans"][stage] = json.loads(spans.read_text())
        if stage == "falsify":
            counts = json.loads((out / "manifest.json").read_text())["counts"]
            record["survivors"] = sum(c["n_u"] for c in counts.values())
    outcome, _ = run_child(config, work / "setup.json")
    record["setups"].append(outcome)

    record.update(verdict_s=stage_s["falsify"], predict_s=stage_s["predict"],
                  peak_rss_mb=max(rss),
                  artifact_bytes=sum(p.stat().st_size for p in out.iterdir() if p.is_file()))
    try:
        record["failures"] += checks.check_run(out, workload, reference, rng)
    except (OSError, ValueError, KeyError, IndexError) as err:
        record["failures"].append(f"outputs could not be read: {err!r}")
    return record


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one round

def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` that are not nested in another span of that name."""
    by_id = {s["id"]: s for s in spans}
    found = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            found.append(span)
    return found


def _seconds(spans, name, **attrs) -> float:
    return sum(s["end"] - s["start"] for s in _outermost(spans, name)
               if all(s.get(k) == v for k, v in attrs.items()))


def _self_seconds(spans, name) -> float:
    """Duration of the ``name`` spans minus the time their direct children cover."""
    total = 0.0
    for span in _outermost(spans, name):
        children = [s for s in spans if s["parent"] == span["id"]]
        total += (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in children)
    return total


def _substeps(spans, kind=None) -> int:
    return sum(s["models"] * s["steps"] * s["substeps"]
               for s in _outermost(spans, "dynamics.simulate")
               if kind is None or s["kind"] == kind)


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one round, from the spans of its two stages."""
    f = record["spans"]["falsify"]["spans"]
    p = record["spans"]["predict"]["spans"]
    both = f + p
    rhs_calls = sum(record["spans"][s]["counts"].get("rhs_calls", 0) for s in ("falsify", "predict"))
    metrics = {
        "cli.import_s": statistics.median(s["import_s"] for s in record["setups"]),
        "pipeline.parse_config_s": statistics.median(s["parse_s"] for s in record["setups"]),
        "priors.generate_ensemble_s": _seconds(f, "priors.generate_ensemble")
                                      + _seconds(p, "priors.generate_ensemble"),
        "priors.candidates": sum(s["models"] for s in _outermost(f, "priors.generate_ensemble")),
        "dynamics.calibrate_linear_s": _seconds(f, "dynamics.simulate", kind="linear"),
        "dynamics.calibrate_hysteretic_s": _seconds(f, "dynamics.simulate", kind="hysteretic"),
        "dynamics.predict_linear_s": _seconds(p, "dynamics.simulate", kind="linear"),
        "dynamics.predict_hysteretic_s": _seconds(p, "dynamics.simulate", kind="hysteretic"),
        "dynamics.rhs_calls": rhs_calls,
        "dynamics.model_substeps": _substeps(f) + _substeps(p),
        "falsification.residuals_s": _seconds(f, "falsification.residuals")
                                     + _seconds(p, "falsification.residuals"),
        "falsification.falsify_classes_s": _seconds(f, "falsification.falsify_classes")
                                           + _seconds(p, "falsification.falsify_classes"),
        "falsification.models_scored": sum(s["models"] for s in
                                           _outermost(both, "falsification.falsify_classes")),
        "falsification.survivors": record["survivors"],
        "prediction.weights_s": _seconds(p, "prediction.weights"),
        "prediction.predict_response_s": _seconds(p, "prediction.predict_response"),
        "prediction.simulations": sum(s["models"] for s in _outermost(p, "dynamics.simulate")),
        "pipeline.ingest_s": _seconds(f, "pipeline.ingest") + _seconds(p, "pipeline.ingest"),
        "pipeline.write_timeseries_s": _seconds(f, "pipeline.write_timeseries")
                                       + _seconds(p, "pipeline.write_timeseries"),
        "pipeline.verdict_self_s": _self_seconds(f, "pipeline.run_pipeline"),
        "pipeline.predict_self_s": _self_seconds(p, "pipeline.run_pipeline"),
        "pipeline.artifact_bytes": record["artifact_bytes"],
    }
    for kind in ("linear", "hysteretic"):
        busy = _seconds(both, "dynamics.simulate", kind=kind)
        metrics[f"dynamics.{kind}_substeps_per_s"] = _substeps(both, kind) / busy if busy else 0.0
    return metrics


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "falsikit" / "cli.py").is_file():
        print(f"error: no falsikit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = metric_units()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.inputs_for(workload, args.seed)
    with np.load(inputs / "reference.npz") as data:
        reference = dict(data)
    # the seed also picks the ledger rows that are re-simulated by the checks
    rng = np.random.default_rng(args.seed)
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        host = [host_reference_s()]
        if not bytecode_cached():
            # the first import in a checkout compiles falsikit; keep that out of the samples
            warm = run_dir / "warm"
            warm.mkdir()
            (warm / "run.ini").write_text(workloads.config_text(workload, args.seed, inputs))
            run_child(warm / "run.ini", warm / "setup.json")
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            work = run_dir / f"round{len(rounds)}"
            rounds.append(run_round(workload, args.seed, inputs, reference, bool(args.trace),
                                    work, rng))
            shutil.rmtree(work)
            print(f"round {len(rounds)}: " + ", ".join(
                f"{name} {s['setup_s']:.3f} s set-up + {s.get('stage_s', 0.0):.3f} s"
                for name, s in zip(("falsify", "predict", "setup"), rounds[-1]["setups"])),
                file=sys.stderr)
            if rounds[-1]["failed"]:
                break
        host.append(host_reference_s())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [msg for r in rounds for msg in r["failures"]]
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    complete = [r for r in rounds if not r["failed"]]
    metrics = {}
    if complete and args.trace:
        for stage in ("falsify", "predict"):
            for name in complete[0]["spans"][stage]["missing"]:
                print(f"span missing: {name}", file=sys.stderr)
        per_round = [layer_metrics(r) for r in complete]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        metrics["host.reference_s"] = statistics.median(host)
    elif complete:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for r in complete for s in r["setups"]),
            "verdict_s": statistics.median(r["verdict_s"] for r in complete),
            "predict_s": statistics.median(r["predict_s"] for r in complete),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in complete),
        }
    print(f"{len(rounds)} round(s); host reference {host[0]:.4f} s before, {host[-1]:.4f} s after",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
