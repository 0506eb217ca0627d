"""Falsification walkthrough: which isolator model classes survive the data?

A three-story shear building on a hysteretic isolation layer is "measured"
under a band-limited ground motion (synthetic truth plus sensor noise).
Six candidate model classes compete: the smooth hysteretic family the truth
belongs to, its sharp-transition bilinear limit, and four code-specified
equivalent-linear idealizations.  Candidate models whose likelihood falls
below the FDR-derived bound are discarded; the survivors are weighted and
used to predict the response under a different, stronger ground motion.

Run:  python3 demos/falsify_isolated_building.py
"""

import numpy as np

from falsikit import (EnsembleSpec, FdrConfig, IsolatedSystem, ModelClassSpec,
                      PriorSpec, ResidualNoiseModel, ShearBuildingModel,
                      add_measurement_noise, band_limited_record, estimate_parameters,
                      falsify_classes, generate_ensemble, integrate_rk4,
                      post_falsification_weights, predict_response, relative_rms_error,
                      residuals, simulate)

N_SAMPLES = 100   # small ensemble so the demo runs in seconds
TRUTH = dict(k_post=4.0, c_b=20.0, r_k=0.1667, Q_y=5.0)   # the hidden boucwen isolator


def class_specs():
    nonlinear = dict(
        k_post=PriorSpec("lognormal", 4.5, 0.25),
        c_b=PriorSpec("lognormal", 20.0, 4.0),
        r_k=PriorSpec("uniform", 0.16, 0.0058),
        Q_y=PriorSpec("uniform", 4.75, 0.2887),
    )
    linear = dict(nonlinear)
    del linear["Q_y"]
    linear["r_d"] = PriorSpec("uniform", 2.5, 0.2887)
    specs = []
    for cid in ("boucwen", "bilinear", "aashto", "jpwri", "modified_aashto", "caltrans"):
        priors = nonlinear if cid in ("boucwen", "bilinear") else linear
        specs.append(ModelClassSpec(cid, tuple(priors), tuple(priors.values()), cid))
    return specs


def build_system(spec, theta, building):
    kwargs = {name: theta[:, i] for i, name in enumerate(spec.parameter_names)}
    return IsolatedSystem(building, spec.physics_binding, **kwargs)


def main():
    building = ShearBuildingModel(story_masses=(300.0,) * 3,
                                  story_stiffnesses=(40.0,) * 3, base_mass=500.0)
    truth_sys = IsolatedSystem(building, "boucwen", **TRUTH)
    calibration = band_limited_record(30.0, 0.05, band=(0.35, 1.5), seed=11,
                                      peak=2.0, label="calibration")
    prediction = band_limited_record(30.0, 0.05, band=(0.35, 1.5), seed=23,
                                     peak=4.0, label="prediction")

    print("simulating the (hidden) true system and adding 20% sensor noise ...")
    d = add_measurement_noise(simulate(truth_sys, calibration), 0.20,
                              np.random.default_rng(100))
    noise = ResidualNoiseModel(tuple(0.15 * d.by_channel().std(axis=0)))

    specs = class_specs()
    thetas = generate_ensemble(EnsembleSpec(tuple(specs), N_SAMPLES, 2024))

    print(f"simulating {len(specs)} classes x {N_SAMPLES} candidate models ...")
    eps = {}
    for s in specs:
        system = build_system(s, thetas[s.class_id], building)
        eps[s.class_id] = residuals(integrate_rk4(system, calibration), d)

    verdicts = falsify_classes(eps, noise, FdrConfig(0.05), d.n_channels)
    print("\nunfalsified fraction per class (alpha = 0.05):")
    for s in specs:
        kept = verdicts[s.class_id].unfalsified
        n_s, n_u = kept.size, kept.sum()
        print(f"  {s.class_id:16s} {100 * n_u / n_s:5.1f}%   ({n_u}/{n_s})")

    survivors = post_falsification_weights(verdicts["boucwen"])
    estimate = estimate_parameters(survivors, thetas["boucwen"])
    print("\nweighted parameter estimate over the surviving boucwen models:")
    for (name, ref), est in zip(TRUTH.items(), estimate):
        print(f"  {name:7s} {est:9.4f}   (true {ref:g}, error {100 * abs(est / ref - 1):.2f}%)")

    print("\npredicting the response under a stronger ground motion "
          f"({survivors.n_models} simulations instead of {N_SAMPLES}) ...")
    spec = next(s for s in specs if s.class_id == "boucwen")
    system = build_system(spec, thetas["boucwen"][np.asarray(survivors.sample_indices)],
                          building)
    pred = predict_response(survivors, integrate_rk4(system, prediction))
    truth_pred = simulate(truth_sys, prediction)
    err = relative_rms_error(truth_pred.d, pred.q_hat)
    print(f"relative RMS prediction error vs the hidden truth: {100 * err:.2f}%")


if __name__ == "__main__":
    main()
