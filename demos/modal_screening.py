"""Falsifying stiffness models of a shear chain from modal data alone.

Instead of time histories, the residuals here are natural-frequency errors
and (1 - MAC) mode-shape mismatches of a three-story chain.  Candidate
stiffness vectors are drawn around the truth; models whose modal signature
is inconsistent with the noisy measured frequencies are falsified.

Run:  python3 demos/modal_screening.py
"""

import numpy as np

from falsikit import (FdrConfig, ResidualNoiseModel, falsify, mac,
                      modal_residual, solve_modes)


def chain_matrices(m, stiffs):
    k1, k2, k3 = stiffs
    M = np.diag([m, m, m])
    K = np.array([[k1 + k2, -k2, 0.0],
                  [-k2, k2 + k3, -k3],
                  [0.0, -k3, k3]])
    return M, K


def main():
    m, k_true = 300.0e3, 40.0e6
    ref = solve_modes(*chain_matrices(m, (k_true,) * 3))
    print("true natural frequencies [Hz]:", np.round(ref.frequencies, 4))

    sigma_freq = 0.03 * ref.frequencies[0]
    sigma_mac = 0.25
    noise = ResidualNoiseModel.per_channel((sigma_freq, sigma_mac))

    rng = np.random.default_rng(7)
    n_models = 200
    ks = rng.lognormal(np.log(k_true), 0.3, size=(n_models, 3))
    ks = np.vstack([ks, [k_true] * 3])
    f_meas = ref.frequencies + rng.normal(0.0, sigma_freq, size=3)

    eps_rows = []
    for row in ks:
        modes = solve_modes(*chain_matrices(m, row))
        res = modal_residual(modes, ref)
        freq_err = modes.frequencies - f_meas
        eps_rows.append(np.column_stack([freq_err, res[3:]]).reshape(-1))

    verdicts = falsify("chain", np.asarray(eps_rows), noise, FdrConfig(0.05))
    kept = verdicts.unfalsified
    print(f"\n{kept.sum()}/{kept.size} stiffness models survive "
          f"(sigma_freq = {sigma_freq:.4f} Hz, sigma_mac = {sigma_mac})")
    print("true model retained:", kept[-1])

    surviving_ks = ks[kept]
    spread = surviving_ks.std(axis=0) / surviving_ks.mean(axis=0)
    print("surviving-model stiffness scatter (cv per story):", np.round(spread, 3))
    print("\nMAC of the first mode against a 20% stiffer first story:",
          round(mac(ref.mode_shapes[:, 0],
                    solve_modes(*chain_matrices(m, (1.2 * k_true, k_true, k_true)))
                    .mode_shapes[:, 0]), 6))


if __name__ == "__main__":
    main()
