"""Likelihood-bound falsification of structural model ensembles.

Candidate models drawn from prior distributions are simulated against
measured response data, falsified with an FDR-derived likelihood lower
bound, and the surviving models carry Bayesian weights into response
prediction under new excitations.
"""

from .priors import (PriorSpec, ModelClassSpec, ModelSample, EnsembleSpec,
                     SamplingError, sample_prior, sample_rng, draw_sample,
                     generate_ensemble, theta_matrix)
from .dynamics import (ExcitationRecord, SimulationOutput, ShearBuildingModel,
                       IsolatorParams, IsolatedSystem, SimulationDivergedError,
                       boucwen_rate, equivalent_linear_params,
                       assemble_isolated_system, integrate_rk4, simulate,
                       add_measurement_noise, band_limited_record,
                       TmdParams, TmdFrameModel, TmdFrameSystem, tmd_force,
                       BiaxialDeviceParams, biaxial_hysteresis_rates,
                       biaxial_device_force)
from .falsification import (MeasurementSet, ResidualNoiseModel, FdrConfig,
                            FalsificationVerdict, FalsificationReport,
                            residuals, log_likelihood, p_values, bh_levels,
                            bh_quantiles, bh_error_bounds, likelihood_bound,
                            measurement_rejections, falsify, falsify_classes)
from .modal import ModalResult, solve_modes, mac, modal_residual
from .prediction import (WeightedEnsemble, PredictionResult,
                         AllModelsFalsifiedError, post_falsification_weights,
                         estimate_parameters, max_likelihood_model,
                         predict_response, relative_rms_error)
from .pipeline import (ConfigError, RunConfig, RunManifest, parse_config,
                       ingest_timeseries, ingest_measurement, run_pipeline,
                       emit_report, register_binding, resolve_binding)

__version__ = "0.1.0"
