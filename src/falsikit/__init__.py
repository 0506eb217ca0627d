"""Likelihood-bound falsification of structural model ensembles.

Candidate models drawn from prior distributions are simulated against
measured response data, falsified with an FDR-derived likelihood lower
bound, and the surviving models carry Bayesian weights into response
prediction under new excitations.
"""

from .priors import (PriorSpec, ModelClassSpec, EnsembleSpec, SamplingError,
                     sample_prior, sample_rng, draw_sample, generate_ensemble)
from .dynamics import (ExcitationRecord, ShearBuildingModel,
                       IsolatedSystem, SimulationDivergedError,
                       boucwen_rate, equivalent_linear_params,
                       integrate_rk4, simulate_classes, substeps_per_sample, simulate,
                       add_measurement_noise, band_limited_record,
                       TmdFrameModel, TmdFrameSystem, tmd_force)
from .falsification import (MeasurementSet, ResidualNoiseModel, FdrConfig,
                            ClassVerdicts, residuals, log_likelihood, p_values,
                            bh_levels, bh_quantiles,
                            likelihood_bound, falsify, falsify_classes)
from .modal import ModalResult, solve_modes, mac, modal_residual
from .prediction import (WeightedEnsemble, PredictionResult,
                         AllModelsFalsifiedError, post_falsification_weights,
                         falsified_log_mass, estimate_parameters, predict_response,
                         relative_rms_error)
from .pipeline import (ConfigError, RunConfig, RunManifest, parse_config,
                       ingest_timeseries, ingest_measurement, run_pipeline, emit_report)

__version__ = "0.1.0"
