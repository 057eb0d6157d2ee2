"""Dynamic-regret online learning with memory and non-stochastic control.

The package provides:

* ``oco``: square-loss streams with analytic gradients, and regret accounting;
* ``learners``: the multiplicative-weights (Hedge) step, the meta-expert
  engine (Hedge over projected-gradient experts on a step-size grid), the
  movement-regularized learner built on it, and its baselines for online
  convex optimization with memory;
* ``lds`` / ``dac`` / ``control``: linear-system simulation, the
  disturbance-action reduction, and the controller that runs the same engine
  over DAC parameters;
* ``sysid``: identification via random sign inputs and the explore-then-commit
  pipeline for unknown dynamics;
* ``bench`` / ``cli``: the reproducible benchmark harness;
* ``verify``: the window-form reference and the structural sweeps of ``scream verify``.
"""

from .oco import (ContractViolation, DomainBall, RegretReport, SquareLoss, SquareLossStream,
                  path_length, regret_metrics)
from .learners import (Ader, OgdMemory, Scream, ScreamConfig, build_step_size_pool,
                       hedge_step, nonuniform_prior, run_online, surrogate_losses)
from .lds import (DisturbanceGenerator, LinearSystem, StabilityCertificate, Trajectory,
                  certify_strong_stability, closed_loop_rollout, preset, random_stable_system)
from .dac import (ClosedLoop, DacFeasibleSet, LipschitzConstants, QuadraticTrackingCost,
                  lag_table, lipschitz_constants, simulate_dac, unary_truncated_gradient)
from .control import (ControlConfig, ScreamControl, dynamic_policy_regret_control,
                      run_scream_control)
from .sysid import (IdentificationConfig, IdentifiedSystem, InsufficientExcitation,
                    MomentEstimates, identify_system, run_unknown_pipeline)

__version__ = "0.1.0"
