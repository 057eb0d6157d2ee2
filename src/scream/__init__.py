"""Dynamic-regret online learning with memory and non-stochastic control.

The package provides:

* ``oco`` / ``omd``: memory-loss oracles, regret accounting, and the two
  mirror-descent updates (projected gradient descent, multiplicative weights);
* ``learners``: the movement-regularized meta-expert learner and its
  baselines for online convex optimization with memory;
* ``lds`` / ``dac`` / ``control``: linear-system simulation, the
  disturbance-action reduction, and the meta-expert controller;
* ``sysid``: identification via random sign inputs and the explore-then-commit
  pipeline for unknown dynamics;
* ``bench`` / ``cli``: the reproducible benchmark harness.
"""

from .oco import (ContractViolation, DomainBall, MemoryLoss, RegretReport, SquareLoss,
                  SquareLossStream, path_length, regret_metrics, square_loss, window_losses)
from .omd import OmdState, Regularizer, hedge_step, ogd_step, omd_step
from .learners import (Ader, OgdMemory, Scream, ScreamConfig, StepSizePool,
                       build_step_size_pool, nonuniform_prior, run_ader, run_ogd_memory,
                       run_online, run_scream, surrogate_losses)
from .lds import (DisturbanceGenerator, LinearSystem, StabilityCertificate, Trajectory,
                  certify_strong_stability, preset, random_stable_system, recover_disturbance,
                  simulate, step_dynamics)
from .dac import (ClosedLoop, DacFeasibleSet, DisturbanceWindow, LipschitzConstants,
                  QuadraticTrackingCost, dac_action, lipschitz_constants, simulate_dac,
                  state_via_transfer, transfer_matrix, truncated_loss,
                  unary_truncated_gradient)
from .control import (ControlConfig, ScreamControl, dynamic_policy_regret_control,
                      run_scream_control)
from .sysid import (IdentificationConfig, IdentifiedSystem, InsufficientExcitation,
                    MomentEstimates, identify_system, run_unknown_pipeline)

__version__ = "0.1.0"
