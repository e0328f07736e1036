"""Adaptive timestepping for stiff SDEs with non-globally-Lipschitz coefficients.

The central method is a semi-implicit Euler-Maruyama scheme whose step size
is chosen adaptively from the size of the drift response, backed up by a
balanced-method step whenever the controller hits its minimum step.  The
package also ships the usual fixed-step competitors (drift-implicit with
Newton iteration, balanced, increment-tamed, fully-tamed, truncated and
plain explicit Euler), a refinable Brownian path with bridge insertion, a
catalog of benchmark problems, and a Monte-Carlo harness for strong
convergence and efficiency studies.
"""

from .core import (
    MeshConfig,
    SdeProblem,
    SolveResult,
)
from .control import StepDecision, propose_step
from .wiener import WienerPath
from .schemes import (
    SCHEME_IDS,
    LinearSolver,
    solve,
    step_balanced,
    step_drift_implicit_batch,
    step_explicit_euler,
    step_fully_tamed,
    step_increment_tamed,
    step_semi_implicit,
    step_truncated,
)
from .problems import (
    fhn,
    gbm,
    gbm_exact_terminal,
    ginzburg_landau,
    gl_truncation_functions,
    problem_by_name,
    spde_fd,
    stoch_vol_32,
)
from .harness import (
    ConvergenceTable,
    ExperimentConfig,
    fit_order,
    read_table_csv,
    rmse,
    run_experiment,
    write_table_csv,
)

__all__ = [
    "MeshConfig",
    "SdeProblem",
    "SolveResult",
    "StepDecision",
    "propose_step",
    "WienerPath",
    "SCHEME_IDS",
    "LinearSolver",
    "solve",
    "step_balanced",
    "step_drift_implicit_batch",
    "step_explicit_euler",
    "step_fully_tamed",
    "step_increment_tamed",
    "step_semi_implicit",
    "step_truncated",
    "fhn",
    "gbm",
    "gbm_exact_terminal",
    "ginzburg_landau",
    "gl_truncation_functions",
    "problem_by_name",
    "spde_fd",
    "stoch_vol_32",
    "ConvergenceTable",
    "ExperimentConfig",
    "fit_order",
    "read_table_csv",
    "rmse",
    "run_experiment",
    "write_table_csv",
]

__version__ = "0.1.0"
