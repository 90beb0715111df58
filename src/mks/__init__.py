"""Pseudo-spectral stochastic Maxwell-Kerr simulator with a retarded material law."""

from .errors import (
    BlowUpError,
    ConfigurationError,
    MksError,
    NumericalError,
    UsageError,
    ValidationError,
    WorkerLostError,
)
from .grid import (
    PHYSICAL,
    SPECTRAL,
    Field6,
    GridSpec,
    inner_product,
    l2_norm,
    lp_norm,
    make_grid,
    random_field,
    read_checkpoint,
    to_physical,
    to_spectral,
    write_checkpoint,
    zero_field,
)
from .kerr import (
    KerrExponent,
    implicit_kerr_solve,
    kerr_force,
    kerr_hessian_apply,
    kerr_jacobian_apply,
    monotonicity_gap,
)
from .memory import (
    History,
    KernelSpec,
    contraction_step_length,
    convolution_derivative,
    convolve_history,
    exponential_kernel,
    picard_solve,
)
from .multipliers import (
    CutoffLevel,
    WindowFunction,
    cutoff_sandwich_check,
    radial_sharp_cutoff,
    sharp_cutoff,
    smooth_cutoff,
    standard_window,
)
from .noise import (
    BrownianBundle,
    GaugePhase,
    NoiseSpec,
    SeparableSource,
    TimeProfile,
    apply_gauge,
    gauge_phase,
    make_noise_spec,
    refine_bundle,
    sample_brownian,
)
from .operators import (
    DenseOperator,
    curl,
    dense_operator,
    div,
    grad,
    helmholtz_project,
    hodge_laplacian_apply,
    maxwell_apply,
    maxwell_group,
)
from .stepping import (
    EULER_MARUYAMA,
    LIE_SPLITTING,
    MSEE,
    TSEE,
    WSEE,
    PathState,
    SchemeConfig,
    Trajectory,
    initial_state,
    run_path,
    solve_with_memory,
    step_euler_maruyama,
    step_lie_splitting,
)

__version__ = "0.1.0"
