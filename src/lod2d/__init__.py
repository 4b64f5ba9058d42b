"""Localized orthogonal decomposition multiscale FEM on the unit square.

The package builds nested structured triangulations, two-valued
high-contrast coefficients, six quasi-interpolation operators (including
geometry-induced integration domains), patch-localized correctors with
right-hand-side correction, and an experiment harness that sweeps
(operator, contrast, patch size) into CSV tables and SVG plots.
"""

from .assembly import BilinearFormContext, LoadSpec
from .coefficient import (
    Coefficient,
    connected_components,
    gen_random_balls,
    gen_random_field,
    gen_stripes,
    load_pgm,
    save_pgm,
)
from .errors import DegenerateSigmaError, ParameterError, SolverError
from .harness import ExperimentConfig, emit_svg, run_experiment
from .interp import (
    InterpOperator,
    NodeVariable,
    build_operator,
    classify_nodes_ih,
    coverage_report,
    dual_basis,
    kappa,
    quasi_monotone_region,
)
from .lod import (
    LodSolution,
    decay_profile,
    element_corrector,
    reference_solution,
    relative_energy_error,
    solve_multiscale,
)
from .mesh import (
    BoundarySpec,
    ElementSet,
    MeshHierarchy,
    build_hierarchy,
    element_patch,
    node_patch,
    scaled_node_patch,
)

__version__ = "0.1.0"
