"""Explicit series solutions of linear ODEs with variable coefficients.

The package evaluates the multivariate exponential-primitive (multex) series
and its trig-operator summands on a shared uniform grid, reduces an order-n
equation to a chain of lower-order auxiliary problems, assembles the
fundamental solution basis by rotating that chain through the trig operators,
and cross-checks everything against an iterated-integral series oracle and a
classical fixed-step integrator.
"""

from .auxiliary import AuxChain, CoeffVector, apply_scriptD, build_aux_chain, extract_aux_ode, lower_chain
from .coeffexpr import (
    AuxDeriv,
    AuxFn,
    Add,
    Const,
    Div,
    ExpPrim,
    Expr,
    FuncCall,
    IntPow,
    Mul,
    Sampled,
    Sub,
    TrigNode,
    Var,
    differentiate,
    simplify,
    to_text,
)
from .errors import (
    ConfigError,
    CoverageGap,
    DegenerateLeading,
    DivisorTooSmall,
    ExpressionSyntaxError,
    MultexodeError,
    NonDifferentiable,
    NonMonotoneAbscissae,
    NotConverged,
    Overflow,
    ValidityCollapsed,
)
from .gridfn import Grid, GridFn, Interval, zero_free_interval
from .lower import LowerContext, lower
from .multex import SeriesDiagnostics, multex_e, trig_family, truncation_bound
from .oracle import DysonResult, MatrixFn, companion, dyson, rk4
from .parser import parse
from .solver import (
    BasisSet,
    IVProblem,
    basis,
    preset_orr_sommerfeld,
    preset_schrodinger,
    solve_ivp,
)

__version__ = "0.1.0"

__all__ = [
    "AuxChain", "CoeffVector", "apply_scriptD", "build_aux_chain", "extract_aux_ode", "lower_chain",
    "AuxDeriv", "AuxFn", "Add", "Const", "Div", "ExpPrim", "Expr", "FuncCall", "IntPow", "Mul", "Sampled", "Sub",
    "TrigNode", "Var", "differentiate", "simplify", "to_text",
    "ConfigError", "CoverageGap", "DegenerateLeading", "DivisorTooSmall", "ExpressionSyntaxError",
    "MultexodeError", "NonDifferentiable", "NonMonotoneAbscissae", "NotConverged", "Overflow", "ValidityCollapsed",
    "Grid", "GridFn", "Interval", "zero_free_interval",
    "LowerContext", "lower",
    "SeriesDiagnostics", "multex_e", "trig_family", "truncation_bound",
    "DysonResult", "MatrixFn", "companion", "dyson", "rk4",
    "parse",
    "BasisSet", "IVProblem", "basis", "preset_orr_sommerfeld", "preset_schrodinger", "solve_ivp",
]
