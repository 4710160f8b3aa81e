"""Exact symbolic multiple polylogarithms: Hopf-algebra structure maps,
symbols, holomorphic one-forms, variation matrices, and the associated
iterated-integral calculus.  Everything is computed over Q — no floats
except in the numeric spot-check layer."""

from .algebra import (
    H,
    HBAR,
    ITER,
    Element,
    Generator,
    apply_contraction,
    compose,
    expand_log,
    gen_elem,
    generator_to_vector,
    li,
    log,
    precede,
    precede_key,
    vector_to_generator,
)
from .coproduct import (
    antipode,
    cobracket_rep,
    coproduct,
    coproduct_bar,
    coproduct_h,
    inv_element,
    inv_generator,
    reduced_coproduct,
)
from .expr import ExprError, parse
from .forms import Form, Poly, w_element
from .iterint import (
    IGenerator,
    InvProduct,
    ONE,
    ZERO,
    canonical_symbol,
    gamma,
    i_coproduct,
    integral,
    is_polylogarithmic,
    phi,
    phi_element,
)
from .lincomb import clear_caches
from .tensor import Tensor, WordSum, derive, project_pi, symbol, u_, v_
from .variation import VariationMatrix, build_V
from .verify import Report, run_all, run_suite, suite_names

__all__ = [
    "H",
    "HBAR",
    "Element",
    "ExprError",
    "Form",
    "Generator",
    "IGenerator",
    "ITER",
    "InvProduct",
    "ONE",
    "Poly",
    "Report",
    "Tensor",
    "VariationMatrix",
    "WordSum",
    "ZERO",
    "antipode",
    "apply_contraction",
    "build_V",
    "canonical_symbol",
    "clear_caches",
    "cobracket_rep",
    "compose",
    "coproduct",
    "coproduct_bar",
    "coproduct_h",
    "derive",
    "expand_log",
    "gamma",
    "gen_elem",
    "generator_to_vector",
    "i_coproduct",
    "integral",
    "inv_element",
    "inv_generator",
    "is_polylogarithmic",
    "li",
    "log",
    "parse",
    "phi",
    "phi_element",
    "precede",
    "precede_key",
    "project_pi",
    "reduced_coproduct",
    "run_all",
    "run_suite",
    "suite_names",
    "symbol",
    "u_",
    "v_",
    "vector_to_generator",
    "w_element",
]

__version__ = "0.1.0"
