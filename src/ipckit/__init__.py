"""Finite Kripke/Heyting semantics workbench.

Posets as intuitionistic frames, finite Heyting algebras and their
duality, splitting and subframe axioms with p-morphism search, the named
frame families, and exhaustive desk-scale verification scenarios.
"""

from .axioms import (
    decompose_kg,
    jankov_syntactic,
    sum_blocks,
    validates_jankov,
    validates_subframe,
)
from .budget import WorkMeter
from .catalog import CatalogKey, catalog_get, ladder_upset, rn_member, simple_space
from .formulas import bw, godel_translate, grz_axiom, parse, pretty
from .heyting import (
    HeytingAlgebra,
    count_quotients,
    count_subalgebras,
    dual_poset,
    upset_algebra,
)
from .io import export_poset, import_poset
from .morphisms import (
    PMorphism,
    epartitions,
    find_pmorphism,
    image_of_subposet,
    image_of_upset,
    quotient,
)
from .poset import (
    Poset,
    are_isomorphic,
    build_poset,
    canonical_code,
    enumerate_posets,
    enumerate_rooted,
    root,
    sum_posets,
    width,
)
from .report import VerificationReport, render_report
from .scenarios import run_scenario, scenario_names
from .semantics import is_valid, is_valid_modal

__version__ = "0.1.0"
