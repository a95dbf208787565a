"""Embedding one-dimensional cellular automata into hyperbolic tilings."""

from .ca1d import Rule1D, Tape, elementary, is_fixable, run_1d, step_1d
from .embed import (HcaAutomaton, NotFixable, embed_compact,
                    embed_extra_state, verify_unique_applicability)
from .engine import (Configuration, equivalence_check, init_configuration,
                     run_hca, yellow_trace)
from .region import Region, build_region
from .symmetry import all_motions

__version__ = "0.1.0"

__all__ = [
    "Rule1D", "Tape", "elementary", "is_fixable", "run_1d", "step_1d",
    "HcaAutomaton", "NotFixable", "embed_compact", "embed_extra_state",
    "verify_unique_applicability",
    "Configuration", "equivalence_check", "init_configuration",
    "run_hca", "yellow_trace",
    "Region", "build_region",
    "all_motions",
]
