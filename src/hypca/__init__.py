"""Embedding one-dimensional cellular automata into hyperbolic tilings.

The names below import their module on first use (PEP 562), so that
importing the package, or a command that needs few of its modules,
loads no more than it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ca1d": ("Rule1D", "Tape", "elementary", "is_fixable", "run_1d",
             "step_1d"),
    "automaton": ("HcaAutomaton", "NotFixable", "embed_compact",
                  "embed_extra_state"),
    "embed": ("verify_unique_applicability",),
    "engine": ("Configuration", "equivalence_check", "init_configuration",
               "run_hca", "yellow_trace"),
    "region": ("Region", "build_region"),
    "symmetry": ("all_motions",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
