"""Exact-arithmetic invariants and p-local classification for gauge groups
of principal Sp(n)-bundles over the 4-sphere.

The package computes the image of the comparison map from symplectic
K-theory to top cohomology on suspended quasi-projective spaces, reads off
Samelson product orders (4n(2n+1)), and answers p-local homotopy
classification queries for the associated gauge groups, all over exact
integers and rationals.

Importing the package loads none of its modules.  Each public name below,
and each module that holds one, is loaded on first access (PEP 562), so a
command pays to import only the modules it runs.
"""

from importlib import import_module as _import_module

# the public names, by the module that defines them
_EXPORTS = {
    name: module
    for module, names in {
        "arith": ("closed_form_order", "is_prime"),
        "errors": ("NonIntegralGenerator", "OutOfRange", "SpgaugeError"),
        "gauge": (
            "GuardCheck", "LieFamily", "Outcome", "Verdict", "decide_local",
            "decide_spin", "im_delta_gen", "im_partial_order",
            "local_partition", "mapping_group_order", "q2_mapping_invariant",
            "refined_invariant", "retractible", "sutherland_invariant",
        ),
        "phi": ("PhiResult", "phi_image", "phi_images"),
        "report": ("Report",),
        "series": ("printed_top_coeffs",),
        "verify": ("verify_sweep",),
    }.items()
    for name in names
}
_MODULES = set(_EXPORTS.values())
# what `from spgauge import *` gives, as when every module was imported here
__all__ = sorted({*_EXPORTS, *_MODULES})

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
