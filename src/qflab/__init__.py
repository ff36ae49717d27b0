"""qflab: a verification laboratory for quadratic Fourier analysis over F_p^n.

Modules:
    fpn_core      F_p arithmetic, index tables for F_p^n, character sums
    factor        linear and quadratic factors, atoms, bilinear level-set sizes
    spectral      Fourier transform, global U^2/U^3 norms, AP averages
    local_norms   local U^2(d)/U^3(d) semi-norms and their contractions
    pattern_ops   IP/IP2 operators, multi-local pattern operators, witnesses
    combinatorics VC/VC2 dimension search, structure predicates
    reference     test-only reference twins of fast routes; no run imports it
    lab_cli       experiment harness behind the `qflab` command
"""

from .errors import (
    AsymmetricForm,
    CapExceeded,
    DegenerateContext,
    DependentVectors,
    NegativeDiagonal,
    QflabError,
    TooManyForms,
    UnknownExperiment,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricForm",
    "CapExceeded",
    "DegenerateContext",
    "DependentVectors",
    "NegativeDiagonal",
    "QflabError",
    "TooManyForms",
    "UnknownExperiment",
    "__version__",
]
