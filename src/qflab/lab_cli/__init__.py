"""Command-line experiment harness.

Each registered experiment checks one claim about the transforms, norms,
pattern operators, or dimension testers, and emits a deterministic JSON
report with observed values, bounds, margins, and verdicts.
"""

import sys

# Reports digest trial inputs of about 100 bytes with SHA-256, which
# CPython's builtin hash modules compute to the same bytes as OpenSSL's.
# Loading OpenSSL's `_hashlib` maps libcrypto, 3.4 MB of every run's peak
# resident memory, so the harness marks it unavailable before anything
# imports hashlib (reporting does, and numpy.random through secrets and
# hmac); hashlib and hmac then take the builtin constructors. An interpreter
# built without one of the builtin modules hashlib would load in its place
# (sha256 is in `_sha256` up to 3.11 and in `_sha2` from 3.12) keeps
# OpenSSL, as does a process that loaded it before importing this package.
BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512"))
try:
    for _name in BUILTIN_HASHES:
        __import__(_name)
except ImportError:
    pass
else:
    sys.modules.setdefault("_hashlib", None)

from .experiments import REGISTRY, run_experiment  # noqa: E402
from .reporting import SCHEMA_VERSION, canonical_json  # noqa: E402

__all__ = ["REGISTRY", "run_experiment", "SCHEMA_VERSION", "canonical_json"]
