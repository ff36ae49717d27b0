"""Exception types shared across the laboratory.

Every error is a subclass of QflabError so callers (and the CLI, which maps
configuration errors to exit code 2) can catch the whole family at once.
"""

from __future__ import annotations


class QflabError(Exception):
    """Base class for all laboratory errors."""


class CapExceeded(QflabError):
    """An enumeration or search would exceed the configured size cap."""


class DependentVectors(QflabError):
    """Vectors expected to be linearly independent are not."""


class AsymmetricForm(QflabError):
    """A matrix expected to be symmetric is not."""


class TooManyForms(QflabError):
    """A quadratic factor was given more forms than the rank search supports."""


class NegativeDiagonal(QflabError):
    """A diagonal inner product came out negative beyond tolerance."""


class DegenerateContext(QflabError):
    """An atom or bilinear level set that a local average divides by is
    empty, so the average is undefined and the kernel refuses to run."""


class UnknownExperiment(QflabError):
    """The requested experiment name is not registered."""


class ConfigError(QflabError):
    """A JSON configuration is malformed or violates a documented cap."""
