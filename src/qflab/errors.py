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


class EmptyLevelSet(QflabError):
    """A bilinear level set is empty, so its normalized measure is undefined."""


class EmptyAtom(QflabError):
    """An atom is empty, so a density or average over it is undefined."""


class NegativeDiagonal(QflabError):
    """A diagonal inner product came out negative beyond tolerance."""


class DegenerateContext(QflabError):
    """A local context has an empty atom or level set; norms refuse to run."""


class UnknownExperiment(QflabError):
    """The requested experiment name is not registered."""


class ConfigError(QflabError):
    """A JSON configuration is malformed or violates a documented cap."""
