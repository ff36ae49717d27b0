"""Config merging and validation for the experiment registry.

A run's config is the experiment's defaults overlaid with a config file
and then command-line overrides. Every key must be one the defaults name,
with a value of the default's JSON type, and `_validate_config` applies
the shared ranges and every kernel cap that a run would hit, so that
`estimate` refuses what `run` would, with a ConfigError (exit code 2).
"""

from __future__ import annotations

from ..combinatorics import IP2_POINT_CAP, SHIFT_TABLE_CAP
from ..errors import ConfigError
from ..fpn_core import DEFAULT_ENUM_CAP, ODD_PRIMES
from ..pattern_ops import MAX_BIPARTITE_PART, MAX_IP2_M, MAX_IP_M, MAX_TERNARY_UV
from ..spectral import CORRELATION_SEARCH_CAP

STANDARD_MAX_Q = 2  # forms the standard test factor has at most


def merge_config(exp, file_cfg: dict | None,
                 overrides: dict | None) -> dict:
    """The defaults of the registered experiment `exp` with the file's
    keys and then the overrides laid over them, validated."""
    cfg = dict(exp.defaults)
    for layer in (file_cfg or {}, overrides or {}):
        for key, val in layer.items():
            if val is None:
                continue
            if key not in cfg:
                allowed = ", ".join(sorted(cfg))
                raise ConfigError(
                    f"experiment {exp.name!r} does not accept key {key!r} "
                    f"(allowed: {allowed})")
            if not _same_json_type(exp.defaults[key], val):
                raise ConfigError(
                    f"{key} must be a JSON {_json_type(exp.defaults[key])} like its "
                    f"default, got {_json_type(val)} {val!r}")
            cfg[key] = val
    _validate_config(exp.name, cfg)
    return cfg


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _json_type(val) -> str:
    if isinstance(val, bool):
        return "boolean"
    if isinstance(val, (int, float)):
        return "integer" if isinstance(val, int) else "number"
    return {str: "string", list: "array", dict: "object"}.get(type(val), type(val).__name__)


def _same_json_type(default, val) -> bool:
    """A bool is not an integer; a number key also accepts an integer."""
    want, got = _json_type(default), _json_type(val)
    return got == want or (want, got) == ("number", "integer")


def _validate_config(name: str, cfg: dict) -> None:
    p = cfg.get("p")
    if p is not None and p not in ODD_PRIMES:
        raise ConfigError(f"p must be one of {ODD_PRIMES}, got {p}")
    dims = []
    if "n" in cfg:
        dims.append(cfg["n"])
    for key in ("n_values", "ell_values", "rep_sets", "atom_labels"):
        if key in cfg and not cfg[key]:
            raise ConfigError(f"{key} must list at least one entry")
    dims.extend(cfg.get("n_values", []))
    for n in dims:
        if not _is_int(n) or n < 1:
            raise ConfigError(f"dimension must be a positive integer, got {n}")
        if p is not None and p ** n > DEFAULT_ENUM_CAP:
            raise ConfigError(f"p^n = {p ** n} exceeds the cap {DEFAULT_ENUM_CAP}")
    # the search and counting kernels' own caps, so that estimate refuses
    # what run would
    size = p ** max(dims) if p is not None and dims else 0
    if name in ("atom-vc2", "vc2-structure") and size > IP2_POINT_CAP:
        raise ConfigError(f"p^n = {size} exceeds the IP2 point cap {IP2_POINT_CAP}")
    if name in ("atom-vc", "coset-union-vc") and size ** 2 > SHIFT_TABLE_CAP:
        raise ConfigError(f"p^(2n) = {size ** 2} exceeds the shift-table cap {SHIFT_TABLE_CAP}")
    if cfg.get("max_part", 1) > MAX_TERNARY_UV:
        raise ConfigError(f"max_part exceeds the ternary U, V part cap {MAX_TERNARY_UV}")
    m_cap = {"control-ip": MAX_IP_M, "control-ip-local": MAX_IP_M,
             "control-ip2": MAX_IP2_M, "control-ip2-local-trend": MAX_IP2_M}.get(name)
    if m_cap is not None and cfg["m"] > m_cap:
        raise ConfigError(f"m = {cfg['m']} exceeds the pattern cap {m_cap}")
    if cfg.get("q", 0) > STANDARD_MAX_Q:
        raise ConfigError(f"standard factor supports q <= {STANDARD_MAX_Q}")
    forms = p ** (cfg["n"] * (cfg["n"] + 1) // 2) if name == "inverse-oracle" else 0
    if forms > CORRELATION_SEARCH_CAP:
        raise ConfigError(f"{forms} candidate forms exceed the search cap {CORRELATION_SEARCH_CAP}")
    for ell in cfg.get("ell_values", [cfg["ell"]] if "ell" in cfg else []):
        if not _is_int(ell) or not 0 <= ell <= min(dims):
            raise ConfigError(f"ell must be an integer in [0, n] = [0, {min(dims)}], got {ell}")
    # level-set sizes are counted over the forms, so that experiment needs one
    q_low = 1 if name == "bil-level-sizes" else 0
    for key, low in (("trials", 1), ("directions", 1), ("samples", 1), ("m", 1),
                     ("max_part", 1), ("seed", 0), ("q", q_low)):
        val = cfg.get(key)
        if val is not None and val < low:
            raise ConfigError(f"{key} must be an integer >= {low}, got {val}")
    parts = cfg.get("parts", [1, 1])
    if len(parts) != 2 or not all(_is_int(v) and 1 <= v <= MAX_BIPARTITE_PART for v in parts):
        raise ConfigError(f"parts must be two integers in [1, {MAX_BIPARTITE_PART}], got {parts}")
    # atom-vc's factor is one form with no linear part, so its labels have width 1
    labels = cfg.get("atom_labels", [cfg["atom_label"]] if "atom_label" in cfg else [])
    _check_lengths("atom label", labels, cfg.get("ell", 0) + cfg.get("q", 1))
    for key in ("subgroup_basis", "extra_diagonals"):
        if key in cfg:
            _check_lengths(key, cfg[key], cfg["n"])
    for reps in cfg.get("rep_sets", []):
        if not isinstance(reps, list) or not reps:
            raise ConfigError(f"rep_sets entry {reps} is not a nonempty list of vectors")
        _check_lengths("rep_sets", reps, cfg["n"])
    tol = cfg.get("tol")
    if tol is not None and not tol > 0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    eps = cfg.get("eps")
    if eps is not None and not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")


def _check_lengths(key: str, vectors: list, n: int) -> None:
    for v in vectors:
        if not (isinstance(v, list) and len(v) == n and all(map(_is_int, v))):
            raise ConfigError(f"{key} entry {v} is not a vector of {n} integers")
