"""Runners of the transform identities and the inner-product inequalities:
Parseval, the round trip, the U^2 spectrum identity, the box inner product
bounds (gcs, local-gcs), the triangle inequalities, U^3 over U^2, and the
3- and 4-term progression averages."""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..factor import sigma3_codes
from ..fpn_core import space
from ..local_norms import local_u2_inner, local_u2_norms, local_u3_inners, local_u3_norms
from ..spectral import (
    ap3_averages,
    ap4_averages,
    fourier_transform_naive,
    fourier_transforms,
    inverse_transforms,
    u2_inners,
    u2_norms,
    u3_inners,
    u3_norms,
)
from .shared import (
    RunResult,
    _blockwise,
    _bounded_draw,
    _bounded_fn,
    _bounded_values,
    _factor_terms,
    _finite,
    _gaussian_draw,
    _gaussian_values,
    _label,
    _label_codes,
    _local_terms,
    _local_u2_terms,
    _mask_terms,
    _nondegenerate,
    _rows,
    _standard_factor,
    _table_trials,
    _trial_rng,
    _u2_norms_terms,
    _u3_inner_terms,
    _u3_norms_terms,
)

NAIVE_FT_TOL = 1e-10

# ---------------------------------------------------------------------------
# transform identities
# ---------------------------------------------------------------------------

def _run_parseval(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        l2 = np.sqrt((np.abs(fs[:, 0]) ** 2).mean(axis=1)).tolist()
        spec_l2 = np.sqrt((np.abs(fourier_transforms(fs[:, 0], p, n)) ** 2).sum(axis=1)).tolist()
        return [[({}, abs(a ** 2 - b ** 2), cfg["tol"])] for a, b in zip(l2, spec_l2)]
    return _table_trials(cfg, 1, evaluate, _gaussian_draw, _gaussian_values)


def _est_parseval(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size * cfg["p"] * cfg["n"] + 2 * size)


def _run_roundtrip(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        spec = fourier_transforms(fs[:, 0], p, n)
        back = np.abs(inverse_transforms(spec, p, n) - fs[:, 0]).max(axis=1).tolist()
        # the reference transform stays per trial
        naive = [float(np.max(np.abs(fourier_transform_naive(f, p, n) - t)))
                 for f, t in zip(fs[:, 0], spec)]
        return [[({"check": "roundtrip"}, b, cfg["tol"]),
                 ({"check": "naive-agree"}, a, NAIVE_FT_TOL)] for b, a in zip(back, naive)]
    return _table_trials(cfg, 1, evaluate, _gaussian_draw, _gaussian_values)


def _est_roundtrip(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (2 * size * cfg["p"] * cfg["n"] + size * size)


def _run_u2_equiv(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        via_corr = u2_inners(np.repeat(fs, 4, axis=1), p, n)
        via_spectrum = (np.abs(fourier_transforms(fs[:, 0], p, n)) ** 4).sum(axis=1)
        return [[({}, abs(c - s), cfg["tol"], {"u2_fourth": c.real, "spectrum_fourth": s})]
                for c, s in zip(via_corr.tolist(), via_spectrum.tolist())]
    return _table_trials(cfg, 1, evaluate)


def _est_u2_equiv(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size * size + size * cfg["p"] * cfg["n"])


# ---------------------------------------------------------------------------
# inner-product inequalities
# ---------------------------------------------------------------------------

def _run_gcs(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def evaluate(fs):  # per trial a quadruple, then an octuple
        quads, octs = fs[:, :4], fs[:, 4:]
        rows = zip(u2_inners(quads, p, n).tolist(), u2_norms(quads, p, n).tolist(),
                   u3_inners(octs, p, n).tolist(), u3_norms(octs, p, n).tolist())
        return [[({"norm": "u2"}, abs(u2), math.prod(norms2) + tol),
                 ({"norm": "u3"}, abs(u3), math.prod(norms3) + tol)]
                for u2, norms2, u3, norms3 in rows]
    return _table_trials(cfg, 12, evaluate)


def _est_gcs(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    return cfg["trials"] * (p ** (2 * n) + _u2_norms_terms(p, n, 4)
                            + _u3_inner_terms(p, n) + _u3_norms_terms(p, n, 8))


def _run_local_gcs(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    cosets, atoms = space(p, factor.ell), space(p, factor.width)  # print codes as labels
    draws = []  # per trial: coset pair, its four functions, U^3 context, its octuple
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        draws.append((_label_codes(rng, p, [factor.ell] * 2),
                      [_bounded_fn(rng, p, n) for _ in range(4)],
                      _nondegenerate(rng, factor), [_bounded_fn(rng, p, n) for _ in range(8)]))
    u2 = iter(local_u2_norms(factor, np.repeat([cosets.add(*d[0]) for d in draws], 4),
                             [g for d in draws for g in d[1]]))
    live = [d for d in draws if not isinstance(d[2], str)]
    norms3 = local_u3_norms(factor, [d[2].codes for d in live for _ in range(8)],
                            [g for d in live for g in d[3]])
    u3 = iter(zip(local_u3_inners(factor, [d[2].codes for d in live], [d[3] for d in live]),
                  [math.prod(norms3[k:k + 8]) for k in range(0, len(norms3), 8)]))

    def rows(pair, quad, ctx3):
        yield ({"norm": "local-u2", "d": [cosets.coords_of(c) for c in pair]},
               abs(local_u2_inner(factor, pair, *quad)), math.prod(itertools.islice(u2, 4)) + tol)
        if isinstance(ctx3, str):
            yield ctx3
            return
        obs3, bnd3 = next(u3)
        scale = max(1.0, bnd3)
        yield ({"norm": "local-u3", "d": list(atoms.coords_of(ctx3.codes[0]))}, abs(obs3),
               bnd3 + tol * scale, {"scale": scale})
    return _rows(cfg, (rows(*d[:3]) for d in draws))


def _est_local_gcs(cfg: dict) -> int:
    # per trial the binary contraction of local_u2_inner (two x's over the
    # coset^2 y-pairs and one sum table), four local U^2 norms, one octuple
    # and eight diagonal local U^3 norms
    coset = cfg["p"] ** (cfg["n"] - cfg["ell"])
    u3 = _local_terms(cfg, cfg["n"], "octuple") + 8 * _local_terms(cfg, cfg["n"], "norm")
    masks = 6 * _mask_terms(cfg, cfg["n"], cfg["trials"])  # three calls per batch
    return _factor_terms(cfg, cfg["n"]) + int(masks + cfg["trials"] * (
        2 * coset ** 3 + coset ** 2 + _local_u2_terms(cfg, cfg["n"], 4) + u3))


def _run_triangle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def draw(rng):
        return _bounded_draw(rng, 2, p ** n), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    def evaluate(draws):
        f, g = _finite(_bounded_values(np.stack([d[0] for d in draws]))).swapaxes(0, 1)
        cs = np.array([d[1] for d in draws])
        fs = np.stack([f + g, f, g, f * cs[:, None]], axis=1)
        return [[row for tag, (nfg, nf, ng, ncf) in zip(("u2", "u3"), norms)
                 for row in (({"check": f"{tag}-triangle"}, nfg, nf + ng + tol),
                             ({"check": f"{tag}-homogeneous"}, abs(ncf - abs(c) * nf), tol))]
                for c, *norms in zip(cs.tolist(), u2_norms(fs, p, n).tolist(),
                                     u3_norms(fs, p, n).tolist())]
    return _blockwise(cfg, 2 * p ** n, draw, evaluate)


def _est_triangle(cfg: dict) -> int:
    p, n = cfg["p"], cfg["n"]
    return cfg["trials"] * (_u2_norms_terms(p, n, 4) + _u3_norms_terms(p, n, 4))


def _run_local_triangle(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    factor = _standard_factor(p, n, cfg["ell"], cfg["q"])
    draws = []  # per trial: (f, g, f + g), coset pair, U^3 context
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        f, g = _bounded_fn(rng, p, n), _bounded_fn(rng, p, n)
        draws.append(((f, g, f + g), _label_codes(rng, p, [factor.ell] * 2),
                      _nondegenerate(rng, factor)))
    cosets = space(p, factor.ell)  # the target a1 + a2 of a coset pair
    u2 = iter(local_u2_norms(factor, np.repeat([cosets.add(*d[1]) for d in draws], 3),
                             [h for d in draws for h in d[0]]))
    live = [d for d in draws if not isinstance(d[2], str)]
    u3 = iter(local_u3_norms(factor, [d[2].codes for d in live for _ in range(3)],
                             [h for d in live for h in d[0]]))

    def rows(ctx3):
        nf, ng, nfg = itertools.islice(u2, 3)
        yield {"check": "local-u2-triangle"}, nfg, nf + ng + tol
        if isinstance(ctx3, str):
            yield ctx3
            return
        nf, ng, nfg = itertools.islice(u3, 3)
        scale = max(1.0, nf + ng)
        yield {"check": "local-u3-triangle"}, nfg, nf + ng + tol * scale, {"scale": scale}
    return _rows(cfg, (rows(d[2]) for d in draws))


def _est_local_triangle(cfg: dict) -> int:
    masks = 3 * _mask_terms(cfg, cfg["n"], cfg["trials"])  # one norm call of three masks
    return _factor_terms(cfg, cfg["n"]) + int(masks + cfg["trials"] * (
        _local_u2_terms(cfg, cfg["n"], 3) + 3 * _local_terms(cfg, cfg["n"], "norm")))


def _run_u3_dominates(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]
    linear = _standard_factor(p, n, cfg["ell"], 0)
    fs, dirs = [], []
    for i in range(cfg["trials"]):
        rng = _trial_rng(cfg["seed"], i)
        fs.append(_bounded_fn(rng, p, n))
        dirs.append([_label(rng, p, linear.ell) for _ in range(3)])
    # on a purely linear factor the local U^3 norm with zero bilinear labels
    # dominates the local U^2 norm on the target coset a1 + a2 + a3
    cosets = space(p, linear.ell)
    codes = np.array([[cosets.index_of(a) for a in d] + [0] * 3 for d in dirs])
    u3vals = local_u3_norms(linear, codes, fs, tol)
    u2vals = local_u2_norms(linear, sigma3_codes(linear, codes), fs, tol)
    values = np.stack(fs)
    return _rows(cfg, [[({"check": "global"}, u2, u3 + tol),
                        ({"check": "local", "d": d}, u2val, u3val + tol)]
                       for u2, u3, d, u3val, u2val in zip(u2_norms(values, p, n).tolist(),
                                                          u3_norms(values, p, n).tolist(),
                                                          dirs, u3vals, u2vals)])


def _est_u3_dominates(cfg: dict) -> int:
    # per trial the global norms, and the local U^3 and U^2 norms on the
    # target coset of c points, each a gather and the global norm there
    p, n = cfg["p"], cfg["n"]
    m = n - cfg["ell"]
    return cfg["trials"] * (_u2_norms_terms(p, n, 1) + _u3_norms_terms(p, n, 1)
                            + p ** m + _u3_norms_terms(p, m, 1) + _local_u2_terms(cfg, n, 1))


def _run_ap3(cfg: dict) -> RunResult:
    p, n = cfg["p"], cfg["n"]

    def evaluate(fs):
        sups = np.abs(fourier_transforms(fs[:, 0], p, n)).max(axis=1).tolist()
        return [[({}, abs(avg), sup + cfg["tol"])]
                for avg, sup in zip(ap3_averages(fs[:, 0], p, n).tolist(), sups)]
    return _table_trials(cfg, 1, evaluate)


def _est_ap3(cfg: dict) -> int:
    size = cfg["p"] ** cfg["n"]
    return cfg["trials"] * (size ** 2 + size * cfg["p"] * cfg["n"])


def _run_ap4(cfg: dict) -> RunResult:
    p, n, tol = cfg["p"], cfg["n"], cfg["tol"]

    def evaluate(draws):
        f, g = (np.stack(d) for d in zip(*draws))
        fs = _finite(np.stack([_bounded_values(f), _gaussian_values(g)], axis=1))
        # the Gaussian g of each trial scaled to unit L^2 norm
        l2 = np.sqrt((np.abs(fs[:, 1]) ** 2).mean(axis=1))
        fs[:, 1] *= (1.0 / np.maximum(l2, 1e-30))[:, None]
        return [[({"f": "sup-bounded"}, abs(af), nf + tol),
                 ({"f": "l2-normalized"}, abs(ag), ng + tol)]
                for (af, ag), (nf, ng) in zip(ap4_averages(fs, p, n).tolist(),
                                              u3_norms(fs, p, n).tolist())]
    return _blockwise(cfg, 2 * p ** n, lambda rng: (_bounded_draw(rng, 1, p ** n)[0],
                                                    _gaussian_draw(rng, 1, p ** n)[0]), evaluate)


def _est_ap4(cfg: dict) -> int:
    """Per trial, two four-term averages of three size^2 sum tables each, and
    one batch of two U^3 norms."""
    p, n = cfg["p"], cfg["n"]
    size = p ** n
    return cfg["trials"] * (6 * size ** 2 + _u3_norms_terms(p, n, 2))
