"""Registry of priceable models.

Each entry maps a flat parameter vector (the calibrator's view) to the
model-native parameter objects, and exposes the characteristic function of
the standardized return Z = (X_tau - X_0 - mu0*tau)/(sigma0*sqrt(tau)) that
the Fourier pricer consumes, together with the spot volatility anchoring the
standardization.

Vector layouts (n = number of surface tenors):

==========================  ====================================================
edgeworth                   sigma0, beta_tilde0, rho0, eta0, alpha_prime0,
                            lambda0, mu_J, sigma_J
edgeworth_pp                edgeworth + shift_1..shift_{n-1}   (vol shifts)
bs_pp                       sigma0 + shift_1..shift_{n-1}      (vol shifts)
heston_merton_1f            v1_0, kappa1, theta1, zeta1, rho1, c0, mu_x, sigma_x
heston_merton_1f_pp         heston_merton_1f + shift_1..shift_{n-1}  (variance)
heston_merton_2f            v1_0, v2_0, kappa1, kappa2, theta1, theta2, zeta1,
                            zeta2, rho1, rho2, rho_jump, mu_x, sigma_x, m_v,
                            c0, c1, c2
heston_merton_2f_pp         heston_merton_2f + shift_1..shift_{n-1}  (variance)
rough_heston_pp             hurst, nu, rho + xi_1..xi_n
rough_heston_merton_pp      hurst, nu, rho, lambda_j, mu_j, sigma_j + xi_1..xi_n
==========================  ====================================================

Shift parameters attach to the surface tenor grid passed to ``unpack``; the
level between tenor k and k+1 is shift_k (the level before the first tenor is
pinned at zero), while the rough models carry one forward-variance level per
tenor, the first being the spot variance.

JSON form (one codec for every model, :meth:`ModelSpec.to_json_dict`): one key
per base name, ``"model"``, and the tenor grid -- ``"displacement": {"tenors",
"shifts"}`` for the shifted models, ``"xi_tenors"`` and ``"xi_levels"`` for the
rough ones.  Decoding requires every base name and rejects any other key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .benchmarks import (
    HestonMertonParams,
    RoughHestonParams,
    heston_merton_cf,
    rough_heston_cf,
)
from .bspp_bootstrap import shift_weighted_variance
from .cf_edgeworth import Displacement, EdgeworthParams, _per_tau, psi_full

__all__ = [
    "ModelSpec",
    "MODELS",
    "get_model",
    "model_ids",
    "standardized_from_raw",
]


def standardized_from_raw(cf_raw_at, u, tau, sigma0: float):
    """Re-express a raw log-return CF in standardized-return frequencies.

    ``cf_raw_at`` evaluates E[e^{iw(X_tau - X_0)}] at zero rate (martingale
    drift built in).  The standardization subtracts mu0 = r - sigma0^2/2 and
    rescales by sigma0*sqrt(tau); any rate carried by X cancels against the
    one in mu0, leaving a rate-free bridge

        Psi_Z(u) = exp(iu*sigma0*sqrt(tau)/2) * CF_raw(u/(sigma0*sqrt(tau))).

    ``tau`` is a scalar or one tenor per frequency of ``u``.  ``cf_raw_at``
    returns a new array (or a scalar), which takes the phase in place: the
    raw CF's solve runs before the phase array exists.
    """
    st = sigma0 * np.sqrt(tau)
    uu = np.asarray(u)
    out = np.asarray(cf_raw_at(uu / st), dtype=np.complex128)
    out *= np.exp(1j * uu * st / 2.0)
    return out if out.ndim else out[()]


@dataclass(frozen=True)
class ModelSpec:
    """One registry entry: vector <-> native parameters plus the pricing CF.

    ``theta`` denotes the native unpacked form: EdgeworthParams for
    ``edgeworth``, an (EdgeworthParams, Displacement) pair for
    ``edgeworth_pp``, a (sigma0, Displacement) pair for ``bs_pp``,
    HestonMertonParams or RoughHestonParams for the benchmarks.
    """

    model_id: str
    base_names: tuple
    # "none": no per-tenor parameters; "vol"/"var": n-1 shift levels on
    # volatility resp. variance; "curve": n forward-variance levels
    shift_style: str
    _unpack: Callable
    _pack: Callable
    _cf: Callable
    _spot_vol: Callable
    _base_bounds: tuple
    _shift_bounds: tuple | None
    _base_start: Callable
    # surface tenor grid a native theta was unpacked on (() without one)
    _tenors: Callable
    # the CF comes from a numerical solver (the affine and rough models):
    # the pricer then puts all of a surface's slice grids into one CF call
    _solver_backed: bool = False

    def param_names(self, n_tenors: int) -> tuple:
        """Ordered vector entry names for an n-tenor surface."""
        if self.shift_style == "none":
            return self.base_names
        if self.shift_style == "curve":
            return self.base_names + tuple(f"xi_{k}" for k in range(1, n_tenors + 1))
        return self.base_names + tuple(f"shift_{k}" for k in range(1, n_tenors))

    def param_count(self, n_tenors: int) -> int:
        return len(self.param_names(n_tenors))

    def unpack(self, vector, tenors=()):
        """Build native parameters from a vector laid out per param_names."""
        x = np.asarray(vector, dtype=float)
        want = self.param_count(len(tenors))
        if x.shape != (want,):
            raise ValueError(
                f"{self.model_id} expects {want} parameters for "
                f"{len(tenors)} tenors, got shape {x.shape}"
            )
        return self._unpack(x, tuple(float(t) for t in tenors))

    def pack(self, theta) -> np.ndarray:
        """Flatten native parameters back to the vector layout."""
        return np.asarray(self._pack(theta), dtype=float)

    def cf_standardized(self, u, tau, theta):
        """CF of the standardized return at tenor tau (pricer interface).

        ``tau`` is a scalar, or an array of one tenor per frequency of ``u``
        (the pricer's surface u_max probe, and its grid call of a
        solver-backed surface); a frequency's value is then the one it has
        at its tenor alone, bit for bit."""
        return self._cf(u, tau, theta)

    def spot_vol(self, theta) -> float:
        """Annualized instantaneous volatility at time 0 (pricer anchor)."""
        return self._spot_vol(theta)

    def default_bounds(self, n_tenors: int) -> tuple:
        """Box bounds per vector entry.  Couplings that a box cannot express
        (shifted vol positivity, compensator existence) are enforced at
        evaluation time by the parameter objects themselves."""
        if self.shift_style == "none":
            return self._base_bounds
        n_extra = n_tenors if self.shift_style == "curve" else n_tenors - 1
        return self._base_bounds + (self._shift_bounds,) * n_extra

    def default_start(self, tenors, atm_vol: float = 0.2) -> np.ndarray:
        """A generic in-bounds starting vector anchored at an ATM vol guess."""
        base = list(self._base_start(float(atm_vol)))
        if self.shift_style in ("vol", "var"):
            base += [0.0] * (len(tenors) - 1)
        elif self.shift_style == "curve":
            base += [float(atm_vol) ** 2] * len(tenors)
        return np.asarray(base, dtype=float)

    def to_json_dict(self, theta) -> dict:
        """Named-field JSON form of a native theta (see the module docstring)."""
        x = [float(v) for v in self.pack(theta)]
        n = len(self.base_names)
        d = dict(zip(self.base_names, x[:n]), model=self.model_id)
        tenors = list(self._tenors(theta))
        if self.shift_style == "curve":
            d.update(xi_tenors=tenors, xi_levels=x[n:])
        elif self.shift_style != "none":
            d["displacement"] = {"tenors": tenors, "shifts": x[n:]}
        return d

    def from_json_dict(self, d: dict):
        """Native theta from :meth:`to_json_dict` output; ``"model"`` is optional."""
        grid = {"none": (), "curve": ("xi_tenors", "xi_levels")}.get(
            self.shift_style, ("displacement",))
        required = set(self.base_names) | set(grid)
        problems = [f"{kind} fields {sorted(keys)}" for kind, keys in (
            ("unknown", set(d) - required - {"model"}), ("missing", required - set(d))) if keys]
        if problems:
            raise ValueError(f"{self.model_id} parameters: {'; '.join(problems)}")
        tenors, extra = (), []
        if self.shift_style == "curve":
            tenors, extra = d["xi_tenors"], d["xi_levels"]
        elif self.shift_style != "none":
            tenors, extra = d["displacement"]["tenors"], d["displacement"]["shifts"]
        return self.unpack([float(d[n]) for n in self.base_names] + list(extra), tenors)


# ---------------------------------------------------------------------------
# expansion family
# ---------------------------------------------------------------------------

_EDGEWORTH_NAMES = (
    "sigma0", "beta_tilde0", "rho0", "eta0", "alpha_prime0",
    "lambda0", "mu_J", "sigma_J",
)
_EDGEWORTH_BOUNDS = (
    (0.01, 3.0), (0.0, 10.0), (-1.0, 1.0), (-20.0, 20.0), (-20.0, 20.0),
    (0.0, 500.0), (-0.2, 0.2), (0.0, 0.2),
)
# volatility-shift box; the binding lower limit is -sigma0, checked when the
# shifted vol is evaluated (box alone cannot track a moving sigma0)
_VOL_SHIFT_BOUNDS = (-2.99, 5.0)
_VAR_SHIFT_BOUNDS = (-1.0, 5.0)


def _edgeworth_start(atm: float) -> tuple:
    return (atm, 1.0, -0.5, 0.0, 0.0, 1.0, 0.0, 0.01)


def _edgeworth_pack(theta) -> tuple:
    return tuple(getattr(theta, name) for name in _EDGEWORTH_NAMES)


_EDGEWORTH = ModelSpec(
    model_id="edgeworth",
    base_names=_EDGEWORTH_NAMES,
    shift_style="none",
    _unpack=lambda x, tenors: EdgeworthParams(*x),
    _pack=_edgeworth_pack,
    _cf=lambda u, tau, th: psi_full(u, tau, th),
    _spot_vol=lambda th: th.sigma0,
    _base_bounds=_EDGEWORTH_BOUNDS,
    _shift_bounds=None,
    _base_start=_edgeworth_start,
    _tenors=lambda th: (),
)

_EDGEWORTH_PP = ModelSpec(
    model_id="edgeworth_pp",
    base_names=_EDGEWORTH_NAMES,
    shift_style="vol",
    _unpack=lambda x, tenors: (
        EdgeworthParams(*x[:8]),
        Displacement(tenors=tenors, shifts=tuple(x[8:])),
    ),
    _pack=lambda th: _edgeworth_pack(th[0]) + th[1].shifts,
    _cf=lambda u, tau, th: psi_full(u, tau, th[0], th[1]),
    _spot_vol=lambda th: th[0].sigma0,
    _base_bounds=_EDGEWORTH_BOUNDS,
    _shift_bounds=_VOL_SHIFT_BOUNDS,
    _base_start=_edgeworth_start,
    _tenors=lambda th: th[1].tenors,
)


def _bspp_cf(u, tau, theta):
    """Exact lognormal CF: Z is Gaussian with mean sigma0*(tau - V)/(2*sqrt(tau))
    and variance V/tau, V the shift-weighted integrated variance ratio, one
    V per distinct tenor where ``tau`` gives one tenor per frequency."""
    sigma0, disp = theta
    v, root = _per_tau(tau, lambda t: (shift_weighted_variance(sigma0, disp, t), math.sqrt(t)))
    uu = np.asarray(u)
    out = np.exp(
        1j * uu * sigma0 * (tau - v) / (2.0 * root) - uu * uu * v / (2.0 * tau)
    )
    return out if out.ndim else complex(out)


_BS_PP = ModelSpec(
    model_id="bs_pp",
    base_names=("sigma0",),
    shift_style="vol",
    _unpack=lambda x, tenors: (
        float(x[0]),
        Displacement(tenors=tenors, shifts=tuple(x[1:])),
    ),
    _pack=lambda th: (th[0],) + th[1].shifts,
    _cf=_bspp_cf,
    _spot_vol=lambda th: th[0],
    _base_bounds=((0.01, 3.0),),
    _shift_bounds=_VOL_SHIFT_BOUNDS,
    _base_start=lambda atm: (atm,),
    _tenors=lambda th: th[1].tenors,
)


# ---------------------------------------------------------------------------
# affine Heston-Merton family
# ---------------------------------------------------------------------------

_HM1F_NAMES = ("v1_0", "kappa1", "theta1", "zeta1", "rho1", "c0", "mu_x", "sigma_x")
_HM1F_BOUNDS = (
    (1e-5, 2.0), (1e-3, 100.0), (1e-5, 2.0), (1e-3, 10.0), (-1.0, 1.0),
    (0.0, 500.0), (-0.5, 0.5), (1e-4, 0.5),
)
_HM2F_NAMES = (
    "v1_0", "v2_0", "kappa1", "kappa2", "theta1", "theta2", "zeta1", "zeta2",
    "rho1", "rho2", "rho_jump", "mu_x", "sigma_x", "m_v", "c0", "c1", "c2",
)
_HM2F_BOUNDS = (
    (1e-5, 2.0), (1e-5, 2.0), (1e-3, 100.0), (1e-3, 100.0), (1e-5, 2.0),
    (1e-5, 2.0), (1e-3, 10.0), (1e-3, 10.0), (-1.0, 1.0), (-1.0, 1.0),
    (0.0, 0.99), (-0.5, 0.5), (1e-4, 0.5), (0.0, 0.9), (0.0, 500.0),
    (0.0, 2000.0), (0.0, 2000.0),
)


def _hm_cf(u, tau, th: HestonMertonParams):
    s0 = math.sqrt(th.spot_variance)
    return standardized_from_raw(lambda w: heston_merton_cf(w, tau, th), u, tau, s0)


def _hm_unpack(names: tuple, factor_count: int, shifted: bool):
    def build(x, tenors):
        kwargs = dict(zip(names, (float(v) for v in x[: len(names)])))
        if shifted:
            kwargs["shifts"] = Displacement(tenors=tenors, shifts=tuple(x[len(names):]))
        return HestonMertonParams(factor_count=factor_count, **kwargs)

    return build


def _hm_pack(names: tuple, shifted: bool):
    def flatten(th):
        base = tuple(getattr(th, n) for n in names)
        return base + th.shifts.shifts if shifted else base

    return flatten


def _hm_spot_vol(th: HestonMertonParams) -> float:
    return math.sqrt(th.spot_variance)


def _hm1f_start(atm: float) -> tuple:
    return (atm * atm, 5.0, atm * atm, 0.5, -0.6, 10.0, -0.02, 0.05)


def _hm2f_start(atm: float) -> tuple:
    v = atm * atm
    return (0.6 * v, 0.4 * v, 4.0, 20.0, 0.6 * v, 0.4 * v, 0.5, 0.8,
            -0.6, -0.4, 0.1, -0.02, 0.05, 0.01, 10.0, 10.0, 10.0)


def _hm_spec(model_id, names, bounds, factor_count, shifted, start) -> ModelSpec:
    return ModelSpec(
        model_id=model_id,
        base_names=names,
        shift_style="var" if shifted else "none",
        _unpack=_hm_unpack(names, factor_count, shifted),
        _pack=_hm_pack(names, shifted),
        _cf=_hm_cf,
        _spot_vol=_hm_spot_vol,
        _base_bounds=bounds,
        _shift_bounds=_VAR_SHIFT_BOUNDS if shifted else None,
        _base_start=start,
        _tenors=lambda th: th.shifts.tenors if shifted else (),
        _solver_backed=True,
    )


_HM_1F = _hm_spec("heston_merton_1f", _HM1F_NAMES, _HM1F_BOUNDS, 1, False, _hm1f_start)
_HM_1F_PP = _hm_spec("heston_merton_1f_pp", _HM1F_NAMES, _HM1F_BOUNDS, 1, True, _hm1f_start)
_HM_2F = _hm_spec("heston_merton_2f", _HM2F_NAMES, _HM2F_BOUNDS, 2, False, _hm2f_start)
_HM_2F_PP = _hm_spec("heston_merton_2f_pp", _HM2F_NAMES, _HM2F_BOUNDS, 2, True, _hm2f_start)


# ---------------------------------------------------------------------------
# rough family
# ---------------------------------------------------------------------------

_ROUGH_NAMES = ("hurst", "nu", "rho")
_ROUGH_BOUNDS = ((0.01, 0.5), (1e-3, 5.0), (-1.0, 1.0))
_ROUGH_J_NAMES = _ROUGH_NAMES + ("lambda_j", "mu_j", "sigma_j")
_ROUGH_J_BOUNDS = _ROUGH_BOUNDS + ((0.0, 500.0), (-0.2, 0.2), (0.0, 0.2))
_XI_BOUNDS = (1e-6, 2.0)


def _rough_cf(u, tau, th: RoughHestonParams):
    s0 = math.sqrt(th.spot_variance)
    return standardized_from_raw(lambda w: rough_heston_cf(w, tau, th), u, tau, s0)


def _rough_unpack(names: tuple):
    def build(x, tenors):
        kwargs = dict(zip(names, (float(v) for v in x[: len(names)])))
        return RoughHestonParams(
            xi_tenors=tenors, xi_levels=tuple(x[len(names):]), **kwargs
        )

    return build


def _rough_spec(model_id, names, bounds, start) -> ModelSpec:
    return ModelSpec(
        model_id=model_id,
        base_names=names,
        shift_style="curve",
        _unpack=_rough_unpack(names),
        _pack=lambda th: tuple(getattr(th, n) for n in names) + th.xi_levels,
        _cf=_rough_cf,
        _spot_vol=lambda th: math.sqrt(th.spot_variance),
        _base_bounds=bounds,
        _shift_bounds=_XI_BOUNDS,
        _base_start=start,
        _tenors=lambda th: th.xi_tenors,
        _solver_backed=True,
    )


_ROUGH_PP = _rough_spec(
    "rough_heston_pp", _ROUGH_NAMES, _ROUGH_BOUNDS, lambda atm: (0.1, 0.3, -0.6)
)
_ROUGH_MERTON_PP = _rough_spec(
    "rough_heston_merton_pp", _ROUGH_J_NAMES, _ROUGH_J_BOUNDS,
    lambda atm: (0.1, 0.3, -0.6, 1.0, 0.0, 0.01),
)


MODELS = {
    spec.model_id: spec
    for spec in (
        _EDGEWORTH,
        _EDGEWORTH_PP,
        _BS_PP,
        _HM_1F,
        _HM_1F_PP,
        _HM_2F,
        _HM_2F_PP,
        _ROUGH_PP,
        _ROUGH_MERTON_PP,
    )
}


def model_ids() -> tuple:
    """Registered model discriminator strings, in registry order."""
    return tuple(MODELS)


def get_model(model_id: str) -> ModelSpec:
    """Look up a registry entry; unknown ids list the valid choices."""
    try:
        return MODELS[model_id]
    except KeyError:
        raise ValueError(
            f"unknown model id {model_id!r}; registered: {', '.join(MODELS)}"
        ) from None
