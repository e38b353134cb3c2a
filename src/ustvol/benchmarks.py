"""Benchmark model characteristic functions: affine Heston-Merton variants
(one or two variance factors, self-exciting jump intensity, optional variance
displacement) and rough Heston (fractional kernel, piecewise forward-variance
curve, optional Merton jumps).

Both CFs are for the raw log return X_tau - X_0 over [0, tau] at zero rate,
with the martingale drift built in: CF(-i) = 1 exactly along the flow, which
the tests exploit.  Wrapping into standardized-return form for the Fourier
pricer happens in the registry.

Each CF is exp of an exponent from a direct solve: A + B1 v1_0 + B2 v2_0
from the Riccati system, integrated with the embedded Dormand-Prince 8(5,3)
pair in scaled time, one adaptive step per tenor, or the forward-variance
integral omega · F of the fractional Riccati equation D^alpha psi = F(u, psi),
alpha = H + 1/2, solved with the Adams predictor-corrector.

A u_max probe solve holds 8 to 48 frequencies, and costs its numpy calls
per step: six times its columns cost 8-10% more.  A surface's grid solve
holds about 1500 frequencies per order round, and its arithmetic dominates:
six slices' first round costs 3.0 (affine) and 3.5 (rough) times one
slice's (one BLAS thread, 2-core host).  Either way few steps pay, and an
eighth-order pair meets rtol 1e-10 in a few large steps.  The
Dormand-Prince stages live in one
(12, rows, m) array; the Butcher weights are real, so each stage state and
both error estimates are one product of a weight block with the stages'
float view.  The right-hand side writes into its stage row, treats B1 and
B2 as one stacked (2, m) pair (B2 only where it reaches the exponent), and
takes every term that depends on u alone from arrays formed once per call:
each row of the state adds one stacked constant block and its loading on
the jump transform, which is folded into the constants when m_v = 0.

The pricer asks for thousands of frequencies on each of two lines
Im u = const per tenor, along which the exponent is analytic in Re u.
There the direct solve runs only at 129 Chebyshev points of each line's
range, or at 257, 513, ... where the exponent needs them, and a barycentric
interpolant carries the exponent to the caller's frequencies
(``_exponent_on_line``).  The lines of a call share one solve per order
round, with its short lines and scattered points solved directly in the
same solve.  The interpolant works on each line's coordinates normalized
to [-1, 1].  A pricer slice's two lines have its layout, the range's lower
end (the normalizer, and u = 0 on the plain leg) then n equally spaced
midpoints, and take that layout's exact coordinates, so every such line of
n midpoints that converges in a round, whatever its tenor and range,
shares one barycentric kernel per block of points.  Each tenor's two lines
take one product with it, their values side by side: the product they get
in a call of their tenor alone.

A failed solve names the tenors that failed, each with the exception its
solve alone raises (``_tenor_errors``): the Dormand-Prince solve names
every tenor failing the check that stopped it, the Adams solve every tenor
whose columns turned non-finite in the history block where it stopped.
The pricer then fails those tenors and solves the rest again in one call.

Both CFs take one tenor per frequency, and a line is then a set of
frequencies with one Im u and one tenor.  The pricer's u_max probe puts a
chunk of every tenor of a surface into one call, and so does its grid call
of a whole surface: one solve per order round then serves every tenor, and
each frequency gets the bits it has in a call of its tenor alone.  The
Adams solve steps each column by its own tau/n_steps: the weights do not
depend on the step, only each column's scale h^alpha, and each tenor's
omega multiplies its own columns.  Its F history holds every step's row of
every column, so a solve takes whole tenors up to 1000 columns: a 6-tenor
surface's first order round is two solves of three tenors.  On a 2-core
host one solve of all six was about 2.5 ms faster per ``rough_heston_pp``
surface, but its 6.4 MB history lifted the surface workload's peak RSS by
6 MB (numpy asks for huge pages on arrays of 4 MiB and more), against under
1 MB for two 3.2 MB histories.  The affine system without a
displacement is autonomous, so it is solved in scaled time s/tau over
[0, 1], each tenor one group of columns with its own adaptive step, first
step, step cap and explosion cap: each column's right-hand side is scaled
by its tau times its group's step, so a stage costs the same numpy calls
for any number of tenors, and a tenor's columns leave the arrays once it
reaches s = 1.  A single shared step would instead tie each tenor's values
to the rest of its surface, and step every tenor at the pace of the
hardest one.  A displaced system solves its tenors one after another, each
displacement segment in its own scaled time from the step that ended the
segment before it.

The Adams step is a weighted sum over the F history, blocked in time as in
Hairer, Lubich & Schlichte (1985): each block of 32 steps takes its sums
over the rows before it from one matrix product with the history, so the
history is read once per block rather than once per step, and each step
adds only the rows written inside its block.  The weights are real, so
they multiply the float view of the history, and a step's predictor and
corrector sums come from one (2, rows) weight block.  The weights of all
steps are built once per (alpha, n_steps) and cached read-only, and F is
evaluated in place as P + psi (L + Q psi).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import gamma
from typing import NamedTuple

import numpy as np

from .cf_edgeworth import Displacement, _per_tau

__all__ = [
    "HestonMertonParams",
    "RoughHestonParams",
    "RiccatiExplosionError",
    "JumpTransformPoleError",
    "heston_merton_cf",
    "rough_heston_cf",
]

# For real or pricer-shifted frequencies the transform denominator stays O(1)
# (Re B1 <= 0); values this small only occur on the approach to the pole
# during moment-explosion probes, so report them as the pole they signal.
_POLE_TOL = 1e-4
_EXPLOSION_NORM = 1e6


class RiccatiExplosionError(RuntimeError):
    """Riccati state blew up (moment explosion) at time-to-go ``t``."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class JumpTransformPoleError(RuntimeError):
    """The exponential variance-jump transform hit its pole 1 = m_v(iu rho0 + B1)."""


def _naming(exc, errors: dict):
    """``exc`` with ``errors`` as its ``_tenor_errors``: for each tenor of
    a call (each group of a solve, by index) that failed, the exception it
    raises when solved alone.  The pricer then fails those tenors and
    solves the rest again in one call (``fourier_pricer._tenor_values``).
    Raise the result in the raise statement that builds it: an exception
    held in a local of a frame on its own traceback keeps that frame's
    arrays alive until the cycle collector runs."""
    exc._tenor_errors = errors
    return exc


def _explosion(failed: dict):
    """The RiccatiExplosionError of a solve whose groups ``failed`` one
    check, each group's (message, t) by index: the first group's, naming
    each group's own (:func:`_naming`)."""
    return _naming(RiccatiExplosionError(*next(iter(failed.values()))),
                   {g: RiccatiExplosionError(*args) for g, args in failed.items()})


@dataclass(frozen=True)
class HestonMertonParams:
    """Affine one/two-factor stochastic-variance model with self-exciting jumps.

    Variance factors dv_i = kappa_i(theta_i - v_i)dt + zeta_i sqrt(v_i)dW_i,
    corr(dW_spot, dW_i) = rho_i.  Jumps arrive with intensity
    c_t = c0 + c1 v_1 + c2 v_2; the variance jump (factor 1) is Exp(m_v) and
    the log-price jump is Gaussian(mu_x + rho_jump * Z_v, sigma_x^2)
    conditional on the variance jump Z_v.  ``shifts`` adds a deterministic
    piecewise-constant displacement to the factor-1 variance (the ++
    variants); it feeds both the spot-variance and the intensity terms.
    """

    v1_0: float
    kappa1: float
    theta1: float
    zeta1: float
    rho1: float
    v2_0: float = 0.0
    kappa2: float = 0.0
    theta2: float = 0.0
    zeta2: float = 0.0
    rho2: float = 0.0
    rho_jump: float = 0.0
    mu_x: float = 0.0
    sigma_x: float = 0.0
    m_v: float = 0.0
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    factor_count: int = 1
    shifts: Displacement | None = None

    def __post_init__(self) -> None:
        if self.factor_count not in (1, 2):
            raise ValueError(f"factor_count must be 1 or 2, got {self.factor_count}")
        for name in ("v1_0", "v2_0", "theta1", "theta2", "c0", "c1", "c2", "m_v"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("rho1", "rho2"):
            if not -1.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [-1, 1], got {getattr(self, name)}")
        if self.factor_count == 1 and self.v2_0 != 0.0:
            # the CF would drop v2_0 while the spot variance and the
            # simulator keep it: two different models under one name
            raise ValueError(f"a one-factor model has v2_0 = 0, got {self.v2_0}")
        if self.sigma_x < 0.0:
            raise ValueError(f"sigma_x must be >= 0, got {self.sigma_x}")
        if self.m_v * self.rho_jump >= 1.0:
            raise ValueError(
                f"m_v*rho_jump = {self.m_v * self.rho_jump} >= 1: the price-jump "
                "compensator E[e^Zx] diverges"
            )

    @property
    def spot_variance(self) -> float:
        return self.v1_0 + self.v2_0


@dataclass(frozen=True)
class RoughHestonParams:
    """Rough-volatility model with fractional kernel and forward-variance curve.

    xi_levels[k] is the forward variance on [xi_tenors[k-1], xi_tenors[k])
    (first tenor from 0; the last level extends beyond the grid), so
    xi_levels[0] is the spot variance.  Optional Merton jumps (lambda_j,
    mu_j, sigma_j) are independent Gaussian, not self-exciting.
    """

    hurst: float
    nu: float
    rho: float
    xi_tenors: tuple
    xi_levels: tuple
    lambda_j: float = 0.0
    mu_j: float = 0.0
    sigma_j: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "xi_tenors", tuple(float(t) for t in self.xi_tenors))
        object.__setattr__(self, "xi_levels", tuple(float(x) for x in self.xi_levels))
        if not 0.0 < self.hurst <= 0.5:
            raise ValueError(f"hurst must lie in (0, 0.5], got {self.hurst}")
        if not self.nu > 0.0:
            raise ValueError(f"nu must be > 0, got {self.nu}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if len(self.xi_tenors) == 0 or len(self.xi_levels) != len(self.xi_tenors):
            raise ValueError("xi curve needs one level per tenor (>= 1 tenor)")
        arr = np.asarray(self.xi_tenors)
        if arr[0] <= 0.0 or np.any(np.diff(arr) <= 0.0):
            raise ValueError("xi tenors must be strictly increasing and positive")
        if any(x <= 0.0 for x in self.xi_levels):
            raise ValueError("xi levels must be positive")
        if self.lambda_j < 0.0 or self.sigma_j < 0.0:
            raise ValueError("lambda_j and sigma_j must be >= 0")

    @property
    def spot_variance(self) -> float:
        return self.xi_levels[0]

    def xi(self, t):
        """Forward-variance curve, vectorized; constant beyond the grid."""
        t = np.asarray(t, dtype=float)
        lev = np.asarray(self.xi_levels)
        idx = np.searchsorted(np.asarray(self.xi_tenors), t, side="right")
        out = lev[np.minimum(idx, len(lev) - 1)]
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3), vectorized over the frequency grid, one step per tenor
# ---------------------------------------------------------------------------

# Hairer, Nørsett & Wanner, Solving ODEs I (1993), §II.10.  Rows 0-11 of
# _DP_A weight the stages that form each stage's state; row 12 holds the
# 8th-order weights, whose state is the step's result and the FSAL stage's.
_DP_C = (
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    1 / 3, 0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0,
)
_DP_A = np.zeros((13, 12))
_DP_A[1, 0] = 5.26001519587677318785587544488e-2
_DP_A[2, :2] = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
_DP_A[3, [0, 2]] = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
_DP_A[4, [0, 2, 3]] = (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                       9.24834003261792003115737966543e-1)
_DP_A[5, [0, 3, 4]] = (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                       1.25467687566822425016691814123e-1)
_DP_A[6, [0, 3, 4, 5]] = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                          6.02165389804559606850219397283e-2, -1.7578125e-2)
_DP_A[7, [0, 3, 4, 5, 6]] = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
_DP_A[8, [0, 3, 4, 5, 6, 7]] = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
_DP_A[9, [0, 3, 4, 5, 6, 7, 8]] = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
_DP_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
_DP_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
_DP_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (  # the 8th-order weights
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
# error weights: their products with the stages are the 5th-order error
# estimate (row 0) and the 3rd-order one (row 1, 8th-order weights minus
# those of the 3rd-order pair)
_DP_E = np.zeros((2, 12))
_DP_E[0, [0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_DP_E[1] = _DP_A[12]
_DP_E[1, [0, 8, 11]] -= (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                         0.220588235294117647058823529412e-1)


def _dop853(rhs_for, y0, scale, sizes=None, h0=0.01, t0=0.0, rtol=1e-10, atol=1e-12,
            norm_cap=_EXPLOSION_NORM):
    """Integrate y' = F(y), y complex of shape (rows, m), in scaled time
    s in [0, 1], each group of columns on its own adaptive step.

    The columns form ``sizes`` contiguous groups (one group when None);
    group g runs over real time t0 + s·scale_g, s from 0 to 1, so its
    scaled right-hand side is scale_g·F.  ``scale``, ``h0`` (the first
    scaled step) and ``norm_cap`` are scalars or one value per group.
    ``rhs_for(cols)`` gives the right-hand side of the columns ``cols`` of
    ``y0`` (a slice or an index array): ``f(y, out, factor)`` writes
    factor·F(y) into ``out``, a row of the (12, rows, m') stage array, with
    one factor per column.  The solver passes each column its group's
    h·scale, so every stage holds h·F in scaled time: each stage state and
    the step's 8th-order result are one product of a row of ``_DP_A`` with
    the float view of the stages, and both error estimates one product with
    ``_DP_E``, whatever the groups' steps.

    Each entry's error is Hairer's e5²/√(e5² + 0.01·e3²) of its two
    estimates scaled by atol + rtol·max(|y|, |y8|), and each group accepts
    or rejects its step on the largest error of its own columns, so a
    group's values are the same bits whatever groups it is solved with.  A
    group whose columns reach s = 1 leaves the arrays, and the right-hand
    side is rebuilt for the columns left.  No step exceeds a quarter of the
    span: solves of nearby arrays take different step sequences, and at the
    cap their results differ by little enough that one Chebyshev
    interpolant fits values from several solves (:func:`_exponent_on_line`).
    Each step starts from F at its state, evaluated with the step's own
    factors.

    Returns the final state and each group's next scaled step.  Raises
    :class:`RiccatiExplosionError` (with the group's real time t) when a
    group's state norm passes its ``norm_cap`` (callers scale it with the
    forcing so that smooth high-frequency states are not mistaken for
    blow-up), on a non-finite error or on step collapse.  Every group that
    fails the same check at that step is named, with the error its solve
    alone raises, by group index (:func:`_explosion`).
    """
    y = y0.astype(np.complex128)
    sizes = [y.shape[-1]] if sizes is None else [int(n) for n in sizes]
    groups = len(sizes)
    scale, h, cap = (np.broadcast_to(np.asarray(v, dtype=float), groups).tolist()
                     for v in (scale, h0, norm_cap))
    s = [0.0] * groups
    out = np.empty_like(y)
    # the groups still in the arrays, in column order, their column counts
    # and first columns, and the column of y0 of each column of y
    live, widths, starts = list(range(groups)), sizes, np.cumsum([0] + sizes[:-1])
    cols = np.arange(y.shape[-1])
    f = rhs_for(slice(None))
    cap_cols = np.repeat(cap, sizes)
    abs_y = np.abs(y)
    k = k_flat = None
    while live:
        if k is None or k.shape[1:] != y.shape:
            k = np.empty((12,) + y.shape, dtype=np.complex128)
            k_flat = k.view(np.float64).reshape(12, -1)
        for g in live:
            h[g] = min(h[g], 0.25, 1.0 - s[g])
        factor = np.repeat([h[g] * scale[g] for g in live], widths)
        f(y, k[0], factor)
        y_flat = y.view(np.float64).reshape(-1)
        for i in range(1, 13):
            yi = _DP_A[i, :i] @ k_flat[:i]
            yi += y_flat
            yi = yi.view(np.complex128).reshape(y.shape)
            if i < 12:
                f(yi, k[i], factor)
        abs_y8 = np.abs(yi)
        err_scale = np.maximum(abs_y, abs_y8)
        err_scale *= rtol
        err_scale += atol
        err_sq = np.abs((_DP_E @ k_flat).view(np.complex128))
        err_sq /= err_scale.reshape(-1)
        np.square(err_sq, out=err_sq)
        e5_sq, e3_sq = err_sq
        # e5² / sqrt(e5² + 0.01 e3²); the tiny term turns 0/0 into 0 and
        # leaves every non-finite error non-finite
        denom = np.sqrt(0.01 * e3_sq + e5_sq)
        denom += np.finfo(float).tiny
        errs = np.maximum.reduceat((e5_sq / denom).reshape(y.shape).max(axis=0), starts).tolist()
        accepted = [err <= 1.0 for err in errs]
        failed = {}  # (message, t) of each group failing a check
        for g, err in zip(live, errs):
            if not math.isfinite(err):
                t = t0 + (s[g] + h[g]) * scale[g]
                failed[g] = (f"non-finite Riccati state at t={t:.6g}", t)
        if failed:
            raise _explosion(failed)
        if all(accepted):
            y, abs_y = yi, abs_y8
        elif any(accepted):
            take = np.repeat(accepted, widths)
            y, abs_y = np.where(take, yi, y), np.where(take, abs_y8, abs_y)
        for g, err, ok in zip(live, errs, accepted):
            if ok:
                s[g] += h[g]
            h[g] *= min(10.0, max(0.2, 0.9 * err ** -0.125)) if err > 0 else 10.0
        over = abs_y > cap_cols
        if over.any():
            hits = np.logical_or.reduceat(over.any(axis=0), starts).tolist()
            for g, hit in zip(live, hits):
                if hit:
                    t = t0 + s[g] * scale[g]
                    failed[g] = (f"Riccati state norm exceeded {cap[g]:g} at t={t:.6g} "
                                 "(moment explosion)", t)
            raise _explosion(failed)
        for g in live:
            if h[g] < 1e-12:
                t = t0 + s[g] * scale[g]
                failed[g] = (f"step size collapsed at t={t:.6g} (moment explosion)", t)
        if failed:
            raise _explosion(failed)
        done = [s[g] >= 1.0 - 1e-14 for g in live]
        if any(done):  # the finished groups leave the arrays
            keep = np.repeat(np.logical_not(done), widths)
            out[:, cols[~keep]] = y[:, ~keep]
            live = [g for g, d in zip(live, done) if not d]
            if live:
                widths = [sizes[g] for g in live]
                starts = np.cumsum([0] + widths[:-1])
                y, abs_y = y.compress(keep, axis=1), abs_y.compress(keep, axis=1)
                cols, cap_cols = cols[keep], cap_cols[keep]
                f = rhs_for(cols)
    return out, h


# ---------------------------------------------------------------------------
# Exponents on a frequency line: Chebyshev interpolation of a direct solve
# ---------------------------------------------------------------------------

# first interpolant order; orders double from here (129, 257, 513, ...) so
# that each order's second-kind Chebyshev points contain the previous ones
_CHEB_ORDER = 129
# an order is enough once its last eighth of Chebyshev coefficients falls
# below this, relative to max(1, largest coefficient)
_CHEB_TAIL_TOL = 1e-15
# caller's frequencies per barycentric evaluation block, so that the
# (block, order) kernel stays a few MB at any grid size
_CHEB_BLOCK = 1024
# a line whose normalized coordinates lie this close to those of the
# pricer's slice layout takes the layout's exact ones; the pricer's own
# lines lie within 3.5 ulp of them
_LAYOUT_TOL = 16 * np.finfo(float).eps


def _chebyshev_tail(vals) -> float:
    """Largest of the last eighth of the Chebyshev coefficients of the
    values at second-kind points, relative to max(1, largest coefficient)."""
    n = vals.size - 1
    coef = np.abs(np.fft.fft(np.concatenate([vals, vals[-2:0:-1]]))[: n + 1]) / n
    coef[[0, n]] *= 0.5
    return float(np.max(coef[-(vals.size // 8):])) / max(1.0, float(np.max(coef)))


def _barycentric(x, nodes, tables):
    """Interpolants through each of ``tables`` at the second-kind Chebyshev
    ``nodes``, at the real points ``x``, in blocks of ``_CHEB_BLOCK``
    points.  Each table is one value per node, or one column of values per
    line; its result has one row per point and one column per line.

    Each block builds one (block, order) kernel, the differences x - x_j
    and their reciprocals in place, for every table.  Each table then takes
    one product of that kernel with its columns w Re f and w Im f of every
    line and w, which gives every numerator and the shared denominator of
    the second barycentric form; a table's values are the same bits with
    any other tables.  A point on a node makes its denominator infinite,
    and such a point takes the values of its nearest node, which are that
    node's values exactly.
    """
    # barycentric weights of second-kind points: (-1)^j, halved at the ends
    weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    tables = [vals.reshape(nodes.size, -1) for vals in tables]
    cols, outs = [], []
    for table in tables:
        # columns w Re f and w Im f of each line, then w
        col = np.empty((nodes.size, 2 * table.shape[1] + 1))
        col[:, :-1] = weights[:, None] * table.view(np.float64)
        col[:, -1] = weights
        cols.append(col)
        outs.append(np.empty((x.size, table.shape[1]), dtype=np.complex128))
    buffer = np.empty((min(x.size, _CHEB_BLOCK), nodes.size))  # one block's kernel at a time
    for start in range(0, x.size, _CHEB_BLOCK):
        blk = slice(start, start + _CHEB_BLOCK)
        kernel = np.subtract.outer(x[blk], nodes, out=buffer[: x[blk].size])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.reciprocal(kernel, out=kernel)
        for table, col, out in zip(tables, cols, outs):
            with np.errstate(divide="ignore", invalid="ignore"):
                sums = kernel @ col
                np.divide(sums[:, :-1], sums[:, -1:], out=out.view(np.float64)[blk])
            on_node = np.flatnonzero(~np.isfinite(sums[:, -1]))
            if on_node.size:
                near = np.argmin(np.abs(np.subtract.outer(x[blk][on_node], nodes)), axis=1)
                out[blk][on_node] = table[near]
    return outs


def _chebyshev_nodes(lo: float, hi: float, order: int):
    """``order`` second-kind Chebyshev points of [lo, hi], from hi down."""
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(order) / (order - 1))
    x[[0, -1]] = hi, lo  # exact ends: the range is the caller's
    return x


def _lines(uu, tau) -> list:
    """Indices into ``uu`` of each of its lines, the frequencies with one
    Im u (and one tenor where ``tau`` is one per frequency), in increasing
    order of their (Im u, tau) keys: the lines, and their order, that
    ``np.unique`` gives the keys.

    A line's frequencies come in runs of equal keys (each line of a pricer
    slice is one run), so one pass over the frequencies finds the runs, and
    a stable sort of the runs' keys alone gathers each line's runs in
    place order.
    """
    im = uu.imag
    new = np.ones(uu.size, dtype=bool)
    np.not_equal(im[1:], im[:-1], out=new[1:])
    if np.ndim(tau):
        new[1:] |= tau[1:] != tau[:-1]
    starts = np.flatnonzero(new)
    bounds = np.append(starts, uu.size)
    run_im = im[starts]
    run_tau = tau[starts] if np.ndim(tau) else np.zeros(starts.size)
    order = np.lexsort((run_tau, run_im))
    run_im, run_tau = run_im[order], run_tau[order]
    joins = np.zeros(order.size, dtype=bool)
    joins[1:] = (run_im[1:] == run_im[:-1]) & (run_tau[1:] == run_tau[:-1])
    lines = []
    for run, join in zip(order.tolist(), joins.tolist()):
        idx = np.arange(bounds[run], bounds[run + 1])
        if join:
            lines[-1] = np.concatenate([lines[-1], idx])
        else:
            lines.append(idx)
    return lines


def _normalized(re, lo: float, hi: float, layouts: dict):
    """The coordinates 2(re - lo)/(hi - lo) - 1 in [-1, 1] of a line's real
    parts ``re``, its ends exactly -1 and 1.  Where ``re`` has the pricer's
    slice layout, its range's lower end then n equally spaced midpoints
    lo + (k + 1/2)(hi - lo)/(n - 1/2), they are the layout's exact
    coordinates -1, (4k + 3 - 2n)/(2n - 1): one array per n, held in
    ``layouts``, which every such line of n midpoints shares."""
    t = (re - lo) * (2.0 / (hi - lo)) - 1.0
    t[re == hi] = 1.0
    n = re.size - 1
    if n not in layouts:
        layouts[n] = np.concatenate([[-1.0], (4.0 * np.arange(n) + 3.0 - 2.0 * n) / (2.0 * n - 1.0)])
    return layouts[n] if np.max(np.abs(t - layouts[n])) <= _LAYOUT_TOL else t


class _Line(NamedTuple):
    """A line that :func:`_exponent_on_line` interpolates."""

    idx: np.ndarray  # its indices into the caller's frequencies
    im: float  # its Im u
    lo: float  # its range of Re u
    hi: float
    coords: np.ndarray  # its normalized coordinates (:func:`_normalized`)
    tenor: float | None  # its tenor, None where the call has one


def _exponent_on_line(solve, uu, tau):
    """``solve(w, t)``, the CF exponent at the 1-D complex frequencies ``w``
    and tenor ``t``, at the frequencies ``uu``, with each long line
    Im u = const of ``uu`` carried by a Chebyshev interpolant.  ``tau`` is
    one tenor for all of ``uu``, passed to ``solve`` as it is, or an array
    of one tenor per frequency; then ``solve`` gets the tenor of each of its
    frequencies, and a line is a set of frequencies with one Im u and one
    tenor.

    The frequencies are grouped by their exact Im u (and tenor,
    :func:`_lines`).  The exponents are analytic in Re u along a line, so
    their barycentric interpolant at second-kind Chebyshev points of the
    line's [min Re u, max Re u] recovers them to rounding (Berrut &
    Trefethen 2004).  Both ends of a range are nodes, so no frequency
    outside the caller's range is solved, a frequency at an end keeps its
    solved value, and each tenor's adaptive step in the affine solve sees
    the same highest frequency as a direct solve of ``uu``.  Lines of at
    most 2·``_CHEB_ORDER`` − 1 points and scattered points are solved
    directly.

    Every order round is one ``solve`` call: the first holds the direct
    points and ``_CHEB_ORDER`` nodes of every long line; each later one
    doubles the order of the lines whose coefficient tail is still above
    ``_CHEB_TAIL_TOL``, solving only their new points, or solves a line at
    its own points where the new order would reach its size.  The
    interpolant is evaluated on each line's normalized coordinates in
    [-1, 1] (:func:`_normalized`), so the lines that converge in one round,
    which share its order, share one :func:`_barycentric` kernel per block
    where they share their coordinates: every line of the pricer's slice
    layout with the same node count does, whatever its range.  Each tenor's
    lines in a kernel take one product with it, one value column each, the
    product they get in a call of their tenor alone.
    """
    per_point = np.ndim(tau) != 0
    lines, layouts = [], {}
    todo = np.ones(uu.size, dtype=bool)  # frequencies the next round solves directly
    for idx in _lines(uu, tau):
        if idx.size < 2 * _CHEB_ORDER:
            continue
        re = uu.real[idx]
        lo, hi = float(np.min(re)), float(np.max(re))
        if lo < hi:
            lines.append(_Line(idx, uu.imag[idx[0]], lo, hi, _normalized(re, lo, hi, layouts),
                               tau[idx[0]] if per_point else None))
            todo[idx] = False
    out = np.empty(uu.size, dtype=np.complex128)
    order, known = _CHEB_ORDER, [None] * len(lines)  # known: values at each line's nodes
    while todo.any() or lines:
        direct = np.flatnonzero(todo)
        nodes = [_chebyshev_nodes(line.lo, line.hi, order) for line in lines]
        # past the first round the previous order's nodes are every other node
        new = [x if old is None else x[1::2] for x, old in zip(nodes, known)]
        points = np.concatenate([uu[direct]] + [x + 1j * line.im for x, line in zip(new, lines)])
        if per_point:
            vals = solve(points, np.concatenate(
                [tau[direct]] + [np.full(x.size, line.tenor) for x, line in zip(new, lines)]))
        else:
            vals = solve(points, tau)
        out[direct] = vals[: direct.size]
        pieces = np.split(vals[direct.size:], np.cumsum([x.size for x in new], dtype=int)[:-1])
        unit = _chebyshev_nodes(-1.0, 1.0, order)  # the round's nodes in normalized coordinates
        order, still, done = 2 * order - 1, [], []
        todo[:] = False
        for line, piece, old in zip(lines, pieces, known):
            if old is not None:
                merged = np.empty(2 * old.size - 1, dtype=np.complex128)
                merged[::2], merged[1::2] = old, piece
                piece = merged
            if _chebyshev_tail(piece) <= _CHEB_TAIL_TOL:
                done.append((line, piece))
            elif order >= line.idx.size:  # the new order would reach the line's size
                todo[line.idx] = True
            else:
                still.append((line, piece))
        # one kernel per shared coordinate array, one product per tenor
        while done:
            coords = done[0][0].coords
            shared = [d for d in done if d[0].coords is coords]
            done = [d for d in done if d[0].coords is not coords]
            groups = [[d for d in shared if d[0].tenor == t]
                      for t in dict.fromkeys(d[0].tenor for d in shared)]
            tables = _barycentric(coords, unit, [np.stack([piece for _, piece in group], axis=1)
                                                 for group in groups])
            for group, table in zip(groups, tables):
                for k, (line, _) in enumerate(group):
                    out[line.idx] = table[:, k]
        lines, known = [line for line, _ in still], [piece for _, piece in still]
    return out


# ---------------------------------------------------------------------------
# Affine Heston-Merton CF
# ---------------------------------------------------------------------------

def _shift_segments_time_to_go(displacement: Displacement | None, tau: float):
    """(s_lo, s_hi, level) pieces of phi_v(tau - s) for s in [0, tau]."""
    if displacement is None:
        return [(0.0, tau, 0.0)]
    bounds, levels = displacement.segments_to(tau)
    lows = np.concatenate([[0.0], bounds[:-1]])
    out = []
    for lo, hi, lev in zip(lows, bounds, levels):
        out.append((tau - hi, tau - lo, float(lev)))
    return sorted(out)


def _tau_like(tau, uu):
    """A scalar ``tau`` as it is; an array as floats aligned with ``uu``."""
    if not np.all(np.asarray(tau) > 0.0):
        raise ValueError(f"tau must be > 0, got {tau}")
    return tau if np.ndim(tau) == 0 else np.asarray(tau, dtype=float).reshape(uu.shape)


def _tenor_columns(tau) -> list:
    """(tenor as a Python float, its column indices) of each distinct tenor
    of a per-frequency ``tau`` array."""
    taus, inverse = np.unique(tau, return_inverse=True)
    return [(t, np.flatnonzero(inverse == k)) for k, t in enumerate(taus.tolist())]


def _tenor_chunks(groups: list, limit: int) -> list:
    """Runs of whole tenors of ``groups`` (as from :func:`_tenor_columns`),
    each run a list of its groups, of at most ``limit`` columns or one
    larger tenor alone."""
    chunks, run, size = [], [], 0
    for group in groups:
        if run and size + group[1].size > limit:
            chunks.append(run)
            run, size = [], 0
        run.append(group)
        size += group[1].size
    return chunks + [run]


def heston_merton_cf(u, tau, params: HestonMertonParams):
    """CF of the raw log return under the affine Heston-Merton model.

    Integrates the coupled Riccati system backward in time-to-go s:

        B_i' = -(u^2+iu)/2 + (iu rho_i zeta_i - kappa_i) B_i
               + zeta_i^2 B_i^2 / 2 - iu kbar c_i + c_i (J(u, B1) - 1)
        A'   = kappa1 theta1 B1 + kappa2 theta2 B2 - iu kbar c0 + c0 (J - 1)
               + phi_v(tau - s) [-(u^2+iu)/2 - iu kbar c1 + c1 (J - 1)]

    with the jump transform J(u, B1) = e^{iu mu_x - u^2 sigma_x^2/2} /
    (1 - m_v (iu rho_jump + B1)), compensator kbar = E[e^{Zx}] - 1, and
    CF = exp(A + B1 v1_0 + B2 v2_0).  The displacement term keeps the system
    affine: the shifted variance multiplies the same spot-variance and
    intensity loadings as factor 1.  Accepts complex u (the pricer's shifted
    argument), and ``tau`` as a scalar or as one tenor per frequency.  Each
    long line Im u = const of the array is solved at Chebyshev points of its
    range and the exponent interpolated, in one shared solve per order round
    (:func:`_exponent_on_line`).
    """
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    tau = _tau_like(tau, uu)
    out = np.exp(_exponent_on_line(lambda w, t: _heston_merton_exponent(w, t, params), uu, tau))
    return complex(out[0]) if scalar else out


def _heston_merton_exponent(uu, tau, params: HestonMertonParams):
    """log CF = A + B1 v1_0 + B2 v2_0 at every frequency of ``uu`` (1-D
    complex), from one Riccati solve in scaled time (:func:`_dop853`).  B2
    reaches the exponent only through v2_0 and kappa2 theta2, so it is
    solved only when ``factor_count`` is 2 and one of them is nonzero;
    otherwise the solve holds A and B1 alone.

    ``tau`` is a scalar, or an array of one tenor per frequency.  Without a
    displacement the system is autonomous, so each tenor is one group of
    columns of the solve over s/tau in [0, 1], its right-hand side times its
    tau, with its own adaptive step and explosion cap: a frequency's value
    is the same bits alone or with any other tenors, and a
    RiccatiExplosionError reports its tenor's time to go.  With a
    displacement the tenors' segments differ, and they are solved one after
    another; each segment of a tenor is one solve over its own scaled time,
    started from the step that ended the segment before it.  A
    RiccatiExplosionError names each failed tenor, with the error its solve
    alone raises (:func:`_naming`)."""
    p = params
    taus, sizes, order = [tau], None, None
    if np.ndim(tau):
        groups = _tenor_columns(tau)
        if p.shifts is not None:
            out = np.empty(uu.size, dtype=np.complex128)
            for t, cols in groups:
                out[cols] = _heston_merton_exponent(uu[cols], t, p)
            return out
        # each tenor's columns side by side, one group of the solve
        taus, sizes = [t for t, _ in groups], [cols.size for _, cols in groups]
        order = np.concatenate([cols for _, cols in groups])
        uu = uu[order]
    kbar = math.exp(p.mu_x + 0.5 * p.sigma_x**2) / (1.0 - p.m_v * p.rho_jump) - 1.0
    quad = -0.5 * (uu * uu + 1j * uu)
    jump_num = np.exp(1j * uu * p.mu_x - 0.5 * uu * uu * p.sigma_x**2)
    # u-only terms, folded once per call.  The state is A over the stacked
    # (nf, m) B_i rows: B' = (sq B + lin) B + b_const + c J with
    # b_const = quad - iu kbar c_i - c_i, and A' = kt · B + a_const + a_jump J,
    # so every row adds its constant and its jump loading times J
    nf = 2 if p.factor_count == 2 and (p.v2_0 != 0.0 or p.kappa2 * p.theta2 != 0.0) else 1
    iu = 1j * uu
    pole_base = 1.0 - p.m_v * p.rho_jump * iu
    lin = np.stack([iu * p.rho1 * p.zeta1 - p.kappa1, iu * p.rho2 * p.zeta2 - p.kappa2][:nf])
    sq = np.array([[0.5 * p.zeta1**2], [0.5 * p.zeta2**2]][:nf])
    c = np.array([[p.c1], [p.c2]][:nf])
    b_const = quad - iu * kbar * c - c
    kt = np.array([p.kappa1 * p.theta1, p.kappa2 * p.theta2][:nf])
    a_const0 = -iu * kbar * p.c0 - p.c0

    def rhs_at(level: float):
        """The solver's ``rhs_for`` at displacement ``level``."""
        # the shifted variance loads like factor 1: quad - iu kbar c1 - c1 + c1 J
        const = np.empty((1 + nf, uu.size), dtype=np.complex128)
        const[0] = a_const0 + level * b_const[0]
        const[1:] = b_const
        load = np.concatenate([[[p.c0 + level * p.c1]], c])  # each row's loading on J
        if p.m_v == 0.0:  # J = jump_num does not depend on the state
            const += load * jump_num

        def rhs_for(cols):
            # the u-only terms of the columns still solved, and work buffers
            # of their size
            col_const, col_lin, col_num, col_pole = (
                const[:, cols], lin[:, cols], jump_num[cols], pole_base[cols])
            denom, abs_denom = np.empty(col_num.size, dtype=np.complex128), np.empty(col_num.size)
            jump_terms = np.empty((1 + nf, col_num.size), dtype=np.complex128)

            def rhs(y, out, factor):
                b = y[1:]
                np.matmul(kt, b.view(np.float64), out=out[0].view(np.float64))
                out_b = out[1:]
                np.multiply(sq, b, out=out_b)
                out_b += col_lin
                out_b *= b
                out += col_const
                if p.m_v != 0.0:
                    # the jump transform J = jump_num / (1 - m_v(iu rho_jump + B1))
                    np.add(col_pole, np.multiply(y[1], -p.m_v, out=denom), out=denom)
                    if np.abs(denom, out=abs_denom).min() < _POLE_TOL:
                        raise JumpTransformPoleError(
                            "variance-jump transform pole: |1 - m_v(iu rho_jump + B1)| "
                            f"< {_POLE_TOL:g}"
                        )
                    out += np.multiply(load, np.divide(col_num, denom, out=denom), out=jump_terms)
                out *= factor
            return rhs
        return rhs_for

    # a smoothly integrated B is bounded by the forcing scale |quad|*tau;
    # only growth far beyond that marks a genuine moment explosion
    starts = np.cumsum([0] + (sizes or [uu.size])[:-1])
    norm_cap = [_EXPLOSION_NORM * max(1.0, top * t)
                for top, t in zip(np.maximum.reduceat(np.abs(quad), starts).tolist(), taus)]
    y = np.zeros((1 + nf, uu.size), dtype=np.complex128)
    try:
        if sizes is not None:
            y = _dop853(rhs_at(0.0), y, taus, sizes, norm_cap=norm_cap)[0]
        else:
            step, span = 0.01, None  # the scaled step, and the span it is scaled by
            for s_lo, s_hi, level in _shift_segments_time_to_go(p.shifts, tau):
                first = step if span is None else step * span / (s_hi - s_lo)
                span = s_hi - s_lo
                y, (step,) = _dop853(rhs_at(level), y, span, h0=first, t0=s_lo,
                                     norm_cap=norm_cap)
    except RiccatiExplosionError as exc:  # the solve's groups are its tenors
        exc._tenor_errors = {taus[g]: err for g, err in exc._tenor_errors.items()}
        raise

    exponent = y[0] + y[1] * p.v1_0
    if nf == 2:
        exponent = exponent + y[2] * p.v2_0
    if order is None:
        return exponent
    out = np.empty(uu.size, dtype=np.complex128)
    out[order] = exponent
    return out


# ---------------------------------------------------------------------------
# Rough Heston CF (fractional Adams predictor-corrector)
# ---------------------------------------------------------------------------

# Adams steps per history block: each block reads the history once, in one
# product whose (2 B, rows) weight block keeps BLAS in its matrix kernels
_ADAMS_BLOCK = 32
# columns of one Adams solve of several tenors: its F history is (steps + 1)
# rows of them, under the 4 MiB at which numpy asks for huge pages at 256
# steps, so larger sets of tenors are solved in runs of whole tenors
_ADAMS_COLUMNS = 1000
_DIVERGED = "fractional Riccati solver diverged at step {}/{}"


@functools.lru_cache(maxsize=4)
def _adams_weights(alpha: float, n_steps: int):
    """Real weights of every step, shape (n_steps, 2, n_steps + 1), built
    once per (alpha, n_steps) and returned read-only (about 1 MB at 256
    steps, so the cache stays a few MB).

    Step n uses [n, :, :n + 1] over the F history rows j = 0..n: row 0 holds
    the predictor weights b_{n-j}, row 1 the corrector history weights (the
    boundary weight at j = 0, c_{n-j} for j >= 1).
    """
    m = np.arange(n_steps + 1, dtype=float)
    b_w = (m + 1.0) ** alpha - m ** alpha
    c_w = (m + 2.0) ** (alpha + 1.0) + m ** (alpha + 1.0) - 2.0 * (m + 1.0) ** (alpha + 1.0)
    lag = np.subtract.outer(np.arange(n_steps), np.arange(n_steps + 1))  # n - j
    past = lag >= 0
    weights = np.zeros((n_steps, 2, n_steps + 1))
    weights[:, 0][past] = b_w[lag[past]]
    weights[:, 1][past] = c_w[lag[past]]
    n = m[:-1]
    weights[:, 1, 0] = n ** (alpha + 1.0) - (n - alpha) * (n + 1.0) ** alpha
    weights.flags.writeable = False
    return weights


def _xi_row_weights(params: RoughHestonParams, tau: float, n_steps: int):
    """Real row weights omega with omega · F = ∫₀^τ F(u, psi(s)) xi0(tau - s) ds.

    The cumulative trapezoid of F on the solver grid, linearly interpolated
    at the xi segment boundaries (F is continuous; xi0 is the
    piecewise-constant factor), is linear in the rows of F; omega collects
    its row weights over the segments.
    """
    h = tau / n_steps

    def cum(j: int):
        # trapezoid weights of ∫₀^{jh} F ds
        row = np.zeros(n_steps + 1)
        row[: j + 1] = h
        row[0] -= 0.5 * h
        row[j] -= 0.5 * h
        return row

    def cum_at(s: float):
        x = min(max(s / h, 0.0), float(n_steps))
        j = min(int(x), n_steps - 1)
        frac = x - j
        return cum(j) + frac * (cum(j + 1) - cum(j))

    # xi segments on [0, tau] in forward time t, then mapped to s = tau - t
    bounds = [t for t in params.xi_tenors if t < tau] + [tau]
    levels = list(params.xi_levels[: len(bounds)])
    if len(levels) < len(bounds):
        levels += [params.xi_levels[-1]] * (len(bounds) - len(levels))
    omega = np.zeros(n_steps + 1)
    t_lo = 0.0
    for t_hi, lev in zip(bounds, levels):
        omega += lev * (cum_at(tau - t_lo) - cum_at(tau - t_hi))
        t_lo = t_hi
    return omega


def _fractional_adams(outer, linear, quad_coef: float, alpha: float, h, n_steps: int):
    """Solve D^alpha psi = P + L psi + Q psi^2, psi(0) = 0, at every u at once.

    P=outer and L=linear are 1-D arrays over the frequencies, Q=quad_coef a
    scalar; the solve takes ``n_steps`` steps of size ``h``, a scalar or one
    step per frequency: the weights do not depend on it, only the scales
    h^alpha of each column's sums.  Returns ``(f_hist, diverged)``: the F
    values f_j = F(u, psi(s_j)) on the uniform grid s_j = j h, shape
    (n_steps + 1, frequencies), which is all the CF integral needs, and
    None, or, where psi turned non-finite, each column's first non-finite
    step (0 where psi is still finite): the solve then stops at the end of
    the first block in which any column diverged, and the history is
    incomplete.

    The history sums are blocked in time (Hairer, Lubich & Schlichte 1985):
    at the start of each block of ``_ADAMS_BLOCK`` steps one product of the
    block's cached real weight rows (:func:`_adams_weights`) with the float
    view of the history rows known so far gives every step of the block its
    predictor and corrector sums over them, so the history is read once per
    block, not once per step.  Each step then adds the rows written inside
    its block, and makes two in-place evaluations of F = P + psi (L + Q psi):
    at the predictor, then at the corrected psi, which goes straight into
    the next history row.  The block's psi rows are checked for finiteness
    once at its end; each column's first non-finite row names its step.
    """
    weights = _adams_weights(alpha, n_steps)
    pred_scale, corr_scale = _per_tau(
        h, lambda x: (x**alpha / gamma(alpha + 1.0), x**alpha / gamma(alpha + 2.0)))
    m = outer.shape[0]
    f_hist = np.empty((n_steps + 1, m), dtype=np.complex128)
    f_hist[0] = outer  # psi(0) = 0
    f_flat = f_hist.view(np.float64)
    psi_rows = np.empty((min(_ADAMS_BLOCK, n_steps), m), dtype=np.complex128)
    sums_buf = np.empty((2 * min(_ADAMS_BLOCK, n_steps), 2 * m))

    def f_of(psi, out):
        """F(u, psi) = P + psi (L + Q psi), written into ``out``."""
        np.multiply(psi, quad_coef, out=out)
        out += linear
        out *= psi
        out += outer

    # overflow in the intermediate arithmetic is caught by the finiteness
    # guard below and reported as divergence; silence the raw numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _ADAMS_BLOCK):
            stop = min(start + _ADAMS_BLOCK, n_steps)
            # rows 0..start of every step's (predictor, corrector) weights,
            # (steps, 2, start + 1) merged to one (2 steps, start + 1) matrix
            block = weights[start:stop, :, : start + 1].reshape(-1, start + 1)
            sums = np.matmul(block, f_flat[: start + 1], out=sums_buf[: block.shape[0]])
            sums = sums.view(np.complex128).reshape(stop - start, 2, m)
            for n in range(start, stop):
                step_sums, psi = sums[n - start], psi_rows[n - start]
                if n > start:  # the rows written inside the block
                    step_sums += (weights[n, :, start + 1: n + 1]
                                  @ f_flat[start + 1: n + 1]).view(np.complex128)
                step_sums[0] *= pred_scale  # the predictor psi
                f_of(step_sums[0], psi)
                psi += step_sums[1]
                psi *= corr_scale
                f_of(psi, f_hist[n + 1])
            bad = ~np.isfinite(psi_rows[: stop - start])
            if bad.any():
                return f_hist, np.where(bad.any(axis=0), start + 1 + np.argmax(bad, axis=0), 0)
    return f_hist, None


def rough_heston_cf(u, tau, params: RoughHestonParams, n_steps: int = 256):
    """CF of the raw log return under rough Heston with forward-variance curve.

    Solves D^alpha psi = -(u^2+iu)/2 + iu rho nu psi + nu^2 psi^2 / 2,
    alpha = hurst + 1/2, and returns exp(∫ F(u, psi(s)) xi0(tau - s) ds),
    times the compensated Merton factor when jumps are configured.  At
    hurst = 0.5 this is classical Heston with zero variance drift.

    ``tau`` is a scalar or one tenor per frequency.  Each long line
    Im u = const of the array is solved at Chebyshev points of its range and
    the exponent interpolated, in one shared solve per order round
    (:func:`_exponent_on_line`).  Raises ``RuntimeError`` with the first
    step at which any solved frequency diverges.
    """
    if n_steps < 8:
        raise ValueError(f"n_steps must be >= 8, got {n_steps}")
    scalar = np.ndim(u) == 0
    uu = np.atleast_1d(np.asarray(u, dtype=np.complex128))
    tau = _tau_like(tau, uu)
    out = np.exp(_exponent_on_line(lambda w, t: _rough_heston_exponent(w, t, params, n_steps),
                                   uu, tau))
    return complex(out[0]) if scalar else out


def _rough_heston_exponent(uu, tau, params: RoughHestonParams, n_steps: int):
    """log CF at every frequency of ``uu`` (1-D complex), from one direct
    Adams solve; the xi integral is one more real-weight product, omega · F
    on the float view of the F history.  With one tenor per frequency each
    column steps by its own tau/n_steps, each tenor's columns side by side,
    and each tenor's omega multiplies its own block of columns; more than
    ``_ADAMS_COLUMNS`` columns are solved in runs of whole tenors
    (:func:`_tenor_chunks`), which keeps each F history small.

    A solve that diverges raises ``RuntimeError`` with the first diverging
    step of its columns, naming each tenor that diverged in the solve's
    last block with the error its solve alone raises (:func:`_naming`)."""
    p = params
    groups = _tenor_columns(tau) if np.ndim(tau) else [(tau, np.arange(uu.size))]
    out = np.empty(uu.size, dtype=np.complex128)
    for chunk in _tenor_chunks(groups, _ADAMS_COLUMNS):
        cols = np.concatenate([c for _, c in chunk])
        w = uu[cols]
        h = tau[cols] / n_steps if np.ndim(tau) else tau / n_steps
        f_hist, diverged = _fractional_adams(-0.5 * (w * w + 1j * w), 1j * w * p.rho * p.nu,
                                             0.5 * p.nu * p.nu, p.hurst + 0.5, h, n_steps)
        bounds = np.cumsum([0] + [c.size for _, c in chunk]).tolist()
        if diverged is not None:
            steps = {}  # the first diverging step of each tenor that diverged
            for (t, _), lo, hi in zip(chunk, bounds, bounds[1:]):
                first = diverged[lo:hi][diverged[lo:hi] > 0]
                if first.size:
                    steps[t] = int(first.min())
            raise _naming(RuntimeError(_DIVERGED.format(min(steps.values()), n_steps)),
                          {t: RuntimeError(_DIVERGED.format(k, n_steps)) for t, k in steps.items()})
        f_flat = f_hist.view(np.float64)
        for (t, c), lo, hi in zip(chunk, bounds, bounds[1:]):
            out[c] = (_xi_row_weights(p, t, n_steps) @ f_flat[:, 2 * lo:2 * hi]).view(np.complex128)
        del f_hist, f_flat  # one F history at a time
    if p.lambda_j > 0.0:
        kbar = math.exp(p.mu_j + 0.5 * p.sigma_j**2) - 1.0
        out += tau * p.lambda_j * (
            np.exp(1j * uu * p.mu_j - 0.5 * uu * uu * p.sigma_j**2) - 1.0 - 1j * uu * kbar
        )
    return out
