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
pair and one adaptive step shared by all frequencies of a call, or the
forward-variance integral omega · F of the fractional Riccati equation
D^alpha psi = F(u, psi), alpha = H + 1/2, solved with the Adams
predictor-corrector.

A solve holds at most a few hundred frequencies, so its cost is the number
of numpy calls per step, not their arithmetic; an eighth-order pair meets
rtol 1e-10 in a few large steps.  The Dormand-Prince stages live in one
(12, rows, m) array; the Butcher weights are real, so each stage state and
both error estimates are one product of a weight block with the stages'
float view.  The right-hand side writes into its stage row, treats B1 and
B2 as one stacked (2, m) pair (B2 only where it reaches the exponent), and
takes every term that depends on u alone from arrays formed once per call:
each row of the state adds one stacked constant block and its loading on
the jump transform, which is folded into the constants when m_v = 0.

The pricer asks, in one call per tenor, for thousands of frequencies on each
of two lines Im u = const, along which the exponent is analytic in Re u.
There the direct solve runs only at 129 Chebyshev points of each line's
range, or at 257, 513, ... where the exponent needs them, and a barycentric
interpolant carries the exponent to the caller's frequencies
(``_exponent_on_line``).  The lines of a call share one solve per order
round, with its short lines and scattered points solved directly in the
same solve.  The pricer's two lines have the same real parts (its plain
leg also carries u = 0), so they share their nodes, and the lines that
converge in one round with the same real parts share one barycentric
kernel, their values side by side.

Both CFs also take one tenor per frequency, which the pricer's u_max probe
uses to put a chunk of every tenor of a surface into one call; a line is
then a set of frequencies with one Im u and one tenor.  The Adams solve
steps each column by its own tau/n_steps: the weights do not depend on the
step, only each column's scale h^alpha, and each tenor's omega multiplies
its own columns.  The affine system without a displacement is autonomous,
so it is solved in scaled time s/tau over [0, 1], each column's right-hand
side times its tau, with one shared step and each tenor's explosion cap; a
tenor's values then move by about 1e-12 relative with the other tenors of
the solve, and a displaced system solves its tenors one after another.
Grid calls stay one per tenor, because the shared affine step would make
a tenor's prices depend on the surface it is priced in.  A rough solve of
the six tenors' first Chebyshev nodes at once (1548 columns, a 6 MB F
history) now takes 17 ms on a 2-core host, against 27 ms for the six
solves one at a time, so a surface-wide rough grid call would pay off; it
would need the pricer to make one grid call per surface.

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
# Dormand-Prince 8(5,3), vectorized over the frequency grid with a shared step
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


def _dop853(f, y0, t0, t1, rtol=1e-10, atol=1e-12, norm_cap=_EXPLOSION_NORM):
    """Integrate y' = f(t, y) from t0 to t1; y complex of any shape.

    ``f(t, y, out)`` writes the derivative into ``out``, a row of the (12,
    ...) stage array.  The weights are real, so each stage state and the
    step's 8th-order result are one product of a row of h·``_DP_A`` with the
    float view of the stages, and both error estimates one product with
    h·``_DP_E``.  Each entry's error is Hairer's e5²/√(e5² + 0.01·e3²) of its
    two estimates scaled by atol + rtol·max(|y|, |y8|); one shared adaptive
    step serves the whole array (error = max over entries).  No step
    exceeds a quarter of the span: solves of nearby arrays take different
    step sequences, and at the cap their results differ by little enough
    that one Chebyshev interpolant fits values from several solves
    (:func:`_exponent_on_line`).  FSAL: an accepted step evaluates
    ``f`` at its result into stage 0 of the next.  Raises
    :class:`RiccatiExplosionError` when the state norm passes ``norm_cap``
    (a scalar, or one cap per column of the last axis; callers scale it with
    the forcing so that smooth high-frequency states are not mistaken for
    blow-up) or on step collapse.
    """
    span = t1 - t0
    t = t0
    y = y0.astype(np.complex128)
    h = span / 100.0
    k = np.empty((12,) + y.shape, dtype=np.complex128)
    k_flat = k.view(np.float64).reshape(12, -1)
    f(t, y, k[0])
    abs_y = np.abs(y)
    while t < t1 - 1e-14 * span:
        h = min(h, 0.25 * span, t1 - t)
        ha = h * _DP_A
        y_flat = y.view(np.float64).reshape(-1)
        for i in range(1, 13):
            yi = ha[i, :i] @ k_flat[:i]
            yi += y_flat
            yi = yi.view(np.complex128).reshape(y.shape)
            if i < 12:
                f(t + h * _DP_C[i], yi, k[i])
        y8, abs_y8 = yi, np.abs(yi)
        scale = np.maximum(abs_y, abs_y8)
        scale *= rtol
        scale += atol
        err_sq = np.abs(((h * _DP_E) @ k_flat).view(np.complex128))
        err_sq /= scale.reshape(-1)
        np.square(err_sq, out=err_sq)
        e5_sq, e3_sq = err_sq
        # e5² / sqrt(e5² + 0.01 e3²); the tiny term turns 0/0 into 0 and
        # leaves every non-finite error non-finite
        denom = np.sqrt(0.01 * e3_sq + e5_sq)
        denom += np.finfo(float).tiny
        err = float(np.max(e5_sq / denom))
        if not math.isfinite(err):
            raise RiccatiExplosionError(
                f"non-finite Riccati state at t={t + h:.6g}", t=t + h
            )
        if err <= 1.0:
            t += h
            y, abs_y = y8, abs_y8
            over = abs_y > norm_cap
            if over.any():
                cap = float(np.broadcast_to(norm_cap, over.shape)[over][0])
                raise RiccatiExplosionError(
                    f"Riccati state norm exceeded {cap:g} at t={t:.6g} "
                    "(moment explosion)", t=t
                )
            f(t, y, k[0])  # FSAL
        h *= min(10.0, max(0.2, 0.9 * err ** -0.125)) if err > 0 else 10.0
        if h < span * 1e-12:
            raise RiccatiExplosionError(
                f"step size collapsed at t={t:.6g} (moment explosion)", t=t
            )
    return y


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


def _chebyshev_tail(vals) -> float:
    """Largest of the last eighth of the Chebyshev coefficients of the
    values at second-kind points, relative to max(1, largest coefficient)."""
    n = vals.size - 1
    coef = np.abs(np.fft.fft(np.concatenate([vals, vals[-2:0:-1]]))[: n + 1]) / n
    coef[[0, n]] *= 0.5
    return float(np.max(coef[-(vals.size // 8):])) / max(1.0, float(np.max(coef)))


def _barycentric(x, nodes, vals):
    """Interpolant through ``vals`` at the second-kind Chebyshev ``nodes``,
    at the real points ``x``, in blocks of ``_CHEB_BLOCK`` points.  ``vals``
    is one value per node, or one column of values per line that shares the
    nodes; the result has one value, or one column, per point.

    Three passes over each (block, order) kernel: the differences x - x_j,
    their reciprocals in place, and one product with the columns w Re f and
    w Im f of every line and w, which gives every numerator and the shared
    denominator of the second barycentric form.  A point on a node makes
    its denominator infinite, and such a point takes the values of its
    nearest node, which are that node's values exactly.
    """
    # barycentric weights of second-kind points: (-1)^j, halved at the ends
    weights = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    weights[[0, -1]] *= 0.5
    table = vals.reshape(nodes.size, -1)
    # columns w Re f and w Im f of each line, then w: one product gives
    # every numerator and the denominator
    cols = np.empty((nodes.size, 2 * table.shape[1] + 1))
    cols[:, :-1] = weights[:, None] * table.view(np.float64)
    cols[:, -1] = weights
    out = np.empty((x.size, table.shape[1]), dtype=np.complex128)
    out_flat = out.view(np.float64)
    for start in range(0, x.size, _CHEB_BLOCK):
        blk = slice(start, start + _CHEB_BLOCK)
        kernel = np.subtract.outer(x[blk], nodes)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.reciprocal(kernel, out=kernel)
            sums = kernel @ cols
            np.divide(sums[:, :-1], sums[:, -1:], out=out_flat[blk])
        on_node = np.flatnonzero(~np.isfinite(sums[:, -1]))
        if on_node.size:
            near = np.argmin(np.abs(np.subtract.outer(x[blk][on_node], nodes)), axis=1)
            out[blk][on_node] = table[near]
    return out.reshape(x.shape + vals.shape[1:])


def _chebyshev_nodes(lo: float, hi: float, order: int):
    """``order`` second-kind Chebyshev points of [lo, hi], from hi down."""
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(order) / (order - 1))
    x[[0, -1]] = hi, lo  # exact ends: the range is the caller's
    return x


def _exponent_on_line(solve, uu, tau):
    """``solve(w, t)``, the CF exponent at the 1-D complex frequencies ``w``
    and tenor ``t``, at the frequencies ``uu``, with each long line
    Im u = const of ``uu`` carried by a Chebyshev interpolant.  ``tau`` is
    one tenor for all of ``uu``, passed to ``solve`` as it is, or an array
    of one tenor per frequency; then ``solve`` gets the tenor of each of its
    frequencies, and a line is a set of frequencies with one Im u and one
    tenor.

    The frequencies are grouped by their exact Im u (and tenor).  The
    exponents are analytic in Re u along a line, so their barycentric
    interpolant at
    second-kind Chebyshev points of the line's [min Re u, max Re u]
    recovers them to rounding (Berrut & Trefethen 2004).  Both ends of a
    range are nodes, so no frequency outside the caller's range is solved,
    a frequency at an end keeps its solved value, and the shared adaptive
    step of the affine solve sees the same highest frequency as a direct
    solve of ``uu``.  Lines of at most 2·``_CHEB_ORDER`` − 1 points and
    scattered points are solved directly.

    Every order round is one ``solve`` call: the first holds the direct
    points and ``_CHEB_ORDER`` nodes of every long line; each later one
    doubles the order of the lines whose coefficient tail is still above
    ``_CHEB_TAIL_TOL``, solving only their new points, or solves a line at
    its own points where the new order would reach its size.  The lines
    that converge in a round share its order, so those with the same real
    parts (the pricer's two legs) share their nodes, and one
    :func:`_barycentric` kernel carries all of them, one value column each.
    """
    per_point = np.ndim(tau) != 0
    key = np.stack([uu.imag, tau]) if per_point else uu.imag
    _, line_of, counts = np.unique(key, return_inverse=True, return_counts=True,
                                   axis=1 if per_point else None)
    line_of = line_of.reshape(-1)
    lines = []  # (indices into uu, Im u, lo, hi) of each interpolated line
    todo = np.ones(uu.size, dtype=bool)  # frequencies the next round solves directly
    for k in np.flatnonzero(counts >= 2 * _CHEB_ORDER):
        idx = np.flatnonzero(line_of == k)
        lo, hi = float(np.min(uu.real[idx])), float(np.max(uu.real[idx]))
        if lo < hi:
            lines.append((idx, uu.imag[idx[0]], lo, hi))
            todo[idx] = False
    out = np.empty(uu.size, dtype=np.complex128)
    order, known = _CHEB_ORDER, [None] * len(lines)  # known: values at each line's nodes
    while todo.any() or lines:
        direct = np.flatnonzero(todo)
        nodes = [_chebyshev_nodes(lo, hi, order) for _, _, lo, hi in lines]
        # past the first round the previous order's nodes are every other node
        new = [x if old is None else x[1::2] for x, old in zip(nodes, known)]
        points = np.concatenate([uu[direct]] + [x + 1j * line[1] for x, line in zip(new, lines)])
        if per_point:
            vals = solve(points, np.concatenate(
                [tau[direct]] + [np.full(x.size, tau[line[0][0]]) for x, line in zip(new, lines)]))
        else:
            vals = solve(points, tau)
        out[direct] = vals[: direct.size]
        pieces = np.split(vals[direct.size:], np.cumsum([x.size for x in new], dtype=int)[:-1])
        order, still, done = 2 * order - 1, [], []
        todo[:] = False
        for line, x, piece, old in zip(lines, nodes, pieces, known):
            if old is not None:
                merged = np.empty(x.size, dtype=np.complex128)
                merged[::2], merged[1::2] = old, piece
                piece = merged
            if _chebyshev_tail(piece) <= _CHEB_TAIL_TOL:
                done.append((line[0], x, piece))
            elif order >= line[0].size:  # the new order would reach the line's size
                todo[line[0]] = True
            else:
                still.append((line, piece))
        # the converged lines of a round share their order, so lines with
        # equal real parts share their nodes and one barycentric kernel
        while done:
            idx, x, _ = done[0]
            same = [np.array_equal(uu.real[d[0]], uu.real[idx]) for d in done]
            group = [d for d, s in zip(done, same) if s]
            values = _barycentric(uu.real[idx], x, np.stack([d[2] for d in group], axis=1))
            for k, d in enumerate(group):
                out[d[0]] = values[:, k]
            done = [d for d, s in zip(done, same) if not s]
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
    complex), from one shared-step Riccati solve.  B2 reaches the exponent
    only through v2_0 and kappa2 theta2, so it is solved only when
    ``factor_count`` is 2 and one of them is nonzero; otherwise the solve
    holds A and B1 alone.

    ``tau`` is a scalar, or an array of one tenor per frequency.  Without a
    displacement the system is autonomous, so an array is solved in scaled
    time s/tau over [0, 1], each column's right-hand side times its own tau,
    with each tenor's explosion cap (a RiccatiExplosionError then reports t
    in that scaled time); the shared step serves every tenor, and a
    column's value moves by about 1e-12 relative with the other tenors of
    the solve.  With a displacement the tenors' segments differ, and they
    are solved one after another."""
    p = params
    if np.ndim(tau) and p.shifts is not None:
        out = np.empty(uu.size, dtype=np.complex128)
        for t, cols in _tenor_columns(tau):
            out[cols] = _heston_merton_exponent(uu[cols], t, p)
        return out
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
    # the right-hand side's work buffers
    denom, abs_denom = np.empty(uu.size, dtype=np.complex128), np.empty(uu.size)
    jump_terms = np.empty((1 + nf, uu.size), dtype=np.complex128)

    def transform(b1):
        np.add(pole_base, np.multiply(b1, -p.m_v, out=denom), out=denom)
        if np.abs(denom, out=abs_denom).min() < _POLE_TOL:
            raise JumpTransformPoleError(
                "variance-jump transform pole: |1 - m_v(iu rho_jump + B1)| "
                f"< {_POLE_TOL:g}"
            )
        return np.divide(jump_num, denom, out=denom)

    def make_rhs(phi_level: float):
        # the shifted variance loads like factor 1: quad - iu kbar c1 - c1 + c1 J
        const = np.empty((1 + nf, uu.size), dtype=np.complex128)
        const[0] = a_const0 + phi_level * b_const[0]
        const[1:] = b_const
        load = np.concatenate([[[p.c0 + phi_level * p.c1]], c])  # each row's loading on J
        if p.m_v == 0.0:  # J = jump_num does not depend on the state
            const += load * jump_num

        def rhs(s, y, out):
            b = y[1:]
            np.matmul(kt, b.view(np.float64), out=out[0].view(np.float64))
            out_b = out[1:]
            np.multiply(sq, b, out=out_b)
            out_b += lin
            out_b *= b
            out += const
            if p.m_v != 0.0:
                out += np.multiply(load, transform(y[1]), out=jump_terms)
        return rhs

    # a smoothly integrated B is bounded by the forcing scale |quad|*tau;
    # only growth far beyond that marks a genuine moment explosion
    y = np.zeros((1 + nf, uu.size), dtype=np.complex128)
    if np.ndim(tau):
        norm_cap = np.empty(uu.size)
        for t, cols in _tenor_columns(tau):
            norm_cap[cols] = _EXPLOSION_NORM * max(1.0, float(np.max(np.abs(quad[cols]))) * t)
        rhs = make_rhs(0.0)

        def scaled_rhs(s, state, out):
            rhs(s, state, out)
            out *= tau

        y = _dop853(scaled_rhs, y, 0.0, 1.0, norm_cap=norm_cap)
    else:
        norm_cap = _EXPLOSION_NORM * max(1.0, float(np.max(np.abs(quad))) * tau)
        for s_lo, s_hi, level in _shift_segments_time_to_go(p.shifts, tau):
            y = _dop853(make_rhs(level), y, s_lo, s_hi, norm_cap=norm_cap)

    exponent = y[0] + y[1] * p.v1_0
    return exponent + y[2] * p.v2_0 if nf == 2 else exponent


# ---------------------------------------------------------------------------
# Rough Heston CF (fractional Adams predictor-corrector)
# ---------------------------------------------------------------------------

# Adams steps per history block: each block reads the history once, in one
# product whose (2 B, rows) weight block keeps BLAS in its matrix kernels
_ADAMS_BLOCK = 32


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
    h^alpha of each column's sums.  Returns the F
    values f_j = F(u, psi(s_j)) on the uniform grid s_j = j h, shape
    (n_steps + 1, frequencies), which is all the CF integral needs.  Raises
    ``RuntimeError`` with the first step at which psi turns non-finite at
    any frequency.

    The history sums are blocked in time (Hairer, Lubich & Schlichte 1985):
    at the start of each block of ``_ADAMS_BLOCK`` steps one product of the
    block's cached real weight rows (:func:`_adams_weights`) with the float
    view of the history rows known so far gives every step of the block its
    predictor and corrector sums over them, so the history is read once per
    block, not once per step.  Each step then adds the rows written inside
    its block, and makes two in-place evaluations of F = P + psi (L + Q psi):
    at the predictor, then at the corrected psi, which goes straight into
    the next history row.  The block's psi rows are checked for finiteness
    once at its end; the first non-finite row names the step.
    """
    weights = _adams_weights(alpha, n_steps)
    pred_scale, corr_scale = _per_tau(
        h, lambda x: (x**alpha / gamma(alpha + 1.0), x**alpha / gamma(alpha + 2.0)))
    m = outer.shape[0]
    f_hist = np.empty((n_steps + 1, m), dtype=np.complex128)
    f_hist[0] = outer  # psi(0) = 0
    f_flat = f_hist.view(np.float64)
    psi_rows = np.empty((min(_ADAMS_BLOCK, n_steps), m), dtype=np.complex128)

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
            sums = (block @ f_flat[: start + 1]).view(np.complex128).reshape(stop - start, 2, m)
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
            finite = np.isfinite(psi_rows[: stop - start]).all(axis=1)
            if not finite.all():
                raise RuntimeError(
                    f"fractional Riccati solver diverged at step "
                    f"{start + int(np.argmin(finite)) + 1}/{n_steps}"
                )
    return f_hist


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
    column steps by its own tau/n_steps, and each tenor's omega multiplies
    its own columns."""
    p = params
    f_hist = _fractional_adams(-0.5 * (uu * uu + 1j * uu), 1j * uu * p.rho * p.nu,
                               0.5 * p.nu * p.nu, p.hurst + 0.5, tau / n_steps, n_steps)
    if np.ndim(tau):
        exponent = np.empty(uu.size, dtype=np.complex128)
        for t, cols in _tenor_columns(tau):
            columns = np.ascontiguousarray(f_hist[:, cols]).view(np.float64)
            exponent[cols] = (_xi_row_weights(p, t, n_steps) @ columns).view(np.complex128)
    else:
        exponent = (_xi_row_weights(p, tau, n_steps) @ f_hist.view(np.float64)).view(np.complex128)
    if p.lambda_j > 0.0:
        kbar = math.exp(p.mu_j + 0.5 * p.sigma_j**2) - 1.0
        exponent = exponent + tau * p.lambda_j * (
            np.exp(1j * uu * p.mu_j - 0.5 * uu * uu * p.sigma_j**2) - 1.0 - 1j * uu * kbar
        )
    return exponent
