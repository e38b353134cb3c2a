"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop driven by one caller in one process.  Its
inputs come only from the workload seed; the program sees the generated
inputs and nothing else.  A workload provides

* ``setup()``: fixture generation and warm-up (timed as ``setup_s``);
* ``prepare(i)``: the inputs of operation ``i`` (not timed);
* ``op(inputs, tracer)``: one operation, timed end to end; ``tracer`` is
  ``None`` on untraced operations, which then run the plain program;
* ``check(inputs, outputs)``: compares the outputs with independent
  references and returns the operation's counts;
* ``layers(tracer, inputs, outputs, counts)``: per-layer values of one
  traced operation.

Counts are ``attempted``/``failed`` units (contracts on the surface
workloads, cycles on ``recalibrate``, simulator results on ``mc_oracle``)
and ``core_failed``, the failures outside the known failure classes (see
NOTES.md); any of those makes the run incorrect and is the result's
``failed``.  All failures give ``fail_frac`` and ``ok_frac``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
from contextlib import nullcontext
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from ustvol import calibration, cli, fourier_pricer, market_data, registry
from ustvol.bspp_bootstrap import bspp_atm_vol
from ustvol.cf_edgeworth import Displacement, EdgeworthParams
from ustvol.diagnostics import BENCH_TENORS
from ustvol.fourier_pricer import QuadratureConfig, bs_price, price_surface
from ustvol.mc_oracle import SimConfig, empirical_cf, simulate_benchmark, simulate_edgeworth_submodel

from tracing import CF_SPAN, PROBE_SPAN, Tracer, TracedModel, replaced, timed_seams, traced_spec

IV_SPAN = "fourier_pricer.implied_vol"
SURFACE_SPAN = "fourier_pricer.price_surface"

# gate 8's synthetic truth; parameters are drawn from a box around it
CAL_TRUTH = dict(sigma0=0.2, beta_tilde0=0.6, rho0=-0.6, eta0=0.2,
                 alpha_prime0=0.1, lambda0=30.0, mu_J=-0.01, sigma_J=0.02)
CAL_SHIFTS = (0.01, 0.02, -0.005, 0.005, 0.0)
BOX_REL = 0.2
BOX_SHIFT = 0.005

# contracts with |z| <= CORE_Z must price, invert and pass every check;
# beyond it the pricer's known wing defect may fail them (counted, reported)
CORE_Z = 3.5
EXPANSION_MODELS = ("edgeworth_pp",)
FLAT_SMILE_TOL = 1e-4
PARITY_TOL = 1e-10  # x spot, as gate 10
SHAPE_TOL = 1e-12  # x spot: gate 10's 1e-10 at spot 100
MARTINGALE_SE = 3.0


@dataclasses.dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    tenors: tuple = BENCH_TENORS
    ladder: tuple = tuple(np.linspace(-8.0, 5.0, 27))
    expansion_nodes: int = 2048
    ode_nodes: int = 2000
    recal_z: tuple = tuple(np.linspace(-4.0, 3.0, 20))
    recal_nodes: int = 2048
    recal_budget: int = 100
    mc_paths: int = 5_000
    mc_steps: int = 200


FULL = Size()
TINY = Size(tenors=BENCH_TENORS[:2], ladder=tuple(np.linspace(-4.0, 4.0, 7)),
            expansion_nodes=256, ode_nodes=200, recal_z=tuple(np.linspace(-3.0, 2.0, 6)),
            recal_nodes=256, mc_paths=500, mc_steps=20)


def _counts(**kw) -> dict:
    base = {"attempted": 0, "failed": 0, "core_failed": 0}
    base.update(kw)
    return base


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer else nullcontext()


def _market(rng) -> tuple:
    """Spot and rate of a run: the ladders are in standardized moneyness, so
    neither changes the work, only the numbers it is done on."""
    return float(math.exp(rng.uniform(math.log(50.0), math.log(200.0)))), float(rng.uniform(0.0, 0.05))


def draw_edgeworth_pp(rng, tenors) -> tuple:
    vals = {k: v * rng.uniform(1.0 - BOX_REL, 1.0 + BOX_REL) for k, v in CAL_TRUTH.items()}
    return EdgeworthParams(**vals), _draw_shifts(rng, tenors)


def draw_bs_pp(rng, tenors) -> tuple:
    return float(rng.uniform(0.15, 0.30)), _draw_shifts(rng, tenors)


def _draw_shifts(rng, tenors) -> Displacement:
    shifts = [a + rng.uniform(-BOX_SHIFT, BOX_SHIFT) for a in CAL_SHIFTS[: len(tenors) - 1]]
    return Displacement(tenors=tenors, shifts=tuple(shifts))


def ladder_grid(sigma0: float, tenors, zs, spot: float) -> list:
    """(strike, tenor) pairs at standardized moneyness z = log(K/S)/(sigma0 sqrt(tau))."""
    return [(spot * math.exp(z * sigma0 * math.sqrt(t)), t) for t in tenors for z in zs]


def is_floored(rec, spot: float, rate: float) -> bool:
    if rec["call"] is None:
        return False
    intrinsic = max(spot - rec["strike"] * math.exp(-rate * rec["tau"]), 0.0)
    return rec["call"] == intrinsic or rec["call"] == spot


def pricer_layers(tracer: Tracer, counts: dict, model_ids) -> dict:
    """Per-layer values of the pricer and the models' CFs in one operation."""
    out = {
        "fourier_pricer.surface_ms": 1e3 * tracer.total(SURFACE_SPAN),
        "fourier_pricer.quad_ms": 1e3 * tracer.self_time(SURFACE_SPAN),
        "fourier_pricer.iv_ms": 1e3 * tracer.total(IV_SPAN),
        "fourier_pricer.iv_calls": len(tracer.named(IV_SPAN)),
        "fourier_pricer.probe_ms": 1e3 * tracer.total(PROBE_SPAN),
        "fourier_pricer.cf_points": tracer.counts.get("cf_points", 0),
        "fourier_pricer.floored": counts["floored"],
        "fourier_pricer.no_iv": counts["no_iv"],
        "cf_edgeworth.cf_calls": len(tracer.named(CF_SPAN["edgeworth_pp"])),
    }
    for mid in model_ids:
        out[CF_SPAN[mid] + "_ms"] = 1e3 * tracer.total(CF_SPAN[mid])
    return out


# ---------------------------------------------------------------------------
# surface pricing: expansion_surface and ode_surface
# ---------------------------------------------------------------------------

class SurfaceWorkload:
    """One operation prices one whole surface per model of the workload."""

    models: tuple = ()
    nodes_field: str = ""

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.quad = QuadratureConfig(node_count=getattr(size, self.nodes_field))

    def setup(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.spot, self.rate = _market(self.rng)
        self.specs = {mid: registry.get_model(mid) for mid in self.models}
        for mid, theta, grid, _ in self.prepare(-1):
            price_surface(grid[:3], self.specs[mid], theta, self.spot, self.rate, self.quad)

    def params(self, mid: str):
        raise NotImplementedError

    def prepare(self, i: int) -> list:
        out = []
        for mid in self.models:
            theta = self.params(mid)
            sigma0 = self.specs[mid].spot_vol(theta)
            zs = np.tile(self.size.ladder, len(self.size.tenors))
            out.append((mid, theta, ladder_grid(sigma0, self.size.tenors, self.size.ladder, self.spot), zs))
        return out

    def op(self, inputs, tracer: Tracer | None):
        outputs = []
        self.last_surface_ms = {}
        seams = timed_seams(tracer, (fourier_pricer, "implied_vol", IV_SPAN)) if tracer else []
        for mid, theta, grid, _ in inputs:
            spec = self.specs[mid]
            model = TracedModel(spec, tracer) if tracer else spec
            t0 = time.perf_counter()
            with replaced(seams), _span(tracer, SURFACE_SPAN):
                rows = price_surface(grid, model, theta, self.spot, self.rate, self.quad)
            self.last_surface_ms[mid] = 1e3 * (time.perf_counter() - t0)
            outputs.append(rows)
        return outputs

    def reference_iv(self, mid: str, theta, tau: float):
        return None

    def check(self, inputs, outputs) -> dict:
        c = _counts(floored=0, no_iv=0)
        for (mid, theta, grid, zs), rows in zip(inputs, outputs):
            hard, convex = self._contract_failures(mid, theta, rows)
            bad = hard | convex
            # the expansion's density can dip below zero: its butterfly
            # violations are a model property, counted but not a defect
            known = convex & ~hard if mid in EXPANSION_MODELS else np.zeros_like(bad)
            c["attempted"] += len(rows)
            c["failed"] += int(bad.sum())
            c["core_failed"] += int((bad & ~known & (np.abs(zs) <= CORE_Z)).sum())
            c["floored"] += sum(is_floored(r, self.spot, self.rate) for r in rows)
            c["no_iv"] += sum(r["iv"] is None for r in rows)
        return c

    def _contract_failures(self, mid: str, theta, rows) -> tuple:
        """Per contract: (no price, no IV, off the reference smile, parity or
        monotonicity violation; convexity violation)."""
        spot, rate = self.spot, self.rate
        hard = np.zeros(len(rows), dtype=bool)
        convex = np.zeros(len(rows), dtype=bool)
        for j, r in enumerate(rows):
            if r["call"] is None or r["iv"] is None:
                hard[j] = True
                continue
            ref = self.reference_iv(mid, theta, r["tau"])
            if ref is not None and abs(r["iv"] - ref) > FLAT_SMILE_TOL:
                hard[j] = True
            # the IV was inverted on the OTM side; the call it implies must
            # equal the priced call (put/call parity through the IV)
            if abs(bs_price(spot, r["strike"], r["tau"], rate, r["iv"], True) - r["call"]) > PARITY_TOL * spot:
                hard[j] = True
        n_z = len(self.size.ladder)
        tol = SHAPE_TOL * spot
        for lo in range(0, len(rows), n_z):
            sl = [j for j in range(lo, lo + n_z) if rows[j]["call"] is not None]
            k = np.array([rows[j]["strike"] for j in sl])
            c = np.array([rows[j]["call"] for j in sl])
            for a in range(1, len(sl)):
                if c[a] - c[a - 1] > tol:
                    hard[sl[a]] = True
            for a in range(1, len(sl) - 1):
                w = (k[a + 1] - k[a]) / (k[a + 1] - k[a - 1])
                if c[a] > w * c[a - 1] + (1.0 - w) * c[a + 1] + tol:
                    convex[sl[a]] = True
        return hard, convex

    def layers(self, tracer: Tracer, inputs, outputs, counts) -> dict:
        return pricer_layers(tracer, counts, self.models)


class ExpansionSurface(SurfaceWorkload):
    models = ("edgeworth_pp", "bs_pp")
    nodes_field = "expansion_nodes"

    def params(self, mid: str):
        draw = draw_edgeworth_pp if mid == "edgeworth_pp" else draw_bs_pp
        return draw(self.rng, self.size.tenors)

    def reference_iv(self, mid: str, theta, tau: float):
        # the BS++ law is lognormal: its smile is flat at the ATM vol
        return bspp_atm_vol(tau, theta[0], theta[1]) if mid == "bs_pp" else None


class OdeSurface(SurfaceWorkload):
    models = ("heston_merton_2f", "rough_heston_pp")
    nodes_field = "ode_nodes"
    # the CF solvers stream their history: so does the reference kernel
    stream_memory = True

    def params(self, mid: str):
        spec = self.specs[mid]
        return spec.unpack(spec.default_start(self.size.tenors), tenors=self.size.tenors)


# ---------------------------------------------------------------------------
# recalibrate: quotes CSV -> `ustvol calibrate` -> price the quoted pairs
# ---------------------------------------------------------------------------

_SNAPSHOT = datetime(2026, 3, 2, 14, 30, 0)
_SECONDS_PER_YEAR = 365.0 * 86400.0
_HALF_SPREAD = 0.02  # relative to the model mid
RECAL_MODEL = "edgeworth_pp"


class Recalibrate:
    """One operation is one ingest -> calibrate -> price cycle through the
    command-line entry point, run in-process."""

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.quad = QuadratureConfig(node_count=size.recal_nodes)
        self.csv = workdir / "quotes.csv"
        self.out = workdir / "fit.json"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.spot, self.rate = _market(rng)
        self.spec = registry.get_model(RECAL_MODEL)
        self.truth = draw_edgeworth_pp(rng, self.size.tenors)
        self.csv.write_text(self._quotes_csv())
        self.ingest()
        calibration.rmse(self.surface, self.spec, self.truth, self.rate, self.quad)

    def ingest(self) -> None:
        """The surface the command line builds from the CSV, for the checks,
        and the distinct (strike, tenor) pairs it quotes."""
        spot, quotes = market_data.read_quotes_csv(self.csv)
        cfg = market_data.IngestConfig(max_tenors=len(self.size.tenors), rate=self.rate)
        self.surface = market_data.filter_surface(quotes, spot, cfg)
        pairs = [(q.strike, sl.tau) for sl in self.surface.slices for q in sl.quotes]
        self.pairs = list(dict.fromkeys(pairs))

    def _quotes_csv(self) -> str:
        """One snapshot of model quotes plus rows each filter stage drops."""
        tenors = self.size.tenors
        sigma0 = self.truth[0].sigma0
        spot, rate = self.spot, self.rate
        cap_tenor = tenors[-1] + 3.0 / 365.0  # beyond the tenor cap
        lone_tenor = 0.5 * (tenors[0] + tenors[1])  # calls only: no forward pair
        grid = ladder_grid(sigma0, tenors + (cap_tenor,), self.size.recal_z, spot)
        grid += ladder_grid(sigma0, (lone_tenor,), self.size.recal_z[::4], spot)
        wings = ladder_grid(sigma0, tenors, (-20.0, 7.0), spot)  # outside the window
        rows = price_surface(grid, self.spec, self.truth, spot, rate, self.quad)
        lines = ["timestamp,expiry_datetime,strike,cp_flag,bid,ask,underlying"]

        def emit(k, tau, flag, bid, ask):
            expiry = _SNAPSHOT + timedelta(seconds=round(tau * _SECONDS_PER_YEAR))
            lines.append(",".join([_SNAPSHOT.isoformat(), expiry.isoformat(), repr(float(k)), flag,
                                   repr(float(bid)), repr(float(ask)), repr(spot)]))

        for n, r in enumerate(rows):
            k, tau = r["strike"], r["tau"]
            put = r["call"] - spot + k * math.exp(-rate * tau)
            sides = (("C", r["call"]),) if tau == lone_tenor else (("C", r["call"]), ("P", put))
            for flag, mid in sides:
                bid = 0.0 if (n < 3 and flag == "C") else mid * (1.0 - _HALF_SPREAD)
                emit(k, tau, flag, bid, mid * (1.0 + _HALF_SPREAD))
        tick = 1e-6 * spot
        for k, tau in wings:
            emit(k, tau, "C" if k > spot else "P", tick, 2.0 * tick)
        return "\n".join(lines) + "\n"

    def argv(self) -> list:
        return ["calibrate", "--model", RECAL_MODEL, "--surface", str(self.csv),
                "--out", str(self.out), "--budget", str(self.size.recal_budget),
                "--restarts", "0", "--fourier-nodes", str(self.size.recal_nodes),
                "--rate", repr(self.rate), "--max-tenors", str(len(self.size.tenors)),
                "--seed", "0"]

    def prepare(self, i: int):
        return None

    def op(self, inputs, tracer: Tracer | None):
        seams, model = [], self.spec
        if tracer is not None:
            spec_t = traced_spec(self.spec, tracer)
            seams = timed_seams(
                tracer,
                (fourier_pricer, "implied_vol", IV_SPAN),
                (calibration, "implied_vol", IV_SPAN),
                (market_data, "read_quotes_csv", "market_data.read_quotes_csv"),
                (market_data, "filter_surface", "market_data.filter_surface"),
                (calibration, "calibrate_shift_from_atm", "bspp_bootstrap.calibrate_shift_from_atm"),
                (calibration, "calibrate", "calibration.calibrate"),
            ) + [(calibration, "get_model", lambda mid: spec_t if mid == RECAL_MODEL else registry.get_model(mid))]
            model = TracedModel(self.spec, tracer)
        with replaced(seams):
            with _span(tracer, "cli.main"):
                code = cli.main(self.argv())
            if code != 0:
                return code, None, None
            fit = json.loads(self.out.read_text())
            theta = self.spec.unpack(fit["param_vector"], tenors=self.surface.tenors)
            with _span(tracer, SURFACE_SPAN):
                rows = price_surface(self.pairs, model, theta, self.spot, self.rate, self.quad)
        return code, fit, rows

    def check(self, inputs, outputs) -> dict:
        code, fit, rows = outputs
        ok = code == 0
        if ok:
            vec = np.asarray(fit["param_vector"], dtype=float)
            # the fitted JSON round-trips through the registry ...
            back = self.spec.pack(self.spec.from_json_dict(fit["params"]))
            ok = np.array_equal(back, vec)
            # ... and the RMSE at the fitted vector reproduces the reported one
            again = calibration.rmse(self.surface, RECAL_MODEL, vec, self.rate, self.quad)
            ok = ok and abs(again - fit["rmse_vol_points"]) <= 1e-9 * max(1.0, again)
            ok = ok and all(r["iv"] is not None for r in rows)
        return _counts(attempted=1, failed=int(not ok), core_failed=int(not ok),
                       floored=sum(is_floored(r, self.spot, self.rate) for r in rows or ()),
                       no_iv=sum(r["iv"] is None for r in rows or ()),
                       rmse_vp=fit["rmse_vol_points"] if fit else float("nan"),
                       iterations=fit["iterations"] if fit else 0)

    def layers(self, tracer: Tracer, inputs, outputs, counts) -> dict:
        n_tenors = len(self.surface.tenors)
        cal = tracer.named("calibration.calibrate")[0]
        inside = [s for s in tracer.spans if cal.start <= s.start and s.end <= cal.end]
        marks = [s.start for s in inside if s.name == "registry.unpack"] + [cal.end]
        grid_cf = CF_SPAN[RECAL_MODEL]
        evals, penalized = len(marks) - 2, 0
        for a, b in zip(marks[:-2], marks[1:-1]):
            window = [s for s in inside if a <= s.start < b]
            raised = any(s.error for s in window if s.name != IV_SPAN)
            sweeps = sum(s.name == grid_cf for s in window)
            penalized += raised or sweeps < 2 * n_tenors
        out = pricer_layers(tracer, counts, (RECAL_MODEL,))
        out.update({
            "calibration.evals": evals,
            "calibration.eval_ms": 1e3 * statistics.median(np.diff(marks[:-1])) if evals else 0.0,
            "calibration.surface_sweeps": sum(s.name == grid_cf for s in inside) / (2 * n_tenors),
            "calibration.report_ms": 1e3 * (cal.end - marks[-2]),
            "calibration.iv_clamps": sum(s.name == IV_SPAN and s.error is not None for s in inside),
            "calibration.penalized": penalized,
            "calibration.rmse_vp": counts["rmse_vp"],
            "market_data.read_ms": 1e3 * tracer.total("market_data.read_quotes_csv"),
            "market_data.filter_ms": 1e3 * tracer.total("market_data.filter_surface"),
            "market_data.quotes_kept": sum(len(s.quotes) for s in self.surface.slices),
            "bspp_bootstrap.start_ms": 1e3 * tracer.total("bspp_bootstrap.calibrate_shift_from_atm"),
            "cli.overhead_ms": 1e3 * tracer.self_time("cli.main"),
            "registry.unpack_ms": 1e3 * tracer.total("registry.unpack"),
        })
        out.update({f"market_data.drops.{k.replace(' ', '_')}": v
                    for k, v in self.surface.drop_counts.items()})
        return out


# ---------------------------------------------------------------------------
# mc_oracle: one sweep over every simulator
# ---------------------------------------------------------------------------

MC_TAU = 2.0 / 365.0
# gate 4's exact-sampler parameters and frequency grid
GATE4_PARAMS = dict(sigma0=0.2, beta_tilde0=0.5, rho0=-1.0)
GATE4_U = np.linspace(-5.0, 5.0, 41)
GATE4_U = GATE4_U[np.abs(GATE4_U) > 1e-12]
EXACT = "exact_submodel"


class McOracle:
    """One operation is one sweep: every registry simulator at fixed paths
    and steps, the exact sub-model sampler and its empirical CF."""

    def __init__(self, seed: int, size: Size, workdir: Path) -> None:
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        self.cfg = SimConfig(paths=self.size.mc_paths, steps_per_tenor=self.size.mc_steps,
                             rng_seed=self.seed)
        self.thetas = {}
        for mid in registry.model_ids():
            spec = registry.get_model(mid)
            theta = spec.unpack(spec.default_start(BENCH_TENORS), tenors=BENCH_TENORS)
            if mid.startswith("rough"):
                theta = dataclasses.replace(theta, nu=0.15)  # as gate 10
            self.thetas[mid] = theta
        self.exact = EdgeworthParams(**GATE4_PARAMS)
        warm = dataclasses.replace(self.cfg, paths=64)
        for mid, theta in self.thetas.items():
            simulate_benchmark(mid, theta, MC_TAU, warm)
        empirical_cf(simulate_edgeworth_submodel(self.exact, None, MC_TAU, warm, exact=True).z_continuous, GATE4_U)

    def prepare(self, i: int) -> SimConfig:
        # a fresh stream per sweep: the 3-standard-error tests of one run are
        # then independent draws, not one draw repeated
        stream = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return dataclasses.replace(self.cfg, rng_seed=stream)

    def op(self, cfg: SimConfig, tracer: Tracer | None):
        samples = {}
        for mid, theta in self.thetas.items():
            with _span(tracer, f"mc_oracle.{mid}"):
                samples[mid] = simulate_benchmark(mid, theta, MC_TAU, cfg)
        with _span(tracer, f"mc_oracle.{EXACT}"):
            sim = simulate_edgeworth_submodel(self.exact, None, MC_TAU, cfg, exact=True)
        samples[EXACT] = sim.x_total
        with _span(tracer, "mc_oracle.empirical_cf"):
            ecf = empirical_cf(sim.z_continuous, GATE4_U)
        return samples, sim.z_continuous, ecf

    def check(self, inputs, outputs) -> dict:
        samples, z, (values, se) = outputs
        c = _counts()
        for x in samples.values():
            c["attempted"] += 1
            if x.shape != (self.cfg.paths,) or not np.all(np.isfinite(x)):
                c["failed"] += 1
                c["core_failed"] += 1
                continue
            g = np.exp(x)  # gate 10: E[e^X] = 1 within 3 standard errors
            if abs(g.mean() - 1.0) > MARTINGALE_SE * g.std(ddof=1) / math.sqrt(g.size):
                c["failed"] += 1
        ref = np.exp(1j * np.outer(GATE4_U, z)).mean(axis=1)
        ref_se = np.sqrt(np.maximum(0.0, 1.0 - np.abs(ref) ** 2) / z.size)
        c["attempted"] += 1
        if not (np.allclose(values, ref, rtol=0.0, atol=1e-12) and np.allclose(se, ref_se, rtol=1e-9, atol=1e-15)):
            c["failed"] += 1
            c["core_failed"] += 1
        return c

    def layers(self, tracer: Tracer, inputs, outputs, counts) -> dict:
        out = {}
        for mid in tuple(self.thetas) + (EXACT,):
            out[f"mc_oracle.{mid}.paths_per_s"] = self.cfg.paths / tracer.total(f"mc_oracle.{mid}")
        out["mc_oracle.empirical_cf_ms"] = 1e3 * tracer.total("mc_oracle.empirical_cf")
        return out


WORKLOADS = {
    "expansion_surface": ExpansionSurface,
    "ode_surface": OdeSurface,
    "recalibrate": Recalibrate,
    "mc_oracle": McOracle,
}
