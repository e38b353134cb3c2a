"""Ultra-short-tenor option pricing and implied-volatility surface calibration.

Core model: a second-order characteristic-function expansion of the
standardized return with an optional piecewise-constant volatility
displacement, priced by Fourier inversion.  Benchmarks: one- and two-factor
affine stochastic-volatility models with self-exciting jumps and a rough
(fractional-kernel) volatility model, with the same displacement overlays.

Submodules
----------
cf_edgeworth     expansion characteristic functions (closed form + quadrature)
bspp_bootstrap   displaced-lognormal ATM term-structure bootstrap
benchmarks       affine and rough-volatility benchmark CFs
registry         flat-vector parameter layout shared by all models
fourier_pricer   Fourier call/put pricing, implied vol, surface pricing
market_data      quote ingestion, filtering, moneyness bucketing
calibration      RMSE objective and bounded Nelder-Mead fitting
diagnostics      smile asymptotics checks and the pricing speed bench
mc_oracle        Monte Carlo simulators and empirical CF utilities
cli              command-line interface (`ustvol` console script)
"""

from .benchmarks import (
    HestonMertonParams,
    JumpTransformPoleError,
    RiccatiExplosionError,
    RoughHestonParams,
    heston_merton_cf,
    rough_heston_cf,
)
from .bspp_bootstrap import (
    AtmTermStructure,
    CalendarArbitrageError,
    bspp_atm_vol,
    calibrate_shift_from_atm,
    shift_weighted_variance,
)
from .calibration import (
    CalibrationResult,
    ParamBounds,
    bid_ask_fraction,
    bucket_rmse,
    calibrate,
    rmse,
)
from .cf_edgeworth import (
    Displacement,
    EdgeworthParams,
    psi_c_no_shift,
    psi_c_piecewise,
    psi_c_quadrature,
    psi_full,
    psi_jump,
)
from .diagnostics import (
    BENCH_TENORS,
    SmileCheck,
    SmileExpansion,
    TimingReport,
    TimingRow,
    affine_small_time_skew,
    expansion_iv,
    sample_cumulants,
    smile_expansion,
    timing_bench,
    verify_smile_against_pricer,
)
from .fourier_pricer import (
    ArbitrageBoundsError,
    CFNormalizationError,
    NegativePriceError,
    PricingRequest,
    QuadratureConfig,
    bs_price,
    call_price,
    implied_vol,
    price_surface,
    put_price,
)
from .market_data import (
    IngestConfig,
    MoneynessBucket,
    OptionQuote,
    Surface,
    TenorSlice,
    atm_vol_for_tenor,
    bucket_of,
    filter_surface,
    implied_forward,
    log_moneyness,
    read_quotes_csv,
)
from .mc_oracle import (
    SimConfig,
    SubmodelSim,
    empirical_cf,
    read_samples_bin,
    simulate_benchmark,
    simulate_edgeworth_submodel,
    write_samples_bin,
)
from .registry import MODELS, ModelSpec, get_model, model_ids, standardized_from_raw

__version__ = "0.1.0"
