"""Optical inter-satellite link budget, rate/energy weights and outage model.

Received power for a laser ISL:

    P_R = P_T * eta_S * G_T * G_R * L_PL * L_PS

with transmitter gain G_T = 16/Theta_T^2, receiver gain G_R = (D_R*pi/lambda)^2,
pointing loss L_PL = exp(-G0*theta0^2) where G0 = 4*ln2/theta_3dB^2, and
free-space path loss L_PS = (lambda/(4*pi*d))^2. The achievable rate is the
Shannon rate over the optical system bandwidth B = bandwidth_fraction * f_c,
against noise sigma^2 = k_b*B*(T_s + T_0 + T_CMB).

Random beam misalignment makes L_PL a random variable on (0, 1); an outage
occurs when the instantaneous SNR drops below the receiver threshold, i.e.
when L_PL falls below

    Gamma0 = sigma^2 * SNR_th / (P_T * eta_S * G_T * G_R * L_PS).

With pointing-error magnitude theta0 = sigma_p*|Z|, Z standard normal, the
pointing loss has CDF 1 - erf(sqrt(-ln x / (2*G0*sigma_p^2))) and density

    f(x) = sqrt(c/pi) * x^(c-1) / sqrt(-ln x),   c = 1/(2*G0*sigma_p^2),

which integrates to 1 over (0, 1) (both endpoints are integrable
singularities when c < 1). The tests integrate it (`oracles.pointing_loss_pdf`)
to check the closed-form outage below.

The functions take arrays (a scalar is a 0-d array) and broadcast over
them. `link_budget` is the one place that composes the chain from transmit
power and range to a frame's energy and outage threshold.
"""
import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import BOLTZMANN_J_PER_K, SPEED_OF_LIGHT_M_S
from .geometry import ConfigError


@dataclass(frozen=True)
class LinkParams:
    """Transceiver constants; defaults follow the simulated optical system."""

    eta_s: float = 0.8              # optical efficiency of the transceiver
    theta_t_rad: float = 0.1        # full transmit divergence angle
    d_r_m: float = 0.006            # receiver telescope diameter
    theta_0_rad: float = 0.01       # nominal pointing error
    theta_3db_rad: float = 0.1      # 3-dB beamwidth
    f_c_hz: float = 193e12          # laser carrier frequency
    bandwidth_fraction: float = 0.02
    t_solar_k: float = 6000.0
    t_system_k: float = 1000.0
    t_cmb_k: float = 2.725
    k_b: float = BOLTZMANN_J_PER_K
    sigma_p_rad: float = 0.05       # pointing-error scale parameter
    snr_th_db: float = -110.0       # outage SNR threshold
    payload_bits: float = 1e6       # bits transferred per node per slot

    def __post_init__(self):
        # The beamwidth first: a config without a transmit divergence copies
        # the beamwidth into theta_t_rad, and the error names the key set.
        for name in ["theta_3db_rad"] + [f.name for f in fields(self)]:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)!r}")
        for name in ("eta_s", "theta_3db_rad", "theta_t_rad", "d_r_m", "f_c_hz",
                     "bandwidth_fraction", "k_b", "sigma_p_rad", "payload_bits"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, f"must be > 0, got {getattr(self, name)}")
        if self.eta_s > 1:
            raise ConfigError("eta_s", f"must lie in (0, 1], got {self.eta_s}")
        for name in ("theta_0_rad", "t_solar_k", "t_system_k", "t_cmb_k"):
            if getattr(self, name) < 0:
                raise ConfigError(name, f"must be >= 0, got {getattr(self, name)}")
        # Derived constants must be finite, and the outage law's scale > 0
        # (it divides). Each is named by the setting that drives it out of
        # range: a very large or very small finite setting overflows them.
        c = SPEED_OF_LIGHT_M_S
        for name, derived, value in (
                ("f_c_hz", "wavelength_m", lambda: self.wavelength_m),
                ("f_c_hz", "g_r", lambda: (self.f_c_hz / c) ** 2),
                ("d_r_m", "g_r", lambda: self.g_r),
                ("theta_3db_rad", "g0", lambda: self.g0),
                ("theta_t_rad", "g_t", lambda: self.g_t),
                ("theta_0_rad", "g0*theta_0^2", lambda: self.g0 * self.theta_0_rad ** 2),
                ("sigma_p_rad", "g0*sigma_p^2", lambda: self.g0 * self.sigma_p_rad ** 2),
                ("snr_th_db", "snr_th_linear", lambda: self.snr_th_linear)):
            try:
                v = value()
            except (OverflowError, ZeroDivisionError):
                v = math.inf
            if not math.isfinite(v) or (name == "sigma_p_rad" and v == 0):
                raise ConfigError(name, f"gives a non-finite or zero {derived}, "
                                        f"got {getattr(self, name)!r}")
        if not noise_power(self) > 0:   # the Shannon rate divides by it
            raise ConfigError("t_system_k", f"gives zero noise power k_b*B*(T_solar + "
                                            f"T_system + T_CMB), got {self.t_system_k}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.f_c_hz

    @property
    def bandwidth_hz(self) -> float:
        return self.bandwidth_fraction * self.f_c_hz

    @property
    def g0(self) -> float:
        """Beamwidth coefficient 4*ln2/theta_3dB^2 of the pointing loss."""
        return 4.0 * math.log(2.0) / self.theta_3db_rad ** 2

    @property
    def g_t(self) -> float:
        return 16.0 / self.theta_t_rad ** 2

    @property
    def g_r(self) -> float:
        return (self.d_r_m * math.pi / self.wavelength_m) ** 2

    @property
    def snr_th_linear(self) -> float:
        return 10.0 ** (self.snr_th_db / 10.0)


def free_space_loss(d_m, wavelength_m: float):
    """(lambda / (4*pi*d))^2 of an array of distances in metres.

    Squares by multiplying, as numpy does for an array ** 2, so a 0-d
    distance (whose ratio numpy returns as a float64 scalar) rounds exactly
    as the same element of a longer array; a float64 scalar ** 2 goes
    through pow, which is 1 ulp off for some inputs.
    """
    ratio = wavelength_m / (4.0 * math.pi * d_m)
    return ratio * ratio


def received_power(p_t_w, d_km, params: LinkParams):
    """Received optical power in W; broadcasts over power and range."""
    p_t = np.asarray(p_t_w, dtype=float)
    if np.any(p_t <= 0):
        raise ValueError("p_t_w must be > 0")
    d_m = np.asarray(d_km, dtype=float) * 1e3
    if np.any(d_m <= 0):
        raise ValueError("distance must be > 0 (path loss is singular at 0)")
    l_pl = math.exp(-params.g0 * params.theta_0_rad ** 2)
    return (p_t * params.eta_s * params.g_t * params.g_r * l_pl
            * free_space_loss(d_m, params.wavelength_m))


def noise_power(params: LinkParams) -> float:
    """Thermal noise sigma^2 = k_b * B * (T_s + T_0 + T_CMB) in W."""
    return params.k_b * params.bandwidth_hz * (
        params.t_solar_k + params.t_system_k + params.t_cmb_k)


def achievable_rate(p_r_w, sigma2_w: float, params: LinkParams):
    """Shannon rate B*log2(1 + P_R/sigma^2) in bit/s."""
    if sigma2_w <= 0:
        raise ValueError("sigma2_w must be > 0")
    return params.bandwidth_hz * np.log2(1.0 + np.asarray(p_r_w, dtype=float) / sigma2_w)


def frame_energy(p_t_w, rate_bps, params: LinkParams, frames_per_slot: int):
    """Energy to ship one frame's share of the payload: s*P_T/(U*rate), J,
    with U = frames_per_slot.

    A non-positive rate yields +inf, the infeasible-edge signal; graph
    builders keep such an edge at weight +inf.
    """
    rate = np.asarray(rate_bps, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(rate > 0,
                        params.payload_bits * np.asarray(p_t_w, dtype=float)
                        / (frames_per_slot * rate),
                        np.inf)


def gamma0(p_t_w, d_km, params: LinkParams):
    """Outage threshold on the pointing loss for a given link."""
    d_m = np.asarray(d_km, dtype=float) * 1e3
    denom = (np.asarray(p_t_w, dtype=float) * params.eta_s * params.g_t
             * params.g_r * free_space_loss(d_m, params.wavelength_m))
    return noise_power(params) * params.snr_th_linear / denom


def _erf(x):
    """Elementwise math.erf over an array."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


def outage_from_gamma0(g0_val, params: LinkParams):
    """P{L_PL < Gamma0} = 1 - erf(sqrt(-ln Gamma0/(2*G0*sigma_p^2))), clamped
    to 1 for Gamma0 >= 1 and 0 for Gamma0 <= 0."""
    g = np.asarray(g0_val, dtype=float)
    scale = 2.0 * params.g0 * params.sigma_p_rad ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.sqrt(np.maximum(-np.log(g), 0.0) / scale)
    return np.where(g >= 1.0, 1.0, np.where(g <= 0.0, 0.0, 1.0 - _erf(arg)))


def link_budget(p_t_w, d_km, params: LinkParams, frames_per_slot: int):
    """(energy_j, gamma0) of the links (p_t_w, d_km), broadcast over power
    and range: energy_j ships one of frames_per_slot frames at the Shannon
    rate of the received power (+inf where that rate is 0), and gamma0 is
    the outage threshold that outage_from_gamma0 maps to the link's outage
    probability."""
    rate = achievable_rate(received_power(p_t_w, d_km, params),
                           noise_power(params), params)
    return (frame_energy(p_t_w, rate, params, frames_per_slot),
            gamma0(p_t_w, d_km, params))
