import dataclasses
import math

import numpy as np
import pytest

from oracles import pointing_loss_pdf, pointing_pdf_quadrature
from satagg import channel
from satagg.channel import LinkParams
from satagg.geometry import ConfigError

# Frozen direct evaluations of the budget formulas with the default settings.
G0_DEFAULT = 277.2588722239781            # 4*ln2 / 0.1^2
GR_DEFAULT = 147256833.77650866           # (0.006*pi / (c/193e12))^2
NOISE_DEFAULT = 3.7302115530000006e-07    # 1.38e-23 * 0.02*193e12 * 7002.725
PDF_AT_HALF = 0.6981799286081554          # sqrt(c/pi)*0.5^(c-1)/sqrt(ln 2)


class TestLinkParams:
    def test_defaults(self, params):
        assert params.g0 == pytest.approx(G0_DEFAULT, rel=1e-12)
        assert params.g_r == pytest.approx(GR_DEFAULT, rel=1e-12)
        assert params.wavelength_m == pytest.approx(1.5533e-6, rel=1e-3)
        assert params.snr_th_linear == pytest.approx(1e-11)

    @pytest.mark.parametrize("kwargs", [
        dict(eta_s=0.0), dict(eta_s=1.5), dict(d_r_m=-1.0),
        dict(theta_3db_rad=0.0), dict(payload_bits=0.0), dict(t_solar_k=-1.0),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            LinkParams(**kwargs)


    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LinkParams)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_settings(self, name, value):
        with pytest.raises(ConfigError) as exc:
            LinkParams(**{name: value})
        assert exc.value.field == name

    @pytest.mark.parametrize("name, value", [
        ("f_c_hz", 1e300), ("f_c_hz", 1e-300), ("d_r_m", 1e300),
        ("theta_3db_rad", 1e300), ("theta_3db_rad", 1e-300), ("theta_t_rad", 1e300),
        ("theta_0_rad", 1e300), ("sigma_p_rad", 1e300), ("sigma_p_rad", 1e-300),
        ("snr_th_db", 1e300)])
    def test_rejects_settings_that_overflow_derived_constants(self, name, value):
        with pytest.raises(ConfigError) as exc:
            LinkParams(**{name: value})
        assert exc.value.field == name


class TestReceivedPower:
    def test_perfect_pointing(self, params):
        p = LinkParams(theta_0_rad=0.0)
        d = 1000.0
        expected = (1.0 * p.eta_s * p.g_t * p.g_r
                    * (p.wavelength_m / (4 * math.pi * d * 1e3)) ** 2)
        assert channel.received_power(1.0, d, p) == pytest.approx(expected, rel=1e-12)

    def test_monotone_decreasing_in_distance(self, params):
        d = np.linspace(100.0, 40000.0, 50)
        pr = channel.received_power(2.0, d, params)
        assert np.all(np.diff(pr) < 0)

    def test_monotone_increasing_in_power_and_aperture(self, params):
        assert channel.received_power(2.0, 1000.0, params) > \
            channel.received_power(1.0, 1000.0, params)
        big = LinkParams(d_r_m=0.012)
        assert channel.received_power(1.0, 1000.0, big) > \
            channel.received_power(1.0, 1000.0, params)

    def test_zero_distance_rejected(self, params):
        with pytest.raises(ValueError):
            channel.received_power(1.0, 0.0, params)
        with pytest.raises(ValueError):
            channel.received_power(0.0, 10.0, params)


class TestNoisePower:
    def test_default_value(self, params):
        assert channel.noise_power(params) == pytest.approx(NOISE_DEFAULT, rel=1e-12)

    def test_zero_temperature_limit(self):
        # The noise power falls to 0 with the temperatures, and any one of
        # them may be 0; all three at 0 give zero noise power, which the
        # Shannon rate divides by, and are rejected.
        for name in ("t_solar_k", "t_system_k", "t_cmb_k"):
            assert channel.noise_power(LinkParams(**{name: 0.0})) > 0
        p = LinkParams(t_solar_k=0.0, t_system_k=0.0, t_cmb_k=1e-300)
        assert 0.0 < channel.noise_power(p) == pytest.approx(p.k_b * p.bandwidth_hz * 1e-300)
        with pytest.raises(ConfigError) as exc:
            LinkParams(t_solar_k=0.0, t_system_k=0.0, t_cmb_k=0.0)
        assert exc.value.field == "t_system_k"

    def test_linear_in_bandwidth(self, params):
        doubled = LinkParams(bandwidth_fraction=0.04)
        assert channel.noise_power(doubled) == pytest.approx(
            2.0 * channel.noise_power(params), rel=1e-12)


class TestAchievableRate:
    def test_snr_one_gives_bandwidth(self, params):
        assert channel.achievable_rate(1.0, 1.0, params) == pytest.approx(
            params.bandwidth_hz, rel=1e-12)

    def test_zero_power_zero_rate(self, params):
        assert channel.achievable_rate(0.0, 1.0, params) == 0.0

    def test_snr_three_gives_two_bandwidths(self, params):
        assert channel.achievable_rate(3.0, 1.0, params) == pytest.approx(
            2.0 * params.bandwidth_hz, rel=1e-12)


class TestFrameEnergy:
    def test_direct_arithmetic(self):
        p = LinkParams(payload_bits=1e6)
        assert channel.frame_energy(1.0, 1e9, p, 25) == pytest.approx(4e-5, rel=1e-12)

    def test_single_frame_equals_full_slot(self):
        p1 = LinkParams(payload_bits=1e6)
        assert channel.frame_energy(2.0, 1e8, p1, 1) == pytest.approx(
            1e6 * 2.0 / 1e8, rel=1e-12)

    def test_doubling_frames_halves_energy(self, params):
        assert channel.frame_energy(1.0, 1e8, params, 10) == pytest.approx(
            2.0 * channel.frame_energy(1.0, 1e8, params, 20), rel=1e-12)

    def test_zero_rate_signals_infeasible(self, params):
        assert channel.frame_energy(1.0, 0.0, params, 25) == math.inf

    def test_roundtrip_identity(self, params):
        # w * U * rate / p_t recovers the payload up to float rounding.
        rng = np.random.default_rng(5)
        for _ in range(200):
            p_t = float(rng.uniform(0.05, 5.0))
            rate = float(rng.uniform(1e3, 1e10))
            w = channel.frame_energy(p_t, rate, params, 25)
            s = w * 25 * rate / p_t
            assert s == pytest.approx(params.payload_bits, rel=1e-12)


class TestPointingLossPdf:
    def test_integrates_to_one(self, params):
        val, err = pointing_pdf_quadrature(
            lambda x: pointing_loss_pdf(x, params), 1.0)
        assert abs(val - 1.0) < 1e-6

    def test_value_at_half(self, params):
        assert pointing_loss_pdf(0.5, params) == pytest.approx(
            PDF_AT_HALF, rel=1e-12)

    def test_diverges_but_integrable_at_both_ends(self, params):
        # With the default settings the power-law exponent is < 1, so the
        # density grows without bound toward both endpoints while remaining
        # integrable (normalisation checked above).
        pdf = lambda x: pointing_loss_pdf(x, params)
        assert pdf(1e-30) > pdf(1e-9) > pdf(1e-3)
        assert pdf(1.0 - 1e-15) > pdf(1.0 - 1e-9) > pdf(1.0 - 1e-3)
        assert pdf(1e-30) > 1e6 and pdf(1.0 - 1e-15) > 1e6

    def test_domain(self, params):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                pointing_loss_pdf(bad, params)


class TestOutageProbability:
    def test_gamma0_above_one_is_certain_outage(self, params):
        assert channel.outage_from_gamma0(1.0, params) == 1.0
        assert channel.outage_from_gamma0(2.5, params) == 1.0

    def test_gamma0_to_zero_limit(self, params):
        assert channel.outage_from_gamma0(0.0, params) == 0.0
        assert channel.outage_from_gamma0(1e-300, params) < 1e-12

    def test_closed_form_matches_quadrature(self, params):
        rng = np.random.default_rng(11)
        pdf = lambda x: pointing_loss_pdf(x, params)
        for _ in range(25):
            g = float(rng.uniform(1e-4, 0.999))
            integral, _ = pointing_pdf_quadrature(pdf, g)
            closed = channel.outage_from_gamma0(g, params)
            assert abs(closed - integral) < 1e-6

    def test_monotone_in_threshold_and_distance(self, params):
        def outage(d_km, p):
            _, g0 = channel.link_budget(1.0, d_km, p, 25)
            return channel.outage_from_gamma0(g0, p)

        base = outage(2000.0, params)
        assert outage(4000.0, params) >= base
        assert outage(2000.0, LinkParams(snr_th_db=-100.0)) >= base

    def test_rejects_bad_power(self, params):
        with pytest.raises(ValueError):
            channel.link_budget(0.0, 100.0, params, 25)


def test_link_budget_bundle(params):
    rx = channel.received_power(1.0, 2000.0, params)
    snr = rx / channel.noise_power(params)
    rate = channel.achievable_rate(rx, channel.noise_power(params), params)
    energy, g0 = channel.link_budget(1.0, 2000.0, params, 25)
    assert rx > 0
    assert 0 <= channel.outage_from_gamma0(g0, params) <= 1
    assert energy > 0
    assert energy == channel.frame_energy(1.0, rate, params, 25)
    assert rate == pytest.approx(params.bandwidth_hz * math.log2(1 + snr), rel=1e-12)
    # gamma0 is the pointing loss at which the SNR falls to the threshold.
    l_pl = math.exp(-params.g0 * params.theta_0_rad ** 2)
    assert g0 == pytest.approx(params.snr_th_linear * l_pl / snr, rel=1e-12)
