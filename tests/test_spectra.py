import re

import mpmath
import numpy as np
import pytest

from rkhslab import (
    DivergentEmbedding,
    SpectralKernel,
    Spectrum,
    concentration_trial,
    effective_dimension,
    embedding_index,
    embedding_norm,
    make_power_law_spectrum,
    theoretical_exponent,
)
from rkhslab.spectra import _tail_integral
from rules import array_rule, real_rule


class TestMakePowerLawSpectrum:
    def test_beta2_first_values(self):
        s = make_power_law_spectrum(2.0, 0.0, 3)
        assert np.allclose(s.mu, [1.0, 0.25, 1.0 / 9.0])

    def test_mu1_dominates(self):
        s = make_power_law_spectrum(2.0, 0.0, 2)
        assert s.mu[0] == 1.0 and s.mu[0] >= s.mu[1]

    def test_negative_zeta_running_minimum(self):
        # raw profile is non-monotone at small i: phi(2) > phi(3) for zeta=-1
        phi = lambda i: i * np.log(i) ** -1.0
        assert phi(2) > phi(3)
        s = make_power_law_spectrum(2.0, -1.0, 4)
        assert np.all(np.diff(s.mu) <= 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_power_law_spectrum(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            make_power_law_spectrum(2.0, 0.0, 1)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((np.nan,), real_rule("beta", "(1, inf)", np.nan)),
            ((2.0, np.nan, 16), real_rule("zeta", "(-inf, inf)", np.nan)),
            ((2.0, np.inf, 16), real_rule("zeta", "(-inf, inf)", np.inf)),
            ((2.0, 0.0, 10.5), r"M must be an integer of at least 2 \(got 10.5\)"),
            ((2.0, 0.0, True), r"M must be an integer of at least 2 \(got True\)"),
            ((100.0, 0.0, 4096), r"mu_M underflows to 0 at beta = 100.0, zeta = 0.0, M = 4096"),
            ((2.0, 971.0, 4096), r"mu_M underflows to 0 at beta = 2.0, zeta = 971.0, M = 4096"),
        ],
    )
    def test_rejects_nan_and_non_integer_parameters(self, args, message):
        with pytest.raises(ValueError, match=message):
            make_power_law_spectrum(*args)

    @pytest.mark.parametrize(
        "mu, message",
        [
            ([[1.0, 0.5]], "non-empty 1-d array"),
            ([1.0, 0.0], array_rule("eigenvalue", "(0, inf)", np.float64(0.0))),
            ([0.5, 1.0], "non-increasing"),
        ],
        ids=["two_dimensional", "non_positive", "increasing"],
    )
    def test_spectrum_rejects_invalid_eigenvalues(self, mu, message):
        with pytest.raises(ValueError, match=message):
            Spectrum(np.array(mu), beta=2.0, zeta=0.0)

    @pytest.mark.parametrize(
        "beta, zeta",
        [
            (0.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0),
            (2.0, np.nan), (2.0, np.inf), (2.0, np.array([0.5])), (2.0, "0"), (2.0, 1j),
        ],
        ids=[
            "beta_zero", "beta_negative", "beta_one", "beta_nan", "beta_inf",
            "zeta_nan", "zeta_inf", "zeta_array", "zeta_string", "zeta_complex",
        ],
    )
    def test_spectrum_rejects_a_bad_decay_law(self, beta, zeta):
        # beta = NaN was accepted and gave a finite embedding norm M_0.75 = 1.70,
        # zeta = inf was accepted and its tail() raised a ValueError with an empty message,
        # a one-element array zeta was stored as an array, and a string or complex
        # zeta raised TypeError
        # the zeta cases keep beta = 2
        bad = ("zeta", "(-inf, inf)", zeta) if beta == 2.0 else ("beta", "(1, inf)", beta)
        with pytest.raises(ValueError, match=real_rule(*bad)):
            Spectrum(np.ones(1), beta, zeta)

    def test_overflowing_term_is_clipped_to_mu_1(self):
        # (2 (log 2)^971)^-2 exceeds the float range; no RuntimeWarning (warnings are errors)
        s = make_power_law_spectrum(2.0, 971.0, 3)
        assert s.mu[:2].tolist() == [1.0, 1.0] and 0 < s.mu[2] < 1

    def test_accepts_numpy_integer_truncation(self):
        assert make_power_law_spectrum(2.0, 0.0, np.int64(4)).size == 4

    def test_envelope_recorded_and_tail_positive(self):
        s = make_power_law_spectrum(1.5, 0.5, 100)
        assert s.tail() > 0
        i = np.arange(2, 101, dtype=float)
        raw = (i * np.log(i) ** 0.5) ** -1.5
        ratios = s.mu[1:] / raw
        c1, c2 = ratios.min(), ratios.max()
        assert 0 < c1 <= c2
        assert np.all(s.mu[1:] >= c1 * raw - 1e-15)
        assert np.all(s.mu[1:] <= c2 * raw + 1e-15)

    def test_finite_trace(self):
        s = make_power_law_spectrum(2.0, 0.0, 1000)
        assert np.isfinite(s.trace())


def closed_form_tail(beta, zeta, M, dps=100):
    """(beta - 1)^(beta zeta - 1) Gamma(1 - beta zeta, (beta - 1) ln M) at ``dps`` digits."""
    with mpmath.workdps(dps):
        b, z = mpmath.mpf(beta), mpmath.mpf(zeta)
        return (b - 1) ** (b * z - 1) * mpmath.gammainc(1 - b * z, (b - 1) * mpmath.log(M))


class TestTailMass:
    @pytest.mark.parametrize("zeta", [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("beta", [1.001, 1.01, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_matches_100_digit_closed_form(self, beta, zeta):
        for M in (2, 3, 10, 100, 4096, 10**5, 10**7):
            want = float(closed_form_tail(beta, zeta, M))
            assert _tail_integral(beta, zeta, M) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("M", [4096, 10**5])
    def test_slow_tail_with_negative_zeta(self, M):
        # beta near 1 with zeta < 0: a tail too slow for adaptive quadrature
        # on a finite interval, about 2.23e6 at both M
        s = make_power_law_spectrum(1.01, -2.0, M)
        want = float(closed_form_tail(1.01, -2.0, M))
        assert want == pytest.approx(2.23e6, rel=2e-3)
        assert s.tail() == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zeta_zero_is_the_power_tail(self):
        for beta, M in ((1.5, 10), (2.0, 4096), (10.0, 10**7)):
            want = M ** (1.0 - beta) / (beta - 1.0)
            assert _tail_integral(beta, 0.0, M) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("beta,zeta", [(1.5, -1.0), (2.0, 1.0), (3.0, 0.5)])
    def test_closed_form_is_the_tail_integral(self, beta, zeta):
        M = 4096
        with mpmath.workdps(30):
            integral = mpmath.quad(
                lambda x: (x * mpmath.log(x) ** zeta) ** (-beta), [M, 10 * M, 1000 * M, mpmath.inf]
            )
        assert _tail_integral(beta, zeta, M) == pytest.approx(float(integral), rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    @pytest.mark.parametrize("zeta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_spectrum_tail_follows_the_declared_law(self, beta, zeta, p):
        M, N = 4096, 10**6
        s = make_power_law_spectrum(beta, zeta, M)
        assert s.tail(p) == _tail_integral(beta * p, zeta, M)
        # the direct sum over M < i <= N, and the closed form beyond N, where it is exact to
        # far below the tolerance
        i = np.arange(M + 1, N + 1, dtype=float)
        direct = np.sum((i * np.log(i) ** zeta) ** (-beta * p)) + _tail_integral(beta * p, zeta, N)
        assert s.tail(p) == pytest.approx(direct, rel=1e-3)

    @pytest.mark.parametrize("p", [0.5, 0.25, -1.0, np.nan, np.inf, "2"])
    def test_spectrum_tail_needs_beta_p_above_one(self, p):
        # the string raised TypeError
        s = make_power_law_spectrum(2.0, 0.0, 16)
        with pytest.raises(ValueError, match=real_rule("p", "(0.5, inf)", p)):
            s.tail(p)

    @pytest.mark.parametrize(
        "beta, p, product",
        [(3.0, np.nextafter(1 / 3, 1), 1.0), (1e300, 1e10, np.inf)],
        ids=["rounds_to_one", "overflows"],
    )
    def test_spectrum_tail_checks_the_product_beta_p(self, beta, p, product):
        # p passes its own interval, yet beta p leaves (1, inf)
        with pytest.raises(ValueError, match=real_rule("beta p", "(1, inf)", product)):
            Spectrum(np.ones(2), beta, 0.0).tail(p)

    @pytest.mark.parametrize(
        "zeta, want",
        [(0.25, 1.772453850905516), (-0.5, 1.0)] + [(z, None) for z in (0.5, 0.75, 1.0, 1.2)],
    )
    def test_one_mode_tail_diverges_at_beta_p_zeta_one(self, zeta, want):
        # past M = 1 the integral starts at x = 1, where (ln x)^(-beta p zeta) is integrable only
        # for beta p zeta < 1
        s = Spectrum(np.ones(1), 2.0, zeta)
        if want is not None:
            assert s.tail() == want
        else:
            message = f"tail past M = 1 diverges: beta p zeta = {2.0 * zeta} >= 1"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                s.tail()


class TestEffectiveDimension:
    def test_direct_sum(self):
        s = Spectrum(np.array([1.0, 0.25, 1.0 / 9.0]), beta=2.0, zeta=0.0)
        assert effective_dimension(s, 1.0) == pytest.approx(0.5 + 0.2 + 0.1)

    def test_large_lambda_limit(self):
        s = Spectrum(np.array([1.0]), beta=2.0, zeta=0.0)
        assert effective_dimension(s, 1e12) == pytest.approx(0.0, abs=1e-11)

    def test_symmetry_point(self):
        c = 0.37
        s = Spectrum(np.array([c]), beta=2.0, zeta=0.0)
        assert effective_dimension(s, c) == pytest.approx(0.5)

    def test_rejects_nonpositive_lambda(self):
        s = Spectrum(np.array([1.0]), beta=2.0, zeta=0.0)
        with pytest.raises(ValueError):
            effective_dimension(s, 0.0)

    def test_monotone_in_lambda(self):
        s = make_power_law_spectrum(2.0, 0.0, 200)
        grid = np.geomspace(1e-4, 10, 30)
        vals = [effective_dimension(s, l) for l in grid]
        assert np.all(np.diff(vals) < 0)


class TestEmbeddingNorm:
    def test_single_constant_mode(self):
        k = SpectralKernel(Spectrum(np.array([1.0]), beta=2.0, zeta=0.0))
        assert embedding_norm(k, 1.0) == pytest.approx(1.0)

    def test_two_mode_closed_form(self):
        k = SpectralKernel(Spectrum(np.array([1.0, 0.25]), beta=2.0, zeta=0.0))
        assert embedding_norm(k, 1.0) ** 2 == pytest.approx(1.5)

    def test_divergent_below_index(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 10_000))
        with pytest.raises(DivergentEmbedding):
            embedding_norm(k, 0.4)

    @pytest.mark.parametrize("alpha", [0.0, 1.5, np.nan, "0.6"])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        # the string raised TypeError
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        with pytest.raises(ValueError, match=real_rule("alpha", "(0, 1]", alpha)):
            embedding_norm(k, alpha)

    @pytest.mark.parametrize(
        "M", [8, 9, 10, 11, 13, 17, 21, 25, 29], ids="{}-cosine_unit_interval".format
    )
    def test_convergent_short_series(self, M):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, M))
        assert np.isfinite(embedding_norm(k, 0.55))

    @pytest.mark.parametrize(
        "M", [64, 513, 1000, 4096, 4097], ids="{}-cosine_unit_interval".format
    )
    def test_divergent_at_the_index_itself(self, M):
        # the terms are exactly 2/(t+1): a harmonic tail under an index offset
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, M))
        with pytest.raises(DivergentEmbedding):
            embedding_norm(k, 0.5)

    @pytest.mark.parametrize("c", [0.0, 0.25, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("m", [8, 13, 64, 1000, 50_001])
    def test_harmonic_tail_rejected_for_any_offset(self, c, m):
        # at alpha = 1/beta the stored terms are exactly 1/(i + c); the verdict
        # comes from the declared law, whatever the offset or truncation
        mu = (np.arange(1, m + 1) + c) ** -2.0
        k = SpectralKernel(Spectrum(mu, beta=2.0, zeta=0.0))
        with pytest.raises(DivergentEmbedding):
            embedding_norm(k, 0.5)

    @pytest.mark.parametrize("zeta,alpha", [(-2.0, 0.6), (-1.0, 0.55), (2.0, 0.5)])
    def test_converges_with_log_factor(self, zeta, alpha):
        # sum (i (log i)^zeta)^(-2 alpha) converges for 2 alpha > 1 whatever
        # zeta, and at 2 alpha = 1 for zeta > 1
        k = SpectralKernel(make_power_law_spectrum(2.0, zeta, 4096))
        m_alpha = embedding_norm(k, alpha)
        e0_sq = np.r_[1.0, np.full(4095, 2.0)]
        assert m_alpha**2 == pytest.approx(np.sum(k.spectrum.mu**alpha * e0_sq), rel=1e-14)

    @pytest.mark.parametrize("M", [4096, 100_000])
    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    def test_diverges_at_the_index_with_weak_log_factor(self, zeta, M):
        # sum 1/(i (log i)^zeta) diverges for zeta <= 1
        k = SpectralKernel(make_power_law_spectrum(2.0, zeta, M))
        with pytest.raises(DivergentEmbedding):
            embedding_norm(k, 0.5)

    def test_alpha_one_always_finite(self):
        for beta in (1.5, 2.0, 3.0):
            k = SpectralKernel(make_power_law_spectrum(beta, 0.0, 5000))
            assert np.isfinite(embedding_norm(k, 1.0))

    def test_m_alpha_non_increasing_in_alpha(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 5000))
        alphas = [0.6, 0.7, 0.8, 0.9, 1.0]
        vals = [embedding_norm(k, a) for a in alphas]
        assert np.all(np.diff(vals) <= 0)

    def test_concentration_trial_with_negative_zeta(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, -2.0, 4096))
        rep = concentration_trial(k, n=64, lam=0.01, alpha=0.6, tau=3, trials=5, rng_seed=0)
        assert rep.m_alpha == embedding_norm(k, 0.6)

    @pytest.mark.parametrize(
        "M", [7, 8, 64], ids="{}-cosine_unit_interval-closed_form_cosine".format
    )
    @pytest.mark.parametrize("alpha", [0.6, 1.0])
    def test_closed_form_is_the_sup_over_a_fine_grid(self, M, alpha):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, M))
        sums = k.basis_matrix(np.linspace(0.0, 1.0, 20001)) ** 2 @ k.spectrum.mu**alpha
        assert embedding_norm(k, alpha) ** 2 == pytest.approx(np.max(sums), rel=1e-12)


class TestAlphaStar:
    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_at_least_inverse_beta(self, beta):
        # the embedding norm is finite just above the index and diverges at it
        k = SpectralKernel(make_power_law_spectrum(beta, 0.0, 10_000))
        a = embedding_index(k)
        assert a == 1.0 / beta
        assert np.isfinite(embedding_norm(k, a + 1e-3))
        with pytest.raises(DivergentEmbedding):
            embedding_norm(k, a)

    def test_close_to_inverse_beta_for_bounded_basis(self):
        # the log factor does not move the index
        for zeta in (-2.0, -1.0, 0.0, 0.5, 2.0):
            k = SpectralKernel(make_power_law_spectrum(2.0, zeta, 4096))
            assert embedding_index(k) == 0.5


class TestTheoreticalExponent:
    def test_boundary_case(self):
        rep = theoretical_exponent(0.0, 2.0, 0.5)
        assert rep.exponent == pytest.approx(0.0)
        assert rep.classification == "generalizes_poorly"

    def test_inconsistent_case(self):
        rep = theoretical_exponent(0.5, 2.0, 0.5)
        assert rep.exponent == pytest.approx(1.0)
        assert rep.classification == "inconsistent"

    def test_vanishing_numerator(self):
        beta, alpha_star = 2.5, 0.6
        gamma = 3.0 * (alpha_star - 1.0 / beta)
        rep = theoretical_exponent(gamma, beta, alpha_star)
        assert rep.exponent == pytest.approx(0.0, abs=1e-14)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            theoretical_exponent(1.0, 2.0, 0.5)

    @pytest.mark.parametrize(
        "gamma", [np.array([0.5]), [0.5], "0.5"], ids=["array", "list", "string"]
    )
    def test_rejects_a_gamma_that_is_not_one_real_number(self, gamma):
        # the array gave an array exponent; the list and the string raised TypeError
        with pytest.raises(ValueError, match=real_rule("gamma", "[0, 1)", gamma)):
            theoretical_exponent(gamma, 2.0, 0.5)

    def test_no_divergence_case(self):
        # threshold 3 (0.9 - 0.5) = 1.2 exceeds gamma: (0.1 - 1.2) / (2.7 - 1)
        rep = theoretical_exponent(0.1, 2.0, 0.9)
        assert rep.exponent == pytest.approx(-1.1 / 1.7)
        assert rep.classification == "no_divergence"

    @pytest.mark.parametrize("alpha_star", [0.2, np.array([0.5])], ids=["below", "array"])
    def test_rejects_alpha_star_below_inverse_beta(self, alpha_star):
        # the array gave an array exponent; the interval holds 1e-12 of slack at each end
        message = real_rule("alpha_star", "[0.499999999999, 1.000000000001]", alpha_star)
        with pytest.raises(ValueError, match=message):
            theoretical_exponent(0.5, 2.0, alpha_star)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, 1.0, 0.5])
    def test_rejects_beta_before_alpha_star(self, beta):
        # the range of alpha_star is set by beta, so a bad beta is named, not alpha_star
        with pytest.raises(ValueError, match=real_rule("beta", "(1, inf)", beta)):
            theoretical_exponent(0.5, beta, 0.5)


class TestAppendixBounds:
    def test_f_gamma_bound_sampled(self):
        # t^gamma / (t + lam) <= lam^(gamma - 1) over random triples
        rng = np.random.default_rng(7)
        t = rng.exponential(1.0, 1000)
        lam = rng.exponential(0.5, 1000) + 1e-6
        gamma = rng.random(1000)
        lhs = t**gamma / (t + lam)
        assert np.all(lhs <= lam ** (gamma - 1.0) + 1e-12)

    @pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
    def test_effective_dimension_decay_rate(self, beta):
        from rkhslab import fit_loglog_slope

        s = make_power_law_spectrum(beta, 0.0, 100_000)
        alpha = 1.0 / beta + 0.05
        grid = np.geomspace(1e-6, 1e-1, 20)
        vals = np.array([effective_dimension(s, l) for l in grid])
        slope, _ = fit_loglog_slope(1.0 / grid, vals)
        assert slope <= alpha + 0.05
