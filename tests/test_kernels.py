import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import fixed_quad

from rkhslab import (
    DomainError,
    DotProductSpectrum,
    SpectralKernel,
    Spectrum,
    dot_product_kernel_eval,
    gegenbauer_p,
    gram_matrix,
    kernel_eval,
    make_power_law_spectrum,
    multiplicity,
    ntk_eval,
    project_dot_product_spectrum,
)
from rkhslab.kernels import _gegenbauer_table


@pytest.fixture(scope="module")
def cosine_kernel():
    return SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))


class TestKernelEval:
    def test_constant_mode_only(self):
        k = SpectralKernel(Spectrum(np.array([1.0]), beta=2.0, zeta=0.0))
        for x, y in [(0.0, 1.0), (0.3, 0.7), (0.5, 0.5)]:
            assert kernel_eval(k, x, y) == pytest.approx(1.0)

    def test_two_modes_at_origin(self):
        k = SpectralKernel(Spectrum(np.array([1.0, 0.25]), beta=2.0, zeta=0.0))
        assert kernel_eval(k, 0.0, 0.0) == pytest.approx(1.5)

    def test_symmetry(self, cosine_kernel):
        assert kernel_eval(cosine_kernel, 0.3, 0.7) == kernel_eval(cosine_kernel, 0.7, 0.3)

    def test_domain_check(self, cosine_kernel):
        with pytest.raises(DomainError):
            kernel_eval(cosine_kernel, -0.1, 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_domain_check_rejects_non_finite(self, cosine_kernel, bad):
        with pytest.raises(DomainError):
            kernel_eval(cosine_kernel, bad, 0.5)
        with pytest.raises(DomainError):
            cosine_kernel.basis_matrix(np.array([0.2, bad]))

    def test_positive_semidefinite_grams(self, cosine_kernel):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.random(rng.integers(2, 11))
            G = gram_matrix(cosine_kernel, X)
            w = np.linalg.eigvalsh(G)
            assert w[0] >= -1e-9 * np.trace(G)

    def test_diagonal_bounded_by_trace(self, cosine_kernel):
        mu = cosine_kernel.spectrum.mu
        bound = mu[0] + 2 * np.sum(mu[1:])
        x = np.linspace(0, 1, 50)
        diag = np.diag(gram_matrix(cosine_kernel, x))
        assert np.all(diag <= bound + 1e-12)


class TestBasisMatrix:
    # M - 1 harmonics in blocks of 64: M = 65 and 129 fill whole blocks, and
    # M = 130 and 4096 end in a ragged one
    @pytest.mark.parametrize(
        "M", [2, 7, 63, 64, 65, 129, 130, 4096], ids="cosine_unit_interval-{}".format
    )
    def test_matches_long_double_reference(self, M):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, M))
        x = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(M).random(40)])
        E = k.basis_matrix(x)
        assert E.shape == (len(x), M)
        assert np.all(E[:, 0] == 1.0)
        pi = np.arccos(np.longdouble(-1.0))
        phase = pi * np.outer(x.astype(np.longdouble), np.arange(1, M))
        ref = np.sqrt(np.longdouble(2.0)) * np.cos(phase)
        assert float(np.max(np.abs(E[:, 1:] - ref))) <= 1e-11

    def test_peak_memory_is_the_output(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 4096))
        x = np.random.default_rng(5).random(256)
        tracemalloc.start()
        try:
            k.basis_matrix(x)
            basis_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            gram_matrix(k, x)
            gram_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis_peak <= 1.25 * 256 * 4096 * 8
        assert gram_peak <= 1.25 * (256 * 4096 + 256**2) * 8


class TestGramMatrix:
    @pytest.mark.parametrize("power", [1.0, 1.5])
    def test_symmetric_product_matches_general_product(self, cosine_kernel, power):
        X = np.random.default_rng(6).random(70)
        G = gram_matrix(cosine_kernel, X, power=power)
        E = cosine_kernel.basis_matrix(X)
        ref = (E * cosine_kernel.spectrum.mu**power) @ E.T
        assert np.array_equal(G, G.T)
        assert np.max(np.abs(G - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBasisOrthonormality:
    def test_gram_of_basis_is_identity(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 50))
        # 2048-point Gauss-Legendre on [0, 1]
        nodes, weights = np.polynomial.legendre.leggauss(2048)
        x = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        E = k.basis_matrix(x)
        gram = E.T @ (w[:, None] * E)
        assert np.max(np.abs(gram - np.eye(50))) <= 1e-8

    def test_uniform_bound(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 50))
        E = k.basis_matrix(np.linspace(0, 1, 1000))
        assert np.max(np.abs(E)) <= math.sqrt(2.0) + 1e-12


class TestFractionalPower:
    @pytest.mark.parametrize("power", [0.0, 1.0, 1.5])
    def test_power_matches_gram_matrix(self, cosine_kernel, power):
        X = np.random.default_rng(11).random(100)
        K = kernel_eval(cosine_kernel, X, X, power=power)
        G = gram_matrix(cosine_kernel, X, power=power)
        assert np.max(np.abs(K - G)) <= 1e-13 * np.max(np.abs(G))

    def test_power_zero_counts_modes(self):
        k = SpectralKernel(Spectrum(np.array([1.0, 0.25]), beta=2.0, zeta=0.0))
        assert kernel_eval(k, 0.0, 0.0, power=0.0) == pytest.approx(3.0)

    def test_power_two_constant_mode(self):
        k = SpectralKernel(Spectrum(np.array([1.0]), beta=2.0, zeta=0.0))
        assert kernel_eval(k, 0.2, 0.9, power=2.0) == pytest.approx(1.0)

    def test_rejects_negative_power(self, cosine_kernel):
        X = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="power must be nonnegative"):
            kernel_eval(cosine_kernel, X, X, power=-0.5)
        with pytest.raises(ValueError, match="power must be nonnegative"):
            gram_matrix(cosine_kernel, X, power=-0.5)


@pytest.mark.parametrize("bad", [np.nan, -1.0, -np.inf])
def test_rejects_nan_or_negative_power_and_eigenvalue(cosine_kernel, bad):
    X = np.array([0.1, 0.2])
    with pytest.raises(ValueError, match="power must be nonnegative"):
        kernel_eval(cosine_kernel, X, X, power=bad)
    with pytest.raises(ValueError, match="power must be nonnegative"):
        gram_matrix(cosine_kernel, X, power=bad)
    with pytest.raises(ValueError, match="per-degree eigenvalues must be nonnegative"):
        DotProductSpectrum(d=2, a=[1.0, bad])


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        t = np.linspace(-1, 1, 11)
        assert np.allclose(gegenbauer_p(0, 3, t), 1.0)

    def test_degree_one_is_identity(self):
        t = np.linspace(-1, 1, 11)
        for d in (1, 2, 3, 5):
            assert np.allclose(gegenbauer_p(1, d, t), t)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_normalized_at_one(self, d):
        for k in range(21):
            assert gegenbauer_p(k, d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_legendre_for_d2(self):
        # on S^2 the normalized polynomials are the Legendre polynomials
        t = np.linspace(-1, 1, 101)
        for k in (2, 3, 5, 8):
            ref = np.polynomial.legendre.Legendre.basis(k)(t)
            assert np.allclose(gegenbauer_p(k, 2, t), ref, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            gegenbauer_p(3, 2, 1.5)

    @pytest.mark.parametrize("k, d", [(3, 0), (3, -2), (-1, 2)])
    def test_rejects_bad_dimension_or_degree(self, k, d):
        with pytest.raises(ValueError):
            gegenbauer_p(k, d, 0.3)

    def test_projection_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            project_dot_product_spectrum(ntk_eval, 2, -1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
    def test_matches_50_digit_reference(self, d):
        # d = 1: Chebyshev polynomials cos(k arccos t); d >= 2: the unnormalized
        # recurrence k C_k = 2 (k - 1 + nu) t C_{k-1} - (k - 2 + 2 nu) C_{k-2},
        # divided by C_k(1) = (2 nu)_k / k!
        k_max = 200
        grid = np.linspace(-1.0, 1.0, 41)
        inner = np.random.default_rng(5).uniform(-0.99, 0.99, 20)
        edge = 1.0 - np.geomspace(1e-8, 1e-2, 4)
        t = np.concatenate((grid, inner, edge, -edge))
        ref = np.empty((k_max + 1, len(t)))
        with mpmath.workdps(50):
            nu = mpmath.mpf(d - 1) / 2
            for j, tj in enumerate(t):
                x = mpmath.mpf(tj)
                if d == 1:
                    theta = mpmath.acos(x)
                    ref[:, j] = [mpmath.cos(k * theta) for k in range(k_max + 1)]
                    continue
                c = [mpmath.mpf(1), 2 * nu * x]
                for k in range(2, k_max + 1):
                    c.append((2 * (k - 1 + nu) * x * c[-1] - (k - 2 + 2 * nu) * c[-2]) / k)
                ref[:, j] = [ck * mpmath.factorial(k) / mpmath.rf(2 * nu, k) for k, ck in enumerate(c)]
        err = np.abs(_gegenbauer_table(k_max, d, t) - ref)
        # off the grid the d = 1 table, which rounds five times per step where
        # the Chebyshev form 2 t P_{k-1} - P_{k-2} rounds twice, comes within
        # 1.8e-14 over 400 points of [-0.99, 0.99]; within 1e-2 of +-1 the
        # derivative of P_k grows like k^2 and any forward recurrence loses
        # digits (3e-13 at t = 1 - 1e-8 for d = 1, for the Chebyshev form too)
        tol = np.repeat([1e-14, 3e-14, 1e-12], [len(grid), len(inner), 2 * len(edge)])
        assert np.all(err <= tol)


class TestMultiplicity:
    def test_low_degrees(self):
        for d in (1, 2, 3, 4):
            assert multiplicity(d, 0) == 1
            assert multiplicity(d, 1) == d + 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_cumulative_dimension(self, d):
        # sum_{r<=k} N(d, r) = C(k+d, d) + C(k-1+d, d)
        for k in range(11):
            total = sum(multiplicity(d, r) for r in range(k + 1))
            expected = math.comb(k + d, d) + (math.comb(k - 1 + d, d) if k >= 1 else 0)
            assert total == expected


class TestDotProductKernel:
    def test_degree_zero_constant(self):
        s = DotProductSpectrum(3, np.array([1.0]))
        t = np.linspace(-1, 1, 9)
        assert np.allclose(dot_product_kernel_eval(s, t), 1.0)

    def test_linear_profile(self):
        s = DotProductSpectrum(2, np.array([0.0, 1.0]))
        assert dot_product_kernel_eval(s, 0.4) == pytest.approx(3 * 0.4)

    def test_trace_at_one(self):
        s = DotProductSpectrum(2, np.array([0.5, 0.2, 0.1]))
        expected = 0.5 * 1 + 0.2 * 3 + 0.1 * 5
        assert dot_product_kernel_eval(s, 1.0) == pytest.approx(expected)


class TestNtk:
    def test_endpoints(self):
        assert ntk_eval(1.0) == pytest.approx(2.0)
        assert ntk_eval(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_zero(self):
        assert ntk_eval(0.0) == pytest.approx(1.0 / np.pi)

    def test_clamp_window(self):
        assert ntk_eval(1.0 + 5e-13) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            ntk_eval(1.01)


class TestProjection:
    def test_constant_profile(self):
        s = project_dot_product_spectrum(lambda t: np.ones_like(t), 2, 10)
        assert s.a[0] > 0
        assert np.all(np.abs(s.a[1:]) <= 1e-10)

    def test_linear_profile_inversion(self):
        s = project_dot_product_spectrum(lambda t: np.asarray(t, float), 2, 10)
        assert s.a[1] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert np.all(np.delete(s.a, 1) <= 1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ntk_is_positive_definite_profile(self, d):
        s = project_dot_product_spectrum(ntk_eval, d, 40)
        assert np.all(s.a >= 0.0)

    @pytest.mark.parametrize(
        "g, d, k_max",
        [
            (np.ones_like, 2, 10),
            (np.asarray, 2, 10),
            (ntk_eval, 1, 40),
            (ntk_eval, 2, 40),
            (ntk_eval, 3, 40),
        ],
        ids=["constant", "linear", "ntk-d1", "ntk-d2", "ntk-d3"],
    )
    def test_rounding_noise_is_clamped_without_warning(self, g, d, k_max):
        # coefficients that are zero in exact arithmetic come out of the
        # quadrature as noise of either sign
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = project_dot_product_spectrum(g, d, k_max)
        assert np.all(s.a >= 0.0)

    def test_indefinite_profile_raises(self):
        with pytest.raises(ValueError, match="not positive definite"):
            project_dot_product_spectrum(np.negative, 2, 10)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        a_true = rng.random(21) * np.exp(-0.3 * np.arange(21))
        s_true = DotProductSpectrum(3, a_true)
        s_rec = project_dot_product_spectrum(
            lambda t: dot_product_kernel_eval(s_true, t), 3, 20
        )
        assert np.max(np.abs(s_rec.a - a_true)) <= 1e-8

    def test_ntk_decay_rate_d2(self):
        from rkhslab import fit_loglog_slope

        s = project_dot_product_spectrum(ntk_eval, 2, 48)
        k = np.arange(4, 41)
        a = s.a[4:41]
        keep = a > 1e-12 * s.a.max()
        slope, _ = fit_loglog_slope(k[keep].astype(float), a[keep])
        assert slope == pytest.approx(-3.0, abs=0.3)
