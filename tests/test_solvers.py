import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from rkhslab import (
    NotInPowerSpace,
    SampleSet,
    SingularGram,
    SpectralKernel,
    Spectrum,
    build_operator_model,
    estimator_l2_coefficients,
    gamma_error_sq,
    gram_matrix,
    kernel_eval,
    make_power_law_spectrum,
    min_norm_fit,
    operator_rep_check,
    predict,
    ridge_fit,
    v_lambda_coefficient_route,
)


def constant_kernel():
    return SpectralKernel(Spectrum(np.array([1.0]), beta=2.0, zeta=0.0))


@pytest.fixture(scope="module")
def cosine_kernel():
    return SpectralKernel(make_power_law_spectrum(2.0, 0.0, 1024))


class TestSampleSet:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SampleSet([0.1, 0.2], [1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            SampleSet([], [])

    def test_count(self):
        assert SampleSet([0.1, 0.2], [1.0, 2.0]).n == 2


class TestRidgeFit:
    def test_scalar_example(self):
        d = ridge_fit(constant_kernel(), SampleSet([0.3], [2.0]), 0.5)
        assert d.alpha[0] == pytest.approx(4.0 / 3.0)
        assert predict(d, 0.7) == pytest.approx(4.0 / 3.0)

    def test_interpolation_exactness(self, cosine_kernel):
        rng = np.random.default_rng(0)
        for n in (8, 32, 64):
            X = (np.arange(n) + rng.random(n)) / n
            Y = rng.standard_normal(n)
            d = ridge_fit(cosine_kernel, SampleSet(X, Y), 0.0)
            resid = np.abs(predict(d, X) - Y)
            assert np.max(resid) <= 1e-6 * np.max(np.abs(Y))

    def test_large_lambda_shrinks_alpha(self, cosine_kernel):
        s = SampleSet([0.2, 0.5, 0.8], [1.0, -1.0, 2.0])
        d = ridge_fit(cosine_kernel, s, 1e8)
        assert np.max(np.abs(d.alpha)) <= 1e-7

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            ridge_fit(constant_kernel(), SampleSet([0.3], [1.0]), -0.1)

    @pytest.mark.parametrize("jitter", [-0.1, float("nan"), float("inf")])
    def test_rejects_a_negative_or_non_finite_jitter(self, jitter):
        with pytest.raises(ValueError, match="lambda and jitter must be nonnegative"):
            ridge_fit(constant_kernel(), SampleSet([0.3], [1.0]), 0.0, jitter=jitter)

    def test_linearity_in_y(self, cosine_kernel):
        rng = np.random.default_rng(1)
        X = rng.random(12)
        y1, y2 = rng.standard_normal(12), rng.standard_normal(12)
        lam = 1e-3
        a1 = ridge_fit(cosine_kernel, SampleSet(X, y1), lam).alpha
        a2 = ridge_fit(cosine_kernel, SampleSet(X, y2), lam).alpha
        a12 = ridge_fit(cosine_kernel, SampleSet(X, y1 + y2), lam).alpha
        assert np.max(np.abs(a12 - (a1 + a2))) <= 1e-12 * np.max(np.abs(a12))

    def test_norm_shrinks_with_lambda(self, cosine_kernel):
        rng = np.random.default_rng(2)
        X, Y = rng.random(16), rng.standard_normal(16)
        norms = [
            gamma_error_sq(ridge_fit(cosine_kernel, SampleSet(X, Y), lam), [], 1.0)
            for lam in np.geomspace(1e-6, 1.0, 10)
        ]
        assert np.all(np.diff(norms) <= 1e-10)

    def test_alpha_equals_cholesky_solve_of_the_shifted_gram(self, cosine_kernel):
        rng = np.random.default_rng(7)
        s = SampleSet(rng.random(40), rng.standard_normal(40))
        lam = 1e-4
        G = gram_matrix(cosine_kernel, s.X)
        G.flat[:: s.n + 1] += s.n * lam
        expected = cho_solve(cho_factor(G, lower=True), s.Y)
        assert np.array_equal(ridge_fit(cosine_kernel, s, lam).alpha, expected)

    def test_singular_gram_raises_without_an_eigensolve(self, monkeypatch):
        # 48 points and 16 modes: the Gram matrix has rank 16 and Cholesky fails
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 16))
        s = SampleSet(np.random.default_rng(3).random(48), np.ones(48))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        with pytest.raises(SingularGram):
            ridge_fit(k, s, 0.0)

    def test_unfactorizable_regularized_system_raises(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 16))
        rng = np.random.default_rng(3)
        s = SampleSet(rng.random(48), rng.standard_normal(48))
        lam = 1e-300  # lost in the rounding of the diagonal: the system stays singular
        with pytest.raises(np.linalg.LinAlgError) as exc:
            ridge_fit(k, s, lam)
        assert not isinstance(exc.value, SingularGram)

    def test_failed_factorization_is_reraised(self, cosine_kernel, monkeypatch):
        import rkhslab.solvers as solvers

        monkeypatch.setattr(solvers, "cho_factor", fail_to_factor)
        rng = np.random.default_rng(4)
        s = SampleSet(rng.random(6), rng.standard_normal(6))
        with pytest.raises(np.linalg.LinAlgError, match="forced failure") as exc:
            ridge_fit(cosine_kernel, s, 0.1)
        assert not isinstance(exc.value, SingularGram)


def fail_to_factor(A, **kw):
    raise np.linalg.LinAlgError("forced failure")


def spy_on_ridge_fit(monkeypatch) -> list:
    """The jitter of every ridge_fit call that min_norm_fit makes, in call order."""
    import rkhslab.solvers as solvers

    jitters = []

    def spy(kernel, s, lam, jitter=0.0):
        jitters.append(jitter)
        return ridge_fit(kernel, s, lam, jitter=jitter)

    monkeypatch.setattr(solvers, "ridge_fit", spy)
    return jitters


class TestMinNormFit:
    def test_interpolating_flag(self, cosine_kernel):
        rng = np.random.default_rng(3)
        d = min_norm_fit(cosine_kernel, SampleSet(rng.random(8), rng.standard_normal(8)))
        assert d.jitter_used == 0

    def test_singular_fit_retries_once(self, monkeypatch):
        jitters = spy_on_ridge_fit(monkeypatch)
        # 48 points and 16 modes: the Gram matrix has rank 16 and Cholesky fails
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 16))
        rng = np.random.default_rng(3)
        s = SampleSet(rng.random(48), rng.standard_normal(48))
        d = min_norm_fit(k, s)
        G = gram_matrix(k, s.X)
        jitter = 1e-12 * np.linalg.eigvalsh(G)[-1]
        assert jitters == [0.0, jitter]
        assert d.jitter_used == jitter > 0
        # the jittered system factors: alpha is its Cholesky solve
        G.flat[:: s.n + 1] += jitter
        assert np.array_equal(d.alpha, cho_solve(cho_factor(G, lower=True), s.Y))

    def test_a_rejected_retry_raises(self, cosine_kernel, monkeypatch):
        import rkhslab.solvers as solvers

        jitters = spy_on_ridge_fit(monkeypatch)
        monkeypatch.setattr(solvers, "cho_factor", fail_to_factor)
        with pytest.raises(np.linalg.LinAlgError, match="forced failure") as exc:
            min_norm_fit(cosine_kernel, SampleSet([0.2, 0.8], [1.0, -1.0]))
        assert not isinstance(exc.value, SingularGram)
        assert len(jitters) == 2 and jitters[0] == 0 < jitters[1]


class TestPredictAndCoefficients:
    def test_zero_alpha(self, cosine_kernel):
        from rkhslab.solvers import DualSolution

        d = DualSolution(cosine_kernel, np.array([0.2]), np.array([0.0]))
        assert predict(d, 0.7) == 0.0
        assert np.all(estimator_l2_coefficients(d) == 0.0)

    def test_single_mode_coefficient(self):
        from rkhslab.solvers import DualSolution

        d = DualSolution(constant_kernel(), np.array([0.3]), np.array([4.0 / 3.0]))
        assert estimator_l2_coefficients(d)[0] == pytest.approx(4.0 / 3.0)

    def test_coefficients_reproduce_predictions(self, cosine_kernel):
        # predict sums the L2 coefficients; the dual expansion sum_j alpha_j K(x, x_j) is the reference
        rng = np.random.default_rng(4)
        X, Y = rng.random(10), rng.standard_normal(10)
        d = ridge_fit(cosine_kernel, SampleSet(X, Y), 1e-2)
        x_eval = rng.random(100)
        dual = kernel_eval(cosine_kernel, x_eval, X) @ d.alpha
        assert np.max(np.abs(dual - predict(d, x_eval))) <= 1e-8

    def test_rkhs_norm_of_an_ill_conditioned_interpolant(self, cosine_kernel):
        # K(X, X) has condition number 7e11 here: alpha^T K alpha cancels
        # inside K alpha (5e-6 relative error), while the sum of the
        # nonnegative terms mu_i (E^T alpha)_i^2 comes within 2e-11
        rng = np.random.default_rng(9)
        X, Y = rng.random(256), rng.standard_normal(256)
        d = min_norm_fit(cosine_kernel, SampleSet(X, Y))
        pi = np.arccos(np.longdouble(-1.0))
        E = np.sqrt(np.longdouble(2.0)) * np.cos(
            pi * np.outer(X.astype(np.longdouble), np.arange(cosine_kernel.size))
        )
        E[:, 0] = 1.0
        ref = np.sum(cosine_kernel.spectrum.mu * (E.T @ d.alpha.astype(np.longdouble)) ** 2)
        assert abs(gamma_error_sq(d, [], 1.0) - float(ref)) <= 1e-9 * float(ref)


class TestOperatorRepCheck:
    def test_scalar_instance(self):
        k = constant_kernel()
        s = SampleSet([0.3], [2.0])
        d = ridge_fit(k, s, 0.5)
        m = build_operator_model(k, s.X)
        assert operator_rep_check(d, m, s, 0.5) <= 1e-14

    def test_random_instance(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 1024))
        rng = np.random.default_rng(5)
        s = SampleSet(rng.random(16), rng.standard_normal(16))
        d = ridge_fit(k, s, 1e-3)
        m = build_operator_model(k, s.X)
        assert operator_rep_check(d, m, s, 1e-3) <= 1e-8

    def test_zero_responses(self, cosine_kernel):
        rng = np.random.default_rng(6)
        s = SampleSet(rng.random(8), np.zeros(8))
        d = ridge_fit(cosine_kernel, s, 1e-2)
        m = build_operator_model(cosine_kernel, s.X)
        assert operator_rep_check(d, m, s, 1e-2) == 0.0

    def test_lambda_zero_route(self, cosine_kernel):
        rng = np.random.default_rng(7)
        s = SampleSet(rng.random(8), rng.standard_normal(8))
        d = min_norm_fit(cosine_kernel, s)
        m = build_operator_model(cosine_kernel, s.X)
        assert operator_rep_check(d, m, s, 0.0) <= 1e-8


class TestGammaErrorSq:
    def test_exact_recovery(self):
        from rkhslab.solvers import DualSolution

        d = DualSolution(constant_kernel(), np.array([0.3]), np.array([4.0 / 3.0]))
        assert gamma_error_sq(d, [4.0 / 3.0], 0.5) == pytest.approx(0.0)

    def test_one_mode_example(self):
        from rkhslab.solvers import DualSolution

        d = DualSolution(constant_kernel(), np.array([0.3]), np.array([4.0 / 3.0]))
        assert gamma_error_sq(d, [0.0], 0.5) == pytest.approx(16.0 / 9.0)

    def test_gamma_zero_is_l2_error(self, cosine_kernel):
        rng = np.random.default_rng(8)
        s = SampleSet(rng.random(6), rng.standard_normal(6))
        d = ridge_fit(cosine_kernel, s, 1e-2)
        c = estimator_l2_coefficients(d)
        b = np.zeros_like(c)
        b[0] = 0.7
        assert gamma_error_sq(d, b[:1], 0.0) == pytest.approx(np.sum((c - b) ** 2))

    def test_target_outside_power_space(self):
        k = SpectralKernel(Spectrum(np.array([1.0, 1e-310]), beta=2.0, zeta=0.0))
        from rkhslab.solvers import DualSolution

        d = DualSolution(k, np.array([0.3]), np.array([0.0]))
        with pytest.raises(NotInPowerSpace):
            gamma_error_sq(d, [0.0, 1.0], 1.0)

    def test_too_long_target(self):
        from rkhslab.solvers import DualSolution

        d = DualSolution(constant_kernel(), np.array([0.3]), np.array([0.0]))
        with pytest.raises(ValueError):
            gamma_error_sq(d, [1.0, 2.0], 0.0)


class TestConditionalExpectationLowerBound:
    @pytest.mark.parametrize("lam", [0.0, 1e-3, 1e-2])
    def test_mean_error_at_least_sigma_sq_v(self, lam):
        # with f* = 0 and Gaussian noise at fixed X, the Monte Carlo mean of
        # the gamma-error over Y-draws is bounded below by sigma^2 V(lambda)
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 512))
        gamma, sigma, draws = 0.5, 1.0, 500
        rng = np.random.default_rng(9)
        X = (np.arange(8) + rng.random(8)) / 8
        m = build_operator_model(k, X)
        v = v_lambda_coefficient_route(m, gamma, lam)
        errors = np.empty(draws)
        for t in range(draws):
            Y = sigma * rng.standard_normal(8)
            d = ridge_fit(k, SampleSet(X, Y), lam)
            errors[t] = gamma_error_sq(d, [0.0], gamma)
        se = errors.std(ddof=1) / np.sqrt(draws)
        assert errors.mean() >= sigma**2 * v - 3 * se
