import re
import tracemalloc
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import rkhslab.operators as operators
from rkhslab import (
    DomainError,
    DotProductSpectrum,
    IllConditionedGram,
    NotInPowerSpace,
    SampleSet,
    SingularOperator,
    SpectralKernel,
    Spectrum,
    build_operator_model,
    concentration_trial,
    dot_product_kernel_eval,
    effective_dimension,
    embedding_norm,
    envelope_shape,
    fit_loglog_slope,
    gamma_error_sq,
    gamma_norm_sq,
    gram_matrix,
    kernel_eval,
    make_power_law_spectrum,
    make_responses,
    norm_eq_check,
    ntk_eval,
    ridge_fit,
    v1_lambda,
    v2_lambda,
    v_lambda_coefficient_route,
    v_lambda_gram_route,
)
from rules import array_rule, real_rule


def one_mode_kernel():
    return SpectralKernel(Spectrum(np.array([1.0]), beta=2.0, zeta=0.0))


def two_mode_kernel():
    return SpectralKernel(Spectrum(np.array([1.0, 0.25]), beta=2.0, zeta=0.0))


class TestBuildOperatorModel:
    def test_shapes(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        m = build_operator_model(k, np.linspace(0.1, 0.9, 5))
        assert m.psi.shape == (5, 64)
        assert m.C_emp.shape == (64, 64)
        assert m.n == 5

    def test_covariance_symmetric_psd(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        m = build_operator_model(k, np.random.default_rng(0).random(8))
        assert np.allclose(m.C_emp, m.C_emp.T)
        w = np.linalg.eigvalsh(m.C_emp)
        assert w[0] >= -1e-12 * w[-1]

    def test_psi_row_norm_is_kernel_diagonal(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))
        X = np.random.default_rng(1).random(10)
        m = build_operator_model(k, X)
        row_sq = np.sum(m.psi**2, axis=1)
        diag = np.array([kernel_eval(k, x, x) for x in X])
        assert np.max(np.abs(row_sq - diag)) <= 1e-10

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="need at least one sample point"):
            build_operator_model(one_mode_kernel(), [])


# the kernel's domain check is the one gate for sample points: an empty set, a row, a matrix
# and an (n, 1) column all fail there (the multi-axis sets failed inside the basis evaluation,
# or were flattened, and kernel_eval returned a (0, 1) array for an empty set)
@pytest.mark.parametrize(
    "X, shape",
    [([], (0,)), ([[0.1, 0.2]], (1, 2)), (np.zeros((2, 2)), (2, 2)), ([[0.1], [0.2]], (2, 1))],
    ids=["empty", "row", "matrix", "column"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda k, X: k.basis_matrix(X),
        lambda k, X: gram_matrix(k, X),
        lambda k, X: kernel_eval(k, X, 0.5),
        lambda k, X: kernel_eval(k, 0.5, X),
        lambda k, X: build_operator_model(k, X),
        lambda k, X: v_lambda_gram_route(k, X, 0.5, 0.1),
        lambda k, X: SampleSet(X, np.zeros(np.size(X))),
    ],
    ids=[
        "basis_matrix",
        "gram_matrix",
        "kernel_eval_x",
        "kernel_eval_y",
        "build_operator_model",
        "v_lambda_gram_route",
        "SampleSet",
    ],
)
def test_point_sets_that_are_empty_or_multi_axis_fail_at_the_domain_gate(call, X, shape):
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
    message = f"need at least one sample point on one axis (got shape {shape})"
    with pytest.raises(DomainError, match=re.escape(message)):
        call(k, X)


def _fit(k):
    return ridge_fit(k, SampleSet([0.2, 0.4, 0.6], np.ones(3)), 0.1)


# every array of reals passes one rule: a numeric array whose entries are finite and inside the
# argument's interval; at 0.5 each argument below is valid, so the first entry is the offender
# (an infinite eigenvalue, a NaN response or f* value and a bool point were accepted,
# string entries were parsed, and a NaN target raised NotInPowerSpace)
@pytest.mark.parametrize(
    "bad",
    [
        np.array([np.nan, 0.5, 0.5]),
        np.array([np.inf, 0.5, 0.5]),
        np.array([-np.inf, 0.5, 0.5]),
        np.array([True, False, True]),
        np.array(["0.5", "0.5", "0.5"]),
    ],
    ids=["nan", "inf", "-inf", "bool", "string"],
)
@pytest.mark.parametrize(
    "call, name, interval, error",
    [
        (lambda k, a: Spectrum(a, 2.0, 0.0), "eigenvalue", "(0, inf)", ValueError),
        (lambda k, a: DotProductSpectrum(2, a), "per-degree eigenvalue", "[0, inf)", ValueError),
        (lambda k, a: k.basis_matrix(a), "point", "[0, 1]", DomainError),
        (lambda k, a: gram_matrix(k, a), "point", "[0, 1]", DomainError),
        (lambda k, a: kernel_eval(k, 0.5, a), "point", "[0, 1]", DomainError),
        (lambda k, a: build_operator_model(k, a), "point", "[0, 1]", DomainError),
        (lambda k, a: SampleSet(a, np.ones(3)), "point", "[0, 1]", DomainError),
        (lambda k, a: ntk_eval(a), "t", "[-1.000000000001, 1.000000000001]", DomainError),
        (
            lambda k, a: dot_product_kernel_eval(DotProductSpectrum(2, [1.0, 0.5]), a),
            "t",
            "[-1.000000000001, 1.000000000001]",
            DomainError,
        ),
        (lambda k, a: fit_loglog_slope(a, [1.0, 2.0, 4.0]), "x", "(0, inf)", ValueError),
        (lambda k, a: fit_loglog_slope([1.0, 2.0, 4.0], a), "y", "(0, inf)", ValueError),
        (lambda k, a: envelope_shape(k.spectrum, 0.5, a, 8), "lambda", "(0, inf)", ValueError),
        (lambda k, a: SampleSet([0.2, 0.4, 0.6], a), "response", "(-inf, inf)", ValueError),
        (
            lambda k, a: make_responses(np.full(3, 0.5), a, 1.0, np.random.default_rng(0)),
            "f* value",
            "(-inf, inf)",
            ValueError,
        ),
        (lambda k, a: gamma_error_sq(_fit(k), a, 0.5), "f* coefficient", "(-inf, inf)", ValueError),
        (lambda k, a: norm_eq_check(k, a, 0.5), "coefficient", "(-inf, inf)", ValueError),
    ],
    ids=[
        "Spectrum",
        "DotProductSpectrum",
        "basis_matrix",
        "gram_matrix",
        "kernel_eval",
        "build_operator_model",
        "SampleSet_X",
        "ntk_eval",
        "dot_product_kernel_eval",
        "fit_loglog_slope_xs",
        "fit_loglog_slope_ys",
        "envelope_shape",
        "SampleSet_Y",
        "make_responses",
        "gamma_error_sq",
        "norm_eq_check",
    ],
)
def test_every_array_argument_follows_the_array_rule(call, name, interval, error, bad):
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 8))
    with pytest.raises(error, match=array_rule(name, interval, bad[0])) as raised:
        call(k, bad)
    assert raised.type is error


class TestGammaNormSq:
    def test_power_space_unit_vector(self):
        s = Spectrum(np.array([0.3, 0.1]), beta=2.0, zeta=0.0)
        for gamma in (0.0, 0.5, 1.0):
            c = np.array([0.3 ** (gamma / 2.0), 0.0])
            assert gamma_norm_sq(c, s, gamma) == pytest.approx(1.0)

    def test_gamma_zero_is_l2(self):
        s = Spectrum(np.array([1.0, 0.25, 0.1]), beta=2.0, zeta=0.0)
        c = np.array([0.2, -0.4, 0.1])
        assert gamma_norm_sq(c, s, 0.0) == pytest.approx(np.sum(c**2))

    def test_weighted_example(self):
        s = Spectrum(np.array([1.0, 0.25]), beta=2.0, zeta=0.0)
        assert gamma_norm_sq([0.5, 0.5], s, 1.0) == pytest.approx(1.25)

    def test_rejects_gamma_out_of_range(self):
        s = Spectrum(np.array([1.0]), beta=2.0, zeta=0.0)
        with pytest.raises(ValueError):
            gamma_norm_sq([1.0], s, 1.5)

    def test_zero_coefficient_under_an_overflowing_weight(self):
        # mu_2^-0.99 overflows; the zero coefficient there adds 0 and no RuntimeWarning
        s = Spectrum(np.array([1.0, 1e-320]), beta=2.0, zeta=0.0)
        assert gamma_norm_sq([1.0, 0.0], s, 0.99) == 1.0

    def test_overflowing_weight(self):
        s = Spectrum(np.array([1.0, 1e-310]), beta=2.0, zeta=0.0)
        with pytest.raises(NotInPowerSpace):
            gamma_norm_sq([0.0, 1.0], s, 1.0)


class TestVCoefficientRoute:
    def test_scalar_instance(self):
        m = build_operator_model(one_mode_kernel(), [0.5])
        assert v_lambda_coefficient_route(m, 0.0, 1.0) == pytest.approx(0.25)

    def test_monotone_in_lambda(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))
        rng = np.random.default_rng(2)
        for _ in range(5):
            m = build_operator_model(k, rng.random(12))
            assert v_lambda_coefficient_route(m, 0.0, 0.1) >= (
                v_lambda_coefficient_route(m, 0.0, 0.2) - 1e-10
            )

    def test_matches_gram_route(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 512))
        X = np.random.default_rng(3).random(16)
        m = build_operator_model(k, X)
        for gamma in (0.0, 0.5):
            for lam in (1e-3, 1e-1):
                a = v_lambda_coefficient_route(m, gamma, lam)
                b = v_lambda_gram_route(k, X, gamma, lam)
                assert abs(a - b) <= 1e-6 * abs(b)

    def test_lambda_zero_finite_on_full_rank_instance(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        X = np.array([0.11, 0.37, 0.62, 0.88])
        m = build_operator_model(k, X)
        v0 = v_lambda_coefficient_route(m, 0.0, 0.0)
        assert np.isfinite(v0) and v0 > 0

    def test_lambda_zero_matches_gram_brute_force(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        X = np.array([0.11, 0.37, 0.62, 0.88])
        m = build_operator_model(k, X)
        n = len(X)
        G = gram_matrix(k, X)
        M2 = gram_matrix(k, X, power=2.0)
        Ginv = np.linalg.inv(G)
        brute = float(np.trace(Ginv @ M2 @ Ginv))
        assert v_lambda_coefficient_route(m, 0.0, 0.0) == pytest.approx(
            brute, rel=1e-8
        )

    def test_lambda_zero_accurate_on_ill_conditioned_draw(self):
        # this draw's psi has condition number 1.7e7; the reference is
        # V(0) = sum_k ||v_k||_w^2 / s_k^2 from the orthonormal right singular vectors
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 1024))
        m = build_operator_model(k, np.random.default_rng(3).random(256))
        _, s, Vt = np.linalg.svd(m.psi, full_matrices=False)
        for gamma in (0.0, 0.5):
            ref = np.sum((Vt**2 @ m.mu ** (1.0 - gamma)) / s**2)
            assert v_lambda_coefficient_route(m, gamma, 0.0) == pytest.approx(ref, rel=1e-9)

    def test_lambda_zero_rank_deficient(self):
        m = build_operator_model(two_mode_kernel(), [0.2, 0.4, 0.6])
        with pytest.raises(SingularOperator):
            v_lambda_coefficient_route(m, 0.0, 0.0)

    def test_rejects_negative_lambda(self):
        m = build_operator_model(one_mode_kernel(), [0.5])
        with pytest.raises(ValueError):
            v_lambda_coefficient_route(m, 0.0, -1.0)

    @pytest.mark.parametrize("n", [6, 80])
    def test_parseval_aggregation_identity(self, n):
        # (1/n^2) sum_i gamma_norm_sq of the L2 coefficients of
        # (C_emp + lam)^{-1} psi(x_i) reproduces the functional itself;
        # n = 80 > M = 64 puts more sample points than modes in the factorization
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        X = np.random.default_rng(5).random(n)
        m = build_operator_model(k, X)
        lam, gamma = 1e-2, 0.5
        Z = np.linalg.solve(m.C_emp + lam * np.eye(64), m.psi.T)
        total = sum(
            gamma_norm_sq(np.sqrt(m.mu) * Z[:, i], k.spectrum, gamma)
            for i in range(m.n)
        ) / m.n**2
        assert total == pytest.approx(
            v_lambda_coefficient_route(m, gamma, lam), abs=1e-10
        )

    def test_one_svd_per_model(self, monkeypatch):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, call)

        counting("svd")
        counting("qr")
        m = build_operator_model(k, np.random.default_rng(11).random(12))
        assert calls == []  # the factorization is computed on first use
        for lam in (1e-3, 1e-2, 1e-1):
            v_lambda_coefficient_route(m, 0.5, lam)
        assert sorted(calls) == ["qr", "svd"]
        for gamma in (0.0, 0.25, 0.5):
            v_lambda_coefficient_route(m, gamma, 0.0)
        assert sorted(calls) == ["qr", "svd"]

    def test_svd_factors_reconstruct_psi(self):
        rng = np.random.default_rng(12)
        models = {
            "wide": build_operator_model(
                SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256)), rng.random(40)
            ),
            "tall": build_operator_model(
                SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64)), rng.random(100)
            ),
            # rank M = 2 < n = 3: singular at lambda = 0
            "rank_deficient": build_operator_model(two_mode_kernel(), [0.2, 0.4, 0.6]),
        }
        for name, m in models.items():
            U, s, W = m._svd
            r = min(m.psi.shape)
            assert U.shape == (m.n, r) and s.shape == (r,) and W.shape == (r, m.mu.size), name
            assert np.allclose(U.T @ U, np.eye(r), rtol=0.0, atol=1e-12), name
            assert np.linalg.norm(U @ W - m.psi) <= 1e-12 * np.linalg.norm(m.psi), name
            s_ref = np.linalg.svd(m.psi, compute_uv=False)
            assert np.max(np.abs(s - s_ref)) <= 1e-12 * s_ref[0], name
            # the rows of W are orthogonal with norms s
            assert np.allclose(W @ W.T, np.diag(s**2), rtol=0.0, atol=1e-12 * s[0] ** 2), name

    @pytest.mark.parametrize("lam", [1e-3, 1e-1])
    def test_rank_deficient_model_matches_gram_route(self, lam):
        k, X = two_mode_kernel(), [0.2, 0.4, 0.6]
        v = v_lambda_coefficient_route(build_operator_model(k, X), 0.5, lam)
        assert np.isfinite(v)
        assert v == pytest.approx(v_lambda_gram_route(k, X, 0.5, lam), rel=1e-10)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: v_lambda_coefficient_route(m, 0.5, 1e-2),
            lambda m: v1_lambda(m, 0.5, 1e-2),
        ],
        ids=["v_lambda_coefficient_route", "v1_lambda"],
    )
    def test_no_n_by_m_temporary_once_factored(self, call):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 2048))
        m = build_operator_model(k, np.random.default_rng(15).random(256))
        m._svd  # computes and caches the factors
        tracemalloc.start()
        try:
            call(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.psi.nbytes / 2

    def test_variance_curve_is_independent_of_the_gram_route(self, monkeypatch):
        # the two routes of V must share no step, or their agreement checks nothing
        def forbidden(*args, **kwargs):
            raise AssertionError("Gram-route step called by the coefficient route")

        monkeypatch.setattr(operators, "gram_matrix", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        m = build_operator_model(k, np.random.default_rng(16).random(12))
        v = [v_lambda_coefficient_route(m, 0.5, lam) for lam in (1e-3, 1e-1)]
        assert np.all(np.isfinite(v))


class TestVGramRoute:
    def test_scalar_instance(self):
        assert v_lambda_gram_route(one_mode_kernel(), [0.5], 0.0, 1.0) == pytest.approx(
            0.25
        )

    @pytest.mark.parametrize("factor", [0.0, 0.1, 10.0], ids=["zero", "below", "above"])
    def test_ill_conditioned_duplicates(self, factor):
        # G has rank one, so the trace bound (tr(G)/n + lambda) / lambda is the condition
        # number itself; lambda is a factor times the threshold where it reaches COND_LIMIT
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        X = np.array([0.3, 0.3])
        G = gram_matrix(k, X)
        lam = factor * np.trace(G) / len(X) / (operators.COND_LIMIT - 1.0)
        w = np.linalg.eigvalsh(G / len(X) + lam * np.eye(len(X)))
        ill = w[0] <= 0 or w[-1] / w[0] > operators.COND_LIMIT
        assert ill == (factor < 1.0)
        if ill:
            with pytest.raises(IllConditionedGram, match="condition number estimate"):
                v_lambda_gram_route(k, X, 0.0, lam)
        else:
            assert np.isfinite(v_lambda_gram_route(k, X, 0.0, lam))

    @pytest.mark.parametrize("lam", [1e-3, 1e-1])
    def test_well_conditioned_solve_needs_no_eigensolve(self, lam, monkeypatch):
        # below COND_LIMIT the trace bound alone clears the solve
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 512))
        X = np.random.default_rng(17).random(64)
        m = build_operator_model(k, X)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolve on a well-conditioned Gram matrix")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        v = v_lambda_gram_route(k, X, 0.5, lam)
        assert v == pytest.approx(v_lambda_coefficient_route(m, 0.5, lam), rel=1e-10)

    def test_lambda_zero_matches_coefficient_route(self):
        # the full-rank design of test_lambda_zero_matches_gram_brute_force
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        X = np.array([0.11, 0.37, 0.62, 0.88])
        for gamma in (0.0, 0.5):
            assert v_lambda_gram_route(k, X, gamma, 0.0) == pytest.approx(
                v_lambda_coefficient_route(build_operator_model(k, X), gamma, 0.0), rel=1e-8
            )

    def test_matches_the_eigendecomposition_formula(self):
        # the reference is the sum over eigenpairs (w, q) of A = G/n + lambda I
        # of q^T K2 q / w^2, divided by n^2
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))
        rng = np.random.default_rng(18)
        for _ in range(3):
            X = rng.random(32)
            n = len(X)
            for lam in (1e-4, 1e-2, 1e-1):
                w, Q = np.linalg.eigh(gram_matrix(k, X) / n + lam * np.eye(n))
                for gamma in (0.0, 0.5):
                    K2 = gram_matrix(k, X, power=2.0 - gamma)
                    ref = np.sum(np.sum(Q * (K2 @ Q), axis=0) / w**2) / n**2
                    assert v_lambda_gram_route(k, X, gamma, lam) == pytest.approx(ref, rel=1e-10)

    def test_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match="need at least one sample point"):
            v_lambda_gram_route(one_mode_kernel(), [], 0.5, 0.1)


@pytest.mark.parametrize(
    "route",
    [
        lambda k, X, lam: v_lambda_coefficient_route(build_operator_model(k, X), 0.5, lam),
        lambda k, X, lam: v_lambda_gram_route(k, X, 0.5, lam),
    ],
    ids=["coefficient", "gram"],
)
def test_both_routes_reject_negative_lambda(route):
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
    X = np.random.default_rng(14).random(8)
    with pytest.raises(ValueError, match=real_rule("lambda", "[0, inf)", -1e-3)):
        route(k, X, -1e-3)


# a lambda is one real number: a bool, a list or a one-element array is rejected too;
# True was taken as lambda = 1
NOT_ONE_LAMBDA = (float("nan"), float("inf"), True, [0.1], np.array([0.1]))


# the message of each case as a function of the bad value
LAMBDA_FROM_ZERO = partial(real_rule, "lambda", "[0, inf)")
LAMBDA_ABOVE_ZERO = partial(real_rule, "lambda", "(0, inf)")


@pytest.mark.parametrize(
    "call, message, bad_values",
    [
        (
            lambda k, X, lam: v_lambda_coefficient_route(build_operator_model(k, X), 0.5, lam),
            LAMBDA_FROM_ZERO,
            NOT_ONE_LAMBDA,
        ),
        (
            lambda k, X, lam: v1_lambda(build_operator_model(k, X), 0.5, lam),
            LAMBDA_ABOVE_ZERO,
            NOT_ONE_LAMBDA,
        ),
        (
            lambda k, X, lam: v2_lambda(k.spectrum, 0.5, lam, len(X)),
            LAMBDA_ABOVE_ZERO,
            NOT_ONE_LAMBDA,
        ),
        (lambda k, X, lam: effective_dimension(k.spectrum, lam), LAMBDA_ABOVE_ZERO, NOT_ONE_LAMBDA),
        (lambda k, X, lam: v_lambda_gram_route(k, X, 0.5, lam), LAMBDA_FROM_ZERO, NOT_ONE_LAMBDA),
        (
            lambda k, X, lam: ridge_fit(k, SampleSet(X, np.ones(len(X))), lam),
            LAMBDA_FROM_ZERO,
            NOT_ONE_LAMBDA,
        ),
        (  # the array rule checks each entry, and names it as the numpy scalar it is
            lambda k, X, lam: envelope_shape(k.spectrum, 0.5, np.array([0.1, lam]), len(X)),
            partial(array_rule, "lambda", "(0, inf)"),
            (np.float64("nan"), np.float64("inf")),
        ),
        (
            lambda k, X, nan: v2_lambda(k.spectrum, 0.5, 0.1, nan),
            lambda nan: r"^n must be an integer of at least 1 \(got nan\)$",
            (float("nan"),),
        ),
    ],
    ids=[
        "v_lambda_coefficient_route",
        "v1_lambda",
        "v2_lambda",
        "effective_dimension",
        "v_lambda_gram_route",
        "ridge_fit",
        "envelope_shape",
        "v2_lambda_n",
    ],
)
def test_nan_lambda_rejected(call, message, bad_values):
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
    X = np.random.default_rng(14).random(8)
    # lambda must be finite too; the last case passes NaN as v2_lambda's n, a count
    for bad in bad_values:
        with pytest.raises(ValueError, match=message(bad)):
            call(k, X, bad)


# a gamma is one real number: a bool, a list or a one-element array is rejected too;
# True was taken as gamma = 1
@pytest.mark.parametrize(
    "bad",
    [float("nan"), -0.1, 1.5, [0.0, 0.5], np.array([0.5]), True],
    ids=["nan", "-0.1", "1.5", "list", "array", "True"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda k, X, g: v_lambda_coefficient_route(build_operator_model(k, X), g, 0.1),
        lambda k, X, g: v_lambda_gram_route(k, X, g, 0.1),
        lambda k, X, g: v1_lambda(build_operator_model(k, X), g, 0.1),
        lambda k, X, g: v2_lambda(k.spectrum, g, 0.1, len(X)),
        lambda k, X, g: concentration_trial(k, len(X), 0.1, 0.75, 3.0, 3, 0, gamma=g),
        lambda k, X, g: envelope_shape(k.spectrum, g, np.array([0.1]), len(X)),
        lambda k, X, g: gamma_norm_sq(np.ones(4), k.spectrum, g),
        lambda k, X, g: gamma_error_sq(ridge_fit(k, SampleSet(X, np.ones(len(X))), 0.1), [], g),
    ],
    ids=[
        "v_lambda_coefficient_route",
        "v_lambda_gram_route",
        "v1_lambda",
        "v2_lambda",
        "concentration_trial",
        "envelope_shape",
        "gamma_norm_sq",
        "gamma_error_sq",
    ],
)
def test_gamma_outside_unit_interval_rejected(call, bad):
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
    X = np.random.default_rng(14).random(8)
    with pytest.raises(ValueError, match=real_rule("gamma", "[0, 1]", bad)):
        call(k, X, bad)


class TestV1Lambda:
    def test_scalar_instance(self):
        m = build_operator_model(one_mode_kernel(), [0.5])
        assert v1_lambda(m, 0.0, 1.0) == pytest.approx(0.25)

    def test_two_mode_at_origin(self):
        m = build_operator_model(two_mode_kernel(), [0.0])
        assert v1_lambda(m, 0.0, 1.0) == pytest.approx(0.33)

    def test_rejects_nonpositive_lambda(self):
        m = build_operator_model(one_mode_kernel(), [0.5])
        with pytest.raises(ValueError):
            v1_lambda(m, 0.0, 0.0)

    def test_mean_over_draws_matches_v2(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 50))
        lam, gamma = 0.05, 0.0
        n = 100_000
        X = np.random.default_rng(6).random(n)
        m = build_operator_model(k, X)
        # per-point contributions to n * V1, for a standard-error estimate
        weights = m.mu ** (2.0 - gamma) / (m.mu + lam) ** 2
        per_point = (m.psi**2 / m.mu) @ weights
        se = per_point.std(ddof=1) / np.sqrt(n)
        target = n * v2_lambda(k.spectrum, gamma, lam, n)
        assert abs(n * v1_lambda(m, gamma, lam) - target) <= 3 * se


class TestV2Lambda:
    def test_scalar_instance(self):
        s = Spectrum(np.array([1.0]), beta=2.0, zeta=0.0)
        assert v2_lambda(s, 0.0, 1.0, 1) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "mu, gamma, expected",
        [([1.0], 0.0, 0.64), ([1.0, 0.25], 0.5, 0.64 + 0.5)],
        ids=["one_mode", "two_modes_gamma_half"],
    )
    def test_closed_form_at_quarter_lambda(self, mu, gamma, expected):
        # 1 / 1.25^2 = 0.64, and 0.25^1.5 / 0.5^2 = 0.5 for the second mode
        s = Spectrum(np.array(mu), beta=2.0, zeta=0.0)
        assert v2_lambda(s, gamma, 0.25, 1) == pytest.approx(expected)

    def test_n_scaling(self):
        s = make_power_law_spectrum(2.0, 0.0, 100)
        assert v2_lambda(s, 0.5, 0.01, 4) == pytest.approx(
            v2_lambda(s, 0.5, 0.01, 1) / 4.0
        )

    @pytest.mark.parametrize("n", [2.5, 2.0, True, float("inf")])
    def test_rejects_a_non_integer_n(self, n):
        # a float or bool n returned a number
        with pytest.raises(ValueError, match=f"n must be an integer of at least 1 \\(got {n}\\)"):
            v2_lambda(make_power_law_spectrum(2.0, 0.0, 64), 0.5, 0.1, n)

    def test_small_lambda_slope(self):
        from rkhslab import fit_loglog_slope

        s = make_power_law_spectrum(2.0, 0.0, 100_000)
        grid = np.geomspace(1e-6, 1e-2, 15)
        vals = np.array([v2_lambda(s, 0.0, l, 1) for l in grid])
        slope, _ = fit_loglog_slope(1.0 / grid, vals)
        assert slope == pytest.approx(0.5, abs=0.05)


@pytest.mark.parametrize(
    "lam, n, message",
    [
        (0.0, 8, array_rule("lambda", "(0, inf)", np.float64(0.0))),
        (-0.1, 8, array_rule("lambda", "(0, inf)", np.float64(-0.1))),
        (0.1, 0, r"n must be an integer of at least 1 \(got 0\)"),
        (0.1, 8.5, r"n must be an integer of at least 1 \(got 8.5\)"),
        (0.1, 8.0, r"n must be an integer of at least 1 \(got 8.0\)"),
        (0.1, True, r"n must be an integer of at least 1 \(got True\)"),
    ],
    ids=["lambda_zero", "lambda_negative", "n_zero", "n_fraction", "n_float", "n_bool"],
)
def test_envelope_shape_rejects_nonpositive_lambda_or_n(lam, n, message):
    # one message named both arguments
    with pytest.raises(ValueError, match=message):
        envelope_shape(one_mode_kernel().spectrum, 0.5, np.array([0.1, lam]), n)


def test_envelope_shape_takes_a_list_lambda_as_an_array():
    # a list lambda raised TypeError from the lambda check
    s = one_mode_kernel().spectrum
    expected = envelope_shape(s, 0.5, np.array([0.1, 0.2]), 8)
    np.testing.assert_array_equal(envelope_shape(s, 0.5, [0.1, 0.2], 8), expected)


def test_envelope_shape_above_the_float_range_is_inf():
    # log(1e6)^266 exceeds the float range; no RuntimeWarning (warnings are errors)
    shape = envelope_shape(Spectrum(np.ones(1), 1.125, -266.0), 0.5, np.array([1e-6, 1e-1]), 1)
    assert shape[0] == np.inf and np.isfinite(shape[1])
    # 1e-300^-(0.5 + 1/1.1) overflows while log(1e300)^-200 underflows: the shape is finite
    lam, gamma, beta, zeta, n = 1e-300, 0.5, 1.1, 200.0, 128
    exact = mpmath.mpf(lam) ** (-gamma - 1 / beta) * mpmath.log(1 / mpmath.mpf(lam)) ** -zeta / n
    s = Spectrum(np.ones(1), beta, zeta)
    assert envelope_shape(s, gamma, np.array([lam]), n)[0] == pytest.approx(
        float(exact), rel=1e-10
    )


class TestNormEq:
    def test_single_mode(self):
        k = two_mode_kernel()
        assert norm_eq_check(k, [1.0, 0.0], 0.3) <= 1e-14

    def test_random_coefficients(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        rng = np.random.default_rng(7)
        for gamma in (0.0, 0.3, 0.7):
            for _ in range(10):
                f = rng.standard_normal(64)
                assert norm_eq_check(k, f, gamma) <= 1e-10
        # more coefficients than modes, or more than one axis, fail at gamma_norm_sq's shape
        # check, not in numpy
        for f, shape in ((np.ones(65), "(65,)"), (np.ones((2, 2)), "(2, 2)")):
            message = f"need at most 64 coefficients on one axis (got shape {shape})"
            with pytest.raises(ValueError, match=re.escape(message)):
                norm_eq_check(k, f, 0.5)


class TestVarianceCurve:
    def test_non_increasing(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))
        m = build_operator_model(k, np.random.default_rng(8).random(16))
        v = [v_lambda_coefficient_route(m, 0.0, lam) for lam in np.geomspace(1e-4, 0.4, 12)]
        assert np.all(np.diff(v) <= 1e-10)

    def test_envelope_finite_for_lambda_at_least_one(self):
        lam = np.array([0.1, 2.0])
        env = envelope_shape(Spectrum(np.ones(1), 2.0, 0.5), 0.5, lam, 8)
        assert np.all(np.isfinite(env))
        # the log factor is dropped at lambda >= 1, as in the harness's curve files
        expected = lam ** (-0.5 - 0.5) * np.array([np.log(10.0) ** -0.5, 1.0]) / 8
        np.testing.assert_allclose(env, expected, rtol=1e-14)


class TestEmbeddingInequality:
    def test_weighted_resolvent_bound(self):
        # || D^{(1-gamma)/2} (D + lam)^{-1} psi(x) || <= M_alpha lam^{-(gamma+alpha)/2}
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 2048))
        alpha, gamma = 0.75, 0.25
        m_alpha = embedding_norm(k, alpha)
        X = np.random.default_rng(10).random(50)
        m = build_operator_model(k, X)
        for lam in (1e-3, 1e-2, 1e-1):
            w = m.mu ** ((1.0 - gamma) / 2.0) / (m.mu + lam)
            norms = np.sqrt(np.sum((m.psi * w) ** 2, axis=1))
            assert np.all(norms <= m_alpha * lam ** (-(gamma + alpha) / 2.0) + 1e-12)


class TestOperatorNormStatistic:
    @staticmethod
    def dense_norm(m, lam):
        B = m.psi / np.sqrt(m.mu + lam)
        return np.max(np.abs(np.linalg.eigvalsh(np.diag(m.mu / (m.mu + lam)) - B.T @ B / m.n)))

    @staticmethod
    def fail_with(monkeypatch, err):
        def eigsh(*args, **kwargs):
            raise err

        monkeypatch.setattr("scipy.sparse.linalg.eigsh", eigsh)

    @staticmethod
    def model(k=SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))):
        return build_operator_model(k, np.random.default_rng(11).random(16))

    def test_lanczos_matches_dense_norm(self):
        m = self.model()
        assert operators._operator_norm_statistic(m, 0.05) == pytest.approx(
            self.dense_norm(m, 0.05), rel=1e-6
        )

    def test_falls_back_to_dense_norm_without_convergence(self, monkeypatch):
        self.fail_with(monkeypatch, ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0))))
        m = self.model()
        assert operators._operator_norm_statistic(m, 0.05) == pytest.approx(
            self.dense_norm(m, 0.05), rel=1e-12
        )

    def test_other_errors_propagate(self, monkeypatch):
        self.fail_with(monkeypatch, TypeError("forced"))
        with pytest.raises(TypeError, match="forced"):
            operators._operator_norm_statistic(self.model(), 0.05)

    def test_one_mode_uses_the_dense_norm(self, monkeypatch):
        self.fail_with(monkeypatch, TypeError("Lanczos called with one mode"))
        m = self.model(one_mode_kernel())
        assert operators._operator_norm_statistic(m, 0.05) == pytest.approx(
            self.dense_norm(m, 0.05), abs=1e-15
        )


@pytest.fixture(scope="module")
def report():
    k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 512))
    return concentration_trial(
        k, n=128, lam=0.05, alpha=0.75, tau=3.0, trials=50, rng_seed=0
    )


class TestConcentration:

    def test_target_probability(self, report):
        assert report.target_probability == pytest.approx(1.0 - 2.0 * np.exp(-3.0))

    def test_bounds_mostly_satisfied(self, report):
        assert report.v1_v2_satisfied >= 0.88
        assert report.operator_norm_satisfied >= 0.88

    def test_b_nu_uses_effective_dimension(self, report):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 512))
        n_eff = effective_dimension(k.spectrum, 0.05)
        mu1 = k.spectrum.mu[0]
        assert report.b_nu_lambda == pytest.approx(
            np.log(2.0 * np.e * n_eff * (mu1 + 0.05) / mu1)
        )

    def test_large_lambda_shrinks_statistic(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))
        small = concentration_trial(
            k, n=32, lam=0.05, alpha=0.75, tau=3.0, trials=20, rng_seed=1
        )
        large = concentration_trial(
            k, n=32, lam=50.0, alpha=0.75, tau=3.0, trials=20, rng_seed=1
        )
        assert large.operator_norm_median < small.operator_norm_median

    def test_doubling_n_tightens_v1_v2(self):
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 256))
        a = concentration_trial(
            k, n=64, lam=0.05, alpha=0.75, tau=3.0, trials=40, rng_seed=2
        )
        b = concentration_trial(
            k, n=128, lam=0.05, alpha=0.75, tau=3.0, trials=40, rng_seed=2
        )
        assert b.v1_v2_median < a.v1_v2_median

    @pytest.mark.parametrize("tau", [0.5, float("nan"), float("inf")])
    def test_rejects_small_tau(self, tau):
        # an infinite tau gave infinite bounds, every one reported satisfied
        with pytest.raises(ValueError, match=real_rule("tau", "[1, inf)", tau)):
            concentration_trial(one_mode_kernel(), 8, 0.1, 1.0, tau, 10, 0)

    def test_rejects_no_trials(self):
        # with no draw every fraction and median would be the NaN of an empty mean
        k = SpectralKernel(make_power_law_spectrum(2.0, 0.0, 64))
        with pytest.raises(ValueError, match="trials"):
            concentration_trial(k, n=16, lam=0.1, alpha=0.75, tau=3.0, trials=0, rng_seed=0)

    def test_rejects_an_empty_sample(self):
        with pytest.raises(ValueError, match=r"n must be an integer of at least 1 \(got 0\)"):
            concentration_trial(one_mode_kernel(), 0, 0.1, 0.75, 3.0, 2, 0)

    @pytest.mark.parametrize("name", ["n", "trials"])
    @pytest.mark.parametrize("bad", [8.5, 2.0, True])
    def test_rejects_a_non_integer_count(self, name, bad):
        # 8.5 used to fail inside numpy with a TypeError; True would count as 1
        args = {"n": 8, "lam": 0.1, "alpha": 0.75, "tau": 3.0, "trials": 2, "rng_seed": 0}
        message = rf"{name} must be an integer of at least 1 \(got {bad}\)"
        with pytest.raises(ValueError, match=message):
            concentration_trial(one_mode_kernel(), **{**args, name: bad})
