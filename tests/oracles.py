"""Scalar reference paths that the tests compare the batched package against."""

from qapprox.basis import basis_row
from qapprox.durrmeyer import finite_inner
from qapprox.funcreg import builtin
from qapprox.qcore import jackson_integral, q_binomial, q_integer


def direct_basis(n, k, q, x):
    """p_nk(q;x) as one direct product, independent of basis_row's shared cumulants."""
    poch = 1.0
    for s in range(n - k):
        poch *= 1.0 - q**s * x
    return q_binomial(n, k, q) * x**k * poch


def coefficient_finite(spec, k, f):
    """A_nk(f) for one k, by the scalar Jackson integral (adaptive quadrature at q = 1)."""
    n, q = spec.n, spec.q

    def integrand(t):
        return f(finite_inner(spec, t)) * basis_row(n, q, q * t)[k]

    return q_integer(n + 1, q) * q ** (-k) * jackson_integral(integrand, q, spec.policy)


def registry_samples():
    """A small cross-section of registry functions for property tests."""
    names = ("const:2", "id", "square", "absdev:0.5", "absdev:0.3", "expdec", "sin:3")
    return [builtin(name) for name in names]
