"""Closed-form raw and central moments of both operators, plus a
verification engine comparing the closed forms against the series path.

The central second moment gamma_n is implemented as the expanded rational
form of the identity m2 - 2x m1 + x^2.  The more commonly transcribed
display of gamma_n differs from this identity in two places (a q^4 [n]^4
term where q^3 [n]^4 is forced, and a missing varpi^2 [n+2][n+3] constant
term); the identity is authoritative, so the corrected coefficients are
hard-coded here and asserted against the algebraic identity in tests.

verify_moments makes one pass per spec for t^0, t^1 and t^2: one series
call that builds the basis rows or limit weights once, and one evaluation
of the three closed forms.  Every value has the bits of its one-monomial
evaluation.
"""

from dataclasses import dataclass, field

import numpy as np

from . import durrmeyer
from .qcore import as_q, q_integer
from .reporting import write_csv


def finite_moment(spec, j, x):
    """Closed-form D_n(t^j; x) for j in {0, 1, 2}; accepts array x."""
    if spec.is_limit:
        return limit_moment(spec.q, spec.stancu, j, x)
    return finite_moment_at(spec.n, as_q(spec.q), spec.stancu, j, x)


def finite_moment_at(n, q, stancu, j, x):
    """Closed-form D_{n,q}(t^j; x) for j in {0, 1, 2}.

    n, q and x are scalars or arrays that broadcast together (q < 1 where n
    or q is an array), so one call evaluates a whole sequence (n, q_n) on a
    grid; j = 0 gives the ones of x's shape.  finite_moment is its one-spec
    case.
    """
    if j not in (0, 1, 2):
        raise ValueError("moment order j must be 0, 1 or 2")
    return _finite_moments(n, q, stancu, x)[int(j)]


def _finite_moments(n, q, stancu, x):
    """(m0, m1, m2), the closed forms of finite_moment_at for j = 0, 1, 2,
    from one set of q-integers."""
    vp = stancu.varpi
    vt = stancu.vartheta
    nn = q_integer(n, q)
    n2 = q_integer(n + 2, q)
    n3 = q_integer(n + 3, q)
    q3 = q_integer(3, q)
    m0 = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    m1 = (nn + vp * n2 + q * x * nn**2) / (n2 * (nn + vt))
    den = (nn + vt) ** 2 * n2 * n3
    c2 = q**3 * nn**3 * (nn - 1.0)
    c1 = (q * (1.0 + q) ** 2 + 2.0 * vp * q**4) * nn**3 + 2.0 * vp * q * q3 * nn**2
    c0 = (1.0 + q + 2.0 * vp * q**3) * nn**2 + 2.0 * vp * q3 * nn
    m2 = (c2 * x**2 + c1 * x + c0) / den + vp**2 / (nn + vt) ** 2
    return m0, m1, m2


def limit_moment(q, stancu, j, x):
    """Closed-form D_inf(t^j; x) for j in {0, 1, 2}; accepts array x."""
    if j not in (0, 1, 2):
        raise ValueError("moment order j must be 0, 1 or 2")
    return _limit_moments(q, stancu, x)[int(j)]


def _limit_moments(q, stancu, x):
    """(m0, m1, m2), the closed forms of limit_moment for j = 0, 1, 2."""
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("limit moments require q < 1")
    vp = stancu.varpi
    vt = stancu.vartheta
    e = 1.0 - qv
    den = 1.0 + vt * e
    m0 = np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    m1 = (1.0 + qv * (x - 1.0) + vp * e) / den
    num = (
        qv**4 * x**2
        + (qv * (1.0 + qv) * (1.0 - qv**2) + 2.0 * e * qv * vp) * x
        + ((1.0 + qv) + 2.0 * vp + vp**2) * e**2
    )
    return m0, m1, num / den**2


def central_moments(spec, x):
    """(delta_n, gamma_n) = (D_n(t-x; x), D_n((t-x)^2; x)) in closed form."""
    if spec.is_limit:
        _, m1, m2 = _limit_moments(spec.q, spec.stancu, x)
        return m1 - x, m2 - 2.0 * x * m1 + x**2
    qv = as_q(spec.q)
    n = spec.n
    vp = spec.stancu.varpi
    vt = spec.stancu.vartheta
    nn = q_integer(n, qv)
    n2 = q_integer(n + 2, qv)
    n3 = q_integer(n + 3, qv)
    delta = (qv * nn**2 / (n2 * (nn + vt)) - 1.0) * x + (nn + vp * n2) / (n2 * (nn + vt))
    den = (nn + vt) ** 2 * n2 * n3
    g2 = (
        qv**3 * nn**4
        - qv**3 * nn**3
        - 2.0 * qv * nn**2 * n3 * (nn + vt)
        + n2 * n3 * (nn + vt) ** 2
    )
    g1 = (
        qv * (1.0 + qv) ** 2 * nn**3
        + 2.0 * qv * vp * nn**2 * n3
        - (2.0 * nn + 2.0 * vp * n2) * n3 * (nn + vt)
    )
    g0 = (
        (1.0 + qv + 2.0 * vp * qv**3) * nn**2
        + 2.0 * vp * q_integer(3, qv) * nn
        + vp**2 * n2 * n3
    )
    gamma = (g2 * x**2 + g1 * x + g0) / den
    return delta, gamma


@dataclass
class MomentRow:
    n: object
    q: float
    varpi: float
    vartheta: float
    x: float
    j: int
    closed: float
    series: float

    @property
    def abs_dev(self):
        return abs(self.closed - self.series)


@dataclass
class MomentReport:
    """Per-point closed-form vs series deviations over a verification grid.

    Kept as one block per (spec, j): the x values and the closed-form and
    series arrays at them, so a report holds no Python object per point
    (hundreds of them per report made most of the garbage collector's work
    in a run of point queries)."""

    blocks: list = field(default_factory=list)  # (spec, j, xs, closed, series)

    @property
    def rows(self):
        return [
            MomentRow(spec.n, float(spec.q), spec.stancu.varpi, spec.stancu.vartheta, x, j, c, s)
            for spec, j, xs, closed, series in self.blocks
            for x, c, s in zip(xs, closed.tolist(), series.tolist())
        ]

    def _devs(self):
        """|closed - series| and the closed values, over every point."""
        closed = np.concatenate([b[3] for b in self.blocks] + [np.empty(0)])
        series = np.concatenate([b[4] for b in self.blocks] + [np.empty(0)])
        return np.abs(closed - series), closed

    @property
    def max_abs_dev(self):
        return float(np.max(self._devs()[0], initial=0.0))

    @property
    def max_rel_dev(self):
        dev, closed = self._devs()
        return float(np.max(dev / np.maximum(np.abs(closed), 1.0), initial=0.0))

    def columns(self):
        return ("n", "q", "varpi", "vartheta", "x", "j", "closed", "series", "abs_dev")

    def table(self):
        """One row per point, in the order of columns(); the limit degree is "inf"."""
        table = []
        for spec, j, xs, closed, series in self.blocks:
            head = ("inf" if spec.n is None else spec.n, float(spec.q), spec.stancu.varpi,
                    spec.stancu.vartheta)
            dev = np.abs(closed - series).tolist()
            cells = zip(xs, (j,) * len(dev), closed.tolist(), series.tolist(), dev)
            table += [head + row for row in cells]
        return table

    def to_csv(self, stream, meta=None):
        write_csv(stream, self.columns(), self.table(), meta=meta)


MONOMIALS = {0: lambda t: 1.0, 1: lambda t: t, 2: lambda t: t * t}


def default_grid():
    """Grid of operator specs and x values used by verify_moments."""
    xs = [round(0.1 * i, 1) for i in range(11)]
    specs = []
    for q in (0.5, 0.8, 0.95, 1.0):
        for n in (1, 2, 5, 10, 25):
            for st in (durrmeyer.StancuParams(0.0, 0.0), durrmeyer.StancuParams(1.0, 2.0)):
                specs.append(durrmeyer.OperatorSpec(n, q, st))
    for q in (0.5, 0.9):
        specs.append(durrmeyer.OperatorSpec(None, q, durrmeyer.StancuParams(1.0, 2.0)))
    return specs, xs


def verify_moments(specs=None, xs=None):
    """Compare closed-form moments with the operator series path, in one
    pass per spec for all three monomials."""
    if specs is None or xs is None:
        default_specs, default_xs = default_grid()
        specs = default_specs if specs is None else specs
        xs = default_xs if xs is None else xs
    report = MomentReport()
    xa = np.asarray(xs, dtype=float)
    monos = list(MONOMIALS.values())
    for spec in specs:
        if spec.is_limit:
            closed = _limit_moments(spec.q, spec.stancu, xa)
            series = durrmeyer._limit_columns(spec, monos, xa)
        else:
            closed = _finite_moments(spec.n, as_q(spec.q), spec.stancu, xa)
            series = durrmeyer._finite_columns(spec, monos, xa)
        for j in MONOMIALS:
            report.blocks.append((spec, j, xs, closed[j], series[j]))
    return report
