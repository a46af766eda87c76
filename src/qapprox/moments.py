"""Closed-form raw and central moments of both operators, plus a
verification engine comparing the closed forms against the series path.

The central second moment gamma_n is implemented as the expanded rational
form of the identity m2 - 2x m1 + x^2.  The more commonly transcribed
display of gamma_n differs from this identity in two places (a q^4 [n]^4
term where q^3 [n]^4 is forced, and a missing varpi^2 [n+2][n+3] constant
term); the identity is authoritative, so the corrected coefficients are
hard-coded here and asserted against the algebraic identity in tests.
"""

from dataclasses import dataclass, field

import numpy as np

from . import durrmeyer
from .qcore import as_q, q_integer
from .reporting import write_csv, write_json


def finite_moment(spec, j, x):
    """Closed-form D_n(t^j; x) for j in {0, 1, 2}; accepts array x."""
    if spec.is_limit:
        return limit_moment(spec.q, spec.stancu, j, x)
    qv = as_q(spec.q)
    n = spec.n
    vp = spec.stancu.varpi
    vt = spec.stancu.vartheta
    nn = q_integer(n, qv)
    n2 = q_integer(n + 2, qv)
    n3 = q_integer(n + 3, qv)
    q3 = q_integer(3, qv)
    if j == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if j == 1:
        return (nn + vp * n2 + qv * x * nn**2) / (n2 * (nn + vt))
    if j == 2:
        den = (nn + vt) ** 2 * n2 * n3
        c2 = qv**3 * nn**3 * (nn - 1.0)
        c1 = (qv * (1.0 + qv) ** 2 + 2.0 * vp * qv**4) * nn**3 + 2.0 * vp * qv * q3 * nn**2
        c0 = (1.0 + qv + 2.0 * vp * qv**3) * nn**2 + 2.0 * vp * q3 * nn
        return (c2 * x**2 + c1 * x + c0) / den + vp**2 / (nn + vt) ** 2
    raise ValueError("moment order j must be 0, 1 or 2")


def limit_moment(q, stancu, j, x):
    """Closed-form D_inf(t^j; x) for j in {0, 1, 2}; accepts array x."""
    qv = as_q(q)
    if qv == 1.0:
        raise ValueError("limit moments require q < 1")
    vp = stancu.varpi
    vt = stancu.vartheta
    e = 1.0 - qv
    den = 1.0 + vt * e
    if j == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if j == 1:
        return (1.0 + qv * (x - 1.0) + vp * e) / den
    if j == 2:
        num = (
            qv**4 * x**2
            + (qv * (1.0 + qv) * (1.0 - qv**2) + 2.0 * e * qv * vp) * x
            + ((1.0 + qv) + 2.0 * vp + vp**2) * e**2
        )
        return num / den**2
    raise ValueError("moment order j must be 0, 1 or 2")


def central_moments(spec, x):
    """(delta_n, gamma_n) = (D_n(t-x; x), D_n((t-x)^2; x)) in closed form."""
    if spec.is_limit:
        m1 = limit_moment(spec.q, spec.stancu, 1, x)
        m2 = limit_moment(spec.q, spec.stancu, 2, x)
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
    """Per-point closed-form vs series deviations over a verification grid."""

    rows: list = field(default_factory=list)

    @property
    def max_abs_dev(self):
        return max((r.abs_dev for r in self.rows), default=0.0)

    @property
    def max_rel_dev(self):
        devs = [r.abs_dev / max(abs(r.closed), 1.0) for r in self.rows]
        return max(devs, default=0.0)

    _columns = ("n", "q", "varpi", "vartheta", "x", "j", "closed", "series", "abs_dev")

    def _table(self):
        return [
            ("inf" if r.n is None else r.n, r.q, r.varpi, r.vartheta, r.x, r.j,
             r.closed, r.series, r.abs_dev)
            for r in self.rows
        ]

    def to_csv(self, stream, meta=None):
        write_csv(stream, self._columns, self._table(), meta=meta)

    def to_json(self, stream, meta=None):
        write_json(stream, self._columns, self._table(), meta=meta)


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
    """Compare closed-form moments with the operator series path."""
    if specs is None or xs is None:
        default_specs, default_xs = default_grid()
        specs = default_specs if specs is None else specs
        xs = default_xs if xs is None else xs
    report = MomentReport()
    xa = np.asarray(xs, dtype=float)
    for spec in specs:
        for j, mono in MONOMIALS.items():
            closed = finite_moment(spec, j, xa)
            series = durrmeyer.apply(spec, mono, xa)
            for x, c, s in zip(xs, closed, series):
                report.rows.append(
                    MomentRow(
                        n=spec.n,
                        q=float(spec.q),
                        varpi=spec.stancu.varpi,
                        vartheta=spec.stancu.vartheta,
                        x=x,
                        j=j,
                        closed=float(c),
                        series=float(s),
                    )
                )
    return report
