"""Seeded request streams for the three benchmark workloads.

This module is pure Python and imports nothing from qapprox: a request is a
plain dict, so the same seed gives the same request list whether or not the
program under test can be imported.

Every stream is stratified.  Discrete choices (request type, q, f family,
Stancu pair) come from shuffled decks, so each block of requests holds them
in fixed proportions; continuous parameters are drawn within strata of their
range.  Seeds then change which values are drawn, not the mix of work, which
keeps the run-to-run spread of the timings small.
"""

import math
import random

FINITE_Q = (0.5, 0.8, 0.9, 0.95, 0.99)
LIMIT_Q = (0.9, 0.95, 0.99, 0.995, 0.999)
INEQ_Q = (0.5, 0.8, 0.9, 0.95)
SHIFTS = ((0.0, 0.0), (0.5, 1.0), (1.0, 2.0), (0.0, 1.0))
FAMILIES = ("quad", "sin", "abs", "expt2")

# verify-stats spec pool: 72 finite specs and 6 limit specs, so the
# 216 (spec, monomial) coefficient arrays fit the 512-entry cache.
POOL_FINITE_Q = (0.5, 0.8, 0.95, 1.0)
POOL_N = (1, 2, 5, 10, 25, 50)
POOL_FINITE_SHIFTS = ((0.0, 0.0), (0.5, 1.0), (1.0, 2.0))
POOL_LIMIT_Q = (0.5, 0.9, 0.99)
POOL_LIMIT_SHIFTS = ((0.5, 1.0), (1.0, 2.0))
# Point queries draw x from [0, X_MAX]; the warm-up includes X_MAX, so the
# limit coefficients are grown to the largest k any query needs before timing.
X_MAX = 0.99
WARMUP_XS = tuple(round(0.1 * i, 1) for i in range(10)) + (X_MAX, 1.0)

WORKLOADS = ("finite-eval", "limit-eval", "verify-stats")


class _Deck:
    """Yields the items in shuffled order, reshuffling after each pass."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.queue = []

    def draw(self):
        if not self.queue:
            self.queue = self.items[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class _Strata:
    """Stratified uniform draws on [0, 1): one per stratum in each pass."""

    def __init__(self, rng, count=8):
        self.rng = rng
        self.deck = _Deck(rng, range(count))
        self.count = count

    def draw(self, stratum=None):
        if stratum is None:
            stratum = self.deck.draw()
        return (stratum + self.rng.random()) / self.count

    def log_uniform(self, lo, hi, stratum=None):
        return math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * self.draw(stratum))

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.draw()


def _r(v, digits=6):
    return round(v, digits)


class _FunctionSource:
    """Seeded f expressions from the four families with continuous parameters."""

    def __init__(self, rng):
        self.u = _Strata(rng)

    def draw(self, family):
        u = self.u
        if family == "quad":
            params = (_r(u.uniform(-1, 1)), _r(u.uniform(-2, 2)), _r(u.uniform(-2, 2)))
        elif family == "sin":
            params = (_r(u.uniform(0.5, 6.0)),)
        elif family == "abs":
            params = (_r(u.uniform(0.1, 0.9)),)
        else:
            params = (_r(u.uniform(0.5, 5.0)),)
        return {"family": family, "params": params, "text": expression(family, params)}


def expression(family, params):
    """The --f text of a family member, in the qapprox expression grammar."""
    if family == "quad":
        a, b, c = params
        return f"{a!r}+({b!r})*t+({c!r})*t^2"
    if family == "sin":
        return f"sin({params[0]!r}*t)"
    if family == "abs":
        return f"abs(t-{params[0]!r})"
    if family == "expt2":
        return f"exp(-{params[0]!r}*t)*t^2"
    raise ValueError(family)


def _eval_args(f, n, q, shift, grid):
    args = ["eval"]
    args += ["--limit"] if n is None else ["--n", str(n)]
    args += ["--q", repr(q), "--varpi", repr(shift[0]), "--vartheta", repr(shift[1]),
             "--f", f["text"], "--grid", str(grid)]
    return args


def _pairs(rng, qs):
    """Deck of every (q, f family) pair, so their costs mix the same way in every run."""
    return _Deck(rng, [(q, fam) for q in qs for fam in FAMILIES])


def _finite_eval(rng):
    fsrc = _FunctionSource(rng)
    pairs = _pairs(rng, FINITE_Q)
    shifts = _Deck(rng, SHIFTS)
    # n strata per q, so every q reaches the top of the n range (and the
    # largest (n+1) x J matrix, which sets the peak RSS) in every run
    n_u = {q: _Strata(rng) for q in FINITE_Q + (1.0,)}
    # the q = 1 requests are the slow tail: their cost depends on both n and
    # f (quad subdivides at the kink of abs), so deal n strata and families jointly
    classical = _Deck(rng, [(fam, s) for fam in FAMILIES for s in range(n_u[1.0].count)])
    while True:
        # one request in five is classical (q = 1, quad-based coefficients)
        for slot in range(5):
            if slot == 4:
                q, (family, stratum) = 1.0, classical.draw()
                n = int(round(n_u[q].log_uniform(5, 40, stratum)))
            else:
                q, family = pairs.draw()
                n = int(round(n_u[q].log_uniform(5, 1000)))
            f, shift = fsrc.draw(family), shifts.draw()
            yield {"kind": "eval", "n": n, "q": q, "shift": shift, "f": f, "grid": 1001,
                   "args": _eval_args(f, n, q, shift, 1001)}


def _limit_eval(rng):
    fsrc = _FunctionSource(rng)
    kinds = _Deck(rng, ["eval"] * 14 + ["fixed"] * 3 + ["ineq"] * 3)
    pairs = {k: _pairs(rng, LIMIT_Q) for k in ("eval", "fixed")}
    ineq_q = _Deck(rng, INEQ_Q)
    shifts = _Deck(rng, SHIFTS)
    n_u = _Strata(rng)
    while True:
        kind = kinds.draw()
        if kind == "ineq":
            n, q = int(round(n_u.log_uniform(5, 60))), ineq_q.draw()
            yield {"kind": "ineq", "n": n, "q": q, "grid": 51,
                   "args": ["ineq", "--n", str(n), "--q", repr(q), "--grid", "51"]}
            continue
        q, family = pairs[kind].draw()
        f, shift = fsrc.draw(family), shifts.draw()
        if kind == "eval":
            args = _eval_args(f, None, q, shift, 201)
        else:
            args = ["fixed", "--q", repr(q), "--varpi", repr(shift[0]),
                    "--vartheta", repr(shift[1]), "--f", f["text"], "--grid", "201"]
        yield {"kind": kind, "n": None, "q": q, "shift": shift, "f": f, "grid": 201, "args": args}


def spec_pool():
    """(n, q, varpi, vartheta) tuples of the verify-stats pool; n None = limit."""
    pool = [(n, q, vp, vt) for q in POOL_FINITE_Q for n in POOL_N for vp, vt in POOL_FINITE_SHIFTS]
    pool += [(None, q, vp, vt) for q in POOL_LIMIT_Q for vp, vt in POOL_LIMIT_SHIFTS]
    return pool


def _verify_stats(rng):
    pool = spec_pool()
    finite_idx = [i for i, s in enumerate(pool) if s[0] is not None]
    limit_by_q = [[i for i, s in enumerate(pool) if s[0] is None and s[1] == q]
                  for q in POOL_LIMIT_Q]
    kinds = _Deck(rng, ["verify"] * 8 + ["density", "korovkin"])
    near = _Deck(rng, [True] + [False] * 7)
    sets = _Deck(rng, ("squares", "primes", "multiples"))
    shifts = _Deck(rng, SHIFTS)
    u = _Strata(rng)
    while True:
        kind = kinds.draw()
        if kind == "verify":
            xs = sorted(_r(X_MAX * rng.random(), 9) for _ in range(11))
            if near.draw():
                # the limit series is excluded near x = 1 (see README.md)
                idx = rng.sample(finite_idx, 8)
                xs.append(1.0 - 10.0 ** -u.uniform(2.0, 9.0))
            else:
                # one limit spec of each q per request: a limit spec costs
                # several finite ones, and more as q -> 1, so any other mix
                # makes the request times multimodal, with the median
                # jumping between the modes from run to run
                idx = rng.sample(finite_idx, 5) + [rng.choice(ids) for ids in limit_by_q]
            yield {"kind": "verify", "specs": idx, "xs": xs}
        elif kind == "density":
            name = sets.draw()
            if name == "multiples":
                name = f"multiples:{rng.randint(2, 50)}"
            n = rng.randint(95_000, 105_000)
            gamma = _r(u.uniform(0.5, 1.0), 4)
            yield {"kind": "density", "set": name, "n": n, "gamma": gamma,
                   "args": ["density", "--set", name, "--gamma", repr(gamma), "--n", str(n)]}
        else:
            a = _r(u.uniform(0.3, 0.8), 4)
            n_list = [int(round(u.log_uniform(10, 40)))]
            while len(n_list) < 5:
                n_list.append(n_list[-1] + int(round(u.log_uniform(10, 250))))
            eps = sorted({_r(u.log_uniform(0.005, 0.1), 4) for _ in range(2)})
            shift = shifts.draw()
            gamma = _r(u.uniform(0.5, 1.0), 4)
            yield {"kind": "korovkin", "a": a, "n_list": n_list, "eps": eps, "shift": shift,
                   "gamma": gamma, "grid": 101,
                   "args": ["korovkin", "--a", repr(a), "--n-list", ",".join(map(str, n_list)),
                            "--varpi", repr(shift[0]), "--vartheta", repr(shift[1]),
                            "--grid", "101", "--gamma", repr(gamma),
                            "--eps-list", ",".join(map(repr, eps))]}


_STREAMS = {"finite-eval": _finite_eval, "limit-eval": _limit_eval, "verify-stats": _verify_stats}


def requests(workload, seed):
    """Endless request stream of a workload; the same seed gives the same stream."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def warmup(workload):
    """Fixed requests run before timing starts; their time counts in setup_s."""
    if workload == "verify-stats":
        return [{"kind": "verify", "specs": list(range(len(spec_pool()))), "xs": list(WARMUP_XS)}]
    f = {"family": "quad", "params": (0.5, 1.0, -1.0), "text": expression("quad", (0.5, 1.0, -1.0))}
    if workload == "finite-eval":
        return [{"kind": "eval", "n": 5, "q": q, "shift": (0.0, 0.0), "f": f, "grid": 11,
                 "args": _eval_args(f, 5, q, (0.0, 0.0), 11)} for q in (0.5, 1.0)]
    return [{"kind": "eval", "n": None, "q": 0.5, "shift": (0.0, 0.0), "f": f, "grid": 11,
             "args": _eval_args(f, None, 0.5, (0.0, 0.0), 11)},
            {"kind": "fixed", "n": None, "q": 0.5, "shift": (0.0, 0.0), "f": f, "grid": 11,
             "args": ["fixed", "--q", "0.5", "--f", f["text"], "--grid", "11"]},
            {"kind": "ineq", "n": 5, "q": 0.5, "grid": 11,
             "args": ["ineq", "--n", "5", "--q", "0.5", "--grid", "11"]}]
