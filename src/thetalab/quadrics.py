"""Quadratic forms cutting out the degree-N elliptic normal curve.

The generators come in three families: the odd-N three-term forms, the
even-N null-coefficient forms (graded pieces V_0 and V_1), and the
even-N half-period forms with s-coefficients.  The full system is the
orbit of the base forms under the index shift X_i -> X_(i+1) (a
Heisenberg translation), which moves the grading by 2; its members are
pairwise non-proportional by construction, and that the system cuts out
the curve is certified by the vanishing and rank checks rather than
assumed.

The forms vanish on the curve numerically, at sampled points for a
fixed tau (verify_on_curve).  Their ranks are exact, over the field of
q-series, for forms whose coefficients are the exact q-expansions of
the nulls and half-period values: the rank of the leading terms bounds
the rank from below (rank_check), and two points that forms vanish at
bound it from above (half_period_bound).
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import scalar_complex, scalar_inverse, scalar_is_zero
from .frozen import Frozen
from .series import PuiseuxSeries
from .theta import (
    ThetaContext, largest, largest_modulus, sample_units, theta_N_eval, theta_half_eval,
    theta_half_series, theta_null_series,
)


def _dropped(c) -> bool:
    """Whether a form leaves out a coefficient: an exact or numeric zero.
    A series zero to its truncation stays, as it still says to what order
    it is known (see rank_check)."""
    return not isinstance(c, PuiseuxSeries) and scalar_is_zero(c)


class QuadraticForm:
    """sum over unordered pairs {i, j} of c_(ij) X_i X_j on P^(N-1)."""

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: dict):
        self.N = N
        norm: dict = {}
        for (i, j), c in coeffs.items():
            if _dropped(c):
                continue
            key = (i % N, j % N)
            if key[0] > key[1]:
                key = (key[1], key[0])
            if key in norm:
                norm[key] = norm[key] + c
                if _dropped(norm[key]):
                    del norm[key]
            else:
                norm[key] = c
        self.coeffs = norm

    def graded_class(self) -> int | None:
        """k with i+j = k (mod N) on every monomial, or None if mixed."""
        ks = {(i + j) % self.N for i, j in self.coeffs}
        return ks.pop() if len(ks) == 1 else None

    def shift(self, s: int) -> "QuadraticForm":
        """The translated form under X_i -> X_(i+s)."""
        return QuadraticForm(self.N, {(i + s, j + s): c for (i, j), c in self.coeffs.items()})

    def evaluate(self, values):
        """Q(x) for a length-N coordinate vector (numeric or series)."""
        acc = None
        for (i, j), c in self.coeffs.items():
            t = c * values[i] * values[j]
            acc = t if acc is None else acc + t
        if acc is None:
            return values[0] * values[0] * 0  # typed zero for the empty form
        return acc

    def max_coeff_abs(self) -> float:
        return max(abs(scalar_complex(c)) for c in self.coeffs.values())

    def __repr__(self):
        return f"QuadraticForm(N={self.N}, {len(self.coeffs)} monomials, class={self.graded_class()})"


# ---------------------------------------------------------------------------
# theta-null data


class NullData(Frozen):
    """Theta-null vector a_k and, for even N, the half-period vector s_k
    (both factories give it at even N; it is None at odd N).

    Scalars are exact Puiseux series or complex values at a fixed tau.
    For odd N the exact series use the normalized convention with the
    global scalar i^N dropped; all generated forms are quadratic in the
    nulls, so the convention only rescales whole forms.
    """

    __slots__ = ("N", "a", "s")

    def __init__(self, N: int, a: tuple, s: tuple | None):
        if len(a) != N:
            raise ValueError("need one null value per residue class")
        if isinstance(a[0], PuiseuxSeries):
            for k in range(1, N):
                want = a[(N - k) % N] if N % 2 == 0 else -a[(N - k) % N]
                if not (a[k] - want).is_zero():
                    raise ValueError("null symmetry a_k = (-1)^N a_(N-k) violated")
            if N % 2 and not a[0].is_zero():
                raise ValueError("a_0 must vanish for odd N")
        self._set(N=N, a=a, s=s)

    @staticmethod
    def numeric(ctx: ThetaContext) -> "NullData":
        N = ctx.N
        a = tuple(theta_N_eval(range(N), 0.0, ctx))
        s = tuple(theta_half_eval(N, range(N), ctx)) if N % 2 == 0 else None
        return NullData(N=N, a=a, s=s)

    @staticmethod
    def exact(N: int, order: int) -> "NullData":
        a = tuple(theta_null_series(N, k, order) for k in range(N))
        s = tuple(theta_half_series(N, k, order) for k in range(N)) if N % 2 == 0 else None
        return NullData(N=N, a=a, s=s)


# ---------------------------------------------------------------------------
# generators


def gen_odd_basis(nd: NullData) -> list[QuadraticForm]:
    """Full odd-N system: the (N-3)/2 three-term forms

        a_(j+1) a_(N-j) X_0^2
          - a_((N-1)/2-j) a_((N+1)/2+j) X_((N+1)/2) X_((N-1)/2)
          + a_((N-1)/2) a_((N+1)/2) X_((N-1)/2-j) X_((N+1)/2+j)

    for j = 1..(N-3)/2, followed by their index shifts 1..N-1: N(N-3)/2
    forms in all.  Each shifted form has exactly one square monomial,
    X_s^2, and at a fixed shift the base forms differ in their third
    monomial, so no two members of the orbit are proportional."""
    N = nd.N
    if N % 2 == 0:
        raise ValueError("odd-N generator called with even N")
    if N < 5:
        raise ValueError("need N >= 5")
    a = nd.a
    lo, hi = (N - 1) // 2, (N + 1) // 2
    base = []
    for j in range(1, (N - 3) // 2 + 1):
        coeffs = {
            (0, 0): a[(j + 1) % N] * a[(N - j) % N],
            (hi, lo): -(a[(lo - j) % N] * a[(hi + j) % N]),
            ((lo - j) % N, (hi + j) % N): a[lo] * a[hi],
        }
        base.append(QuadraticForm(N, coeffs))
    return [f.shift(s) for s in range(N) for f in base]


def _null_form(nd: NullData, e: int, j: int) -> QuadraticForm:
    """Form j of V_e (e = 0 or 1) with null coefficients:

        a_j a_(j+e) X_0 X_e + a_(h+j) a_(h+j+e) X_h X_(h+e)
          - a_0 a_e X_(j+e) X_(N-j) - a_h a_(h+e) X_(h+j+e) X_(h-j)."""
    N, a, h = nd.N, nd.a, nd.N // 2
    return QuadraticForm(
        N,
        {
            (0, e): a[j] * a[j + e],
            (h, h + e): a[h + j] * a[h + j + e],
            (j + e, N - j): -(a[0] * a[e]),
            (h + j + e, h - j): -(a[h] * a[h + e]),
        },
    )


def _half_period_form(nd: NullData, e: int, j: int) -> QuadraticForm:
    """Form j of V_e (e = 0 or 1) with half-period coefficients:

        s_(j+e) s_(N-j) X_0 X_e + s_(h-j) s_(h+j+e) X_h X_(h+e)
          - s_h s_(h+e) X_(h-j) X_(h+j+e)."""
    N, s, h = nd.N, nd.s, nd.N // 2
    return QuadraticForm(
        N,
        {
            (0, e): s[j + e] * s[N - j],
            (h, h + e): s[h - j] * s[h + j + e],
            (h - j, h + j + e): -(s[h] * s[h + e]),
        },
    )


class EvenBasis(NamedTuple):
    V0: list
    V1: list
    full: list


def gen_even_basis(nd: NullData) -> EvenBasis:
    """Even-N graded bases from the null coefficients.

    V_0:  a_j^2 X_0^2 + a_(h+j)^2 X_h^2 = a_0^2 X_j X_(N-j) + a_h^2 X_(h+j) X_(h-j),
          j = 1..h-1 (h = N/2);
    V_1:  the X_0 X_1 analogue, j = 1..h-2.

    `full` is their orbit under the index shifts 0..h-1, N(N-3)/2 forms,
    shift by shift.  The shift by h closes the orbit: since
    a_k = a_(N-k), it sends V0_j to V0_(h-j) and V1_j to V1_(h-1-j),
    coefficient for coefficient."""
    N = nd.N
    if N % 2:
        raise ValueError("even-N generator called with odd N")
    if N < 4:
        raise ValueError("need N >= 4")
    h = N // 2
    v0 = [_null_form(nd, 0, j) for j in range(1, h)]
    v1 = [_null_form(nd, 1, j) for j in range(1, h - 1)]
    full = [f.shift(s) for s in range(h) for f in v0 + v1]
    return EvenBasis(V0=v0, V1=v1, full=full)


class SBasis(NamedTuple):
    V0: list
    V1: list


def gen_even_s_basis(nd: NullData) -> SBasis:
    """Half-period coefficient bases for even N.

    V_0:  s_j s_(N-j) X_0^2 + s_(h-j) s_(h+j) X_h^2 - s_h^2 X_(h-j) X_(h+j),
          j = 1..h-1;
    V_1:  s_(j+1) s_(N-j) X_0 X_1 + s_(h-j) s_(h+j+1) X_h X_(h+1)
          - s_h s_(h+1) X_(h-j) X_(h+j+1), j = 1..h-2."""
    N = nd.N
    if N % 2:
        raise ValueError("half-period generator called with odd N")
    if nd.s is None:
        raise ValueError("no half-period values present in NullData")
    h = N // 2
    v0 = [_half_period_form(nd, 0, j) for j in range(1, h)]
    v1 = [_half_period_form(nd, 1, j) for j in range(1, h - 1)]
    return SBasis(V0=v0, V1=v1)


# ---------------------------------------------------------------------------
# verification


class OnCurveReport(NamedTuple):
    N: int
    samples: int
    n_forms: int
    max_residual: float
    form_residuals: tuple  # each form's worst normalized residual, in input order

    @staticmethod
    def of(N: int, samples: int, form_residuals) -> "OnCurveReport":
        return OnCurveReport(
            N=N, samples=samples, n_forms=len(form_residuals),
            max_residual=max([0.0, *form_residuals]), form_residuals=tuple(form_residuals),
        )

    def part(self, start: int, stop: int) -> "OnCurveReport":
        """The report of forms[start:stop] alone, equal to a separate call on them."""
        return OnCurveReport.of(self.N, self.samples, self.form_residuals[start:stop])


def verify_on_curve(
    forms: list[QuadraticForm], ctx: ThetaContext, samples: int = 25, seed: int = 0
) -> OnCurveReport:
    """Evaluate every form at sampled immersion points.

    Residuals are normalized by (max coefficient magnitude) times
    (max coordinate magnitude)^2 so the check is scale-free.  Each form
    sums its terms (c x_i) x_j in its own monomial order, on each unit
    of theta.sample_units: a point, or an array of points.  A residual
    that is not finite raises OverflowError (theta.largest), and
    samples < 1 raises ValueError (theta.sample_stream).  The report
    states the residuals and no verdict: the caller compares
    max_residual with its tolerance.  A form's residual does not depend
    on the other forms, so several form sets can share one pass over
    the samples and be read back with `part`."""
    live = [f for f in forms if f.coeffs]  # a form without terms vanishes identically
    terms = [[(scalar_complex(c), i, j) for (i, j), c in f.coeffs.items()] for f in live]
    norm = [f.max_coeff_abs() for f in live]
    ks = range(ctx.N)
    worst = [0.0] * len(live)
    for unit in sample_units(ctx.tau, samples, seed):
        x = theta_N_eval(ks, unit, ctx)
        top = largest_modulus(x)
        scale2 = top * top
        for f, form in enumerate(terms):
            acc = 0j
            for c, i, j in form:
                acc = acc + c * x[i] * x[j]
            worst[f] = max(worst[f], largest(abs(acc), "quadric", norm[f] * scale2))
        del x  # evaluating the next unit peaks near 0.4 MiB at N = 16; hold no second x then
    worst = iter(worst)
    residuals = [next(worst) if f.coeffs else 0.0 for f in forms]
    return OnCurveReport.of(ctx.N, samples, residuals)


def _leading_row(f: QuadraticForm) -> dict:
    """The coefficients of f at q^v, v the least valuation among them,
    by monomial (only the nonzero ones)."""
    if not all(isinstance(c, PuiseuxSeries) for c in f.coeffs.values()):
        raise TypeError("the exact rank needs q-series coefficients")
    lows = {m: c.valuation() for m, c in f.coeffs.items() if not c.is_zero()}
    if f.coeffs and not lows:
        raise ValueError("a form's coefficients are all zero to their known order")
    v = min(lows.values(), default=None)
    for (i, j), c in f.coeffs.items():
        if c.known_order() <= v:
            raise ValueError(
                f"coefficient of X_{i} X_{j} known only modulo q^({c.known_order()}), "
                f"not past the form's leading exponent {v}"
            )
    return {m: c.terms[min(c.nums)] for m, c in f.coeffs.items() if lows.get(m) == v}


def rank_check(forms: list[QuadraticForm], N: int) -> int:
    """Exact lower bound on the rank of level-N forms with q-series
    coefficients, over the field of q-series.

    Each form contributes its coefficients at its own least valuation
    q^v, and the bound is the rank of this leading-term matrix over
    Q(zeta_m), by exact Gaussian elimination.  A nonzero minor of the
    leading-term matrix is the leading coefficient of the same minor of
    the forms scaled row by row by q^(-v), so the bound holds; it is the
    exact rank when it equals the number of forms.  Every coefficient
    must be known past its form's v, or the leading term could be
    unknown (ValueError).  Forms of different graded classes share no
    monomial, so the elimination runs class by class.  Numeric
    coefficients raise TypeError."""
    if any(f.N != N for f in forms):
        raise ValueError(f"forms of another level than N = {N}")
    pivots: dict = {}  # leading monomial -> echelon row, scaled to 1 there
    for f in forms:
        row = _leading_row(f)
        while row:
            m = min(row)
            piv = pivots.get(m)
            if piv is None:
                inv = scalar_inverse(row[m])
                pivots[m] = {k: inv * c for k, c in row.items()}
                break
            c = row[m]
            for k, x in piv.items():
                y = row.get(k, 0) - c * x
                if scalar_is_zero(y):
                    row.pop(k, None)
                else:
                    row[k] = y
    return len(pivots)


def half_period_bound(forms: list[QuadraticForm], s: tuple, order: int) -> tuple[int, str | None]:
    """An upper bound on the rank of even-level forms with q-series
    coefficients, from two points they vanish at.

    The points are p = (s_k) and p' = (s_(k+h)), h = N/2: for the
    half-period values s_k, the images of z = 1/(2N) and of its
    translate by tau/2.  Let M be the monomials the forms use and w, w'
    the values of M at p and p'.  When every form vanishes at both, to
    q^order, its row lies in the annihilator of w and w', so the rank is
    at most |M| - rank(w, w'), with rank(w, w') the exact lower bound of
    rank_check.  Returns (bound, None) then, and otherwise (|M|, the
    first form and point that fail, with the first nonzero coefficient).
    Each monomial's value is a product of two s_k, computed once."""
    N = len(s)
    h = N // 2
    pairs: dict = {}

    def value(i: int, j: int, shift: int):
        key = tuple(sorted(((i + shift) % N, (j + shift) % N)))
        if key not in pairs:
            pairs[key] = s[key[0]] * s[key[1]]
        return pairs[key]

    monos = sorted({m for f in forms for m in f.coeffs})
    for i, f in enumerate(forms):
        for name, shift in (("p", 0), ("p'", h)):
            terms = [c * value(a, b, shift) for (a, b), c in f.coeffs.items()]
            q = sum(terms[1:], terms[0]) if terms else PuiseuxSeries.zero(order)
            if not q.is_zero():
                e, c = q.items()[0]
                return len(monos), f"form {i} at {name} has q^({e}) coefficient {c}"
            if q.known_order() < order:
                return len(monos), f"form {i} at {name} is known only to q^({q.known_order()})"
    w = [QuadraticForm(N, {m: value(*m, shift) for m in monos}) for shift in (0, h)]
    return len(monos) - rank_check(w, N), None

