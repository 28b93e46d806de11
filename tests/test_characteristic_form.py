"""One characteristic form shared by the three classifiers.

``characteristic_form(V)`` holds V = W / d over the common denominator and, once a
classifier asks for them, the numerators F of the characteristic coefficients
(f_k = F_k / d^k).  Each classifier called on the form, and ``classify`` for all three,
must give the report it gives on the matrix, ``==`` and ``str``-identical, whichever
classifier ran on the form first.
``char_square_check`` matches q on numerators; ``reference_char_square`` is the matching
in ``RatFunc`` arithmetic that it replaced.  One classification expands the principal
minors once, and ``ratfunc_over`` reduces over a monomial d with no ``poly_gcd``.
"""

import random
from fractions import Fraction

import pytest
from genutil import rand_poly

from hhokit import cli, geometry, rational
from hhokit.geometry import (
    ConditionReport,
    characteristic_form,
    char_poly_coeffs,
    char_square_check,
    classify,
    haantjes,
    haantjes_zero_check,
    linear_degeneracy_check,
)
from hhokit.rational import Poly, RatFunc, ratfunc_over
from hhokit.solver import find_fluxes_second_order, make_flux_ansatz

u1, u2, u3 = Poly.var(1), Poly.var(2), Poly.var(3)

# denominator kinds: constant, monomial, non-monomial, and with a repeated factor
DENOMINATORS = {
    "constant": [Poly.one()],
    "monomial": [u1, u1 * u1 * u2, u2],
    "non-monomial": [u1 + u2 + 1, u1 - 2],
    "repeated": [(u1 + 1) ** 2, (u1 + 1) * (u2 - u1)],
}
CLASSIFIERS = (linear_degeneracy_check, haantjes_zero_check, char_square_check)


def _matrix(rng, n, kind, params):
    """An n x n matrix of low-degree entries over denominators of one kind; some entries
    are zero, and the numerators carry parameters c1, c2 when ``params``."""
    dens = DENOMINATORS[kind]
    return [[RatFunc(rand_poly(rng, min(n, 2), 1, terms=2, allow_params=2 if params else 0),
                     rng.choice(dens)) if rng.random() < 0.8 else RatFunc.zero()
             for _ in range(n)] for _ in range(n)]


def _square_matrix(rng, kind):
    """diag(A, A) for a random 2 x 2 A: det(lam I - V) = det(lam I - A)^2 is a square."""
    A = _matrix(rng, 2, kind, False)
    Z = RatFunc.zero()
    return [A[0] + [Z, Z], A[1] + [Z, Z], [Z, Z] + A[0], [Z, Z] + A[1]]


def reference_char_square(V) -> ConditionReport:
    """The square match in RatFunc arithmetic: q_k = (f_k - sum q_i q_{k-i}) / 2 for k <= m,
    the residual f_k - sum q_i q_{k-i} for k > m, and the notes of the sampled discriminant."""
    n = len(V)
    rep = ConditionReport("char-poly-square")
    if n % 2:
        rep.add("even-dimension", (0,), RatFunc.one())
        return rep
    f, m = char_poly_coeffs(V), n // 2
    q = [RatFunc.one()]
    for k in range(1, n + 1):
        acc = f[k - 1]
        for i in range(max(1, k - m), min(k, m + 1)):
            acc = acc - q[i] * q[k - i]
        if k <= m:
            q.append(acc / 2)
        else:
            rep.add("square-match", (k,), acc)
    if rep.passed and n == 4:
        rng, disc = random.Random(geometry._ROOT_SEED), q[1] * q[1] - q[2] * 4
        nonneg = checked = tries = 0
        while checked < geometry._ROOT_SAMPLES and tries < 200:
            tries += 1
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for v in disc.vars_used()}
            try:
                value = disc.evaluate(point)
            except ZeroDivisionError:
                continue
            checked += 1
            nonneg += value >= 0
        rep.notes = (f"real roots certified at {nonneg}/{checked} sampled rational points only",)
    return rep


def _assert_same(got, want):
    assert got == want
    assert (str(got), [(f, i, str(v)) for f, i, v in got.residuals]) == \
        (str(want), [(f, i, str(v)) for f, i, v in want.residuals])


def _cases():
    """Every n and kind without parameters, and with them where the reduction stays small:
    at n = 2 for every kind, for constant and monomial denominators at n = 3 and 4 (the
    reductions over a non-monomial d of a parametric numerator take seconds there)."""
    for n in (2, 3, 4):
        for kind in DENOMINATORS:
            yield n, kind, False
            if n == 2 or kind in ("constant", "monomial"):
                yield n, kind, True


@pytest.mark.parametrize("n,kind,params", list(_cases()))
def test_classifiers_on_the_form_match_the_matrix(n, kind, params):
    rng = random.Random(7000 + 100 * n + 10 * list(DENOMINATORS).index(kind) + params)
    for _ in range(1 if n == 4 else 2):
        V = _matrix(rng, n, kind, params)
        want = [check(V) for check in CLASSIFIERS]
        for order in ((0, 1, 2), (2, 1, 0)):  # either classifier that reads F may form it
            form = characteristic_form(V)
            for i in order:
                _assert_same(CLASSIFIERS[i](form), want[i])
        _assert_same(want[2], reference_char_square(V))
        if n % 2:
            assert want[2].families_failing() == ["even-dimension"]
        assert haantjes(characteristic_form(V)) == haantjes(V)
        for square, count in ((True, 3), (False, 2)):  # classify: the same reports, one form
            got = classify(V, square)
            assert len(got) == count
            for rep, expected in zip(got, want):
                _assert_same(rep, expected)


@pytest.mark.parametrize("kind", list(DENOMINATORS))
def test_square_match_passes_on_a_doubled_block_and_matches_the_reference(kind):
    rng = random.Random(7100 + list(DENOMINATORS).index(kind))
    for _ in range(3):
        V = _square_matrix(rng, kind)
        got = char_square_check(characteristic_form(V))
        assert got.passed and len(got.notes) == 1
        _assert_same(got, reference_char_square(V))
        W = [row[:] for row in V]
        W[0][3] = W[3][0] = RatFunc.one()  # couples the blocks: the square match fails
        failing = char_square_check(W)
        assert failing.families_failing() == ["square-match"] and not failing.notes
        _assert_same(failing, reference_char_square(W))


def test_one_classification_builds_one_form_and_expands_the_minors_once(monkeypatch):
    calls = []
    expand, build = geometry._char_numerators, geometry.CharacteristicForm.__init__

    def counting_expand(W):
        calls.append(("F", len(W)))
        return expand(W)

    def counting_build(self, V):
        calls.append(("form", len(V)))
        build(self, V)

    monkeypatch.setattr(geometry, "_char_numerators", counting_expand)
    monkeypatch.setattr(geometry.CharacteristicForm, "__init__", counting_build)
    for argv, n in ((["classify", "--example", "n4-second-order"], 4),
                    (["examples", "run", "n4-second-order"], 4),
                    (["examples", "run", "oriented-assoc"], 6)):
        del calls[:]
        assert cli.main(argv) == 0 and calls == [("form", n), ("F", n)]
    del calls[:]
    family = find_fluxes_second_order(
        geometry.SecondOrderData.from_generators(4, {(1, 2, 3): 1}, {(3, 4): 1}),
        make_flux_ansatz(4, 2, denominator=u3))
    assert list(family.classification) == ["linear-degeneracy", "haantjes-zero",
                                           "char-poly-square"]
    assert calls == [("form", 4), ("F", 4)]


def test_ratfunc_over_a_monomial_takes_no_gcd(monkeypatch):
    def refuse(a, b):
        raise AssertionError("poly_gcd called")

    d = u1 * u1 * u3
    cases = [(u1 ** 3 * u2 + u1 * u3 * Poly.var(-1), 2), (u2 + 1, 3), (d ** 2 * 5, 2),
             (u1 * Fraction(1, 2), 1), (d * (u2 - u3), 1)]
    want = [RatFunc(h, d ** e) for h, e in cases]
    monkeypatch.setattr(rational, "poly_gcd", refuse)
    got = [ratfunc_over(h, d, e) for h, e in cases]
    assert got == want and list(map(str, got)) == list(map(str, want))
    assert ratfunc_over(u1 + 2, Poly.one(), 4) == RatFunc(u1 + 2)
