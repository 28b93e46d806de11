"""The sparse-sum body ``Poly`` and ``DiffPoly`` share (``rational.SparsePoly``):
sums with a scalar on either side, the zero-free constructor, negation,
powers and equality, checked on both classes against the parsed text form."""

import pytest

from hhokit.grammar import parse, parse_scalar
from hhokit.jets import DiffPoly
from hhokit.rational import Poly


@pytest.mark.parametrize("cls, make, p_text, q_text", [
    (Poly, lambda text: parse_scalar(text).num, "u1 + 3/2*u2", "u2 - u1*u3"),
    (DiffPoly, parse, "u1_x + 3/2*u2*u1_xx", "u2*p1_x - u1*u3"),
], ids=["Poly", "DiffPoly"])
def test_shared_sparse_sum_body(cls, make, p_text, q_text):
    p, q = make(p_text), make(q_text)
    assert type(p) is cls and type(q) is cls
    # a scalar on either side of + and -
    assert 1 - p == make(f"1 - ({p_text})")
    assert p + 2 == make(f"{p_text} + 2") == 2 + p
    assert p - 2 == make(f"{p_text} - 2")
    assert sum([p, q]) == make(f"{p_text} + {q_text}") == p + q
    assert str(1 - p) == str(make(f"1 - ({p_text})"))
    # the constructor drops a zero coefficient
    m, c = next((m, c) for m, c in q.terms.items() if m not in p.terms)
    padded = cls({**p.terms, m: c * 0})
    assert padded == p and m not in padded.terms
    assert cls({m: c * 0}) == cls.zero() and cls.zero().is_zero and not cls.zero()
    # negation, powers
    assert -p == make(f"-({p_text})")
    assert (p + (-p)).is_zero and p - p == cls.zero()
    assert p ** 0 == cls.one() == make("1")
    assert p ** 1 == p and p ** 2 == p * p
    # a Poly never equals a DiffPoly, not even zero or one
    other = DiffPoly if cls is Poly else Poly
    assert cls.zero() != other.zero() and cls.one() != other.one()
    assert p != other.one()
    with pytest.raises(TypeError):
        hash(p)
    assert repr(p) == str(p) == str(make(str(p)))
