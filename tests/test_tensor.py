import random

from fractions import Fraction as F

import pytest

from s1cochain.brieskorn import milnor_model
from s1cochain.complexes import (
    MAX_FILTERED_DIM,
    MAX_GENERATORS,
    make_complex,
    verify_s1_relations,
)
from s1cochain.dilation import (
    ZERO_PART,
    make_split_complex,
    order_of_dilation,
    order_of_semidilation,
    verify_splitting,
)
from s1cochain.morphisms import verify_functoriality, verify_morphism
from s1cochain.randomized import random_s1_complex, random_split_complex
from s1cochain.tensor import tensor, tensor_chain, tensor_split, unit_embedding


def point_complex(n_tr):
    c = make_complex([("e_W", 0)], n_tr, {})
    return make_split_complex(c, ["e_W"], "e_W")


class TestTensor:
    def test_unit_factor_embedding_is_morphism(self):
        c = milnor_model(2, 2, include_spheres=False).complex
        w = point_complex(c.truncation)
        emb = unit_embedding(c, w)
        assert verify_morphism(emb).valid
        assert verify_functoriality(emb).valid
        prod = emb.target
        assert prod.n == c.n
        # a (x) e_W carries exactly the structure of a
        for r in range(c.truncation + 1):
            assert prod.deltas[r].entries == c.deltas[r].entries

    def test_koszul_sign(self):
        # |a| odd and delta0 b = c force delta0(a (x) b) to contain -a (x) c
        ca = make_complex([("a", 1)], 1, {})
        cb = make_complex([("b", 0), ("c", 1)], 1, {0: [("b", "c", 1)]})
        p = tensor(ca, cb)
        ab = p.index_of("a(x)b")
        ac = p.index_of("a(x)c")
        assert p.deltas[0].col(ab) == {ac: F(-1)}

    def test_relations_hold_for_milnor_products(self):
        a = milnor_model(2, 2, include_spheres=False).complex
        b = milnor_model(3, 3, include_spheres=False).complex
        p = tensor(a, b)
        assert p.truncation == min(a.truncation, b.truncation)
        assert verify_s1_relations(p).valid

    def test_relations_hold_for_random_products(self):
        rng = random.Random(83)
        for _ in range(4):
            a = random_s1_complex(rng, rng.randint(3, 6), rng.randint(1, 3))
            b = random_s1_complex(rng, rng.randint(3, 6), rng.randint(1, 3))
            assert verify_s1_relations(tensor(a, b)).valid


class TestTensorSplit:
    def test_unit_class_nonzero_and_split_valid(self):
        s = milnor_model(2, 2, include_spheres=False)
        t = milnor_model(1, 2, include_spheres=False)
        p = tensor_split(s, t)
        assert verify_splitting(p).valid
        assert verify_s1_relations(p.complex).valid

    def test_higher_operators_vanish_on_zero_part(self):
        rng = random.Random(89)
        s = random_split_complex(rng, 4, 2, 3)
        t = random_split_complex(rng, 4, 2, 3)
        p = tensor_split(s, t)
        zset = {i for i, part in enumerate(p.parts) if part == ZERO_PART}
        for r in range(1, p.truncation + 1):
            assert all(j not in zset for _, j, _ in p.complex.deltas[r].entries)

    def test_unit_is_product_of_units(self):
        s = milnor_model(2, 2, include_spheres=False)
        t = milnor_model(2, 3, include_spheres=False)
        p = tensor_split(s, t)
        assert p.unit == tensor_chain(t, s.unit, t.unit)


class TestOrderLaws:
    def test_dilation_order_of_22_times_33(self):
        p = tensor_split(milnor_model(2, 2, include_spheres=False),
                         milnor_model(3, 3, include_spheres=False))
        assert order_of_dilation(p).order == 1

    def test_dilation_order_is_min_small_cases(self):
        cases = [(1, 1, 2, 2), (1, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3)]
        for k1, m1, k2, m2 in cases:
            p = tensor_split(milnor_model(k1, m1, include_spheres=False),
                             milnor_model(k2, m2, include_spheres=False))
            assert order_of_dilation(p).order == min(k1, k2) - 1

    def test_semidilation_order_bounded_by_min(self):
        for k1, m1, k2, m2 in [(1, 1, 2, 2), (2, 2, 3, 4), (2, 3, 3, 3)]:
            p = tensor_split(milnor_model(k1, m1, include_spheres=False),
                             milnor_model(k2, m2, include_spheres=False))
            order = order_of_semidilation(p).order
            assert order is not None
            assert order <= min(k1, k2) - 1

    def test_spheres_do_not_change_product_order(self):
        p1 = tensor_split(milnor_model(2, 2, include_spheres=True),
                          milnor_model(2, 2, include_spheres=True))
        p2 = tensor_split(milnor_model(2, 2, include_spheres=False),
                          milnor_model(2, 2, include_spheres=False))
        assert order_of_dilation(p1).order == order_of_dilation(p2).order == 1


def test_product_size_limits_checked_before_allocation():
    # 100 x 100 generators are at the generator limit, 100 x 101 above it;
    # at truncation 1 the filtered dimension is at its limit, at 2 above it
    def flat(n, n_tr):
        return make_complex([(f"g{i}", 0) for i in range(n)], n_tr, {})

    assert tensor(flat(100, 1), flat(100, 1)).n == MAX_GENERATORS
    with pytest.raises(ValueError, match="10100 generators"):
        tensor(flat(100, 0), flat(101, 0))
    with pytest.raises(ValueError, match=str(MAX_FILTERED_DIM)):
        tensor(flat(100, 2), flat(100, 2))
    big = make_split_complex(flat(5000, 0), ["g0"], "g0")
    with pytest.raises(ValueError, match=str(MAX_GENERATORS)):
        tensor_split(big, big)
