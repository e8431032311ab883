"""Cross-route consistency checks between independent code paths.

Each test ties together two implementations that share no machinery: the
semi-dilation linear system against the quotient-map images, the index
formula against its closed forms, and the degree bookkeeping of assembled
filtered complexes.
"""

import random

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from s1cochain.brieskorn import (
    OrbitFamily,
    PrincipalPeriod,
    f_of_t,
    milnor_model,
    min_cz,
    orbit_families,
    principal_periods,
)
from s1cochain.complexes import build_filtered_plus, make_complex
from s1cochain.dilation import (
    ZERO_PART,
    delta_plus0_k,
    has_k_semidilation,
    pi0_coordinate,
)
from s1cochain.linalg import vadd, vscale
from s1cochain.randomized import random_split_complex
from s1cochain.tensor import tensor


def _semidilation_via_quotient_images(s, k):
    """[e] reachable iff pi_0 is nonzero on the accumulated image chains.

    Independent route: a level-k semi-dilation exists iff the e-coordinate
    functional does not vanish on the span of the chain-level images of
    Delta^0_{+,0}, ..., Delta^k_{+,0} (the exact ambiguity is absorbed by
    pi_0 reading cohomology classes).
    """
    p = delta_plus0_k(s, k)
    cz = s.zero_part
    zero_idx = [i for i, part in enumerate(s.parts) if part == ZERO_PART]
    from s1cochain.morphisms import phi_value
    from s1cochain.spectral import filtration_tower

    conn = s.connecting_morphism()
    for j in range(k + 1):
        for w in filtration_tower(s.plus_part, j).z(j):
            val = phi_value(conn, w)
            # promote the zero-part chain back to ambient coordinates
            ambient = {zero_idx[i]: x for i, x in val.items()}
            if s.complex.generators and ambient:
                degree = s.complex.generators[min(ambient)].degree
                if degree == 0 and pi0_coordinate(s, ambient) != 0:
                    return True
    del p, cz
    return False


class TestSemidilationCharacterizations:
    def test_linear_system_matches_quotient_images_on_models(self):
        for kk, mm in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            s = milnor_model(kk, mm, include_spheres=False)
            for k in range(s.truncation // 2 + 1):
                assert has_k_semidilation(s, k)[0] \
                    == _semidilation_via_quotient_images(s, k), (kk, mm, k)

    def test_linear_system_matches_quotient_images_on_random(self):
        rng = random.Random(111)
        for i in range(8):
            s = random_split_complex(rng, rng.randint(3, 7), rng.randint(1, 3),
                                     rng.randint(2, 4),
                                     with_unit_killer=(i % 2 == 0))
            for k in range(s.truncation // 2 + 1):
                assert has_k_semidilation(s, k)[0] \
                    == _semidilation_via_quotient_images(s, k), (i, k)

    def test_witness_projects_to_one(self):
        # the returned closed class really has pi_0-image exactly [e]
        for kk, mm in [(2, 2), (3, 3), (3, 4)]:
            s = milnor_model(kk, mm, include_spheres=False)
            k = kk - 1
            ok, witness = has_k_semidilation(s, k)
            assert ok
            cp = s.plus_part
            conn = s.connecting
            zero_idx = [i for i, part in enumerate(s.parts) if part == ZERO_PART]
            total = {}
            for idx, x in witness.items():
                p, g = divmod(idx, cp.n)
                for r in range(0, min(p, s.truncation) + 1):
                    if p - r == 0:
                        img = conn[r].col(g)
                        total = vadd(total, vscale(x, {zero_idx[i]: v
                                                       for i, v in img.items()}))
            assert pi0_coordinate(s, total) == F(1)


class TestIndexIncrementLaw:
    def test_appending_the_minimal_period_increments_by_one(self):
        # adding the minimal period T as a new exponent turns its divisor
        # set one larger, raising the minimal index at period T by exactly 1
        for exps in ([2, 3, 3, 3], [3, 3, 3, 3], [2, 3, 4, 4, 4]):
            tmin = min(p.period for p in principal_periods(exps))
            fam = next(f for f in orbit_families(exps, tmin)
                       if f.total_period == tmin)
            bigger = list(exps) + [tmin]
            fam2 = next(f for f in orbit_families(bigger, tmin)
                        if f.total_period == tmin)
            assert min_cz(bigger, fam2) == min_cz(exps, fam) + 1

    def test_f_dominates_family_minima(self):
        # per-family minimal indices are never below f at the total period
        for exps in ([2, 3, 3, 3], [2, 3, 4, 4, 4]):
            for fam in orbit_families(exps, 30):
                assert min_cz(exps, fam) >= f_of_t(exps, fam.total_period)

    def test_multiples_of_minimal_period_stay_above_for_2333(self):
        # families of period 3N with N > 1 have index at least 4
        for fam in orbit_families([2, 3, 3, 3], 36):
            if fam.total_period > 3:
                assert min_cz([2, 3, 3, 3], fam) >= 4


class TestDegreeBookkeeping:
    def test_filtered_entries_raise_degree_by_one(self):
        rng = random.Random(121)
        subjects = [milnor_model(2, 3, include_spheres=False).complex,
                    milnor_model(3, 3, include_spheres=False).complex]
        from s1cochain.randomized import random_s1_complex
        subjects += [random_s1_complex(rng, rng.randint(4, 9), rng.randint(1, 4))
                     for _ in range(5)]
        for c in subjects:
            for lvl in range(c.truncation + 1):
                f = build_filtered_plus(c, lvl)
                for i, j, _ in f.differential.entries:
                    assert f.degrees[i] - f.degrees[j] == 1


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=2, max_size=6),
       st.integers(1, 150))
def test_f_difference_identity_hypothesis(exps, t):
    divisors = sum(1 for a in exps if t % a == 0)
    assert f_of_t(exps, t + 1) - f_of_t(exps, t) == 2 * divisors - 2


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6))
def test_min_cz_constant_vector_hypothesis(k, extra):
    # closed form 2N(m+1-k) - m + 1 for the constant vector (k,...,k)
    m = k + extra - 1
    exps = [k] * (m + 1)
    for n_count in (1, 2, 3):
        fam = OrbitFamily(PrincipalPeriod(k, tuple(range(m + 1))), n_count)
        assert min_cz(exps, fam) == 2 * n_count * (m + 1 - k) - m + 1


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_koszul_sign_hypothesis(da, db):
    ca = make_complex([("a", da)], 1, {})
    cb = make_complex([("b", db), ("c", db + 1)], 1, {0: [("b", "c", 1)]})
    p = tensor(ca, cb)
    sign = F(-1) if da % 2 else F(1)
    assert p.deltas[0].col(p.index_of("a(x)b")) == {p.index_of("a(x)c"): sign}
