import itertools
import random

from fractions import Fraction as F
from math import factorial, gcd

import pytest

from s1cochain.brieskorn import (
    MAX_DISTINCT_EXPONENTS,
    MAX_PERIOD_BOUND,
    BrieskornData,
    OrbitFamily,
    PrincipalPeriod,
    f_of_t,
    global_min_cz,
    is_adc_certified,
    milnor_model,
    milnor_unit_primitive,
    min_cz,
    orbit_families,
    predicted_order,
    principal_periods,
)
from s1cochain.complexes import (
    MAX_FILTERED_DIM,
    MAX_TRUNCATION,
    build_filtered_plus,
    verify_s1_relations,
)
from s1cochain.dilation import order_of_dilation, verify_splitting


def lcm(*xs):
    out = 1
    for x in xs:
        out = out * x // gcd(out, x)
    return out


def oracle_principal_periods(exps):
    """Independent brute force: lcm over every non-empty index subset."""
    found = {}
    for r in range(1, len(exps) + 1):
        for sub in itertools.combinations(range(len(exps)), r):
            t = lcm(*(exps[i] for i in sub))
            idx = tuple(i for i, a in enumerate(exps) if t % a == 0)
            if len(idx) >= 2 and lcm(*(exps[i] for i in idx)) == t:
                found[t] = idx
    return sorted(found.items())


def one_dilation_exponents(n):
    return [i + 2 for i in range(n - 1)] + [n, n]


class TestPrincipalPeriods:
    def test_two_two(self):
        assert [(p.period, p.indices) for p in principal_periods([2, 2])] \
            == [(2, (0, 1))]

    def test_2333_matches_subset_oracle(self):
        got = [(p.period, p.indices) for p in principal_periods([2, 3, 3, 3])]
        assert got == [(3, (1, 2, 3)), (6, (0, 1, 2, 3))]
        assert got == oracle_principal_periods([2, 3, 3, 3])

    def test_constant_vector_single_period(self):
        for k, m in [(2, 3), (3, 3), (5, 6)]:
            got = principal_periods([k] * (m + 1))
            assert len(got) == 1
            assert got[0].period == k
            assert got[0].indices == tuple(range(m + 1))

    def test_random_vectors_match_oracle(self):
        rng = random.Random(101)
        for _ in range(15):
            exps = [rng.randint(2, 9) for _ in range(rng.randint(2, 6))]
            got = [(p.period, p.indices) for p in principal_periods(exps)]
            assert got == oracle_principal_periods(exps)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            principal_periods([2])
        with pytest.raises(ValueError):
            principal_periods([1, 2])

    def test_distinct_exponents_beyond_the_limit_refused(self):
        # coprime exponents are the worst case: any two or more make a principal period
        primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))]
        k = MAX_DISTINCT_EXPONENTS
        with pytest.raises(ValueError, match=f"{k + 1} distinct exponents exceed the limit {k}"):
            principal_periods(primes[:k + 1])
        BrieskornData(tuple(primes[:k]))
        # repeats count once: the one-dilation exponents at n = 12 have 11
        BrieskornData(tuple(range(2, 12)) + (12,) * 40)


class TestMinCz:
    def test_2333_period3(self):
        fam = OrbitFamily(PrincipalPeriod(3, (1, 2, 3)), 1)
        assert min_cz([2, 3, 3, 3], fam) == 2

    def test_23444_period4(self):
        fam = OrbitFamily(PrincipalPeriod(4, (0, 2, 3, 4)), 1)
        assert min_cz([2, 3, 4, 4, 4], fam) == 3

    def test_constant_vector_closed_form(self):
        # substituting a = (k, ..., k), T = k, N = 1 gives m - 2k + 3
        for k in range(2, 7):
            for m in range(k, 7):
                exps = [k] * (m + 1)
                fam = OrbitFamily(PrincipalPeriod(k, tuple(range(m + 1))), 1)
                assert min_cz(exps, fam) == m - 2 * k + 3

    def test_formula_against_direct_oracle(self):
        # independent re-evaluation of the index expression
        rng = random.Random(103)
        for _ in range(10):
            exps = [rng.choice([2, 2, 3, 4, 6]) for _ in range(rng.randint(2, 5))]
            for fam in orbit_families(exps, 3 * max(exps)):
                nt = fam.total_period
                it = set(fam.principal.indices)
                n = len(exps) - 1
                expected = (2 * sum(nt // a for a in exps)
                            + (n + 1) - 2 * len(it) - 2 * nt + 2)
                assert min_cz(exps, fam) == expected


class TestFOfT:
    def test_one_dilation_family_value(self):
        # the minimal-period value is n-1 for the entire family; for n >= 4
        # the minimal period is 4, for n = 3 it is 3
        for n in range(4, 11):
            assert f_of_t(one_dilation_exponents(n), 4) == n - 1
        assert f_of_t(one_dilation_exponents(3), 3) == 2

    def test_difference_identity(self):
        # f(T+1) - f(T) = 2 |I_T| - 2, with I_T the full divisor set
        vectors = [one_dilation_exponents(n) for n in (3, 5, 8)] \
            + [[2, 2], [2, 3, 5], [4, 4, 4, 4]]
        for exps in vectors:
            data = BrieskornData(tuple(exps))
            for t in range(1, 201):
                divisors = sum(1 for a in exps if t % a == 0)
                assert len(data.divisor_indices(t)) == divisors
                assert f_of_t(exps, t + 1) - f_of_t(exps, t) == 2 * divisors - 2

    def test_no_dip_below_minimal_period(self):
        for n in range(3, 11):
            exps = one_dilation_exponents(n)
            tmin = min(p.period for p in principal_periods(exps))
            bound = 10 * max(p.period for p in principal_periods(exps))
            fmin = f_of_t(exps, tmin)
            assert all(f_of_t(exps, t) >= fmin for t in range(tmin, bound + 1))

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            f_of_t([2, 2], 0)


class TestGlobalMinCz:
    def test_2333_bound_12(self):
        g = global_min_cz([2, 3, 3, 3], 12)
        assert g.minimum == 2
        assert g.attained.total_period == 3
        assert g.min_attained_at_minimal_period

    def test_adc_family_value_at_minimal_period(self):
        # exponents (k, ..., k, a_1, ..., a_r) with a_j >= k: minimal index
        # at period k is r - k + 3
        for k, r in [(2, 1), (2, 3), (3, 2)]:
            exps = [k] * (k + 1) + [k + 2] * r
            g = global_min_cz(exps, 4 * max(p.period for p in principal_periods(exps)))
            fams_at_k = [f for f in orbit_families(exps, k) if f.total_period == k]
            assert fams_at_k
            assert min(min_cz(exps, f) for f in fams_at_k) == r - k + 3

    def test_22_bound_8_direct_enumeration(self):
        # oracle: every family is (T=2, N) with index 0
        g = global_min_cz([2, 2], 8)
        fams = orbit_families([2, 2], 8)
        assert [f.total_period for f in fams] == [2, 4, 6, 8]
        assert all(min_cz([2, 2], f) == 0 for f in fams)
        assert g.minimum == 0
        assert g.min_attained_at_minimal_period

    def test_default_bound_is_stated(self):
        g = global_min_cz([2, 3, 3, 3])
        assert g.period_bound == 4 * 6

    def test_families_pair_each_family_with_its_index(self):
        for exps, bound in [([2, 3, 3, 3], 60), ([2, 3, 5], None), ([2, 2], 8)]:
            g = global_min_cz(exps, bound)
            fams = orbit_families(exps, g.period_bound)
            assert g.families == tuple((f, min_cz(exps, f)) for f in fams)
            first = next(f for f, v in g.families if v == g.minimum)
            assert g.attained == first and g.minimum == min(v for _, v in g.families)

    def test_bound_above_the_cap_rejected(self):
        assert len(orbit_families([2, 2], MAX_PERIOD_BOUND)) == MAX_PERIOD_BOUND // 2
        with pytest.raises(ValueError, match="exceeds the limit"):
            orbit_families([2, 3, 3, 3], MAX_PERIOD_BOUND + 1)
        # the default bound of (97, 89, 83) is 4 * 97 * 89 * 83
        with pytest.raises(ValueError, match="exceeds the limit"):
            global_min_cz([97, 89, 83])
        # `reproduce corollary-1dilation` needs the default bound of the
        # one-dilation exponents (2, ..., n, n) for n up to 12
        exps = list(range(2, 12)) + [12, 12]
        assert 4 * max(p.period for p in principal_periods(exps)) <= MAX_PERIOD_BOUND


class TestAdcCertificate:
    def test_positive_family_min_sft_degree(self):
        for k in (2, 3):
            for r in (1, 2, 3):
                exps = [k] * (k + 1) + [k] * r  # a_j = k >= k
                cert = is_adc_certified(exps, 6 * k)
                assert cert.certified
                assert cert.minimal_sft_degree == 2 * r

    def test_22_reported_per_family(self):
        cert = is_adc_certified([2, 2], 8)
        # n = 1: SFT degree mu - 2 = -2 for every family
        assert not cert.certified
        assert all(d == -2 for _, _, d in cert.sft_degrees)

    def test_constant_boundary_case_not_certified(self):
        for k in (2, 3, 4):
            cert = is_adc_certified([k] * (k + 1), 6 * k)
            assert not cert.certified
            assert cert.minimal_sft_degree == 0

    def test_bound_below_minimal_period_rejected(self):
        # the minimal principal period of (2,3,3,3) is 3: a bound of 2
        # would inspect no family and certify vacuously
        with pytest.raises(ValueError, match="minimal principal period"):
            is_adc_certified([2, 3, 3, 3], 2)
        assert is_adc_certified([2, 3, 3, 3], 3).sft_degrees


class TestPredictedOrder:
    def test_constant_vectors(self):
        for k in range(2, 7):
            for m in range(k, 7):
                p = predicted_order([k] * (m + 1))
                assert p.predicted_order == k - 1
                assert p.min_attained_at_minimal_period
                assert not p.kodaira_obstruction
                assert p.existence_assumed

    def test_one_dilation_family(self):
        for n in range(3, 9):
            p = predicted_order(one_dilation_exponents(n))
            assert p.predicted_order == 1

    def test_kodaira_obstruction_suppresses(self):
        p = predicted_order([2, 3, 7])
        assert p.kodaira_obstruction
        assert p.predicted_order is None

    def test_kodaira_threshold(self):
        assert BrieskornData((2, 3, 7)).kodaira_nonnegative()      # 41/42 < 1
        assert BrieskornData((2, 2)).kodaira_nonnegative()         # exactly 1
        assert not BrieskornData((2, 3, 5)).kodaira_nonnegative()  # 31/30 > 1


class TestMilnorModel:
    def test_models_pass_verifiers(self):
        for m in range(1, 6):
            for k in range(1, m + 1):
                s = milnor_model(k, m, include_spheres=False)
                assert verify_s1_relations(s.complex).valid
                assert verify_splitting(s).valid

    def test_gradings_from_fiber_index(self):
        # |p_check_j| = 2k - ind - 3 and |p_hat_j| = 2k - ind - 4 with
        # ind(p_j) = 2m - 2 - 2j
        for k, m in [(2, 3), (3, 5), (4, 4)]:
            c = milnor_model(k, m, include_spheres=False).complex
            for j in range(m - k, m):
                ind = 2 * m - 2 - 2 * j
                assert c.generators[c.index_of(f"p{j}_check")].degree \
                    == 2 * k - ind - 3
                assert c.generators[c.index_of(f"p{j}_hat")].degree \
                    == 2 * k - ind - 4

    def test_11_structure(self):
        c = milnor_model(1, 1).complex
        assert [g.name for g in c.generators] == ["e", "p0_check", "p0_hat"]
        assert c.deltas[0].col(c.index_of("p0_check")) == {c.index_of("e"): F(1)}
        assert c.deltas[1].col(c.index_of("p0_check")) \
            == {c.index_of("p0_hat"): F(1)}

    def test_22_structure(self):
        c = milnor_model(2, 2).complex
        e, p1h = c.index_of("e"), c.index_of("p1_hat")
        assert c.deltas[0].col(c.index_of("p0_check")) == {e: F(2), p1h: F(1)}
        assert c.deltas[0].col(c.index_of("p1_check")) == {}
        for j in (0, 1):
            assert c.deltas[1].col(c.index_of(f"p{j}_check")) \
                == {c.index_of(f"p{j}_hat"): F(1)}

    def test_unit_coefficient_is_k_factorial(self):
        for k, m in [(2, 2), (3, 4), (4, 4)]:
            c = milnor_model(k, m, include_spheres=False).complex
            col = c.deltas[0].col(c.index_of(f"p{m-k}_check"))
            assert col[c.index_of("e")] == F(factorial(k))

    def test_sphere_free_model_depends_on_m_only_through_names(self):
        # `reproduce theorem-a` solves (k, k) once for every m >= k; its
        # --max limit is MAX_TRUNCATION // 2
        for k in range(1, MAX_TRUNCATION // 2 + 1):
            base = milnor_model(k, k, include_spheres=False)
            for m in range(k, MAX_TRUNCATION // 2 + 1):
                s = milnor_model(k, m, include_spheres=False)
                assert s.complex.degrees == base.complex.degrees, (k, m)
                assert s.complex.deltas == base.complex.deltas, (k, m)
                assert s.truncation == base.truncation, (k, m)
                assert s.parts == base.parts, (k, m)
                assert s.unit == base.unit, (k, m)

    def test_sphere_count(self):
        for k, m in [(2, 2), (3, 3), (2, 4)]:
            s = milnor_model(k, m, include_spheres=True)
            spheres = [g for g in s.complex.generators if g.name.startswith("s")]
            assert len(spheres) == (k - 1) ** (m + 1)
            assert all(g.degree == m for g in spheres)

    def test_filtered_dimension_limit(self):
        # n = 738 generators: F^26 fits in the limit, F^27 does not
        assert milnor_model(4, 5, truncation=26).complex.n == 738
        with pytest.raises(ValueError, match=str(MAX_FILTERED_DIM)):
            milnor_model(4, 5, truncation=27)

    def test_monotonicity_errors(self):
        with pytest.raises(ValueError):
            milnor_model(3, 2)
        with pytest.raises(ValueError):
            milnor_model(0, 2)

    def test_spheres_do_not_change_orders(self):
        for k, m in [(2, 2), (2, 3), (3, 3)]:
            with_s = order_of_dilation(milnor_model(k, m, include_spheres=True))
            without = order_of_dilation(milnor_model(k, m, include_spheres=False))
            assert with_s.order == without.order == k - 1

    def test_orders_with_spheres_across_desk_scale(self):
        # full-fidelity recheck wherever the sphere count stays reasonable
        # ((k-1)^(m+1) <= 243 covers 17 of the 21 desk-scale cases)
        for m in range(1, 7):
            for k in range(1, m + 1):
                if (k - 1) ** (m + 1) > 243:
                    continue
                s = milnor_model(k, m)
                assert order_of_dilation(s).order == k - 1

    def test_unit_primitive_evaluates_to_unit(self):
        # the alternating chain sum (-1)^i / k! p_check_{m-k+i} u^-i is an
        # exact primitive of e at level k-1
        for k, m in [(1, 1), (2, 2), (2, 4), (3, 3), (4, 5)]:
            s = milnor_model(k, m, include_spheres=False)
            c = s.complex
            f = build_filtered_plus(c, k - 1)
            chain = {}
            for name, power, coeff in milnor_unit_primitive(k, m):
                chain[f.index_of(c.index_of(name), power)] = coeff
            image = f.differential.apply(chain)
            assert image == {f.index_of(c.index_of("e"), 0): F(1)}

    def test_default_truncation_is_2k(self):
        assert milnor_model(3, 4).truncation == 6
        assert milnor_model(3, 4, truncation=9).truncation == 9
