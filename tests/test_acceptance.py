"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every assertion is exact: no tolerances exist anywhere.
"""

import random
import sys
import time

from fractions import Fraction as F

import pytest

from s1cochain.brieskorn import (
    f_of_t,
    global_min_cz,
    is_adc_certified,
    milnor_model,
    milnor_unit_primitive,
    predicted_order,
    principal_periods,
)
from s1cochain.complexes import build_filtered_plus, cohomology
from s1cochain.dilation import (
    has_k_dilation,
    has_k_semidilation,
    order_of_dilation,
    order_of_semidilation,
    order_via_torsion,
    tautological_les,
)
from s1cochain.linalg import SparseMatrix, rank, span_leq
from s1cochain.morphisms import (
    induced_cohomology_map,
    verify_functoriality,
    verify_morphism,
)
from s1cochain.randomized import (
    random_endomorphism_pair,
    random_morphism,
    random_s1_complex,
    random_split_complex,
)
from s1cochain.spectral import delta_k, e_infinity, filtration_tower
from s1cochain.tensor import tensor_split


def report(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# criterion 1: known dilation orders of the Fermat models, 21 cases, < 10 s


def test_criterion_1_fermat_orders_desk_scale():
    start = time.monotonic()
    for m in range(1, 7):
        for k in range(1, m + 1):
            s = milnor_model(k, m, include_spheres=False)
            d = order_of_dilation(s)
            sd = order_of_semidilation(s)
            assert d.order == k - 1, (k, m, d.order)
            assert sd.order == k - 1, (k, m, sd.order)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"ACCEPTANCE 1 (orders of the 21 Fermat models = k-1, "
           f"{elapsed:.2f}s): PASS")


# ---------------------------------------------------------------------------
# criterion 2: the explicit alternating primitive hits the unit exactly


def test_criterion_2_explicit_unit_primitive():
    for m in range(1, 7):
        for k in range(1, m + 1):
            s = milnor_model(k, m, include_spheres=False)
            c = s.complex
            f = build_filtered_plus(c, k - 1)
            chain = {f.index_of(c.index_of(name), power): coeff
                     for name, power, coeff in milnor_unit_primitive(k, m)}
            assert f.differential.apply(chain) \
                == {f.index_of(c.index_of("e"), 0): F(1)}, (k, m)
    report("ACCEPTANCE 2 (alternating (-1)^i/k! primitive maps to the unit, "
           "exact equality): PASS")


# ---------------------------------------------------------------------------
# criterion 3: Brieskorn numerics, exact integer matches


def one_dilation_exponents(n):
    return [i + 2 for i in range(n - 1)] + [n, n]


def test_criterion_3a_min_cz_2333():
    g = global_min_cz([2, 3, 3, 3], 12)
    assert g.minimum == 2 and g.attained.total_period == 3
    report("ACCEPTANCE 3a (min CZ of (2,3,3,3) = 2 at T=3, N=1): PASS")


def test_criterion_3b_min_cz_23444():
    g = global_min_cz([2, 3, 4, 4, 4], 16)
    assert g.minimum == 3 and g.attained.total_period == 4
    report("ACCEPTANCE 3b (min CZ of (2,3,4,4,4) = 3 at T=4): PASS")


def test_criterion_3c_f_at_minimal_period():
    # the literal identity f(4) = n-1 holds for n >= 4, where 4 is the
    # minimal principal period; at n = 3 the minimal period is 3 and the
    # index value there is 2 = n-1 (f(4) = 6 at n = 3, so the identity is
    # pinned at the minimal period, matching the source computation)
    for n in range(4, 11):
        assert f_of_t(one_dilation_exponents(n), 4) == n - 1, n
    exps3 = one_dilation_exponents(3)
    assert min(p.period for p in principal_periods(exps3)) == 3
    assert f_of_t(exps3, 3) == 2
    for n in range(3, 11):
        exps = one_dilation_exponents(n)
        tmin = min(p.period for p in principal_periods(exps))
        assert f_of_t(exps, tmin) == n - 1, n
    report("ACCEPTANCE 3c (f = n-1 at the minimal period, 3 <= n <= 10; "
           "literal f(4) identity for n >= 4): PASS")


FIRST_TABLE = {4: 2, 5: -2, 6: 2, 7: -2, 8: 2, 9: 0, 10: 0, 11: -2}
MOD12_TABLE = {0: 4, 1: -2, 2: 0, 3: 0, 4: 2, 5: -2,
               6: 2, 7: -2, 8: 2, 9: 0, 10: 0, 11: -2}


def test_criterion_3d_increment_tables_as_lower_bounds():
    # the tables presuppose 2, 3 and 4 among the exponents, i.e. n >= 4
    for n in range(4, 11):
        exps = one_dilation_exponents(n)
        for t in range(4, 501):
            inc = f_of_t(exps, t + 1) - f_of_t(exps, t)
            if t <= 11:
                assert inc >= FIRST_TABLE[t], (n, t)
            else:
                assert inc >= MOD12_TABLE[t % 12], (n, t)
    report("ACCEPTANCE 3d (increment tables hold as lower bounds for "
           "T <= 500, n in 4..10): PASS")


def test_criterion_3e_adc_minimal_sft_degree():
    for k in (2, 3):
        for r in (1, 2, 3):
            exps = [k] * (k + 1) + [k] * r
            cert = is_adc_certified(exps, 6 * k)
            assert cert.certified, (k, r)
            assert cert.minimal_sft_degree == 2 * r, (k, r)
    report("ACCEPTANCE 3e (minimal SFT degree = 2r for k in {2,3}, "
           "r in {1,2,3}): PASS")


# ---------------------------------------------------------------------------
# criterion 4: Kunneth order law on products of Fermat models


def test_criterion_4_kunneth_order_law():
    models = {}
    for m in range(1, 5):
        for k in range(1, m + 1):
            models[(k, m)] = milnor_model(k, m, include_spheres=False)
    pairs = sorted(models)
    checked = 0
    for i, p1 in enumerate(pairs):
        for p2 in pairs[i:]:
            prod = tensor_split(models[p1], models[p2])
            expected = min(p1[0], p2[0]) - 1
            got = order_of_dilation(prod)
            assert got.order == expected, (p1, p2, got.order)
            checked += 1
    report(f"ACCEPTANCE 4 (dilation order of {checked} products = "
           "min(k1,k2)-1, exact): PASS")


# ---------------------------------------------------------------------------
# criterion 5: property suites over >= 200 randomized valid complexes


def _corpus():
    subjects = []
    for seed in range(205):
        rng = random.Random(10_000 + seed)
        n_plus = 3 + seed % 9
        n_zero_extra = seed % 4
        n_tr = 2 + seed % 5
        if seed % 41 == 0:
            n_plus, n_zero_extra, n_tr = 13, 4, 6   # the ceiling: 19 gens
        s = random_split_complex(rng, n_plus, n_zero_extra, n_tr,
                                 with_unit_killer=(seed % 7 == 0))
        assert s.complex.n <= 20 and s.truncation <= 6
        subjects.append(s)
    # the model complexes join the randomized ones in every quantified suite
    for m in range(1, 5):
        for k in range(1, m + 1):
            subjects.append(milnor_model(k, m, include_spheres=False))
    return subjects


@pytest.fixture(scope="module")
def corpus():
    subjects = _corpus()
    assert len(subjects) >= 200
    return subjects


def test_criterion_5a_filtered_differential_squares_to_zero(corpus):
    for s in corpus:
        f = build_filtered_plus(s.complex, s.truncation)
        assert (f.differential @ f.differential).is_zero()
    report(f"ACCEPTANCE 5a ((delta_S1)^2 = 0 on F^N, {len(corpus)} complexes): PASS")


def test_criterion_5b_inclusion_chain(corpus):
    # nesting of the B's and Z's holds at every level; the bridge
    # B_k <= Z_k is a theorem of the truncated calculus only for 2k <= N
    # (beyond that range it genuinely fails, see test_spectral for a frozen
    # counterexample)
    for s in corpus:
        c = s.complex
        n_tr = c.truncation
        bs = [filtration_tower(c, k).b_vectors(k) for k in range(n_tr + 1)]
        zs = [filtration_tower(c, k).z_vectors(k) for k in range(n_tr + 1)]
        for k in range(n_tr):
            assert span_leq(bs[k], bs[k + 1], c.n)
            assert span_leq(zs[k + 1], zs[k], c.n)
        for k in range(n_tr // 2 + 1):
            assert span_leq(bs[k], zs[k], c.n)
    report("ACCEPTANCE 5b (B_0 <= ... <= B_k <= Z_k <= ... <= Z_0 as exact "
           "rank identities, bridge for 2k <= N): PASS")


def test_criterion_5c_ker_im_coker_identities(corpus):
    def qdim(z, b, n):
        return (rank(SparseMatrix.from_columns(list(b) + list(z), n))
                - rank(SparseMatrix.from_columns(list(b), n)))

    checked = 0
    for s in corpus:
        c = s.complex
        for k in range(1, c.truncation // 2 + 1):
            dk = delta_k(c, k)
            t0, t1, tk = (filtration_tower(c, j) for j in (0, k - 1, k))
            assert dk.kernel_dim == qdim(tk.z_vectors(k), t0.b_vectors(0), c.n)
            assert dk.rank == qdim(tk.b_vectors(k), t1.b_vectors(k - 1), c.n)
            assert dk.coker_dim == qdim(t0.z_vectors(0), tk.b_vectors(k), c.n)
            checked += 1
    report(f"ACCEPTANCE 5c (ker/im/coker of Delta^k, {checked} maps): PASS")


def test_criterion_5d_delta1_is_class_of_delta1(corpus):
    for s in corpus:
        c = s.complex
        if c.truncation < 2:
            continue
        dk = delta_k(c, 1)
        for j, w in enumerate(dk.domain_witnesses):
            direct = c.deltas[1].apply(w.leading)
            assert dk.codomain.coordinates(direct) == tuple(
                dk.matrix.col(j).get(i, F(0)) for i in range(dk.codomain.dim))
    report("ACCEPTANCE 5d (Delta^1 = [delta^1] on H): PASS")


def test_criterion_5e_hierarchy_implications(corpus):
    dilations = semis = 0
    for s in corpus:
        n_tr = s.truncation
        for k in range(n_tr):
            dil, _ = has_k_dilation(s, k)
            if dil:
                dilations += 1
                assert has_k_semidilation(s, k)[0]
                assert has_k_dilation(s, k + 1)[0]
            semi, _ = has_k_semidilation(s, k)
            if semi:
                semis += 1
                assert has_k_semidilation(s, k + 1)[0]
    assert dilations > 0 and semis > 0
    report(f"ACCEPTANCE 5e (hierarchy: {dilations} dilation and {semis} "
           "semi-dilation instances propagate): PASS")


def test_criterion_5f_torsion_route_agreement(corpus):
    for s in corpus:
        assert order_of_dilation(s).order \
            == order_via_torsion(s).order
        assert order_of_semidilation(s).order \
            == order_via_torsion(s, semi=True).order
    report("ACCEPTANCE 5f (direct and u-torsion order detection agree): PASS")


def test_semidilation_witness_is_the_fixed_level_solve(corpus):
    """The scan's witness is `has_k_semidilation`'s at the order found, on
    the corpus and the Milnor models with spheres: this pins which of the
    scan's two solves supplies it."""
    models = [milnor_model(k, m) for m in range(1, 5) for k in range(1, m + 1)]
    found = 0
    for s in corpus + models:
        got = order_of_semidilation(s)
        if got.order is not None:
            found += 1
            assert got.witness == has_k_semidilation(s, got.order)[1]
    assert found > len(models)


def test_criterion_5g_les_exact(corpus):
    for s in corpus:
        assert tautological_les(s).exact
    report("ACCEPTANCE 5g (tautological long exact sequence exact at every "
           "node): PASS")


def test_criterion_5h_e_infinity_convergence(corpus):
    for s in corpus:
        c = s.complex
        einf = e_infinity(c)
        f = build_filtered_plus(c, c.truncation)
        target = {d: g.dim for d, g in cohomology(f).items() if g.dim}
        assert einf.dims_by_total_degree(c.degrees) == target
    report("ACCEPTANCE 5h (E_infinity dimensions = dim H(F^N) per degree): PASS")


def test_criterion_5i_functoriality_of_random_morphisms(corpus):
    checked = 0
    for idx, s in enumerate(corpus):
        if idx % 5:
            continue
        rng = random.Random(50_000 + idx)
        base, deformed, _ = random_endomorphism_pair(rng, s.complex)
        assert verify_morphism(deformed).valid
        assert verify_functoriality(deformed).valid
        checked += 1
    rng = random.Random(60_000)
    for _ in range(10):
        a = random_s1_complex(rng, rng.randint(4, 8), rng.randint(2, 4))
        b = random_s1_complex(rng, rng.randint(4, 8), a.truncation)
        phi = random_morphism(rng, a, b)
        assert verify_functoriality(phi).valid
        checked += 1
    report(f"ACCEPTANCE 5i (Z/B containments and Delta squares for "
           f"{checked} randomized morphisms): PASS")


def test_criterion_5j_homotopy_invariance(corpus):
    checked = 0
    for idx, s in enumerate(corpus):
        if idx % 7:
            continue
        rng = random.Random(70_000 + idx)
        base, deformed, hom = random_endomorphism_pair(rng, s.complex)
        assert verify_morphism(deformed).valid
        from s1cochain.morphisms import verify_homotopy
        assert verify_homotopy(hom).valid
        level = s.truncation
        assert induced_cohomology_map(base, level) \
            == induced_cohomology_map(deformed, level)
        checked += 1
    report(f"ACCEPTANCE 5j (homotopic morphisms induce equal matrices, "
           f"{checked} pairs): PASS")


# ---------------------------------------------------------------------------
# criterion 6: predicted orders match the computed ones


def test_criterion_6_prediction_consistency():
    for m in range(2, 7):
        for k in range(2, m + 1):
            p = predicted_order([k] * (m + 1))
            assert p.predicted_order == k - 1, (k, m)
            assert not p.kodaira_obstruction
            computed = order_of_dilation(milnor_model(k, m, include_spheres=False))
            assert computed.order == p.predicted_order, (k, m)
    report("ACCEPTANCE 6 (index prediction (n - mu_min + 1)/2 = computed "
           "order = k-1 for 2 <= k <= m <= 6): PASS")
