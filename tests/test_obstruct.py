import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import monomial, reference_euler_class
from tracezero.errors import InvalidInputError
from tracezero.jsonio import decode_input
from tracezero.obstruct import (
    BundleExpr,
    SquareFreeClass,
    distance_lower_bound_cert,
    euler_class,
    linear_power,
    obstruction_certificate,
    pp_example,
    sqfree_mul,
    villadsen_tower,
)
from tracezero.ozfield import decompose_field, greedy_coloring


def normal(m, coeffs) -> SquareFreeClass:
    return SquareFreeClass(m, {k: v for k, v in coeffs.items() if v})


def add(a: SquareFreeClass, b: SquareFreeClass) -> SquareFreeClass:
    out = dict(a.coefficients)
    for k, v in b.coefficients.items():
        out[k] = out.get(k, 0) + v
    return normal(a.variable_count, out)


def linear(coeffs) -> SquareFreeClass:
    return normal(len(coeffs), {monomial(i + 1): c for i, c in enumerate(coeffs)})


def power(a: SquareFreeClass, e: int) -> SquareFreeClass:
    out = SquareFreeClass.one(a.variable_count)
    for _ in range(e):
        out = sqfree_mul(out, a)
    return out


def random_class(rng, m, max_terms=4):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        key = monomial(*rng.sample(range(1, m + 1), rng.randint(0, m)))
        coeffs[key] = rng.randint(-9, 9)
    return normal(m, coeffs)


class TestRing:
    def test_square_vanishes(self):
        a1 = SquareFreeClass(3, {monomial(1): 1})
        assert sqfree_mul(a1, a1).is_zero()

    def test_binomial_square(self):
        assert power(linear([1, 1]), 2).to_json() == {"1,2": 2}

    def test_degree_exceeds_variables(self):
        assert power(linear([1, 1, 1]), 4).is_zero()

    def test_variable_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            sqfree_mul(SquareFreeClass.one(2), SquareFreeClass.one(3))

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for trial in range(10_000):
            m = 1 + trial % 6
            a = random_class(rng, m)
            b = random_class(rng, m)
            c = random_class(rng, m)
            assert sqfree_mul(a, b) == sqfree_mul(b, a)
            assert sqfree_mul(sqfree_mul(a, b), c) == sqfree_mul(a, sqfree_mul(b, c))
            assert sqfree_mul(a, add(b, c)) == add(sqfree_mul(a, b), sqfree_mul(a, c))

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms_hypothesis(self, m, data):
        def draw_class():
            n_terms = data.draw(st.integers(0, 3))
            coeffs = {}
            for _ in range(n_terms):
                key = monomial(*data.draw(st.sets(st.integers(1, m), max_size=m)))
                coeffs[key] = data.draw(st.integers(-9, 9))
            return normal(m, coeffs)

        a, b, c = draw_class(), draw_class(), draw_class()
        assert sqfree_mul(a, b) == sqfree_mul(b, a)
        assert sqfree_mul(a, add(b, c)) == add(sqfree_mul(a, b), sqfree_mul(a, c))

    def test_linear_power_closed_form(self):
        # oracle: repeated multiplication
        assert linear_power([2, -1, 3, 1], 3) == power(linear([2, -1, 3, 1]), 3)

    def test_top_power_factorial(self):
        for m in range(1, 9):
            cls = linear_power([1] * m, m)
            assert cls == SquareFreeClass(m, {monomial(*range(1, m + 1)): math.factorial(m)})

    def test_power_beyond_support_vanishes(self):
        for k in range(1, 9):
            for e in range(k + 1, 13):
                assert linear_power([1] * k, e).is_zero()

    def test_json_round_trip(self):
        cls = SquareFreeClass(3, {monomial(): 4, monomial(1, 3): -2})
        doc = cls.to_json()
        assert doc == {"": 4, "1,3": -2}
        keys = {monomial(*(int(t) for t in key.split(",") if t)): v for key, v in doc.items()}
        assert SquareFreeClass(3, keys) == cls
        # keys follow their sorted index lists, not the bitmasks' order
        assert list(SquareFreeClass(3, {monomial(2): 1, monomial(1, 3): 1}).to_json()) == [
            "1,3", "2"]


class TestEulerClass:
    def test_trivial_line(self):
        assert euler_class(BundleExpr.line((0,))).is_zero()

    def test_degree_one_line(self):
        assert euler_class(BundleExpr.bott()) == SquareFreeClass(1, {monomial(1): 1})

    def test_two_sphere_product(self):
        b = BundleExpr.line((1, 1)).repeated(2)
        assert euler_class(b) == SquareFreeClass(2, {monomial(1, 2): 2})

    def test_multiplicative_over_direct_sum(self):
        rng = random.Random(11)
        m = 4
        for _ in range(50):
            s1 = [tuple(rng.randint(-2, 2) for _ in range(m))
                  for _ in range(rng.randint(1, 3))]
            s2 = [tuple(rng.randint(-2, 2) for _ in range(m))
                  for _ in range(rng.randint(1, 3))]
            b1 = BundleExpr.make(m, s1)
            b2 = BundleExpr.make(m, s2)
            assert euler_class(BundleExpr.make(m, s1 + s2)) == sqfree_mul(
                euler_class(b1), euler_class(b2))

    @given(st.integers(0, 12), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_frozenset_reference(self, m, data):
        vector = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
        pool = data.draw(st.lists(vector, min_size=1, max_size=4))
        summands = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        bundle = BundleExpr.make(m, summands).repeated(data.draw(st.integers(1, 3)))
        assert euler_class(bundle).to_json() == reference_euler_class(bundle.summands)

    def test_top_coefficient_is_the_permanent(self):
        rng = random.Random(13)
        for m in range(1, 8):
            for trial in range(6):
                rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
                if trial % 2:
                    rows[-1] = rows[0]  # a repeated summand
                permanent = sum(math.prod(rows[i][p[i]] for i in range(m))
                                for p in itertools.permutations(range(m)))
                top = monomial(*range(1, m + 1))
                cls = euler_class(BundleExpr.make(m, rows))
                assert set(cls.coefficients) <= {top}
                assert cls.coefficients.get(top, 0) == permanent


class TestObstructionCertificate:
    def test_degree_one_over_sphere(self):
        cert = obstruction_certificate(BundleExpr.bott(), 1)
        assert cert.verdict
        assert cert.euler_class == SquareFreeClass(1, {monomial(1): 1})

    def test_cube_of_plane_class_vanishes(self):
        cert = obstruction_certificate(BundleExpr.line((1, 1)), 3)
        assert not cert.verdict

    def test_tensor_power_family(self):
        for m in range(2, 7):
            cert = obstruction_certificate(BundleExpr.line((1,) * m), m)
            assert cert.verdict
            assert cert.euler_class == SquareFreeClass(
                m, {monomial(*range(1, m + 1)): math.factorial(m)})

    def test_summand_cap_is_one_rule_and_its_check_builds_no_sum(self, monkeypatch):
        q = {"variables": 1, "summands": [[1], [2]]}
        with pytest.raises(InvalidInputError, match="need at least one copy"):
            obstruction_certificate(BundleExpr.from_json(q), 0)
        with pytest.raises(InvalidInputError, match="exceed a million summands"):
            obstruction_certificate(BundleExpr.from_json(q), 500_001)
        monkeypatch.setattr(BundleExpr, "repeated",
                            lambda self, n: pytest.fail("the decoder built the n-fold sum"))
        bundle, n = decode_input("obstruct", {"q": q, "n": 500_000})
        assert (bundle.rank, n) == (2, 500_000)
        with pytest.raises(InvalidInputError, match="exceed a million summands"):
            decode_input("obstruct", {"q": q, "n": 500_001})


class TestPPExample:
    def test_m_one(self):
        ex = pp_example(1)
        assert ex.certificate.verdict
        assert ex.certificate.euler_class == SquareFreeClass(1, {monomial(1): 1})
        assert ex.field is not None
        assert ex.field.complex.vertex_count == 6
        assert decompose_field(ex.field, greedy_coloring(ex.field.complex)).report.all_passed

    def test_m_three(self):
        ex = pp_example(3)
        assert ex.certificate.verdict
        assert ex.certificate.euler_class == SquareFreeClass(3, {monomial(1, 2, 3): 6})
        assert ex.field is None

    def test_m_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            pp_example(0)


class TestVilladsenTower:
    def test_sequences(self):
        spec = villadsen_tower(3)
        assert spec.l == [1, 1, 2, 4]
        assert spec.k == [1, 2, 24, 402653256]
        assert spec.M == [2, 6, 6 + 2 * 2 ** 24]

    def test_all_certificates_true(self):
        for m_max in (1, 2, 3):
            spec = villadsen_tower(m_max)
            assert spec.all_verdicts_true
            assert len(spec.certificates) == m_max * (m_max + 1) // 2

    def test_growth_requires_bigints(self):
        spec = villadsen_tower(3)
        assert spec.M[-1] > 2 ** 24  # beyond what the l, k seeds suggest
        assert spec.k[-1] == 3 * spec.M[-1] * spec.l[-1]

    def test_tight_stage_certificates(self):
        # the newest block is used at exactly its capacity
        spec = villadsen_tower(3)
        for cert in spec.certificates:
            first = cert["blocks"][0]
            if cert["m"] + 1 == first["block"] and cert["n"] >= 1:
                if cert["m"] == spec.m_max:
                    assert first["exponent"] == first["block_variables"]

    def test_caps(self):
        with pytest.raises(InvalidInputError):
            villadsen_tower(0)
        with pytest.raises(InvalidInputError):
            villadsen_tower(4)

    def test_json_uses_decimal_strings(self):
        doc = villadsen_tower(2).to_json()
        assert all(isinstance(v, str) for v in doc["k"])
        assert all(isinstance(v, str) for v in doc["M"])


class TestDistanceLowerBound:
    def test_trivial_p_degree_one_q(self):
        p = BundleExpr.line((0,))
        q = BundleExpr.bott()
        cert = distance_lower_bound_cert(p, q, 1, 1)
        assert cert.verdict

    def test_trivial_q_fails(self):
        p = BundleExpr.line((0,))
        q = BundleExpr.line((0,))
        cert = distance_lower_bound_cert(p, q, 1, 1)
        assert not cert.verdict
        assert cert.failed_hypothesis == "q_euler_obstruction"

    def test_underfunded_trivialization_fails(self):
        p = BundleExpr.line((1, 1))  # rank bound 4
        q = BundleExpr.line((1, 0))
        cert = distance_lower_bound_cert(p, q, 2, 1)
        assert not cert.verdict
        assert cert.failed_hypothesis == "p_below_n_times_unit"

    def test_tower_stage_two(self):
        # stage m = 2 of the audited tower: p over three sphere factors with
        # blocks of sizes 1 and 2, q = two copies of the 24-variable block
        spec = villadsen_tower(2)
        variables = 1 + 2 + 24
        p = BundleExpr.make(variables, [
            (1,) + (0,) * 26,
            (0, 1, 1) + (0,) * 24,
        ])
        q_vec = (0,) * 3 + (1,) * 24
        q = BundleExpr.make(variables, [q_vec]).repeated(spec.l[2])
        cert = distance_lower_bound_cert(p, q, spec.M[1], 2)
        assert cert.params["trivialization_rank_bound"] == spec.M[1] == 6
        assert cert.verdict
