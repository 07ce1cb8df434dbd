import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracezero.obstruct
from helpers import bott_bundle, frozenset_mul, monomial, reference_euler_class
from tracezero.certcheck import euler_class_by_forms
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

    @given(st.sampled_from([1, 5, 9, 62, 63, 70]), st.integers(0, 3), st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_linear_power_matches_the_subset_sum(self, m, e, seed):
        # e! * the product of each e-subset's coefficients, summed by subset;
        # the coefficients reach past int64, and m past 62 makes the keys ints
        rng = random.Random(seed)
        coeffs = [rng.choice([0, 0, 1, -1, 3, -7, 2 ** 40, -(3 ** 50)]) for _ in range(m)]
        support = [i for i, c in enumerate(coeffs) if c]
        expected = {sum(1 << i for i in subset):
                    math.factorial(e) * math.prod(coeffs[i] for i in subset)
                    for subset in itertools.combinations(support, e)}
        cls = linear_power(coeffs, e)
        assert cls == SquareFreeClass(m, expected)
        keys, values = cls.terms()
        assert keys.tolist() == sorted(expected)
        assert keys.dtype == (np.int64 if m <= 62 else object)
        if values.dtype == np.int64:
            assert sum(abs(v) for v in expected.values()) < 2 ** 63

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
        assert euler_class(bott_bundle()) == SquareFreeClass(1, {monomial(1): 1})

    def test_two_sphere_product(self):
        b = BundleExpr.make(2, [(1, 1)] * 2)
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
        copies = data.draw(st.integers(1, 3))
        bundle = BundleExpr.make(m, summands)
        assert euler_class(bundle, copies).to_json() == reference_euler_class(
            bundle.summands * copies)

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


def assert_python_ints(cls: SquareFreeClass):
    """The dict holds Python ints, as encode and __eq__ saw before the arrays."""
    assert all(type(k) is int and type(v) is int for k, v in cls.coefficients.items())


def assert_matches_references(bundle: BundleExpr) -> SquareFreeClass:
    cls = euler_class(bundle)
    assert cls.coefficients == euler_class_by_forms(bundle.summands)
    assert cls.to_json() == reference_euler_class(bundle.summands)
    assert_python_ints(cls)
    return cls


def random_bundle(rng, m, entries, max_pool=4, max_summands=8):
    """A bundle drawn with repetition from a small pool, so that equal
    summands meet in one linear_power of count > 1."""
    pool = [tuple(rng.randint(-entries, entries) for _ in range(m))
            for _ in range(rng.randint(1, max_pool))]
    return BundleExpr.make(m, [rng.choice(pool) for _ in range(rng.randint(1, max_summands))])


@pytest.fixture(params=[1, 3, None], ids=["pass-1", "pass-3", "pass-default"])
def pass_pairs(request, monkeypatch):
    """PASS_PAIRS of 1 or 3 as well as the default, so that products take
    many merge passes and slice the larger factor."""
    if request.param is not None:
        monkeypatch.setattr(tracezero.obstruct, "PASS_PAIRS", request.param)


class TestArrayKernel:
    def test_random_bundles_with_repeated_summands(self, pass_pairs):
        rng = random.Random(23)
        repeated = 0
        for trial in range(120):
            bundle = random_bundle(rng, 1 + trial % 9, (2, 9, 10 ** 12)[trial % 3])
            repeated += len(set(bundle.summands)) < bundle.rank
            assert_matches_references(bundle)
        assert repeated > 60

    def test_products_of_general_classes(self, pass_pairs):
        rng = random.Random(29)
        for trial in range(200):
            m = 1 + trial % 10
            a, b = (SquareFreeClass(m, {k: v for k, v in (
                (rng.getrandbits(m), rng.randint(-10 ** 12, 10 ** 12))
                for _ in range(rng.randint(0, 30))) if v}) for _ in range(2))
            product = sqfree_mul(a, b)
            assert product.coefficients == frozenset_mul(a.coefficients, b.coefficients)
            assert_python_ints(product)

    def test_products_of_euler_classes(self):
        rng = random.Random(31)
        for trial in range(40):
            m = 2 + trial % 8
            b1, b2 = random_bundle(rng, m, 3), random_bundle(rng, m, 3)
            both = BundleExpr.make(m, b1.summands + b2.summands)
            product = sqfree_mul(euler_class(b1), euler_class(b2))
            assert product == assert_matches_references(both)
            assert_python_ints(product)

    def test_switch_to_python_ints_mid_product(self, monkeypatch, pass_pairs):
        # 8 dense forms with entries near 10^3: the first products fit the
        # int64 bound, the later ones' l1 bound passes 2^63
        rng = random.Random(37)
        bundle = BundleExpr.make(8, [[rng.choice((-1, 1)) * rng.randint(900, 1000)
                                      for _ in range(8)] for _ in range(8)])
        dtypes = []

        def spy(a, b):
            out = sqfree_mul(a, b)
            dtypes.append(out.terms()[1].dtype)
            return out

        monkeypatch.setattr(tracezero.obstruct, "sqfree_mul", spy)
        cls = assert_matches_references(bundle)
        assert dtypes[0] == np.int64 and dtypes[-1] == object
        assert max(abs(v) for v in cls.coefficients.values()) > 2 ** 63

    def test_int64_bound_is_exact_at_the_edge(self):
        # ||a||_1 * ||b||_1 = 2^63 - 1 stays int64; one more is Python ints
        for value, dtype in ((2 ** 63 - 1, np.int64), (2 ** 63, object)):
            a = SquareFreeClass(2, {monomial(1): value})
            product = sqfree_mul(a, SquareFreeClass(2, {monomial(2): -1}))
            assert product.terms()[1].dtype == dtype
            assert product.coefficients == {monomial(1, 2): -value}
            assert_python_ints(product)

    def test_eighty_variables_use_python_int_keys(self):
        rng = random.Random(41)
        forms = []
        for _ in range(7):
            form = [0] * 80
            for i in rng.sample(range(80), 4):
                form[i] = rng.randint(-3, 3) or 1
            forms.append(form)
        forms.append(forms[0])  # a repeated summand
        bundle = BundleExpr.make(80, forms)
        cls = assert_matches_references(bundle)
        assert cls.terms()[0].dtype == object
        assert any(k >= 2 ** 62 for k in cls.coefficients)

    def test_zero_factors_and_zero_products(self, pass_pairs):
        for m in (3, 80):
            zero = SquareFreeClass(m, {})
            a1, a2 = SquareFreeClass(m, {monomial(1): 5}), SquareFreeClass(m, {monomial(2): 7})
            plus, minus = add(a1, a2), add(a1, SquareFreeClass(m, {monomial(2): -5}))
            assert sqfree_mul(zero, a1).is_zero() and sqfree_mul(a1, zero).is_zero()
            huge = SquareFreeClass(m, {monomial(2): 2 ** 70})
            assert sqfree_mul(zero, huge).is_zero() and sqfree_mul(huge, zero).is_zero()
            # an explicit zero coefficient contributes nothing, as in the dict product
            assert sqfree_mul(SquareFreeClass(m, {monomial(1): 0}), huge).is_zero()
            assert sqfree_mul(a1, a1).is_zero()  # every pair overlaps
            # (5a_1 + 7a_2)(5a_1 - 5a_2) = -25 a_1a_2 + 35 a_1a_2 = 10 a_1a_2
            assert sqfree_mul(plus, minus) == SquareFreeClass(m, {monomial(1, 2): 10})
            # (a_1 + a_2)(a_1 - a_2): the pair sums cancel to zero
            cancel = sqfree_mul(SquareFreeClass(m, {monomial(1): 1, monomial(2): 1}),
                                SquareFreeClass(m, {monomial(1): 1, monomial(2): -1}))
            assert cancel.is_zero() and cancel.coefficients == {}
            trivial = [0] * m
            bundle = BundleExpr.make(m, [[1] + [0] * (m - 1), trivial])
            assert assert_matches_references(bundle).is_zero()

    def test_product_over_the_expansion_cap_raises(self, monkeypatch, pass_pairs):
        monkeypatch.setattr(tracezero.obstruct, "MAX_EXPANSION_TERMS", 4)
        a = SquareFreeClass(4, {monomial(1): 1, monomial(2): 1})
        b = SquareFreeClass(4, {monomial(3): 1, monomial(4): 1})
        assert len(sqfree_mul(a, b).coefficients) == 4
        with pytest.raises(InvalidInputError, match="expansion too large"):
            sqfree_mul(a, add(b, SquareFreeClass(4, {monomial(): 1})))

    def test_memory_is_below_the_dict_products(self):
        """A 20-variable bundle of 10 distinct dense forms: 184756 monomials
        after about 8.6 M pair visits.  The dict product (frozenset_mul on
        bitmask keys) holds, in the last product, the class before it and
        the new class as dicts of Python ints.  Those two dicts are a lower
        bound on its peak; the array kernel's peak, its final dict included,
        stays under them.  euler_class multiplies the forms in sorted order."""
        rng = random.Random(5)
        forms = [tuple(rng.choice((-2, -1, 1, 2)) for _ in range(20)) for _ in range(10)]
        tracemalloc.start()
        try:
            coefficients = euler_class(BundleExpr.make(20, forms)).coefficients
            _, peak = tracemalloc.get_traced_memory()
            del coefficients
            before = euler_class(BundleExpr.make(20, sorted(forms)[:9]))
            after = euler_class(BundleExpr.make(20, forms))
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            dicts = (before.coefficients, after.coefficients)
            dict_floor = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert len(dicts[1]) == math.comb(20, 10)
        assert peak <= dict_floor


class TestObstructionCertificate:
    def test_degree_one_over_sphere(self):
        cert = obstruction_certificate(bott_bundle(), 1)
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

    def test_a_million_copies_build_no_n_fold_sum(self, monkeypatch):
        q = BundleExpr.make(4, [(1, 1, 1, 1)])
        counter = tracezero.obstruct.Counter

        def short_counter(items):
            assert len(items) <= q.rank, "the n-fold sum was built"
            return counter(items)

        monkeypatch.setattr(tracezero.obstruct, "Counter", short_counter)
        post_init = BundleExpr.__post_init__
        monkeypatch.setattr(BundleExpr, "__post_init__", lambda self: (
            pytest.fail("the n-fold sum was built") if self.rank > q.rank else post_init(self)))
        cert = obstruction_certificate(q, 1_000_000)
        assert cert.verdict is False and cert.euler_class.is_zero()

    def test_summand_cap_is_the_decoders_one_rule(self):
        q = {"variables": 1, "summands": [[1], [2]]}
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

    def test_json_uses_decimal_strings(self):
        doc = villadsen_tower(2).to_json()
        assert all(isinstance(v, str) for v in doc["k"])
        assert all(isinstance(v, str) for v in doc["M"])


class TestDistanceLowerBound:
    def test_trivial_p_degree_one_q(self):
        p = BundleExpr.line((0,))
        q = bott_bundle()
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
        q = BundleExpr.make(variables, [q_vec] * spec.l[2])
        cert = distance_lower_bound_cert(p, q, spec.M[1], 2)
        assert cert.params["trivialization_rank_bound"] == spec.M[1] == 6
        assert cert.verdict
