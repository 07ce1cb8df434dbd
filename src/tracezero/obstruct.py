"""Exact-integer cohomology engine for obstruction certificates.

Works in the square-free ring Z[a_1..a_m]/(a_i^2 = 0): classes are maps
{monomial bitmask} -> integer, bit i-1 standing for a_i; multiplication
merges disjoint monomials (ka | kb) and kills overlapping ones (ka & kb).
The Euler class of a sum of line bundles over a product of 2-spheres is
the product of the summands' degree vectors as linear forms; a unit below
n copies of a bundle would give its n-fold sum a nowhere-vanishing
section, so a nonvanishing Euler class of the n-fold sum certifies that
no such comparison exists.

Everything here is exact integer arithmetic (m! coefficients overflow
64 bits quickly); no floats.  sqfree_mul works on a class as two numpy
arrays, sorted monomial bitmasks and their coefficients: keys are int64 up
to 62 variables, and values are int64 only while the product of the two
factors' l1 norms, which bounds every coefficient and partial sum, is below
2^63.  Otherwise they are object arrays of Python ints.
"""
from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from . import ozfield

# Refuse explicit expansions beyond this many monomials; the tower audit
# uses the factored representation instead.
MAX_EXPANSION_TERMS = 2_000_000
# Refuse an Euler class whose products would visit more pairs of monomials
# than this in total; sqfree_mul visits pairs as array elements, one masked
# AND per pair and an OR and a product per disjoint pair.  The bound is taken
# from the factor sizes before any product (require_product_budget).
MAX_PAIR_VISITS = 2 ** 24
# sqfree_mul merges its pairs into the sorted partial result once it holds
# PASS_PAIRS of them, or as many as that result has keys if more: its memory
# is a few arrays of that length besides the factors, and each merge's sort
# costs at most about twice the pairs it takes in.
PASS_PAIRS = 2 ** 12
# Values stay int64 while every sum of them is provably below this.
INT64_BOUND = 2 ** 63

VILLADSEN_MMAX_LIMIT = 3
# The largest m whose certificate coefficient m! has at most 4300 digits,
# CPython's default limit (sys.int_info.default_max_str_digits) for turning
# an int into text, so the certificate can be written as JSON.
PP_EXAMPLE_M_LIMIT = 1558


class SquareFreeClass:
    """Element of Z[a_1..a_m]/(a_i^2 = 0): maps a monomial's bitmask (bit
    i-1 stands for a_i) to its nonzero integer coefficient.

    ``coefficients`` is that map as a dict of Python ints; ``terms()`` is
    the same class as sqfree_mul holds it, a key array sorted ascending and
    a value array.  A class made from either form (``terms`` only by
    sqfree_mul) builds the other once, on first use, so a chain of products
    never passes through the dict.  Keys are int64 when variable_count <= 62
    and Python ints (object arrays) otherwise; values are int64 only while
    their l1 norm is below 2^63, Python ints otherwise."""

    def __init__(self, variable_count: int, coefficients: dict | None = None,
                 *, terms: tuple | None = None):
        self.variable_count = variable_count
        self._coefficients = {} if coefficients is None and terms is None else coefficients
        self._terms = terms

    @classmethod
    def one(cls, m: int) -> "SquareFreeClass":
        return cls(m, {0: 1})

    @property
    def coefficients(self) -> dict:
        if self._coefficients is None:
            keys, values = self._terms
            self._coefficients = dict(zip(keys.tolist(), values.tolist()))
        return self._coefficients

    def terms(self) -> tuple:
        """(keys, values): the monomial bitmasks ascending and their coefficients."""
        if self._terms is None:
            items = [(k, v) for k, v in self.coefficients.items() if v]
            key_dtype = np.int64 if self.variable_count <= 62 else object
            value_dtype = np.int64 if sum(abs(v) for _, v in items) < INT64_BOUND else object
            keys = np.array([k for k, _ in items], dtype=key_dtype)
            order = np.argsort(keys, kind="stable")
            self._terms = (keys[order], np.array([v for _, v in items], dtype=value_dtype)[order])
        return self._terms

    def is_zero(self) -> bool:
        if self._coefficients is None:
            return not len(self._terms[0])
        return not self._coefficients

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareFreeClass):
            return NotImplemented
        return (self.variable_count, self.coefficients) == (other.variable_count,
                                                            other.coefficients)

    def __repr__(self) -> str:
        return f"SquareFreeClass({self.variable_count}, {self.coefficients!r})"

    def to_json(self) -> dict:
        """Keys are the monomial's indices, e.g. "1,3" for a_1 a_3 and "" for
        the unit, in the order of their sorted index lists."""
        terms = sorted((_indices(k), v) for k, v in self.coefficients.items())
        return {",".join(map(str, idx)): v for idx, v in terms}


def _indices(key: int) -> list:
    return [i + 1 for i, bit in enumerate(reversed(bin(key)[2:])) if bit == "1"]


def sqfree_mul(a: SquareFreeClass, b: SquareFreeClass) -> SquareFreeClass:
    """Bilinear product with a_i^2 = 0: overlapping monomials annihilate.

    Loops over the smaller factor's terms (kb, vb) only: the larger factor's
    keys disjoint from kb give keys | kb and values * vb as arrays, and
    equal keys are summed by one stable argsort and np.add.reduceat.  The
    pairs are merged into the sorted partial result in passes of at most
    about max(PASS_PAIRS, its key count) pairs.

    Exact: each pair product and each partial sum of a coefficient is at
    most ||a||_1 * ||b||_1 (sums of |coefficients|) in modulus, so values
    are int64 while that bound is below 2^63 and Python ints otherwise.
    ``a`` and ``b`` share one variable count.
    """
    (small_keys, small_values), (keys, values) = sorted(
        (a.terms(), b.terms()), key=lambda t: len(t[0]))
    if not len(small_keys):
        return SquareFreeClass(a.variable_count, {})
    dtype = np.int64 if _l1(small_values) * _l1(values) < INT64_BOUND else object
    small_values, values = small_values.astype(dtype, copy=False), values.astype(dtype, copy=False)
    out = (keys[:0], values[:0])
    pending, held = [], 0
    for kb, vb in zip(small_keys.tolist(), small_values.tolist()):
        for start in range(0, len(keys), PASS_PAIRS):
            block = slice(start, start + PASS_PAIRS)
            free = (keys[block] & kb) == 0
            pending.append((keys[block][free] | kb, values[block][free] * vb))
            held += len(pending[-1][0])
            if held >= max(PASS_PAIRS, len(out[0])):
                out, held = _merge(out, pending), 0
    out_keys, out_values = _merge(out, pending)
    nonzero = out_values != 0
    return SquareFreeClass(a.variable_count, terms=(out_keys[nonzero], out_values[nonzero]))


def _l1(values) -> int:
    """sum |v|, exactly: an int64 value array's l1 norm is below 2^63."""
    return int(np.abs(values).sum())


def _merge(out: tuple, pending: list) -> tuple:
    """The sorted (keys, values) of ``out`` and the ``pending`` pairs, equal
    keys summed; ``pending`` is emptied before the sort, so its arrays are
    freed.  Cancelled keys are kept until the product ends, so the key count
    never falls and is checked against MAX_EXPANSION_TERMS here."""
    keys = np.concatenate([out[0]] + [k for k, _ in pending])
    values = np.concatenate([out[1]] + [v for _, v in pending])
    pending.clear()
    if not len(keys):
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    if len(starts) > MAX_EXPANSION_TERMS:
        raise InvalidInputError("expansion too large for the explicit ring")
    return keys[starts], np.add.reduceat(values, starts)


def linear_power(coeffs, e: int, m: int | None = None) -> SquareFreeClass:
    """(sum_i c_i a_i)^e in closed form: e! * sum over e-subsets of products.

    Vanishes exactly when e exceeds the support size (each variable squares
    to zero), so high powers cost nothing.  The terms are built as arrays,
    from the one-variable subsets up: each step gives every subset, in
    ascending order, each support variable below its lowest one that leaves
    enough lower ones to reach e.  Children of a smaller key are smaller
    keys, so the keys come out ascending, as ``terms()`` holds them.  Values
    are int64 while C(support, e) * e! times the product of the e largest
    |c_i|, a bound on every product and on their l1 norm, is below 2^63,
    and Python ints otherwise.  ``e`` is nonnegative.
    """
    coeffs = [int(c) for c in coeffs]
    m = len(coeffs) if m is None else m
    support = [i for i, c in enumerate(coeffs) if c]
    if e > len(support):
        return SquareFreeClass(m, {})
    if e == 0:
        return SquareFreeClass.one(m)
    count = math.comb(len(support), e)
    if count > MAX_EXPANSION_TERMS:
        raise InvalidInputError("expansion too large for the explicit ring")
    fact = math.factorial(e)
    largest = sorted((abs(coeffs[i]) for i in support), reverse=True)[:e]
    value_dtype = np.int64 if count * fact * math.prod(largest) < INT64_BOUND else object
    bits = np.array([1 << i for i in support], dtype=np.int64 if m <= 62 else object)
    factors = np.array([coeffs[i] for i in support], dtype=value_dtype)
    lowest = np.arange(e - 1, len(support))  # each subset's lowest variable, as a position
    keys, values = bits[e - 1:], factors[e - 1:]
    for later in range(e - 2, -1, -1):  # variables each subset takes after this step
        counts = lowest - later
        row = np.repeat(np.arange(len(lowest)), counts)
        lowest = later + np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        keys, values = keys[row] | bits[lowest], values[row] * factors[lowest]
    return SquareFreeClass(m, terms=(keys, values * fact))


# --------------------------------------------------------------------------
# Formal sums of line bundles over products of 2-spheres.

@dataclass(frozen=True)
class BundleExpr:
    """Sum of at least one line bundle; each summand is its integer degree vector."""

    variable_count: int
    summands: tuple

    def __post_init__(self):
        for vec in self.summands:
            if len(vec) != self.variable_count:
                raise InvalidInputError("degree vector length must equal variable count")

    @classmethod
    def make(cls, variable_count: int, summands) -> "BundleExpr":
        return cls(int(variable_count),
                   tuple(tuple(int(c) for c in vec) for vec in summands))

    @classmethod
    def line(cls, coeffs) -> "BundleExpr":
        coeffs = tuple(int(c) for c in coeffs)
        return cls(len(coeffs), (coeffs,))

    @property
    def rank(self) -> int:
        return len(self.summands)

    def require_copies(self, n: int) -> int:
        """``n`` >= 1 itself when the n-fold sum has at most a million summands."""
        if n * self.rank > 1_000_000:
            raise InvalidInputError("repeated bundle would exceed a million summands")
        return n

    def trivialization_rank(self) -> int:
        """An n with [bundle] <= n [trivial line]: sum over summands of
        2^(l1 norm of the degree vector)."""
        return sum(2 ** sum(abs(c) for c in vec) for vec in self.summands)

    def to_json(self) -> dict:
        return {"variables": self.variable_count,
                "summands": [list(vec) for vec in self.summands]}

    @classmethod
    def from_json(cls, doc: dict) -> "BundleExpr":
        return cls.make(doc["variables"], doc["summands"])


def euler_class(bundle: BundleExpr, copies: int = 1) -> SquareFreeClass:
    """Product over the summands of ``copies`` copies of ``bundle`` of their
    degree linear forms, in the quotient ring.

    Equal summands form one linear_power, their count times ``copies``, so
    the n-fold sum is never built; the running class stays in sqfree_mul's
    arrays, and its dict is built once, when first read."""
    m = bundle.variable_count
    groups = sorted((vec, count * copies) for vec, count in Counter(bundle.summands).items())
    require_product_budget(groups)
    out = SquareFreeClass.one(m)
    for vec, count in groups:
        out = sqfree_mul(out, linear_power(vec, count, m))
        if out.is_zero():
            return out
    return out


def require_product_budget(groups):
    """Reject an Euler class whose products would visit more than
    MAX_PAIR_VISITS pairs of monomials, or whose running class could have
    more than MAX_EXPANSION_TERMS monomials, before any product is formed.

    A product of a and b visits |a| * |b| pairs.  linear_power(vec, count)
    has C(support, count) terms; the running class has at most
    min(C(variables touched, degree), product of the factor sizes), since
    each of its monomials is a degree-sized set of touched variables.  That
    is a bound: a class that cancellation would bring under the cap is
    refused too.
    """
    visits = 0
    size = 1
    touched = 0
    degree = 0
    for vec, count in groups:
        terms = math.comb(sum(1 for c in vec if c), count)
        visits += size * terms
        if visits > MAX_PAIR_VISITS:
            raise InvalidInputError(
                f"the Euler class needs over {MAX_PAIR_VISITS} monomial pair products, "
                "too many for the explicit ring")
        if not terms:
            return  # euler_class stops at the first zero factor
        touched |= sum(1 << i for i, c in enumerate(vec) if c)
        degree += count
        size = min(math.comb(touched.bit_count(), degree), size * terms)
        if size > MAX_EXPANSION_TERMS:
            raise InvalidInputError("expansion too large for the explicit ring")


@dataclass
class ObstructionCertificate:
    kind: str
    params: dict
    euler_class: SquareFreeClass | None
    verdict: bool
    failed_hypothesis: str | None = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "euler_class": None if self.euler_class is None else self.euler_class.to_json(),
            "verdict": self.verdict,
            "failed_hypothesis": self.failed_hypothesis,
        }


def obstruction_certificate(q: BundleExpr, n: int) -> ObstructionCertificate:
    """Certify that the unit is not below n copies of q.

    A unit below n[q] would embed a trivial line into the n-fold sum, giving
    a nowhere-vanishing section; e(q^(+n)) != 0 rules that out.
    """
    cls = euler_class(q, n)
    digits = sys.get_int_max_str_digits()  # 0: no limit
    limit = 10 ** digits
    if digits and any(abs(c) >= limit for c in cls.coefficients.values()):
        raise InvalidInputError(
            f"an Euler-class coefficient has over {digits} digits and cannot print "
            "as a JSON integer")
    return ObstructionCertificate(
        kind="one_not_below_nq",
        params={"n": n, "rank": q.rank, "variables": q.variable_count},
        euler_class=cls,
        verdict=not cls.is_zero(),
    )


def bott_projection_field() -> ozfield.SimplicialField:
    """diag(1, -P(v)) over the octahedral 2-sphere, P the degree-one projection.

    At a unit vector v the projection is (1/2)(I + v . sigma); the field is
    pointwise trace zero with the constant rank-one unit on top.
    """
    positions = {0: (1, 0, 0), 1: (-1, 0, 0), 2: (0, 1, 0),
                 3: (0, -1, 0), 4: (0, 0, 1), 5: (0, 0, -1)}
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    values = []
    for v in range(6):
        x, y, z = positions[v]
        proj = (np.eye(2) + x * sx + y * sy + z * sz) / 2.0
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        a[1:, 1:] = -proj
        values.append(a)
    return ozfield.make_field(ozfield.octahedron_complex(), values)


def _capped(name: str, value: int, limit: int, why: str) -> int:
    """``value`` >= 1 itself when value <= limit."""
    if value > limit:
        raise InvalidInputError(f"{name} is capped at {limit}: {why}")
    return value


def require_pp_example_m(m: int) -> int:
    """``m`` itself when pp_example can certify it."""
    return _capped("m", m, PP_EXAMPLE_M_LIMIT,
                   "the certificate's coefficient m! must print as a JSON integer")


@dataclass
class PPExample:
    description: dict
    certificate: ObstructionCertificate
    field: ozfield.SimplicialField | None


def pp_example(m: int) -> PPExample:
    """The tensor-power line bundle over (S^2)^m whose m-fold sum has Euler
    class m! * a_1...a_m != 0, so diag(unit, -p) stays at distance >= 1 from
    sums of m self-commutators.  For m = 1 a concrete field over the
    octahedral sphere is attached for inspection.  ``m`` is at most
    PP_EXAMPLE_M_LIMIT, as ``decode_input`` admits it."""
    p = BundleExpr.line((1,) * m)
    cert = obstruction_certificate(p, m)
    description = {
        "space": f"(S^2)^{m}",
        "bundle": p.to_json(),
        "element": "diag(unit_line, -p) in the hereditary of unit_line + p",
        "self_commutator_count_obstructed": m,
    }
    fld = bott_projection_field() if m == 1 else None
    return PPExample(description=description, certificate=cert, field=fld)


# --------------------------------------------------------------------------
# The inductive tower audit.

@dataclass
class TowerSpec:
    """Sequences (k_n, l_n, M_n) of the sphere-product tower and the
    per-stage nonvanishing certificates (factored by block, since the
    explicit ring on sum(k_n) variables is far beyond expansion)."""

    m_max: int
    k: list  # k[i] is k_{i+1}, exponent of the i+1st sphere block
    l: list  # multiplicities, l[i] = l_{i+1}
    M: list  # trivialization ranks, M[i] = M_{i+1}
    certificates: list
    notes: dict

    @property
    def all_verdicts_true(self) -> bool:
        return all(c["verdict"] for c in self.certificates)

    def to_json(self) -> dict:
        return {
            "m_max": self.m_max,
            "k": [str(v) for v in self.k],
            "l": [str(v) for v in self.l],
            "M": [str(v) for v in self.M],
            "certificates": self.certificates,
            "notes": self.notes,
            "all_verdicts_true": self.all_verdicts_true,
        }


def require_tower_m_max(m_max: int) -> int:
    """``m_max`` itself when villadsen_tower can emit its tower."""
    return _capped("m_max", m_max, VILLADSEN_MMAX_LIMIT,
                   "stage-5 sizes have 2^(k_4) ~ 10^120000000 and cannot be emitted")


def villadsen_tower(m_max: int) -> TowerSpec:
    """Audit the sphere-product tower: block sizes k_n, multiplicities l_n,
    trivialization ranks M_n, and nonvanishing certificates.

    Recursions: l_1 = 1 and l_{n+1} = l_1 + ... + l_n (the rank of the n-th
    projection); M_n = sum_{i<=n} l_i 2^{k_i} since each degree-k line sits
    inside a trivial bundle of rank 2^k; k_{n+1} = n * M_n * l_{n+1}, the
    smallest block size that keeps every later certificate nonvanishing.
    The stage-(m, n) certificate checks m * M_m * l_j <= k_j for each block
    j = m+1..m+n, which is exactly when the block's linear form survives the
    required power.  ``m_max`` is at most VILLADSEN_MMAX_LIMIT, as
    ``decode_input`` admits it.
    """
    k = [1]
    l = [1]
    big_m = [2]  # l_1 * 2^(k_1)
    for m in range(1, m_max + 1):
        l_next = sum(l)
        k_next = m * big_m[-1] * l_next
        l.append(l_next)
        k.append(k_next)
        if m < m_max:
            big_m.append(big_m[-1] + l_next * (1 << k_next))

    certificates = []
    for m in range(1, m_max + 1):
        for n in range(1, m_max + 2 - m):
            blocks = []
            verdict = True
            for j in range(m + 1, m + n + 1):  # 1-based block index
                exponent = m * big_m[m - 1] * l[j - 1]
                ok = exponent <= k[j - 1]
                verdict = verdict and ok
                blocks.append({
                    "block": j,
                    "copies": str(l[j - 1]),
                    "exponent": str(exponent),
                    "block_variables": str(k[j - 1]),
                    "nonvanishing": ok,
                })
            certificates.append({"m": m, "n": n, "verdict": verdict, "blocks": blocks})

    doubling = all(l[i + 1] == 2 * l[i] for i in range(1, len(l) - 1))
    notes = {
        "l_recursion": "l_1 = 1, l_(n+1) = l_1 + ... + l_n",
        "l_values_double_from_third_term": doubling,
        "l_matches_2_pow_n_minus_1_from_second_term": all(
            l[i] == 2 ** i for i in range(1, len(l))),
    }
    return TowerSpec(m_max=m_max, k=k, l=l, M=big_m,
                     certificates=certificates, notes=notes)


def distance_lower_bound_cert(p: BundleExpr, q: BundleExpr, n: int,
                              m: int) -> ObstructionCertificate:
    """Certify distance >= 1 from sums of m self-commutators for
    diag(p, -q)-type elements.

    Hypotheses checked: [p] <= n [trivial line] via the 2^(degree) rank
    bound, and e(q^(+n*m)) != 0.  The verdict is symbolic; no numerical
    optimization is involved."""
    if n < 1 or m < 1:
        raise InvalidInputError("n and m must be positive")
    if p.variable_count != q.variable_count:
        raise InvalidInputError("p and q must live over the same sphere product")
    rank_bound = p.trivialization_rank()
    params = {"n": n, "m": m, "trivialization_rank_bound": rank_bound}
    if rank_bound > n:
        return ObstructionCertificate(
            kind="distance_lower_bound", params=params, euler_class=None,
            verdict=False, failed_hypothesis="p_below_n_times_unit")
    cls = euler_class(q, n * m)
    if cls.is_zero():
        return ObstructionCertificate(
            kind="distance_lower_bound", params=params, euler_class=cls,
            verdict=False, failed_hypothesis="q_euler_obstruction")
    return ObstructionCertificate(kind="distance_lower_bound", params=params,
                                  euler_class=cls, verdict=True)
