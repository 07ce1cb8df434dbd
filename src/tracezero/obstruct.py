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
64 bits quickly); no floats.
"""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from . import ozfield

# Refuse explicit expansions beyond this many monomials; the tower audit
# uses the factored representation instead.
MAX_EXPANSION_TERMS = 2_000_000
# Refuse an Euler class whose products would visit more pairs of monomials
# than this in total, each visit one pure-Python dict update; the bound is
# taken from the factor sizes before any product (require_product_budget).
MAX_PAIR_VISITS = 2 ** 24

VILLADSEN_MMAX_LIMIT = 3
# The largest m whose certificate coefficient m! has at most 4300 digits,
# CPython's default limit (sys.int_info.default_max_str_digits) for turning
# an int into text, so the certificate can be written as JSON.
PP_EXAMPLE_M_LIMIT = 1558


@dataclass
class SquareFreeClass:
    """Element of Z[a_1..a_m]/(a_i^2 = 0): maps a monomial's bitmask (bit
    i-1 stands for a_i) to its nonzero integer coefficient."""

    variable_count: int
    coefficients: dict = field(default_factory=dict)

    @classmethod
    def one(cls, m: int) -> "SquareFreeClass":
        return cls(m, {0: 1})

    def is_zero(self) -> bool:
        return not self.coefficients

    def to_json(self) -> dict:
        """Keys are the monomial's indices, e.g. "1,3" for a_1 a_3 and "" for
        the unit, in the order of their sorted index lists."""
        terms = sorted((_indices(k), v) for k, v in self.coefficients.items())
        return {",".join(map(str, idx)): v for idx, v in terms}


def _indices(key: int) -> list:
    return [i + 1 for i, bit in enumerate(reversed(bin(key)[2:])) if bit == "1"]


def sqfree_mul(a: SquareFreeClass, b: SquareFreeClass) -> SquareFreeClass:
    """Bilinear product with a_i^2 = 0: overlapping monomials annihilate."""
    if a.variable_count != b.variable_count:
        raise InvalidInputError("variable counts differ")
    out = {}
    b_terms = list(b.coefficients.items())
    for ka, va in a.coefficients.items():
        for kb, vb in b_terms:
            if not ka & kb:
                key = ka | kb
                out[key] = out.get(key, 0) + va * vb
    if len(out) > MAX_EXPANSION_TERMS:
        raise InvalidInputError("expansion too large for the explicit ring")
    return SquareFreeClass(a.variable_count, {k: v for k, v in out.items() if v})


def linear_power(coeffs, e: int, m: int | None = None) -> SquareFreeClass:
    """(sum_i c_i a_i)^e in closed form: e! * sum over e-subsets of products.

    Vanishes exactly when e exceeds the support size (each variable squares
    to zero), so high powers cost nothing.
    """
    coeffs = [int(c) for c in coeffs]
    m = len(coeffs) if m is None else m
    if e < 0:
        raise InvalidInputError("negative powers are not defined")
    support = [i for i, c in enumerate(coeffs) if c]
    if e > len(support):
        return SquareFreeClass(m, {})
    if math.comb(len(support), e) > MAX_EXPANSION_TERMS:
        raise InvalidInputError("expansion too large for the explicit ring")
    fact = math.factorial(e)
    out = {}
    for subset in itertools.combinations(support, e):
        prod = fact
        key = 0
        for i in subset:
            prod *= coeffs[i]
            key |= 1 << i
        out[key] = prod
    return SquareFreeClass(m, out)


# --------------------------------------------------------------------------
# Formal sums of line bundles over products of 2-spheres.

@dataclass(frozen=True)
class BundleExpr:
    """Sum of line bundles; each summand is its integer degree vector."""

    variable_count: int
    summands: tuple

    def __post_init__(self):
        if not self.summands:
            raise InvalidInputError("a bundle needs at least one line summand")
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

    @classmethod
    def bott(cls) -> "BundleExpr":
        """Degree-one line bundle over a single 2-sphere."""
        return cls.line((1,))

    @property
    def rank(self) -> int:
        return len(self.summands)

    def require_copies(self, n: int) -> int:
        """``n`` itself when the n-fold sum has at most a million summands."""
        if n < 1:
            raise InvalidInputError("need at least one copy")
        if n * self.rank > 1_000_000:
            raise InvalidInputError("repeated bundle would exceed a million summands")
        return n

    def repeated(self, n: int) -> "BundleExpr":
        return BundleExpr(self.variable_count, self.summands * self.require_copies(n))

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


def euler_class(bundle: BundleExpr) -> SquareFreeClass:
    """Product over summands of their degree linear forms, in the quotient ring."""
    m = bundle.variable_count
    groups = sorted(Counter(bundle.summands).items())
    require_product_budget(groups)
    out = SquareFreeClass.one(m)
    for vec, count in groups:
        out = sqfree_mul(out, linear_power(vec, count, m))
        if out.is_zero():
            return out
    return out


def require_product_budget(groups):
    """Reject an Euler class whose products would visit more than
    MAX_PAIR_VISITS pairs of monomials, before any product is formed.

    A product of a and b visits |a| * |b| pairs.  linear_power(vec, count)
    has C(support, count) terms; the running class has at most
    min(C(variables touched, degree), product of the factor sizes), since
    each of its monomials is a degree-sized set of touched variables.
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
    cls = euler_class(q.repeated(n))
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
    """``value`` itself when 1 <= value <= limit."""
    if value < 1:
        raise InvalidInputError(f"{name} must be at least 1")
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
    octahedral sphere is attached for inspection."""
    require_pp_example_m(m)
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
    required power.
    """
    require_tower_m_max(m_max)
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
    cls = euler_class(q.repeated(n * m))
    if cls.is_zero():
        return ObstructionCertificate(
            kind="distance_lower_bound", params=params, euler_class=cls,
            verdict=False, failed_hypothesis="q_euler_obstruction")
    return ObstructionCertificate(kind="distance_lower_bound", params=params,
                                  euler_class=cls, verdict=True)
