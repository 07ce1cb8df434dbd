"""Every command's claims, in report order, as {name: (bound, tolerance,
scale)}: a claim holds when its measured value is at most bound +
tolerance, and a reported value must agree with a re-measured one relative
to ``scale``.  A bound is arithmetic on scalars the checker can derive from
the document: constructors pass those they hold (``matcore.bound_checks``),
``certcheck`` those it measures itself.  Every tolerance is ``slack``.  A
trace has no rule of its own: the reconstruction claims judge it.  Standard library only.
"""
from __future__ import annotations

import math

TINY = 2.0 ** -1022  # the smallest normal float: rounding is absolute below it
RANK_TOL = 1e-8  # a PSD matrix's support: eigenvalues above RANK_TOL * the largest
NORM_CLAIMS = {"decompose": ("norm_sq_over_norm_a", 2.0),
               "decompose-tight": ("norm_product_over_norm_a", 1.0)}


def slack(rel, scale):
    """The tolerance ``rel`` relative to ``scale``, down to the underflow range."""
    return rel * scale + TINY


def z0_outside_limit(z_norm: float) -> float:
    """Largest norm(z0 - p z0 p), p the support projection of (e_0 - eps)_+."""
    return slack(1e-8, z_norm)


def one_block_limit(b_norm: float) -> float:
    """Largest norm(b_11 - [x_1, y_1]) of a one-block ``block-split`` input."""
    return slack(1e-8, b_norm)


def norm_ratio(worst: float, a_norm: float):
    """(measured value, tolerance) of a claim on the largest factor-norm term
    ``worst`` relative to norm(a); for a = 0, 0 if ``worst`` <= TINY, else inf.
    The tolerance is slack(1e-9, norm(a))/norm(a), at most 2^52 + 1e-9: the
    trace-free part's norm exceeds norm(a) by |tr a|/n, up to that slack."""
    if a_norm == 0.0:
        return (0.0 if worst <= TINY else math.inf), 0.0
    return worst / a_norm, 1e-9 + TINY / a_norm


def single(command: str, a_norm: float, ratio_norm: float) -> dict:
    """``decompose`` and ``decompose-tight``; ``ratio_norm`` sets the norm claim's tolerance."""
    name, bound = NORM_CLAIMS[command]
    return {"reconstruction_residual": (slack(1e-9, a_norm), 0.0, a_norm),
            name: (bound, norm_ratio(0.0, ratio_norm)[1], 1.0)}


def field(sup: float, color_count: int) -> dict:
    """``decompose-field``, ``sup`` the field's sup norm."""
    return {"field_residual": (slack(1e-8, sup), 0.0, sup),
            "max_factor_norm_sq": (2.0 * sup + slack(1e-8, sup), 0.0, sup),
            "factor_count": (float(color_count), 0.0, 1.0)}


def stage(x_norm: float, remainder_norm: float, K: int, count: int) -> dict:
    """A push step of x into ``count`` commutators and a remainder in her(b)."""
    return {"reconstruction_residual": (slack(1e-8, x_norm), 0.0, x_norm),
            "remainder_norm": (K * x_norm + slack(1e-8, x_norm), 0.0, x_norm),
            "max_norm_product": (x_norm + slack(1e-8, x_norm), 0.0, x_norm),
            "remainder_in_hereditary": (slack(1e-8, remainder_norm), 0.0, remainder_norm),
            "commutator_count": (float(count), 0.0, 1.0)}


def tower(z_norm: float, delta: float | None, count_bound: int) -> dict:
    """``fack-run``, ``delta`` being delta_depth: None at depth 0.  The
    residual is norm(z0 - sum [x_k, y_k]), measured on the factors."""
    residual = {} if delta is None else {"residual_norm": (delta, slack(1e-8, z_norm), z_norm)}
    return {**residual, "commutator_count": (float(count_bound), 0.0, 1.0)}


def split(b_norm: float, blocks: int) -> dict:
    """``block-split``: one block is not split (``one_block_limit``)."""
    spec = {"shift_reconstruction": (slack(1e-9, b_norm), 0.0, b_norm)}
    if blocks > 1:
        spec["rest_diagonal_is_commutators"] = (slack(1e-10, b_norm), 0.0, b_norm)
    return spec
