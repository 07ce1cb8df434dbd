"""Command-line surface: one JSON document in, one JSON document out.

Commands
--------
decompose        trace-zero Hermitian matrix -> single self-commutator factor
decompose-tight  same element -> single (x, y) with norm(x)*norm(y) <= norm(a)
decompose-field  PL matrix field -> one sqrt-hat factor per color
fack-run         tower model -> iterated decomposition with certificates
block-split      block matrix with commutator diagonal sum -> [S, E] + rest
obstruct         bundle + n -> Euler-class nonvanishing certificate
pp-example       m -> obstructed element description + certificate
tower            m_max -> tower sequences and stage certificates
verify           re-derive a previous output document and compare

Every output embeds the command, the effective parameters, and the full
input, so ``verify`` can re-run the computation and compare all numeric
claims.  Randomness (the fack-run demo element) comes only from --seed via
the splitmix64 generator in ``tracezero.rand``, so repeated runs are
byte-identical.

Exit codes: 0 = all certified bounds pass, 1 = a certified bound or a
verify comparison failed, or an internal numerical check failed (then a
JSON error object {"error", "path"} is emitted), 2 = invalid input (a JSON
error object {"error", "path"} is emitted).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import jsonschema

from .errors import InvalidInputError, NumericsError
from .jsonio import (
    encode,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .matcore import operator_norm, verify_decomposition
from .obstruct import BundleExpr, obstruction_certificate, pp_example, villadsen_tower
from .ozfield import (
    barycentric_subdivide,
    decompose_field,
    greedy_coloring,
    require_refine_budget,
    subdivide_field,
)
from .rand import SplitMix64, random_trace_zero_hermitian
from .schemas import INPUT_SCHEMAS, validate
from .selfcomm import self_commutator_decompose, tight_commutator_decompose
from .towers import TowerModel, block_two_commutator_split, make_block_tower, tower_iterate

COMMANDS = tuple(INPUT_SCHEMAS)


@dataclasses.dataclass
class RunConfig:
    command: str
    tol: float = 1e-9
    seed: int = 0
    refine: int = 0
    depth: int | None = None
    in_path: str | None = None
    out_path: str | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidInputError(f"unknown command: {self.command!r}")
        if self.tol <= 0:
            raise InvalidInputError("tol must be positive")
        if self.refine < 0:
            raise InvalidInputError("refine must be nonnegative")
        if self.depth is not None and self.depth < 0:
            raise InvalidInputError("depth must be nonnegative")
        if not (0 <= self.seed < 2 ** 64):
            raise InvalidInputError("seed must fit in 64 bits")
        if self.fmt != "json":
            raise InvalidInputError("only --format json is supported")

    def parameters(self) -> dict:
        return {"tol": self.tol, "seed": self.seed, "refine": self.refine,
                "depth": self.depth}


# --------------------------------------------------------------------------
# Handlers.  Each returns (output document, exit code).

def _decomposition_result(dec) -> dict:
    if dec.kind == "self_commutators":
        factors = [{"x": matrix_to_json(x)} for x in dec.factors]
    else:
        factors = [{"x": matrix_to_json(x), "y": matrix_to_json(y)}
                   for x, y in dec.factors]
    return {
        "kind": dec.kind,
        "factors": factors,
        "residual_norm": operator_norm(dec.residual),
        "bounds": {name: value for name, value in dec.claimed_bounds},
    }


def _handle_decompose(construct, cfg: RunConfig, doc: dict):
    a = matrix_from_json(doc, name="input matrix")
    dec = construct(a, trace_tol=cfg.tol)
    report = verify_decomposition(a, dec)
    return {"result": _decomposition_result(dec), "report": report.to_json()}, \
        (0 if report.all_passed else 1)


def _handle_decompose_field(cfg: RunConfig, doc: dict):
    fld = field_from_json(doc)
    require_refine_budget(fld.complex, cfg.refine)
    if cfg.refine > 0:
        for _ in range(cfg.refine):
            sub = barycentric_subdivide(fld.complex)
            fld = subdivide_field(fld, sub)
        coloring = sub.coloring
    else:
        coloring = greedy_coloring(fld.complex)
    fd = decompose_field(fld, coloring)
    result = {
        "coloring": list(coloring.colors),
        "color_count": coloring.color_count,
        "grid_order": fd.grid_order,
        "sup_norm": fd.sup_norm,
        "factors": [
            {"color": factor.color,
             "entries": [{"vertex": v, "x": matrix_to_json(x)}
                         for v, x in factor.entries]}
            for factor in fd.factors
        ],
        "field": field_to_json(fld),
    }
    return {"result": result, "report": fd.report.to_json()}, \
        (0 if fd.report.all_passed else 1)


def _as_float(value, name: str) -> float:
    """float(value), with an integer too large for a float as invalid input."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidInputError(f"{name} is too large for a float") from None


def _tower_from_json(doc: dict) -> TowerModel:
    blocks_doc = doc["blocks"]
    count = len(blocks_doc)
    epsilon = _as_float(doc.get("epsilon", 0.5), "tower.epsilon")
    deltas = [_as_float(d, f"tower.deltas[{i}]") for i, d in
              enumerate(doc.get("deltas", [2.0 ** -(i + 1) for i in range(count - 1)]))]
    L, K, M = (int(doc.get(key, 1)) for key in ("L", "K", "M"))
    if all(isinstance(b, dict) and "rank" in b for b in blocks_doc):
        return make_block_tower([b["rank"] for b in blocks_doc], L, K, M,
                                ambient=doc.get("ambient"), epsilon=epsilon, deltas=deltas)
    elements = [matrix_from_json(b, name="tower block") for b in blocks_doc]
    return TowerModel(elements=elements, epsilons=[epsilon] * count,
                      L=L, K=K, M=M, deltas=deltas)


def _handle_fack_run(cfg: RunConfig, doc: dict):
    tower = _tower_from_json(doc["tower"])
    depth = cfg.depth if cfg.depth is not None else int(doc.get("depth", tower.depth_limit))
    if "z0" in doc:
        z0 = matrix_from_json(doc["z0"], name="z0")
        echo = dict(doc)
    else:
        rng = SplitMix64(cfg.seed)
        q = tower.spectra[0].plus.basis
        h = random_trace_zero_hermitian(rng, q.shape[1])
        z0 = q @ h @ q.conj().T
        z0 = (z0 + z0.conj().T) / 2.0
        echo = dict(doc)
        echo["z0"] = matrix_to_json(z0)
    dec, run_report = tower_iterate(z0, tower, depth)
    report = verify_decomposition(z0, dec)
    result = _decomposition_result(dec)
    result["depth"] = depth
    result["tower_report"] = run_report.to_json()
    ok = report.all_passed and run_report.all_passed
    return {"input": echo, "result": result, "report": report.to_json()}, (0 if ok else 1)


def _handle_block_split(cfg: RunConfig, doc: dict):
    b = matrix_from_json(doc["b"], name="b")
    pairs = [(matrix_from_json(p["x"], name="x"), matrix_from_json(p["y"], name="y"))
             for p in doc["pairs"]]
    e = matrix_from_json(doc["e"], name="e")
    res = block_two_commutator_split(b, int(doc["blocks"]), pairs, e)
    result = {
        "shift_upper": matrix_to_json(res.shift_upper),
        "shift_lower": matrix_to_json(res.shift_lower),
        "diag_part_norm": operator_norm(res.diag_part),
        "rest": matrix_to_json(res.rest),
    }
    report = {"bound_checks": [c.to_json() for c in res.checks],
              "all_passed": res.all_passed}
    return {"result": result, "report": report}, (0 if res.all_passed else 1)


def _handle_obstruct(cfg: RunConfig, doc: dict):
    q = BundleExpr.from_json(doc["q"])
    cert = obstruction_certificate(q, int(doc["n"]))
    return {"result": cert.to_json(),
            "report": {"bound_checks": [], "all_passed": True}}, 0


def _handle_pp_example(cfg: RunConfig, doc: dict):
    ex = pp_example(int(doc["m"]))
    result = {
        "description": ex.description,
        "certificate": ex.certificate.to_json(),
        "field": None if ex.field is None else field_to_json(ex.field),
    }
    return {"result": result,
            "report": {"bound_checks": [], "all_passed": True}}, 0


def _handle_tower(cfg: RunConfig, doc: dict):
    spec = villadsen_tower(int(doc["m_max"]))
    ok = spec.all_verdicts_true
    return {"result": spec.to_json(),
            "report": {"bound_checks": [], "all_passed": ok}}, (0 if ok else 1)


_HANDLERS = {
    "decompose": functools.partial(_handle_decompose, self_commutator_decompose),
    "decompose-tight": functools.partial(_handle_decompose, tight_commutator_decompose),
    "decompose-field": _handle_decompose_field,
    "fack-run": _handle_fack_run,
    "block-split": _handle_block_split,
    "obstruct": _handle_obstruct,
    "pp-example": _handle_pp_example,
    "tower": _handle_tower,
}


def compare_json(expected, actual, path="$", rel=1e-9, abs_tol=1e-12, out=None):
    """Collect paths where two JSON trees differ beyond tolerance."""
    if out is None:
        out = []
    if len(out) >= 20:
        return out
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}.{key}: missing on one side")
            else:
                compare_json(expected[key], actual[key], f"{path}.{key}", rel, abs_tol, out)
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} vs {len(actual)}")
            return out
        for i, (e, a) in enumerate(zip(expected, actual)):
            compare_json(e, a, f"{path}[{i}]", rel, abs_tol, out)
        return out
    if isinstance(expected, bool) or isinstance(actual, bool):
        if expected is not actual:
            out.append(f"{path}: {expected} vs {actual}")
        return out
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(expected - actual) > abs_tol + rel * max(abs(expected), abs(actual)):
            out.append(f"{path}: {expected} vs {actual}")
        return out
    if expected != actual:
        out.append(f"{path}: {expected!r} vs {actual!r}")
    return out


def _handle_verify(cfg: RunConfig, doc: dict):
    inner_command = doc["command"]
    if inner_command not in _HANDLERS:
        raise InvalidInputError(f"cannot verify output of command {inner_command!r}")
    params = doc["parameters"]
    inner_cfg = RunConfig(command=inner_command,
                          tol=_as_float(params.get("tol", 1e-9), "parameters.tol"),
                          seed=int(params.get("seed", 0)),
                          refine=int(params.get("refine", 0)),
                          depth=params.get("depth"))
    redone = _build_output(inner_cfg, doc["input"])
    mismatches = compare_json(doc, redone[0])
    verified = not mismatches and redone[1] == 0
    result = {"verified": verified, "mismatches": mismatches,
              "inner_exit_code": redone[1]}
    return {"result": result, "report": {"bound_checks": [], "all_passed": verified}}, \
        (0 if verified else 1)


def _build_output(cfg: RunConfig, input_doc: dict):
    """Dispatch and wrap in the standard envelope."""
    validate(input_doc, cfg.command)
    if cfg.command == "verify":
        body, code = _handle_verify(cfg, input_doc)
    else:
        body, code = _HANDLERS[cfg.command](cfg, input_doc)
    doc = {
        "command": cfg.command,
        "parameters": cfg.parameters(),
        "input": body.get("input", input_doc),
        "result": body["result"],
        "report": body["report"],
    }
    return doc, code


def run(cfg: RunConfig, input_doc: dict):
    """Run one command; returns (output document, exit code)."""
    try:
        return _build_output(cfg, input_doc)
    except jsonschema.ValidationError as exc:
        return {"error": exc.message, "path": exc.json_path}, 2
    except InvalidInputError as exc:
        return {"error": str(exc), "path": cfg.in_path or "stdin"}, 2
    except NumericsError as exc:
        return {"error": str(exc), "path": cfg.in_path or "stdin"}, 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracezero",
        description="Certified commutator decompositions and obstruction certificates.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="in_path", default=None,
                        help="input JSON path (default: stdin)")
    parser.add_argument("--out", dest="out_path", default=None,
                        help="output JSON path (default: stdout)")
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", type=int, default=0,
                        help="barycentric refinements for decompose-field")
    parser.add_argument("--depth", type=int, default=None,
                        help="iteration depth for fack-run")
    parser.add_argument("--format", dest="fmt", default="json", choices=["json"])
    return parser


def run_from_args(argv, stdin_text: str | None = None):
    """Parse argv, run, write --out if given; returns (exit code, output text)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(command=args.command, tol=args.tol, seed=args.seed,
                        refine=args.refine, depth=args.depth,
                        in_path=args.in_path, out_path=args.out_path, fmt=args.fmt)
    except InvalidInputError as exc:
        return 2, encode({"error": str(exc), "path": ""})
    try:
        if args.in_path:
            with open(args.in_path, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = stdin_text if stdin_text is not None else sys.stdin.read()
        input_doc = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integer literals longer than
        # the interpreter will convert (4300 digits by default).
        return 2, encode({"error": f"cannot read input: {exc}", "path": args.in_path or "stdin"})
    if not isinstance(input_doc, dict):
        return 2, encode({"error": "input must be a JSON object", "path": args.in_path or "stdin"})
    doc, code = run(cfg, input_doc)
    text = encode(doc)
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code, text


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    code, text = run_from_args(argv)
    if "--out" not in argv:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
