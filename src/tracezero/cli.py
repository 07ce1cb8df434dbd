"""Command-line surface: one JSON document in, one JSON document out.

Commands
--------
decompose        trace-zero Hermitian matrix -> single self-commutator factor
decompose-tight  same element -> single (x, y) with norm(x)*norm(y) <= norm(a)
decompose-field  PL matrix field -> one sqrt-hat factor per color, its
                 residual measured at every vertex
fack-run         tower model -> iterated decomposition with certificates
block-split      block matrix with commutator diagonal sum -> [S, E] + rest
obstruct         bundle + n -> Euler-class nonvanishing certificate
pp-example       m -> obstructed element description + certificate
tower            m_max -> tower sequences and stage certificates
verify           check the claims of a previous output document

Every output embeds the command and the effective parameters.  The output
of a construction command also embeds its full input, so it is a
certificate.  Its report is the one the constructor measured where it made
each claim; ``verify`` checks the claims from the document alone with the
independent checkers of ``tracezero.certcheck``, which run no constructor.
``verify`` does not echo the document it checked: its ``input`` is a
digest, the verified document's command and the sha256 and length of the
exact UTF-8 bytes that were read.  Randomness (the fack-run demo element)
comes only from --seed via ``tracezero.rand``, so repeated runs are
byte-identical.

Exit codes: 0 = all certified bounds pass, 1 = a certified bound or a
verify check failed (the full document is emitted, its report naming the
failing claim), 2 = invalid input (a JSON error object {"error", "path"}
is emitted) or an --out that cannot be written (the error object goes to
stdout, its path the --out path).  The exit code of a full document is
read off it by ``jsonio.implied_exit_code``, the rule ``verify`` reports
as its ``inner_exit_code``.  Each fact of a document is stated once, in its
report or in its result, but for a fack-run's ``result.residual_norm``,
norm(z0 - sum [x, y]) of its factors, which its ``residual_norm`` claim
measures and ``verify`` measures again.  A report is its bound checks
and ``all_passed``: a residual norm or a factor count is the measured
value of a claim, and a fack-run's depth is its number of stages.  A
trace is no invalid input: the decompositions leave (tr a/n)*1, which
their reconstruction claim judges.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import jsonschema

from .errors import InvalidInputError
from .jsonio import (
    TowerInput,
    complex_to_json,
    decode_input,
    encode,
    implied_exit_code,
)
from .matcore import as_matrix, operator_norm
from .obstruct import obstruction_certificate, pp_example, villadsen_tower
from .ozfield import (
    SimplicialField,
    barycentric_subdivide,
    decompose_field,
    greedy_coloring,
    require_refine_budget,
    subdivide_field,
)
from .rand import SplitMix64, random_trace_zero_hermitian
from .schemas import INPUT_SCHEMAS, validate
from .selfcomm import self_commutator_decompose, tight_commutator_decompose
from .towers import TowerModel, block_two_commutator_split, tower_iterate

COMMANDS = tuple(INPUT_SCHEMAS)


@dataclasses.dataclass
class RunConfig:
    """One run's flags; ``command`` is one of COMMANDS, as argparse admits it."""

    command: str
    seed: int = 0
    refine: int = 0
    depth: int | None = None
    in_path: str | None = None

    def __post_init__(self):
        if self.refine < 0:
            raise InvalidInputError("refine must be nonnegative")
        if self.depth is not None and self.depth < 0:
            raise InvalidInputError("depth must be nonnegative")
        if not (0 <= self.seed < 2 ** 64):
            raise InvalidInputError("seed must fit in 64 bits")

    def parameters(self) -> dict:
        return {"seed": self.seed, "refine": self.refine, "depth": self.depth}


# --------------------------------------------------------------------------
# Handlers.  Each takes the decoded input and returns the output body; its
# "generated" input parts (a fack-run's random z0) join the echoed input, and a
# body without "report" has no bound checks and passes.
# A computed matrix goes into the body as the array ``as_matrix`` checked (a
# non-finite one exits 2 here, inside ``run``); ``encode`` writes it as its
# ``matrix_to_json`` document.

def _decomposition_result(dec) -> dict:
    if dec.kind == "self_commutators":
        factors = [{"x": as_matrix(x, square=True)} for x in dec.factors]
    else:
        factors = [{"x": as_matrix(x, square=True), "y": as_matrix(y, square=True)}
                   for x, y in dec.factors]
    return {"kind": dec.kind, "factors": factors}


def _field_result(fld: SimplicialField) -> dict:
    """The field document of ``fld``, each vertex value as its array."""
    return {"complex": complex_to_json(fld.complex), "n": fld.matrix_size,
            "values": {str(v): m for v, m in enumerate(fld.values)}}


def _handle_decompose(cfg: RunConfig, a):
    construct = (tight_commutator_decompose if cfg.command == "decompose-tight"
                 else self_commutator_decompose)
    dec = construct(a)
    return {"result": _decomposition_result(dec), "report": dec.report.to_json()}


def _handle_decompose_field(cfg: RunConfig, fld: SimplicialField):
    # The refinement and coloring budgets, before any subdivision or coloring.
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
        "sup_norm": fd.sup_norm,
        "factors": [
            {"color": factor.color,
             "entries": [{"vertex": v, "x": as_matrix(x, square=True)}
                         for v, x in factor.entries]}
            for factor in fd.factors
        ],
        "field": _field_result(fld),
    }
    return {"result": result, "report": fd.report.to_json()}


def _handle_fack_run(cfg: RunConfig, inp: TowerInput):
    tower = TowerModel(inp)
    depth = inp.run_depth(cfg.depth)
    generated = {}
    z0 = inp.z0
    if z0 is None:
        rng = SplitMix64(cfg.seed)
        q = tower.spectra[0].plus.basis
        h = random_trace_zero_hermitian(rng, q.shape[1])
        z0 = q @ h @ q.conj().T
        z0 = (z0 + z0.conj().T) / 2.0
        generated["z0"] = as_matrix(z0, square=True)
    dec, run_report = tower_iterate(z0, tower, depth)
    result = _decomposition_result(dec)
    result["residual_norm"] = dec.residual_norm
    result["tower_report"] = run_report.to_json()
    return {"generated": generated, "result": result, "report": dec.report.to_json()}


def _handle_block_split(cfg: RunConfig, inp: tuple):
    res = block_two_commutator_split(*inp)
    result = {
        "shift_upper": as_matrix(res.shift_upper, square=True),
        "shift_lower": as_matrix(res.shift_lower, square=True),
        "diag_part_norm": operator_norm(res.diag_part),
        "rest": as_matrix(res.rest, square=True),
    }
    return {"result": result, "report": res.report.to_json()}


def _handle_obstruct(cfg: RunConfig, inp: tuple):
    return {"result": obstruction_certificate(*inp).to_json()}


def _handle_pp_example(cfg: RunConfig, m: int):
    ex = pp_example(m)
    result = {
        "description": ex.description,
        "certificate": ex.certificate.to_json(),
        "field": None if ex.field is None else _field_result(ex.field),
    }
    return {"result": result}


def _handle_tower(cfg: RunConfig, m_max: int):
    spec = villadsen_tower(m_max)
    return {"result": spec.to_json(),
            "report": {"bound_checks": [], "all_passed": spec.all_verdicts_true}}


_HANDLERS = {
    "decompose": _handle_decompose,
    "decompose-tight": _handle_decompose,
    "decompose-field": _handle_decompose_field,
    "fack-run": _handle_fack_run,
    "block-split": _handle_block_split,
    "obstruct": _handle_obstruct,
    "pp-example": _handle_pp_example,
    "tower": _handle_tower,
}


def _handle_verify(cfg: RunConfig, doc: dict):
    # Imported on first use: no other command needs the checker, so their
    # start-up does not pay for loading it.
    from .certcheck import check_certificate

    params = doc["parameters"]  # typed by the verify schema; ranges are RunConfig's
    depth = params.get("depth")
    inner_cfg = RunConfig(command=cfg.command,  # range checks of the inner run's flags
                          seed=int(params.get("seed", RunConfig.seed)),
                          refine=int(params.get("refine", RunConfig.refine)),
                          depth=None if depth is None else int(depth))
    mismatches = check_certificate(doc, refine=inner_cfg.refine, depth=inner_cfg.depth)
    inner_code = implied_exit_code(doc)
    verified = not mismatches and inner_code == 0
    result = {"verified": verified, "mismatches": mismatches, "inner_exit_code": inner_code}
    return {"result": result, "report": {"bound_checks": [], "all_passed": verified}}


def _input_digest(input_doc: dict, text: str) -> dict:
    """What ``verify`` reports of the document it checked: its command and
    the sha256 and length of the UTF-8 bytes it was read from."""
    import hashlib  # loads OpenSSL; only verify needs it, so other start-ups skip it

    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a str with lone surrogates, from a Python caller
        raise InvalidInputError(f"input is not valid UTF-8 text: {exc}") from None
    return {"command": input_doc["command"], "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def _build_output(cfg: RunConfig, input_doc: dict, text: str):
    """Validate, decode, dispatch, and wrap in the standard envelope; returns
    (document, the exit code it implies)."""
    validate(input_doc, cfg.command)
    if cfg.command == "verify":
        body = _handle_verify(cfg, input_doc)
        input_part = _input_digest(input_doc, text)
    else:
        body = _HANDLERS[cfg.command](cfg, decode_input(cfg.command, input_doc))
        input_part = {**input_doc, **body["generated"]} if body.get("generated") else input_doc
    doc = {
        "command": cfg.command,
        "parameters": cfg.parameters(),
        "input": input_part,
        "result": body["result"],
        "report": body.get("report", {"bound_checks": [], "all_passed": True}),
    }
    return doc, implied_exit_code(doc)


def run(cfg: RunConfig, input_doc: dict, text: str):
    """Run one command on ``input_doc``, parsed from ``text``; returns
    (output document, exit code)."""
    try:
        return _build_output(cfg, input_doc, text)
    except jsonschema.ValidationError as exc:
        return {"error": exc.message, "path": exc.json_path}, 2
    except InvalidInputError as exc:
        return {"error": str(exc), "path": cfg.in_path or "stdin"}, 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracezero",
        description="Certified commutator decompositions and obstruction certificates.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--in", dest="in_path", default=None,
                        help="input JSON path (default: stdin)")
    parser.add_argument("--out", dest="out_path", default=None,
                        help="output JSON path (default: stdout)")
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--refine", type=int, default=RunConfig.refine,
                        help="barycentric refinements for decompose-field")
    parser.add_argument("--depth", type=int, default=None,
                        help="iteration depth for fack-run")
    return parser


def run_from_args(argv, stdin_text: str | None = None):
    """Parse argv, run, write --out if given; returns (exit code, output text)."""
    code, text, _ = _run_parsed(build_parser().parse_args(argv), stdin_text)
    return code, text


def _run_parsed(args, stdin_text: str | None = None):
    """(exit code, output text, whether it was written to --out)."""
    try:
        cfg = RunConfig(command=args.command, seed=args.seed,
                        refine=args.refine, depth=args.depth, in_path=args.in_path)
    except InvalidInputError as exc:
        return 2, encode({"error": str(exc), "path": ""}), False
    try:
        # Read as the bytes are, with no newline translation: verify hashes them.
        if args.in_path:
            with open(args.in_path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        elif stdin_text is not None:
            text = stdin_text
        else:
            text = sys.stdin.buffer.read().decode("utf-8")
        input_doc = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, stdin bytes that are not UTF-8
        # and integer literals longer than the interpreter will convert
        # (4300 digits by default).
        return 2, encode({"error": f"cannot read input: {exc}",
                          "path": args.in_path or "stdin"}), False
    if not isinstance(input_doc, dict):
        return 2, encode({"error": "input must be a JSON object",
                          "path": args.in_path or "stdin"}), False
    doc, code = run(cfg, input_doc, text)
    text = encode(doc)
    if not args.out_path:
        return code, text, False
    try:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an --out that cannot be written is invalid input
        return 2, encode({"error": f"cannot write output: {exc}", "path": args.out_path}), False
    return code, text, True


def main(argv=None) -> int:
    """Run the command line; what was not written to --out goes to stdout."""
    code, text, written = _run_parsed(build_parser().parse_args(argv))
    if not written:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
