"""Command-line interface: decompose, contract, solve, primitive, rank-report, verify.

Exit status: 0 on success (verify: all checks pass), 1 when verify reports a
failing check, 2 on usage or parse errors and on an exponent above
``MAX_EXPONENT`` in a document or a product.  A document warning (a repeated
index) is one ``warning:`` line on stderr, or, where warnings are errors
(``python -W error``), one ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .calculus import exterior_derivative, homotopy_pair
from .polynomial import ExponentOverflow
from .serialize import ParseError, decode_json, document_to_tensor, json_text
from .spin7 import (
    cayley2_constraint,
    cayley_form,
    decompose,
    eigenspace_dimension,
    map_matrix,
    psi2_inverse,
    psi3_section,
    three_form_operator_matrix,
    two_form_operator_matrix,
)
from .tensor import FORM, MULTIVECTOR, TensorError, contract
from .verify import SCOPES, _mass, run_checks


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    return decode_json(text, path)


def _read_tensor(doc, location: str = "$"):
    """``document_to_tensor``, each warning it gives printed as one ``warning:`` line on stderr.

    The active warning filters stay in force, so where warnings are errors
    the first one raises and :func:`main` prints it as an ``error:`` line.
    """
    with warnings.catch_warnings(record=True) as caught:
        tensor = document_to_tensor(doc, location)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return tensor


def _wrong_shape(tensor, message: str) -> ParseError:
    """``message`` at ``$.variance`` for a multivector, else at ``$.degree``."""
    return ParseError(message, "$.variance" if tensor.variance != FORM else "$.degree")


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        sys.stdout.write(json_text(payload) + "\n")
    else:
        text_renderer(payload)


def cmd_decompose(args) -> int:
    tensor = _read_tensor(_load_json(args.input))
    if tensor.degree not in (2, 3, 4):
        raise ParseError(f"decompose expects degree 2, 3 or 4, got {tensor.degree}", "$.degree")
    report = decompose(tensor)
    norms = report.norms()
    payload = {
        "input": tensor,
        "flattened_from_multivector": tensor.variance == MULTIVECTOR,
        "components": dict(sorted(report.components.items())),
        "norms": dict(sorted(norms.items())),
        "residuals": {name: str(_mass(value)) for name, value in report.residuals().items()},
    }

    def render(p):
        print(f"flattened: {p['flattened_from_multivector']}")
        for name in sorted(report.components):
            print(f"{name}: {report.components[name]!r}")
            print(f"  |.|^2 = {norms[name]!r}")
        for key, value in p["residuals"].items():
            print(f"residual {key} = {value}")

    _emit(payload, args.format, render)
    return 0


def cmd_contract(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "multivector" not in doc or "form" not in doc:
        raise ParseError('expected an object {"multivector": ..., "form": ...}')
    q = _read_tensor(doc["multivector"], "$.multivector")
    beta = _read_tensor(doc["form"], "$.form")
    for t, location, variance in ((q, "$.multivector", MULTIVECTOR), (beta, "$.form", FORM)):
        if t.variance != variance:
            raise ParseError(f"expected a {variance} document, got a {t.variance}", f"{location}.variance")
    if q.degree > beta.degree:
        message = f"cannot contract a degree-{q.degree} multivector into a degree-{beta.degree} form"
        raise ParseError(message, "$.multivector.degree")
    result = contract(q, beta)
    payload = {"result": result}
    _emit(payload, args.format, lambda p: print(repr(result)))
    return 0


def cmd_solve(args) -> int:
    """Q with Q _| Psi = d(input), d(input) taken once: ``psi2_inverse`` of it (cayley2) or ``psi3_section`` (cayley3)."""
    tensor = _read_tensor(_load_json(args.input))
    psi = cayley_form()
    if args.kind == "cayley2":
        if tensor.variance != FORM or tensor.degree != 1:
            raise _wrong_shape(tensor, "cayley2 expects a one-form document")
        target = exterior_derivative(tensor)
        q = psi2_inverse(target)
        residuals = {
            "contraction": str((contract(q, psi) - target).coeff_l1()),
            "derivative_constraint": str(cayley2_constraint(q).coeff_l1()),
        }
    else:
        if tensor.variance != FORM or tensor.degree != 0:
            raise _wrong_shape(tensor, "cayley3 expects a degree-0 form (polynomial) document")
        target = exterior_derivative(tensor)
        q = psi3_section(target)
        residuals = {"contraction": str((contract(q, psi) - target).coeff_l1())}
    payload = {
        "kind": args.kind,
        "result": q,
        "target": target,
        "residuals": residuals,
    }

    def render(p):
        print(repr(q))
        for key, value in residuals.items():
            print(f"residual {key} = {value}")

    _emit(payload, args.format, render)
    return 0


def cmd_primitive(args) -> int:
    tensor = _read_tensor(_load_json(args.input))
    if tensor.variance != FORM or tensor.degree < 1:
        raise _wrong_shape(tensor, "primitive expects a form of degree >= 1")
    pair = homotopy_pair(tensor)
    payload = {
        "primitive": pair.primitive,
        "homotopy_residual": str(pair.identity_residual().coeff_l1()),
        "exactness_residual": str(pair.exactness_residual().coeff_l1()),
    }

    def render(p):
        print(repr(pair.primitive))
        print(f"residual d(H b) + H(d b) - b = {p['homotopy_residual']}")
        print(f"residual d(H b) - b = {p['exactness_residual']}")

    _emit(payload, args.format, render)
    return 0


def _spectrum(matrix, eigenvalues: tuple[int, ...]) -> str:
    """Each eigenvalue, signed unless 0, then ``(xN)`` with its multiplicity N."""
    return ", ".join(
        f"{f'{value:+d}' if value else '0'} (x{eigenspace_dimension(matrix, value)})"
        for value in eigenvalues
    )


def cmd_rank_report(args) -> int:
    t_matrix = two_form_operator_matrix()
    s_matrix = three_form_operator_matrix()
    t_spectrum = _spectrum(t_matrix, (-3, 1))
    maps = [
        ("contraction_degree_1", map_matrix(1), ""),
        ("contraction_degree_2", map_matrix(2), t_spectrum),  # equals T (check map_rank_two)
        ("contraction_degree_3", map_matrix(3), ""),
        ("two_form_wedge_star", t_matrix, t_spectrum),
        ("three_form_double_wedge_star", s_matrix, _spectrum(s_matrix, (-7, 0))),
    ]
    rows = [
        {
            "map": name,
            "shape": f"{matrix.nrows}x{matrix.ncols}",
            "rank": matrix.rank(),
            "kernel_dim": matrix.nullity(),
            "eigenvalues": spectrum,
        }
        for name, matrix, spectrum in maps
    ]
    payload = {"maps": rows}

    def render(p):
        print(f"{'map':<30}{'shape':<8}{'rank':<5}{'kernel':<11}eigenvalues")
        for row in rows:
            print(
                f"{row['map']:<30}{row['shape']:<8}{row['rank']:<5}"
                f"{row['kernel_dim']:<11}{row['eigenvalues']}"
            )

    _emit(payload, args.format, render)
    return 0


def cmd_verify(args) -> int:
    try:
        report = run_checks(
            scope=args.scope,
            seed=args.seed,
            cases=args.cases,
            star_flip_degree=args.mutate_hodge,
        )
    except ValueError as exc:  # --cases or --mutate-hodge out of range
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def render(p):
        for check in p["checks"]:
            line = (
                f"{check['status'].upper():<5} {check['check_id']:<40} "
                f"residual={check['residual']} [{check['elapsed_s']}s]"
            )
            if check["note"]:
                line += f"  ({check['note']})"
            print(line)
        print(
            f"overall: {p['overall_status']} "
            f"({p['counts']['pass']} passed, {p['counts']['fail']} failed)"
        )

    _emit(report, args.format, render)
    return 0 if report["overall_status"] == "pass" else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cayley8",
        description="Exact exterior calculus on R^8 with the canonical Cayley four-form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    for name, func, help_text, input_help in (
        ("decompose", cmd_decompose, "split a degree 2, 3, or 4 tensor into components", "tensor document (JSON file)"),
        ("contract", cmd_contract, "interior product of a multivector into a form", 'JSON file with {"multivector": <doc>, "form": <doc>}'),
        ("solve", cmd_solve, "solve Q _| Psi = d(input) for Q", "one-form (cayley2) or degree-0 form (cayley3)"),
        ("primitive", cmd_primitive, "cone-operator primitive of a form", "form document (JSON file)"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "solve":
            p.add_argument("kind", choices=("cayley2", "cayley3"))
        p.add_argument("--input", required=True, help=input_help)
        add_format(p)
        p.set_defaults(func=func)

    p = sub.add_parser("rank-report", help="shapes, ranks and spectra of the structure maps")
    add_format(p)
    p.set_defaults(func=cmd_rank_report)

    p = sub.add_parser("verify", help="run the named identity checks")
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=64, help="random instances per identity")
    p.add_argument(
        "--mutate-hodge",
        type=int,
        metavar="DEGREE",
        default=None,
        help="mutation test mode: flip the Hodge sign on one degree (expect failures)",
    )
    add_format(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact integers of any length for this call (CPython >= 3.10.7 caps int/str conversion)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ParseError, TensorError, ExponentOverflow, UserWarning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
