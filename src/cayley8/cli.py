"""Command-line interface: decompose, contract, solve, primitive, rank-report, verify.

Exit status: 0 on success (verify: all checks pass), 1 when verify reports a
failing check, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .calculus import exterior_derivative, homotopy_pair
from .serialize import (
    ParseError,
    document_to_tensor,
    polynomial_to_document,
    tensor_to_document,
)
from .spin7 import (
    cayley_2mvf_for,
    cayley_3mvf_for,
    cayley_form,
    decompose,
    eigenspace_dimension,
    map_matrix,
    project2,
    three_form_operator_matrix,
    two_form_operator_matrix,
)
from .tensor import FORM, GradedTensor, TensorError, contract, flat, scalar_tensor
from .verify import SCOPES, run_checks


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"invalid JSON: {path} is nested too deeply") from None


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        text_renderer(payload)


def cmd_decompose(args) -> int:
    tensor = document_to_tensor(_load_json(args.input))
    report = decompose(tensor)
    payload = {
        "input": tensor_to_document(tensor),
        "flattened_from_multivector": report.flattened_from_multivector,
        "components": {
            name: tensor_to_document(part) for name, part in sorted(report.components.items())
        },
        "norms": {
            name: polynomial_to_document(norm) for name, norm in sorted(report.norms().items())
        },
        "residuals": {
            "sum": str(report.residual().coeff_l1()),
            **{
                f"defining:{name}": str(
                    value.coeff_l1() if isinstance(value, GradedTensor) else value.abs_coeff_sum()
                )
                for name, value in sorted(report.defining_residuals().items())
            },
            **{
                f"orthogonality:{name}": str(value.abs_coeff_sum())
                for name, value in sorted(report.orthogonality_residuals().items())
            },
        },
    }

    def render(p):
        print(f"flattened: {p['flattened_from_multivector']}")
        for name in sorted(report.components):
            print(f"{name}: {report.components[name]!r}")
            print(f"  |.|^2 = {report.norms()[name]!r}")
        for key, value in p["residuals"].items():
            print(f"residual {key} = {value}")

    _emit(payload, args.format, render)
    return 0


def cmd_contract(args) -> int:
    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "multivector" not in doc or "form" not in doc:
        raise ParseError('expected an object {"multivector": ..., "form": ...}')
    q = document_to_tensor(doc["multivector"], "$.multivector")
    beta = document_to_tensor(doc["form"], "$.form")
    result = contract(q, beta)
    payload = {"result": tensor_to_document(result)}
    _emit(payload, args.format, lambda p: print(repr(result)))
    return 0


def cmd_solve(args) -> int:
    tensor = document_to_tensor(_load_json(args.input))
    psi = cayley_form()
    if args.kind == "cayley2":
        if tensor.variance != FORM or tensor.degree != 1:
            raise ParseError("cayley2 expects a one-form document")
        q = cayley_2mvf_for(tensor)
        target = exterior_derivative(tensor)
        split = project2(flat(q))
        constraint = (
            exterior_derivative(split.components["2_7"]) * 3
            - exterior_derivative(split.components["2_21"])
        )
        residuals = {
            "contraction": str((contract(q, psi) - target).coeff_l1()),
            "derivative_constraint": str(constraint.coeff_l1()),
        }
    else:
        if tensor.variance != FORM or tensor.degree != 0:
            raise ParseError("cayley3 expects a degree-0 form (polynomial) document")
        f = tensor.coefficient(())
        q = cayley_3mvf_for(f)
        target = exterior_derivative(scalar_tensor(f))
        residuals = {"contraction": str((contract(q, psi) - target).coeff_l1())}
    payload = {
        "kind": args.kind,
        "result": tensor_to_document(q),
        "target": tensor_to_document(target),
        "residuals": residuals,
    }

    def render(p):
        print(repr(q))
        for key, value in residuals.items():
            print(f"residual {key} = {value}")

    _emit(payload, args.format, render)
    return 0


def cmd_primitive(args) -> int:
    tensor = document_to_tensor(_load_json(args.input))
    if tensor.variance != FORM or tensor.degree < 1:
        raise ParseError("primitive expects a form of degree >= 1")
    pair = homotopy_pair(tensor)
    payload = {
        "primitive": tensor_to_document(pair.primitive),
        "homotopy_residual": str(pair.identity_residual().coeff_l1()),
        "exactness_residual": str(pair.exactness_residual().coeff_l1()),
    }

    def render(p):
        print(repr(pair.primitive))
        print(f"residual d(H b) + H(d b) - b = {p['homotopy_residual']}")
        print(f"residual d(H b) - b = {p['exactness_residual']}")

    _emit(payload, args.format, render)
    return 0


def cmd_rank_report(args) -> int:
    rows = []
    for k in (1, 2, 3):
        matrix = map_matrix(k)
        entry = {
            "map": f"contraction_degree_{k}",
            "shape": f"{matrix.nrows}x{matrix.ncols}",
            "rank": matrix.rank(),
            "kernel_dim": matrix.nullity(),
            "eigenvalues": "",
        }
        if k == 2:
            entry["eigenvalues"] = "-3 (x7), +1 (x21)"
        rows.append(entry)
    t_matrix = two_form_operator_matrix()
    rows.append(
        {
            "map": "two_form_wedge_star",
            "shape": "28x28",
            "rank": t_matrix.rank(),
            "kernel_dim": t_matrix.nullity(),
            "eigenvalues": f"-3 (x{eigenspace_dimension(t_matrix, -3)}), "
            f"+1 (x{eigenspace_dimension(t_matrix, 1)})",
        }
    )
    s_matrix = three_form_operator_matrix()
    rows.append(
        {
            "map": "three_form_double_wedge_star",
            "shape": "56x56",
            "rank": s_matrix.rank(),
            "kernel_dim": s_matrix.nullity(),
            "eigenvalues": f"-7 (x{eigenspace_dimension(s_matrix, -7)}), "
            f"0 (x{eigenspace_dimension(s_matrix, 0)})",
        }
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley8",
        description="Exact exterior calculus on R^8 with the canonical Cayley four-form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("decompose", help="split a degree 2, 3, or 4 tensor into components")
    p.add_argument("--input", required=True, help="tensor document (JSON file)")
    add_format(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("contract", help="interior product of a multivector into a form")
    p.add_argument(
        "--input",
        required=True,
        help='JSON file with {"multivector": <doc>, "form": <doc>}',
    )
    add_format(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("solve", help="solve Q _| Psi = d(input) for Q")
    p.add_argument("kind", choices=("cayley2", "cayley3"))
    p.add_argument("--input", required=True, help="one-form (cayley2) or degree-0 form (cayley3)")
    add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("primitive", help="cone-operator primitive of a form")
    p.add_argument("--input", required=True, help="form document (JSON file)")
    add_format(p)
    p.set_defaults(func=cmd_primitive)

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
    try:
        return args.func(args)
    except (ParseError, TensorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
