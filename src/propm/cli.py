"""Command-line front door.

Exit codes: 0 the command succeeded and any claim it checked holds;
1 a checked claim fails (verification failed, notion does not exist, audit
found violations, solver invariant broke); 2 malformed input; 3 a resource
limit was reached: the enumeration budget (for ``gen``, a budget on its
n x m cells), a CP bundle out of reach, or values whose scan would leave
the kernels' exact int64 range (valid input that ``--budget`` cannot lift).

Instances, allocations and certificates travel as JSON:
  instance   {"n": int, "m": int, "values": [[int, ...], ...]}
  allocation {"bundles": [[int, ...], ...]}
  certificate  as ``solve --certificate-out`` writes it; ``verify --certificate``
               replays it against an allocation
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    Allocation,
    InputError,
    Instance,
    InvariantViolationError,
    ResourceBudgetError,
    UnsupportedSizeError,
)
from .fairness import Notion, check, parse_notion
from .leximin import cycle_swap, envy_graph, leximin_max
from .oracle import exists, implication_audit, make_counterexample, random_instance
from .solver import (
    certificate_from_json_dict,
    certificate_to_json_dict,
    solve_propm,
    verify_certificate,
)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        # ValueError covers bad JSON and int literals past Python's digit limit;
        # RecursionError, nesting too deep for the decoder.
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _load_instance(path: str) -> Instance:
    return Instance.from_json_dict(_load_json(path))


def _load_allocation(path: str) -> Allocation:
    return Allocation.from_json_dict(_load_json(path))


def _emit(data: dict, as_json: bool, human: str) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        print(human)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_instance(inst: Instance, out: str | None) -> None:
    text = json.dumps(inst.to_json_dict(), indent=2)
    if out:
        _write_text(out, text + "\n")
    else:
        print(text)


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    allocation = _load_allocation(args.allocation)
    if args.certificate:
        cert = certificate_from_json_dict(_load_json(args.certificate))
        proved = verify_certificate(inst, allocation, cert)
        human = f"certificate: {'proves the allocation PROPm' if proved else 'REJECTED'}"
        _emit({"certificate_verified": proved}, args.json, human)
        return 0 if proved else 1
    notion = parse_notion(args.notion)
    report = check(inst, allocation, notion, budget=args.budget)
    lines = [f"notion {notion.value}: {'all satisfied' if report.all_satisfied else 'VIOLATED'}"]
    for i, verdict in enumerate(report.per_agent):
        state = "ok " if verdict.satisfied else "BAD"
        lines.append(f"  agent {i}: {state} slack={verdict.slack}")
    _emit(report.to_json_dict(), args.json, "\n".join(lines))
    return 0 if report.all_satisfied else 1


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    allocation, certificate = solve_propm(inst)
    report = check(inst, allocation, Notion.PROPM)
    if not report.all_satisfied or not verify_certificate(inst, allocation, certificate):
        print("solver output failed self-verification", file=sys.stderr)
        return 1
    payload = {
        "allocation": allocation.to_json_dict(),
        "certificate": certificate_to_json_dict(certificate),
        "report": report.to_json_dict(),
    }
    lines = ["allocation:"]
    for i, bundle in enumerate(allocation.bundles):
        lines.append(f"  agent {i}: {list(bundle.items)}")
    lemmas = [s["lemma"] for s in payload["certificate"]["steps"] if s.get("type") == "case"]
    lines.append(f"cases applied: {', '.join(lemmas) if lemmas else '(reductions only)'}")
    lines.append("certificate verified: yes")
    if args.certificate_out:
        _write_text(args.certificate_out, json.dumps(payload["certificate"], indent=2))
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_exists(args) -> int:
    inst = _load_instance(args.instance)
    notion = parse_notion(args.notion)
    result = exists(inst, notion, budget=args.budget, workers=args.workers)
    if result.exists:
        human = (
            f"{notion.value}: exists "
            f"(witness after {result.allocations_checked} allocations: "
            f"{[list(b.items) for b in result.witness.bundles]})"
        )
    else:
        human = f"{notion.value}: does not exist ({result.allocations_checked} allocations scanned)"
    _emit(result.to_json_dict(), args.json, human)
    return 0 if result.exists else 1


def _cmd_audit(args) -> int:
    inst = _load_instance(args.instance)
    report = implication_audit(inst, budget=args.budget, workers=args.workers)
    if report.ok:
        human = (
            f"audit clean: {len(report.implications)} implications over "
            f"{report.allocations_checked} allocations"
        )
    else:
        first = report.violations[0]
        human = (
            f"audit FAILED: {len(report.violations)} violations, first is "
            f"{first.implication} at allocation {first.allocation_index} agent {first.agent}"
        )
    _emit(report.to_json_dict(), args.json, human)
    return 0 if report.ok else 1


def _cmd_leximin(args) -> int:
    inst = _load_instance(args.instance)
    allocation, profile = leximin_max(inst, budget=args.budget)
    graph = envy_graph(inst, allocation)
    cycle = graph.find_cycle()
    swapped = cycle_swap(inst, allocation)
    aefx = check(inst, allocation, Notion.AEFX)
    payload = {
        "allocation": allocation.to_json_dict(),
        "profile": profile.to_json_dict(),
        "envy_graph": graph.to_json_dict(),
        "cycle": list(cycle) if cycle else None,
        "cycle_swap": swapped.to_json_dict() if swapped else None,
        "aefx_all_satisfied": aefx.all_satisfied,
    }
    lines = ["leximin-max allocation:"]
    for i, bundle in enumerate(allocation.bundles):
        lines.append(f"  agent {i}: {list(bundle.items)}")
    lines.append(f"adjusted profile (ascending): {payload['profile']['ascending']}")
    lines.append(f"strict-envy cycle: {'none' if cycle is None else list(cycle)}")
    lines.append(f"averaged-EFx satisfied: {aefx.all_satisfied}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


def _cmd_gen(args) -> int:
    inst = random_instance(args.n, args.m, args.max_value, args.seed, budget=args.budget)
    _write_instance(inst, args.out)
    return 0


def _cmd_counterexample(args) -> int:
    inst = make_counterexample(args.scale)
    _write_instance(inst, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propm",
        description="Exact fair-division toolkit: verify, solve, enumerate, explore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=True):
        p.add_argument("--instance", required=True, help="instance JSON path")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="enumeration budget")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser(
        "verify", help="check one fairness notion on an allocation, or replay its certificate"
    )
    add_common(p)
    p.add_argument("--allocation", required=True, help="allocation JSON path")
    claim = p.add_mutually_exclusive_group(required=True)
    claim.add_argument("--notion", help="fairness notion tag")
    claim.add_argument(
        "--certificate", help="certificate JSON path (from solve --certificate-out) to replay"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="construct a PROPm allocation with a certificate")
    add_common(p, budget=False)
    p.add_argument("--certificate-out", default=None, help="also write the certificate here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exists", help="exhaustively decide whether a notion is satisfiable")
    add_common(p)
    p.add_argument("--notion", required=True, help="fairness notion tag")
    p.add_argument("--workers", type=int, default=1, help="parallel scan workers")
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("audit", help="check the implication chain over all allocations")
    add_common(p)
    p.add_argument("--workers", type=int, default=1, help="parallel scan workers")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("leximin", help="exhaustive adjusted-value leximin maximum")
    add_common(p)
    p.set_defaults(func=_cmd_leximin)

    p = sub.add_parser("gen", help="generate a reproducible random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-value", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="cell budget (n x m)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("counterexample", help="the 3-agent, 7-item instance family")
    p.add_argument("--scale", type=int, required=True, help="total value; big item is scale-6")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the input-error code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, UnsupportedSizeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
