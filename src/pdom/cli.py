"""Command-line front end: analyze, verify, certify, interconnect, simulate,
reproduce.

Systems, certificates and supplies travel as JSON; trajectories as CSV.
Every command emits a RunReport (JSON with --report, before or after the
verb) whose ``inputs`` hold exactly the flags and files its run read
(``--report`` and ``--out`` paths aside; ``metrics`` names the output
files). A file is recorded, with its digest once it is read, before it is
parsed, so the report of a run that fails on it names it. The report is
byte-identical across runs for identical inputs, wall time excluded, and is
written on every exit path; a run ended by an error
records it under ``error``, with the search report under ``error.lmi``
when a storage search failed. A usage error (exit 2) writes the report too;
``--help`` writes none. Only ``reproduce`` draws random numbers, so only it
takes ``--seed``.

``analyze`` and ``certify`` (without ``--passivity``) decide a dominance claim on
one path: the ``eigen_split`` verdict, then the constructed certificate and its
``dominance`` check. A claim off the split, or an inconclusive one, is a failed
``eigen_split`` verdict, not an error.

Exit codes: 0 all checks passed, 1 a criterion failed (or was inconclusive,
or a storage search proved that no storage exists), 2 input error (a model
nested too deep for the interpreter's stack included), 3 numerical failure
(a stalled search, or a built or searched storage that failed its check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import registry, reproduce
from .dissipativity import (
    DissipativityCertificate,
    SupplyRate,
    _find_passivity_storage,
    find_passivity_storage,
    supply_passivity,
    verify_dissipativity,
)
from .errors import CouplingError, LmiInfeasibleError, NumericalError, PdomError
from .interconnect import closed_loop_certificate, coupling_condition
from .lti import DominanceCertificate, _check_claim, _construct_certificate, check_dominance, eigen_split_test
from .model import LureSystem, _json_object
from .sim import classify_asymptotics, integrate, write_trajectory_csv

EXIT_OK = 0
EXIT_CRITERION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


@dataclass
class RunReport:
    """Serializable record of one command run; deterministic given its ``inputs``."""

    command: str | None  # None when a usage error came before the verb
    inputs: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    error: dict | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        data = {
            "command": self.command,
            "inputs": self.inputs,
            "verdicts": self.verdicts,
            "certificates": self.certificates,
            "metrics": self.metrics,
            "warnings": self.warnings,
        }
        if self.error is not None:
            data["error"] = self.error
        data["wall_time_s"] = self.wall_time_s
        return data


def _load_json(path: str, inputs: dict, key: str) -> dict:
    """Decode a JSON input file; NaN, Infinity, literals that overflow a float (integers too), null and
    nesting deeper than the recursion limit are refused.

    The file is recorded under ``inputs[key]`` before it is parsed: its path, then its digest once
    it is read. No input format uses null, and numpy would read one inside a matrix as NaN.
    """
    def finite(text: str, number=float):
        if not np.isfinite(float(text)):
            raise PdomError(f"cannot read {path}: non-finite number {text}")
        return number(text)

    def no_null(value) -> None:
        if value is None:
            raise PdomError(f"cannot read {path}: null is not an input value")
        if isinstance(value, (dict, list)):
            for item in value.values() if isinstance(value, dict) else value:
                no_null(item)

    inputs[key] = {"path": path}
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise PdomError(f"file not found: {path}")
    inputs[key]["sha256"] = hashlib.sha256(raw).hexdigest()[:16]
    try:
        data = json.loads(raw.decode("utf-8"), parse_float=finite, parse_constant=finite,
                          parse_int=lambda text: finite(text, int))
        no_null(data)
    except json.JSONDecodeError as exc:
        raise PdomError(f"cannot parse {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise PdomError(f"cannot read {path}: nested too deep")
    return data


def _load_system(spec: str, inputs: dict):
    """A system argument is either a built-in name or a JSON file path; ``inputs["system"]`` records it."""
    if spec in registry.builtin_names():
        inputs["system"] = {"builtin": spec}
        return registry.builtin_system(spec)
    return LureSystem.from_dict(_load_json(spec, inputs, "system"))


def _parse_vector(text: str) -> np.ndarray:
    try:
        vector = np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise PdomError(f"cannot parse vector {text!r}; expected comma-separated numbers")
    if not np.isfinite(vector).all():
        raise PdomError(f"vector {text!r} has a non-finite entry")
    return vector


def _dominance(system, rate: float, p: int, report: RunReport) -> DominanceCertificate | None:
    """The claim (rate, p) as ``analyze`` decides it: the split verdict, then the constructed certificate and the
    check its construction passed, each recorded. Returns the certificate; a claim off the split or an inconclusive
    one is a failed criterion (None), not an error, and a certificate that fails its check a ``NumericalError``."""
    split = eigen_split_test(system, rate, p)
    report.verdicts.append({"check": "eigen_split", **split.to_dict()})
    if split.status == "inconclusive":
        report.warnings.append("split inconclusive: an eigenvalue sits on the shifted axis")
    if not split.passed:
        return None
    cert, verdict = _construct_certificate(system, rate, split)  # reorders the split's Schur form; P's verdict
    report.certificates.append(cert.to_dict())
    report.verdicts.append({"check": "dominance", **verdict.to_dict()})
    return cert


def cmd_analyze(args, report: RunReport) -> int:
    report.inputs = {"lambda": args.rate, "p": args.p}
    system = _load_system(args.system, report.inputs)
    return EXIT_CRITERION_FAILED if _dominance(system, args.rate, args.p, report) is None else EXIT_OK


def cmd_verify(args, report: RunReport) -> int:
    system = _load_system(args.system, report.inputs)
    cert_data = _load_json(args.certificate, report.inputs, "certificate")
    supply_data = None
    if args.supply:
        supply_data = _load_json(args.supply, report.inputs, "supply")
    elif "supply" in cert_data:
        supply_data = cert_data["supply"]

    # the certificate is held to its claimed p and margin at every vertex of the model
    if supply_data is None:
        verdict = check_dominance(system, DominanceCertificate.from_dict(cert_data))
    else:
        cert = DissipativityCertificate.from_dict({**cert_data, "supply": supply_data}, r=system.r, m=system.m)
        verdict = verify_dissipativity(system, cert)
    report.verdicts.append({"check": "dominance" if supply_data is None else "dissipativity", **verdict.to_dict()})
    return EXIT_OK if verdict.passed else EXIT_CRITERION_FAILED


def cmd_certify(args, report: RunReport) -> int:
    report.inputs = {"lambda": args.rate, "p": args.p, "passivity": args.passivity}
    system = _load_system(args.system, report.inputs)
    if args.passivity:
        cert, verdict = _find_passivity_storage(system, args.rate, args.p)  # the verdict that proved it
        report.certificates.append(cert.to_dict())
        report.verdicts.append({"check": "dissipativity", **verdict.to_dict()})
    else:
        cert = _dominance(system, args.rate, args.p, report)
        if cert is None:
            return EXIT_CRITERION_FAILED
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(cert.to_dict(), fh, indent=2, sort_keys=True)
        report.metrics["certificate_file"] = args.out
    return EXIT_OK


def cmd_interconnect(args, report: RunReport) -> int:
    """Coupling test, then the closed-loop certificate, of one loop file.

    The file holds ``sys1``, ``sys2``, ``supply1``, ``supply2`` and the loop's
    rate ``lambda``, held to the claim rule before any verdict. ``certN``, when
    present, is subsystem N's storage and p: the loop's rate is its default
    rate and the loop's supply always wins. Without ``certN``, a passivity
    storage is searched for a channel-free subsystem whose supply is the
    passivity supply; any other subsystem without one is an input error.
    """
    data = _json_object(_load_json(args.loop, report.inputs, "loop"), "a loop")
    systems = [LureSystem.from_dict(data["sys1"]), LureSystem.from_dict(data["sys2"])]
    supplies = [SupplyRate.from_dict(data[f"supply{i}"], r=sys.r, m=sys.m) for i, sys in enumerate(systems, 1)]
    _check_claim(data["lambda"], 0, 0)  # the rate alone: there is no storage yet
    rate = float(data["lambda"])
    coupling = coupling_condition(*supplies)
    report.verdicts.append({"check": "coupling", **coupling.to_dict()})
    if not coupling.passed:
        return EXIT_CRITERION_FAILED

    certs = []
    for i, (system, supply) in enumerate(zip(systems, supplies), 1):
        key = f"cert{i}"
        if key in data:
            entry = {"lambda": rate, **_json_object(data[key], key), "supply": supply.to_dict()}
            certs.append(DissipativityCertificate.from_dict(entry))
        elif not system.channels and supply == supply_passivity(system.r):
            split = eigen_split_test(system, rate, 0)
            certs.append(find_passivity_storage(system, rate, split.unstable_count))
        else:
            raise PdomError(
                f"loop file must provide {key} (a storage) for this subsystem"
            )
    cert = closed_loop_certificate(systems[0], certs[0], systems[1], certs[1])
    report.certificates.append(cert.to_dict())
    report.verdicts.append(
        {"check": "closed_loop", "passed": True, "p": cert.p, "lambda": cert.rate}
    )
    return EXIT_OK


def cmd_simulate(args, report: RunReport) -> int:
    system = _load_system(args.system, report.inputs)
    x0 = _parse_vector(args.x0)
    if x0.shape[0] != system.n:
        raise PdomError(f"--x0 has {x0.shape[0]} entries, system has {system.n} states")
    input_policy = _parse_vector(args.input) if args.input else None
    report.inputs.update({
        "x0": x0.tolist(),
        "t": args.t_end,
        "dt": args.dt,
        "input": None if input_policy is None else input_policy.tolist(),
        "record_every": args.record_every,
    })
    traj = integrate(
        system, x0, t_end=args.t_end, dt=args.dt, input_policy=input_policy, record_every=args.record_every
    )
    verdict = classify_asymptotics(traj)
    report.verdicts.append({"check": "asymptotics", **verdict.to_dict()})
    report.metrics["samples"] = int(traj.states.shape[0])
    if args.out:
        write_trajectory_csv(traj, args.out)
        report.metrics["trajectory_file"] = args.out
    # divergence is a legitimate verdict, not a failure of the run
    return EXIT_OK


def cmd_reproduce(args, report: RunReport) -> int:
    report.inputs = {"which": args.which, "seed": args.seed}
    results = reproduce.run(args.which, seed=args.seed)
    all_passed = True
    for suite in results:
        print(f"== {suite.suite} ==")
        for line in suite.lines:
            print(f"  {line}")
        all_passed &= suite.passed
        report.verdicts.append(suite.to_dict())
        report.warnings.extend(f"{suite.suite}: {w.name}" for w in suite.warnings)
    summary = "ALL PASS" if all_passed else "FAILURES PRESENT"
    print(summary + (f" ({sum(len(s.warnings) for s in results)} warnings)" if any(s.warnings for s in results) else ""))
    report.metrics["summary"] = summary
    return EXIT_OK if all_passed else EXIT_CRITERION_FAILED


class UsageError(Exception):
    """A command line that argparse refuses; raised so that ``main`` still writes the report."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


# argparse takes a token that starts with "-" and is not a plain number for an option, so a comma list whose
# first entry is negative is joined to its flag ("--x0 -1,1" becomes "--x0=-1,1") before the command line is parsed
_VECTOR_FLAGS = ("--x0", "--input")


def _join_vector_values(argv: list[str]) -> list[str]:
    joined = []
    for token in argv:
        if joined and joined[-1] in _VECTOR_FLAGS and re.match(r"-\.?\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


# the one --report flag, which main reads off the whole command line before the verb's parser runs
_REPORT = _Parser(prog="pdom", add_help=False, allow_abbrev=False)
_REPORT.add_argument("--report", help="write the RunReport JSON to this path (before or after the verb)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdom",
        description="Dominance and dissipativity certification for linear and Lur'e systems",
        parents=[_REPORT],
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="split test + certificate construction + verification")
    p.add_argument("system", help="system JSON path or built-in name")
    p.add_argument("--lambda", dest="rate", type=float, required=True, help="dominance rate")
    p.add_argument("--p", type=int, required=True, help="claimed dominant dimension")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="check a dominance or dissipativity certificate")
    p.add_argument("system", help="system JSON path or built-in name")
    p.add_argument("certificate", help="certificate JSON path")
    p.add_argument("--supply", help="supply JSON path (switches to the dissipativity test)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="construct a certificate and write it out")
    p.add_argument("system", help="system JSON path or built-in name")
    p.add_argument("--lambda", dest="rate", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--passivity", action="store_true", help="search a storage with P B = C^T")
    p.add_argument("--out", help="certificate output path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("interconnect", help="coupling test + closed-loop certificate")
    p.add_argument("loop", help="loop JSON path: sys1, sys2, supply1, supply2, lambda[, cert1, cert2]")
    p.set_defaults(func=cmd_interconnect)

    p = sub.add_parser("simulate", help="integrate and classify the asymptotic behavior")
    p.add_argument("system", help="system JSON path or built-in name")
    p.add_argument("--x0", required=True, help="initial state, comma separated")
    p.add_argument("--t", dest="t_end", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--input", help="constant input, comma separated (default: zero)")
    p.add_argument("--record-every", type=int, default=1, help="record every k-th step")
    p.add_argument("--out", help="trajectory CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="run a built-in reproduction suite")
    p.add_argument("which", choices=["1", "2", "3", "all"])
    p.add_argument("--seed", type=int, default=42, help="seed of the cone-boundary samples and limit-cycle starts")
    p.set_defaults(func=cmd_reproduce)
    return parser


# the classes main reports, each an input error unless an earlier row of _FAILURES matches it. OSError: a path that
# cannot be read or written; RecursionError: pdom recurses only over its inputs' nesting, so one nests too deep
_REPORTED = (PdomError, ValueError, KeyError, OSError, RecursionError)

# exception classes in the order they are matched, with exit code and stderr label
_FAILURES = (
    ((NumericalError, LmiInfeasibleError), EXIT_NUMERICAL_FAILURE, "numerical failure"),
    (CouplingError, EXIT_CRITERION_FAILED, "interconnection failed"),
    (_REPORTED, EXIT_INPUT_ERROR, "input error"),
)


def main(argv=None) -> int:
    # parsed into a namespace of our own, so that a usage error still leaves --report and the verb (set
    # before its subparser runs) readable; --report comes first, as a subparser that errs keeps no value
    args = argparse.Namespace(report=None, verb=None)
    argv = sys.argv[1:] if argv is None else argv
    report = RunReport(command=None)
    start = time.perf_counter()
    try:
        _, rest = _REPORT.parse_known_args(_join_vector_values(argv), namespace=args)
        build_parser().parse_args(rest, namespace=args)
        code = args.func(args, report)
    except UsageError as exc:
        code = EXIT_INPUT_ERROR
        report.error = {"class": type(exc).__name__, "message": str(exc), "exit_code": code}
    except _REPORTED as exc:
        for kinds, code, label in _FAILURES:
            if isinstance(exc, kinds):
                break
        if isinstance(exc, LmiInfeasibleError) and exc.report.proves_infeasible:
            # a search that proves no storage exists is a failed criterion, not a numerical failure
            code, label = EXIT_CRITERION_FAILED, "no storage"
        print(f"{label}: {exc}", file=sys.stderr)
        report.error = {"class": type(exc).__name__, "message": str(exc), "exit_code": code}
        if isinstance(exc, LmiInfeasibleError):
            report.error["lmi"] = exc.report.to_dict()
    report.command = args.verb
    report.wall_time_s = time.perf_counter() - start

    if args.verb != "reproduce" and report.error is None:
        for verdict in report.verdicts:
            label = verdict.get("check", "check")
            if "kind" in verdict:
                status = verdict["kind"]
            elif "status" in verdict:
                status = verdict["status"]
            else:
                status = "pass" if verdict.get("passed") else "fail"
            print(f"{label}: {status}")
        for warning in report.warnings:
            print(f"warning: {warning}")
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return code

if __name__ == "__main__":
    sys.exit(main())
