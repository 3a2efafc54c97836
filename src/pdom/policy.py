"""Central numeric policy: every tolerance used by the toolkit lives here."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass

ENV_POLICY_VAR = "PDOM_NUMERIC_POLICY"


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerance set shared by the matrix kernel and all verifiers.

    One tunable source of truth: tests and the CLI construct a single policy
    and thread it through every check.
    """

    sym_tol: float = 1e-9        # relative asymmetry allowed at construction
    ztol_rel: float = 1e-8       # zero-eigenvalue band, relative to ||S||_2
    split_tol: float = 1e-7      # hyperbolicity margin around the shifted axis
    recon_tol: float = 1e-9      # decomposition reconstruction residual
    lmi_tol: float = 1e-6        # definiteness slack for LMI residuals
    probe_margin: float = 1e-8   # quantified "interior" margin for cone probes
    eq_tol: float = 1e-10        # linear equality residual allowed in solutions
    fp_tol_scale: float = 1e-6   # fixed-point tail displacement, times (1+|x|)
    cycle_tol: float = 1e-2      # relative period jitter allowed for cycles

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value > 0):
                raise ValueError(f"policy field {field.name} must be a finite positive number, got {value!r}")

    @staticmethod
    def from_json(path: str) -> "NumericPolicy":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a policy file must hold a JSON object")
        known = {f.name for f in dataclasses.fields(NumericPolicy)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown policy fields: {sorted(unknown)}")
        return NumericPolicy(**data)

    @staticmethod
    def from_env() -> "NumericPolicy":
        """Default policy, optionally overridden by a JSON file named in PDOM_NUMERIC_POLICY."""
        path = os.environ.get(ENV_POLICY_VAR)
        if path:
            return NumericPolicy.from_json(path)
        return NumericPolicy()


DEFAULT_POLICY = NumericPolicy()
