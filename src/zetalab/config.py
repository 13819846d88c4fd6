"""The audit's inputs, shared by the audit and the CLI.

The config is a flat record of exactly what the audit's report body reads:
the seed of its sweeps and the paper's tau, epsilon and nu of the boundary
scan.  On disk it is stored as ``key=value`` lines (blank lines and ``#``
comments ignored).  A SHA-256 digest of the canonical serialization
identifies a run, so two audits with equal digests produce identical report
bodies, and two audits with different digests differ in an input the body
reads.  The settings of the other commands (tolerances, heights, sample
counts, the output format) are CLI flags, not config keys.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DomainError
from .zero_analysis import lambda_choice

__all__ = ["AuditConfig", "load_config", "dump_config"]


@dataclass(frozen=True)
class AuditConfig:
    # the digest hashes exactly these fields, and the report body reads each:
    # seed for the sweeps, and the paper's tau, epsilon and nu of the
    # boundary scan (also the rouche command's)
    seed: int = 20201219
    rouche_tau: float = 16.0
    rouche_epsilon: float = 0.1
    rouche_nu: float = 0.01

    def __post_init__(self):
        if not _is_number(self.seed, numbers.Integral):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        # stored as the declared type, so equal configs dump and digest alike
        object.__setattr__(self, "seed", int(self.seed))
        for name in ("rouche_tau", "rouche_epsilon", "rouche_nu"):
            if not _is_number(value := getattr(self, name), numbers.Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            if not 0.0 < value < math.inf:  # also rejects NaN
                raise DomainError(f"{name} must be positive and finite")
            try:  # 16 and Fraction(16) are stored as 16.0
                object.__setattr__(self, name, float(value))
            except OverflowError:  # an integer or fraction past the float range
                raise DomainError(f"{name} must be positive and finite") from None

    def digest(self) -> str:
        return hashlib.sha256(dump_config(self).encode()).hexdigest()

    def rouche_options(self, lam: float | None = None) -> dict:
        """Every argument of zero_analysis.rouche_scan, from this config.

        lam defaults to lambda_choice(1, epsilon, nu) = (M*(1/2) + nu)/epsilon,
        the lam of EQ50C's bound.
        """
        if lam is None:
            lam = lambda_choice(1.0, self.rouche_epsilon, self.rouche_nu)
        return dict(tau=self.rouche_tau, lam=lam, epsilon=self.rouche_epsilon)


def _is_number(value, kind: type) -> bool:
    """Whether value is an instance of the numbers ABC kind, bools excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


def dump_config(config: AuditConfig) -> str:
    return "".join(f"{f.name}={getattr(config, f.name)!r}\n" for f in fields(config))


def load_config(path: str | Path) -> AuditConfig:
    """Parse a flat key=value file into an AuditConfig.

    Unknown keys, values that do not parse as the field's type and values
    out of the field's range raise DomainError naming path:line; values are
    coerced to the field's type.
    """
    text = Path(path).read_text()
    by_name = {f.name: f for f in fields(AuditConfig)}
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("'\"")
        if key not in by_name:
            raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
        coerce = int if by_name[key].type == "int" else float
        try:
            overrides[key] = coerce(value)
        except ValueError:
            raise DomainError(
                f"{path}:{lineno}: {key} = {value!r} is not a valid {coerce.__name__}"
            ) from None
        try:
            AuditConfig(**{key: overrides[key]})
        except DomainError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from None
    return AuditConfig(**overrides)
