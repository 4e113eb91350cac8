"""Sample-size formulas and sampling with repetition.

The core quantity is a normalized deviation between a range's true
fractional weight r and its sample estimate s,

    dist_nu(r, s, nu) = |r - s| / (r + s + nu),

and the base sample size ceil((C/(alpha^2 nu)) (d ln(1/nu) + ln(1/delta)))
that makes every range's deviation stay below alpha with probability at
least 1 - delta. Each guarantee is a substitution into the base formula:
an eps-net uses alpha=1/4, nu=eps; an eps-approximation alpha=eps/4,
nu=1/4; a relative (p,eps)-approximation alpha=eps/9, nu=p/2. The
sensitive size carries its own formula with a union bound over
M = ceil(800/eps^2) weight levels.

The constant C stands in for an unspecified absolute constant; it defaults
to 1 and the harness can calibrate it empirically. Natural logarithms
throughout (any other base would be absorbed by C).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ParameterError
from .ranges import GroundSet, InducedRange

__all__ = [
    "SamplingParams",
    "Sample",
    "dist_nu",
    "meets_deviation_bound",
    "sample_size_base",
    "size_eps_net",
    "size_eps_approx",
    "size_sensitive",
    "sensitive_level_count",
    "size_relative",
    "draw_sample",
    "sample_weight",
    "write_sample_json",
    "read_sample_json",
]

SAMPLE_SCHEMA_VERSION = 1


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_vc_dim(d: Any) -> int:
    if not (_is_int(d) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    return int(d)


def _check_constant(C: Any) -> float:
    C = float(C)
    if not (math.isfinite(C) and C > 0.0):
        raise ParameterError(f"C must be positive, got {C}")
    return C


def _check_schema_version(doc: dict[str, Any], version: int, what: str) -> None:
    """A document may omit schema_version; if present it must be `version`."""
    found = doc.get("schema_version", version)
    if not (_is_int(found) and found == version):
        raise ParameterError(
            f"{what} schema_version must be {version}, got {found!r}"
        )


def _check_unit(name: str, value: float, allow_one: bool = False) -> float:
    value = float(value)
    hi_ok = value <= 1.0 if allow_one else value < 1.0
    if not (math.isfinite(value) and 0.0 < value and hi_ok):
        bound = "(0, 1]" if allow_one else "(0, 1)"
        raise ParameterError(f"{name} must lie in {bound}, got {value}")
    return value


@dataclass(frozen=True)
class SamplingParams:
    """Parameters of the base deviation bound.

    alpha is the deviation threshold, nu the normalization offset, delta
    the failure probability, d the VC dimension, C the explicit constant.
    """

    alpha: float
    nu: float
    delta: float
    d: int
    C: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_unit("alpha", self.alpha))
        object.__setattr__(self, "nu", _check_unit("nu", self.nu, allow_one=True))
        object.__setattr__(self, "delta", _check_unit("delta", self.delta))
        object.__setattr__(self, "d", _check_vc_dim(self.d))
        object.__setattr__(self, "C", _check_constant(self.C))


def dist_nu(r: float, s: float, nu: float) -> float:
    """Normalized deviation |r-s| / (r+s+nu), in [0, 1)."""
    if not (math.isfinite(nu) and nu > 0.0):
        raise ParameterError(f"nu must be positive, got {nu}")
    r, s = float(r), float(s)
    if r < 0.0 or s < 0.0:
        raise ParameterError("weights must be non-negative")
    return abs(r - s) / (r + s + nu)


def meets_deviation_bound(r: float, s: float, nu: float, alpha: float) -> bool:
    """The per-range event of the deviation bound: dist_nu(r,s,nu) < alpha.

    Single code path: anything testing this event must call through here
    (or dist_nu directly) rather than re-deriving the inequality.
    """
    return dist_nu(r, s, nu) < alpha


def sample_size_base(params: SamplingParams) -> int:
    """ceil((C/(alpha^2 nu)) (d ln(1/nu) + ln(1/delta))), at least 1."""
    lead = params.C / (params.alpha * params.alpha * params.nu)
    body = params.d * math.log(1.0 / params.nu) + math.log(1.0 / params.delta)
    return max(1, math.ceil(lead * body))


def size_eps_net(eps: float, d: int, delta: float, C: float = 1.0) -> int:
    """Size for an eps-net: every range of weight >= eps gets sampled.

    Substitution alpha=1/4, nu=eps; grows as (d/eps) ln(1/eps).
    """
    eps = _check_unit("eps", eps)
    return sample_size_base(SamplingParams(alpha=0.25, nu=eps, delta=delta, d=d, C=C))


def size_eps_approx(eps: float, d: int, delta: float, C: float = 1.0) -> int:
    """Size for an eps-approximation: |r - s| <= eps on every range.

    Substitution alpha=eps/4, nu=1/4; grows as (1/eps^2)(d + ln(1/delta)).
    """
    eps = _check_unit("eps", eps)
    return sample_size_base(
        SamplingParams(alpha=eps / 4.0, nu=0.25, delta=delta, d=d, C=C)
    )


def sensitive_level_count(eps: float) -> int:
    """Number of weight levels the sensitive bound unions over: ceil(800/eps^2)."""
    eps = _check_unit("eps", eps)
    return math.ceil(800.0 / (eps * eps))


def size_sensitive(eps: float, d: int, delta: float, C: float = 1.0) -> int:
    """Size for a sensitive eps-approximation: |r-s| <= (eps/2)(sqrt(r)+eps).

    ceil((C/eps^2) (d ln(1/eps) + ln(M/delta))) with M = ceil(800/eps^2),
    the union bound over weight levels baked into the failure term.
    """
    eps = _check_unit("eps", eps)
    delta = _check_unit("delta", delta)
    d, C = _check_vc_dim(d), _check_constant(C)
    M = sensitive_level_count(eps)
    body = d * math.log(1.0 / eps) + math.log(M / delta)
    return max(1, math.ceil(C / (eps * eps) * body))


def size_relative(p: float, eps: float, d: int, delta: float, C: float = 1.0) -> int:
    """Size for a relative (p,eps)-approximation.

    Substitution alpha=eps/9, nu=p/2; the dependence on 1/p is linear,
    against the roughly 1/p^2 a plain p-approximation would need.
    """
    p = _check_unit("p", p)
    eps = _check_unit("eps", eps)
    return sample_size_base(
        SamplingParams(alpha=eps / 9.0, nu=p / 2.0, delta=delta, d=d, C=C)
    )


@dataclass(frozen=True)
class Sample:
    """A multiset of ground-set indices drawn with repetition.

    params carries whatever sized the sample (a SamplingParams, a dict of
    guarantee parameters, or None); it is recorded, not interpreted.
    """

    indices: np.ndarray
    m: int
    seed: int
    ground_size: int
    params: Any = None

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.shape[0] != self.m or self.m < 1:
            raise ParameterError("sample must hold exactly m >= 1 indices")
        if self.ground_size < 1:
            raise ParameterError("ground_size must be positive")
        if arr.min() < 0 or arr.max() >= self.ground_size:
            raise ParameterError("sample index out of range for the ground set")
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    def multiplicities(self) -> np.ndarray:
        """Per-ground-point draw counts, length ground_size, sums to m."""
        return np.bincount(self.indices, minlength=self.ground_size)


def draw_sample(X: GroundSet, m: int, seed: int, params: Any = None) -> Sample:
    """m independent uniform draws with replacement from X's indices.

    Deterministic given seed; no global RNG state is touched.
    """
    if m < 1:
        raise ParameterError(f"sample size must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(X), size=m, dtype=np.int64)
    return Sample(indices=idx, m=int(m), seed=int(seed), ground_size=len(X), params=params)


def sample_weight(R: InducedRange, N: Sample) -> float:
    """Multiset estimate s(R): draws landing in R divided by m."""
    if R.ground_size != N.ground_size:
        raise ParameterError(
            f"range is over a ground set of size {R.ground_size}, "
            f"sample over one of size {N.ground_size}"
        )
    if not R.member_indices:
        return 0.0
    members = np.fromiter(R.member_indices, dtype=np.int64, count=len(R.member_indices))
    hits = int(np.isin(N.indices, members).sum())
    return hits / N.m


def write_sample_json(path: str, N: Sample, X: GroundSet | None = None) -> None:
    """Persist a sample; with X given, the drawn coordinates ride along."""
    doc: dict[str, Any] = {
        "schema_version": SAMPLE_SCHEMA_VERSION,
        "seed": N.seed,
        "m": N.m,
        "n_points": N.ground_size,
        "indices": [int(i) for i in N.indices],
        "params": N.params if isinstance(N.params, (dict, type(None))) else repr(N.params),
    }
    if X is not None:
        if len(X) != N.ground_size:
            raise ParameterError("sample does not match the given ground set")
        doc["points"] = [list(map(float, X.coords[i])) for i in N.indices]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sample_json(path: str) -> Sample:
    return _load_sample_json(path)[0]


def _load_sample_json(path: str) -> tuple[Sample, np.ndarray | None]:
    """The sample stored at path, and its embedded (m, dim) draw coordinates
    when the file carries them. Any malformed field is a ParameterError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: sample file must hold a JSON object")
    _check_schema_version(doc, SAMPLE_SCHEMA_VERSION, f"{path}: sample")
    for key in ("indices", "m", "seed", "n_points"):
        if key not in doc:
            raise ParameterError(f"{path}: sample file missing field {key!r}")
        values = doc[key] if key == "indices" else [doc[key]]
        if not (isinstance(values, list) and all(_is_int(v) for v in values)):
            raise ParameterError(f"{path}: sample field {key!r} must be integer-valued")
    try:
        N = Sample(
            indices=np.asarray(doc["indices"], dtype=np.int64),
            m=doc["m"],
            seed=doc["seed"],
            ground_size=doc["n_points"],
            params=doc.get("params"),
        )
        coords = GroundSet(doc["points"]).coords if "points" in doc else None
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParameterError(f"{path}: {exc}") from None
    if coords is not None and coords.shape[0] != N.m:
        raise ParameterError(f"{path}: {coords.shape[0]} points for m = {N.m} draws")
    return N, coords
