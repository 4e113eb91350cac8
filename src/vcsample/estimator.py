"""Approximate range counting from a drawn sample.

Given the coordinates of a sample drawn with repetition from a ground set
of known size, estimate how many ground-set points fall in a query region
and attach the error bound the sample's guarantee entitles. The guarantee
is taken on trust here (verify it separately); the bounds hold whenever it
actually holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ParameterError
from .ranges import GroundSet, RangeFamily, _check_params
from .sampling import Sample, _check_unit, _is_int
from .verify import _resolve_family

__all__ = ["CountEstimate", "estimate_count", "GUARANTEES", "GUARANTEE_PARAMS"]

# guarantee -> (required, optional) parameters, in the order the CLI's
# name[:eps[:p][:delta]] strings give them
GUARANTEE_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "approx": (("eps",), ("delta",)),
    "relative": (("eps", "p"), ("delta",)),
    "sensitive": (("eps",), ("delta",)),
    "none": ((), ()),
}
GUARANTEES = tuple(GUARANTEE_PARAMS)


@dataclass(frozen=True)
class CountEstimate:
    """An estimated count with its guarantee-specific error bounds.

    additive_error_bound is in points (same unit as estimate). For a
    relative guarantee the two bounds cover the two cases of the unknown
    true weight: at least p gives the relative bound, below p the additive
    cap. relative_error_bound is present exactly for the relative and
    sensitive guarantees (for sensitive it is the additive bound divided by
    the estimate, inf at estimate 0).
    """

    estimate: float
    additive_error_bound: float
    relative_error_bound: float | None
    guarantee: str
    confidence: float | None

    def __post_init__(self):
        if self.guarantee not in GUARANTEES:
            raise ParameterError(f"unknown guarantee {self.guarantee!r}")
        if self.additive_error_bound < 0.0:
            raise ParameterError("additive bound must be non-negative")
        needs_rel = self.guarantee in ("relative", "sensitive")
        if needs_rel != (self.relative_error_bound is not None):
            raise ParameterError(
                "relative bound present iff guarantee is relative or sensitive"
            )

    def to_json_dict(self) -> dict[str, Any]:
        rel = self.relative_error_bound
        doc = {
            "estimate": self.estimate,
            "additive_error_bound": self.additive_error_bound,
            # inf (empty estimate under a sensitive guarantee) as a string,
            # so the payload stays strict JSON
            "relative_error_bound": "inf" if rel == math.inf else rel,
            "guarantee": self.guarantee,
            "confidence": self.confidence,
        }
        if self.guarantee == "sensitive":
            # the true weight is unobservable at query time
            doc["bound_note"] = (
                "heuristic: observed fraction plugged in for the true weight"
            )
        return doc


def _sample_coords(N, X: GroundSet | None, X_size: int) -> np.ndarray:
    if isinstance(N, Sample):
        if X is None:
            raise ParameterError(
                "pass X so the sample's drawn coordinates can be looked up"
            )
        if not len(X) == X_size == N.ground_size:
            raise ParameterError("sample does not match the given ground set and X_size")
        return X.coords[N.indices]
    coords = np.asarray(N, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords.reshape(-1, 1)
    if coords.ndim != 2 or coords.shape[0] == 0:
        raise ParameterError("sample coordinates must form a non-empty (m, dim) array")
    return coords


def estimate_count(
    Q: tuple[float, ...],
    N,
    X_size: int,
    guarantee: str,
    fam: RangeFamily | str,
    *,
    X: GroundSet | None = None,
    eps: float | None = None,
    p: float | None = None,
    delta: float | None = None,
) -> CountEstimate:
    """Estimate |Q intersect X| as sample_weight(Q) * X_size.

    N is either a Sample of X (then pass X, and X_size is len(X)) or directly
    the (m, dim) coordinates of the drawn multiset, as stored in sample files.
    Bounds by guarantee, each in points:
      approx:    additive eps * X_size.
      relative:  relative eps when the true weight is >= p, otherwise
                 additive (1+eps) p * X_size.
      sensitive: additive (eps/2)(sqrt(s) + 2 eps) * X_size; the observable
                 s stands in for the true weight (sqrt(r) <= sqrt(s) + eps
                 under the guarantee, so the substitution is conservative).
      none:      additive X_size (no guarantee claimed).
    confidence echoes 1 - delta when delta is given. A parameter the
    guarantee does not take (GUARANTEE_PARAMS) is a ParameterError.
    """
    fam = _resolve_family(fam)
    if guarantee not in GUARANTEES:
        raise ParameterError(
            f"unknown guarantee {guarantee!r}; choose from {GUARANTEES}"
        )
    if not (_is_int(X_size) and X_size >= 1):
        raise ParameterError(f"X_size must be a positive integer, got {X_size!r}")
    coords = _sample_coords(N, X, X_size)
    if coords.shape[1] != fam.ambient_dim:
        raise ParameterError(
            f"{fam.name} queries need points in R^{fam.ambient_dim}"
        )
    Q = _check_params(fam, Q)
    m = coords.shape[0]
    s = int(fam.contains_many(Q, coords).sum()) / m
    estimate = s * X_size

    required, optional = GUARANTEE_PARAMS[guarantee]
    given = {"eps": eps, "p": p, "delta": delta}
    for name, value in given.items():
        if value is not None and name not in required + optional:
            raise ParameterError(f"guarantee {guarantee!r} takes no {name}")
    for name in required:
        if given[name] is None:
            raise ParameterError(f"guarantee {guarantee!r} needs {name}")
        given[name] = _check_unit(name, given[name])
    eps, p = given["eps"], given["p"]
    relative_bound: float | None = None
    if guarantee == "approx":
        additive = eps * X_size
    elif guarantee == "relative":
        additive = (1.0 + eps) * p * X_size
        relative_bound = eps
    elif guarantee == "sensitive":
        additive = (eps / 2.0) * (math.sqrt(s) + 2.0 * eps) * X_size
        relative_bound = additive / estimate if estimate > 0.0 else math.inf
    else:
        additive = float(X_size)

    confidence = None if delta is None else 1.0 - _check_unit("delta", delta)
    return CountEstimate(
        estimate=estimate,
        additive_error_bound=additive,
        relative_error_bound=relative_bound,
        guarantee=guarantee,
        confidence=confidence,
    )
