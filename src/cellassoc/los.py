"""Exponentially smoothed estimate of the LoS fraction of a mmW link.

Each UE keeps one estimator per mmW BS. After every association frame of
``window_slots`` slots, the observed LoS fraction feeds an exponential
moving average; the estimate stands in for the true LoS probability inside
the UE utility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .scenario import _check_fields, _is_integer, _require

# Starting value when nothing has been observed yet (maximum-entropy prior).
DEFAULT_INITIAL_ESTIMATE = 0.5


@dataclass(frozen=True)
class LosEstimate:
    """Current estimate plus the smoothing constant and frame length."""

    value: float = DEFAULT_INITIAL_ESTIMATE
    smoothing: float = 0.1
    window_slots: int = 100

    def __post_init__(self) -> None:
        _check_fields(self)
        _require(self, ("value", "smoothing"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        _require(self, ("window_slots",), lambda v: v >= 1, ">= 1")


def update_f(prev: LosEstimate, k_t: int, x: int) -> LosEstimate:
    """Fold one frame's LoS count into the moving average.

    ``k_t`` is the number of LoS slots observed this frame and ``x`` the
    association indicator (1 when the UE was served by this BS). The update
    multiplies the observation by ``x``, which decays the estimate of BSs the
    UE is not connected to. Both must be integers; a bool is refused.
    """
    if not (_is_integer(k_t) and 0 <= k_t <= prev.window_slots):
        raise ValueError(f"k_t must be an integer in [0, {prev.window_slots}], got {k_t!r}")
    if not (_is_integer(x) and x in (0, 1)):
        raise ValueError(f"x must be the integer 0 or 1, got {x!r}")
    new_value = (
        prev.smoothing * (k_t * x) / prev.window_slots
        + (1.0 - prev.smoothing) * prev.value
    )
    return replace(prev, value=new_value)
