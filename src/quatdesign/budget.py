"""Resource budgets for the desk-scale computations."""

from __future__ import annotations

import os
from collections import namedtuple
from types import MappingProxyType


class ResourceBudgetError(RuntimeError):
    """A requested computation exceeds the configured budget."""


_NO_CAPS = MappingProxyType({})  # the read-only default: no group is capped


class Budget(namedtuple("Budget", (
    "name",
    "max_theta_ell",    # largest harmonic degree probed per group (theta machinery)
    "max_shell_m",      # largest shell index enumerated per group
    "max_enum_points",  # cap on points in one enumeration ball
    "max_table_cells",  # cap on |shells| * (ell+1)^2 for full-basis theta tables
), defaults=(_NO_CAPS, _NO_CAPS, 2_000_000, 6_000_000))):
    __slots__ = ()

    def check_theta(self, label: str, ell: int) -> None:
        cap = self.max_theta_ell.get(label)
        if cap is not None and ell > cap:
            raise ResourceBudgetError(
                f"theta degree {ell} for {label} exceeds budget '{self.name}' (cap {cap})"
            )

    def check_shell(self, label: str, m: int) -> None:
        cap = self.max_shell_m.get(label)
        if cap is not None and m > cap:
            raise ResourceBudgetError(
                f"shell index {m} for {label} exceeds budget '{self.name}' (cap {cap})"
            )

    def check_enum_points(self, label: str, predicted: int) -> None:
        if predicted > self.max_enum_points:
            raise ResourceBudgetError(
                f"enumeration of ~{predicted} points for {label} exceeds "
                f"budget '{self.name}' (cap {self.max_enum_points})"
            )

    def check_table_cells(self, cells: int) -> None:
        if cells > self.max_table_cells:
            raise ResourceBudgetError(
                f"full theta table with {cells} cells exceeds "
                f"budget '{self.name}' (cap {self.max_table_cells})"
            )


DESK = Budget(
    name="desk",
    max_theta_ell={"2T": 24, "2O": 24, "2I": 24},
    max_shell_m={"2T": 60, "2O": 16, "2I": 10},
)

SMALL = Budget(
    name="small",
    max_theta_ell={"2T": 12, "2O": 12, "2I": 12},
    max_shell_m={"2T": 12, "2O": 6, "2I": 4},
    max_enum_points=100_000,
    max_table_cells=500_000,
)

UNBOUNDED = Budget(
    name="unbounded",
    max_theta_ell={},
    max_shell_m={},
    max_enum_points=10**12,
    max_table_cells=10**12,
)

_PRESETS = {"desk": DESK, "small": SMALL, "unbounded": UNBOUNDED}


def get_budget(name: str | None = None) -> Budget:
    """Resolve a budget by name, falling back to $QUATDESIGN_BUDGET, then desk."""
    if name is None:
        name = os.environ.get("QUATDESIGN_BUDGET", "desk")
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown budget {name!r}; expected one of {sorted(_PRESETS)}"
        ) from None
