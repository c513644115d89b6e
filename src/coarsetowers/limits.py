"""Instance-size caps shared by constructions and exhaustive scans."""

from __future__ import annotations

from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """An operation would exceed the configured instance-size caps."""


@dataclass(frozen=True)
class Caps:
    """Size limits.

    max_points bounds the points of every space, relation graph and tower
    node set, and max_exact_net_points bounds the branch-and-bound
    minimum-net search used for plain (non-ultra) metrics, whose worst
    case is exponential.
    """

    max_points: int = 20_000
    max_exact_net_points: int = 64

    def check_points(self, count: int, what: str = "point set") -> None:
        if count > self.max_points:
            raise CapExceeded(f"{what} has {count} points, cap is {self.max_points}")


DEFAULT_CAPS = Caps()
