"""Instance-size caps shared by constructions and exhaustive scans."""

from __future__ import annotations

from dataclasses import dataclass


class CapExceeded(RuntimeError):
    """An operation would exceed the configured instance-size caps."""


@dataclass(frozen=True)
class Caps:
    """Size limits.

    max_points bounds the points of every space and relation graph and
    the base of every tower; a tower's node count is bounded at twice that,
    since a tower whose inner nodes all branch has fewer than twice its
    base in nodes.  max_exact_net_points bounds the branch-and-bound
    minimum-net search used for plain (non-ultra) metrics, whose worst
    case is exponential.
    """

    max_points: int = 20_000
    max_exact_net_points: int = 64

    def check_points(self, count: int, what: str = "point set") -> None:
        if count > self.max_points:
            raise CapExceeded(f"{what} has {count} points, cap is {self.max_points}")

    def check_tower(self, level: int, nodes: int) -> None:
        """Bound a tower by the size of one of its levels (the base, or any
        level for a pre-check: no level is wider than the base) and by its
        node count."""
        if level > self.max_points:
            raise CapExceeded(f"tower has a level of {level} nodes, cap is {self.max_points}")
        if nodes > 2 * self.max_points:
            raise CapExceeded(f"tower has {nodes} nodes, cap is {2 * self.max_points}")


DEFAULT_CAPS = Caps()
