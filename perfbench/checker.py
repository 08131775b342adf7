"""Solution checker written apart from `mapfkit.model`.

It reads the instance text itself, runs its own BFS on the grid, and checks
a solution given as per-agent lists of (x, y) cells.  It shares no code with
the solver, so a fault in the solver's own `validate` cannot hide here.
"""

from __future__ import annotations

from collections import deque

Cell = tuple[int, int]
STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class Instance:
    """Free cells and agent starts/goals, parsed from the plain grid text."""

    def __init__(self, text: str):
        lines = text.splitlines()
        self.starts: dict[int, Cell] = {}
        self.goals: dict[int, Cell] = {}
        i = 0
        while i < len(lines) and lines[i].strip():
            word, aid, *nums = lines[i].split()
            if word != "agent" or len(nums) not in (2, 4):
                raise ValueError(f"line {i + 1}: not an agent line: {lines[i]!r}")
            self.starts[int(aid)] = (int(nums[0]), int(nums[1]))
            if len(nums) == 4:
                self.goals[int(aid)] = (int(nums[2]), int(nums[3]))
            i += 1
        rows = [line for line in lines[i:] if line.strip()]
        self.free = {(x, y) for y, row in enumerate(rows)
                     for x, ch in enumerate(row) if ch == "."}
        self._bounds: dict[int, int] | None = None

    def lower_bounds(self) -> dict[int, int]:
        """BFS distance from start to goal per agent with a goal (cached:
        the instance does not change between the rounds of a run)."""
        if self._bounds is None:
            self._bounds = {a: self.bfs_distance(self.starts[a], g)
                            for a, g in self.goals.items()}
        return self._bounds

    def bfs_distance(self, src: Cell, dst: Cell) -> int:
        """Shortest 4-neighbour walk from src to dst over free cells."""
        dist = {src: 0}
        queue = deque([src])
        while queue:
            cell = queue.popleft()
            if cell == dst:
                return dist[cell]
            for dx, dy in STEPS:
                nxt = (cell[0] + dx, cell[1] + dy)
                if nxt in self.free and nxt not in dist:
                    dist[nxt] = dist[cell] + 1
                    queue.append(nxt)
        raise ValueError(f"goal {dst} unreachable from {src}")


def check(inst: Instance, paths: dict[int, list[Cell]],
          makespan: int, moves: int) -> list[str]:
    """Every reason the solution is wrong; [] means it is valid."""
    errors: list[str] = []
    if set(paths) != set(inst.starts):
        errors.append(f"agents {sorted(set(paths) ^ set(inst.starts))} "
                      f"missing or unknown")
        return errors
    lengths = {len(p) for p in paths.values()}
    if len(lengths) != 1 or min(lengths) < 1:
        errors.append(f"paths have lengths {sorted(lengths)}")
        return errors
    steps = lengths.pop() - 1
    walked = 0
    for a, path in paths.items():
        if path[0] != inst.starts[a]:
            errors.append(f"agent {a} starts at {path[0]}, not {inst.starts[a]}")
        goal = inst.goals.get(a)
        if goal is not None and path[-1] != goal:
            errors.append(f"agent {a} ends at {path[-1]}, not {goal}")
        for t, cell in enumerate(path):
            if cell not in inst.free:
                errors.append(f"agent {a} on blocked or off-grid cell {cell} at t={t}")
        for t in range(steps):
            (x0, y0), (x1, y1) = path[t], path[t + 1]
            jump = abs(x1 - x0) + abs(y1 - y0)
            if jump > 1:
                errors.append(f"agent {a} jumps {path[t]}->{path[t + 1]} at t={t + 1}")
            walked += jump != 0
    for t in range(steps + 1):
        seen: dict[Cell, int] = {}
        for a, path in paths.items():
            if path[t] in seen:
                errors.append(f"agents {seen[path[t]]} and {a} both on {path[t]} at t={t}")
            seen[path[t]] = a
    for t in range(steps):
        edges: dict[tuple[Cell, Cell], int] = {}
        for a, path in paths.items():
            if path[t] != path[t + 1]:
                edges[(path[t], path[t + 1])] = a
        for (u, v), a in edges.items():
            b = edges.get((v, u))
            if b is not None and a < b:
                errors.append(f"agents {a} and {b} swap {u}<->{v} at t={t + 1}")
    if makespan != steps:
        errors.append(f"reported makespan {makespan}, paths give {steps}")
    if moves != walked:
        errors.append(f"reported moves {moves}, paths give {walked}")
    if errors:
        return errors
    lower = list(inst.lower_bounds().values())
    if makespan < max(lower, default=0):
        errors.append(f"makespan {makespan} below BFS bound {max(lower)}")
    if moves < sum(lower):
        errors.append(f"moves {moves} below BFS bound {sum(lower)}")
    return errors
