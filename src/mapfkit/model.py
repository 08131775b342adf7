"""Core MAPF data model: problems, solutions, validation, metrics, parsers."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

Coord = tuple[int, int]

# Direction code -> (dx, dy).  Codes are used in area adjacency atoms.
DIRECTIONS: dict[int, Coord] = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}
DELTA_TO_CODE: dict[Coord, int] = {v: k for k, v in DIRECTIONS.items()}


class ModelError(ValueError):
    """Structurally invalid problem data (duplicate starts, bad references, ...)."""


class ParseError(ValueError):
    """Malformed instance text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SolveTimeout(RuntimeError):
    """The solve's global deadline passed inside a search."""


@dataclass(frozen=True)
class Problem:
    """A grid MAPF problem: graph, agents, starts and (partial) goals.

    Immutable after construction; safe to share across solver workers.
    """

    coords: dict[int, Coord]                 # node-id -> (x, y)
    edges: frozenset[tuple[int, int]]        # symmetric ordered pairs
    agents: frozenset[int]
    starts: dict[int, int]                   # agent -> node
    goals: dict[int, int]                    # agent -> node (partial)
    node_at: dict[Coord, int] = field(default_factory=dict, compare=False)

    @staticmethod
    def build(coords: dict[int, Coord],
              agents: set[int],
              starts: dict[int, int],
              goals: dict[int, int],
              edges: set[tuple[int, int]] | None = None) -> "Problem":
        node_at: dict[Coord, int] = {}
        for n, c in coords.items():
            if c in node_at:
                raise ModelError(f"coordinate {c} shared by nodes {node_at[c]} and {n}")
            node_at[c] = n
        if edges is None:
            edges = set()
            for n, (x, y) in coords.items():
                for dx, dy in DIRECTIONS.values():
                    m = node_at.get((x + dx, y + dy))
                    if m is not None:
                        edges.add((n, m))
        else:
            for n1, n2 in edges:
                if n1 not in coords or n2 not in coords:
                    raise ModelError(f"edge ({n1},{n2}) references undeclared node")
                (x1, y1), (x2, y2) = coords[n1], coords[n2]
                if abs(x1 - x2) + abs(y1 - y2) != 1:
                    raise ModelError(f"edge ({n1},{n2}) is not a grid adjacency")
            edges = set(edges) | {(b, a) for a, b in edges}
        for a in starts:
            if a not in agents:
                raise ModelError(f"start for unknown agent {a}")
        for a in agents:
            if a not in starts:
                raise ModelError(f"agent {a} has no start")
            if starts[a] not in coords:
                raise ModelError(f"agent {a} starts at undeclared node {starts[a]}")
        seen: dict[int, int] = {}
        for a, n in starts.items():
            if n in seen:
                raise ModelError(f"agents {seen[n]} and {a} share start node {n}")
            seen[n] = a
        seen = {}
        for a, n in goals.items():
            if a not in agents:
                raise ModelError(f"goal for unknown agent {a}")
            if n not in coords:
                raise ModelError(f"agent {a} has goal at undeclared node {n}")
            if n in seen:
                raise ModelError(f"agents {seen[n]} and {a} share goal node {n}")
            seen[n] = a
        return Problem(dict(coords), frozenset(edges), frozenset(agents),
                       dict(starts), dict(goals), node_at)

    def neighbors(self, n: int) -> list[int]:
        x, y = self.coords[n]
        out = []
        for dx, dy in DIRECTIONS.values():
            m = self.node_at.get((x + dx, y + dy))
            if m is not None and (n, m) in self.edges:
                out.append(m)
        return out


@dataclass(frozen=True)
class GlobalSolution:
    """Per-agent node sequences over global time steps, waits explicit."""

    paths: dict[int, list[int]]  # agent -> node sequence, length makespan+1
    makespan: int
    moves: int

    @staticmethod
    def from_paths(paths: dict[int, list[int]]) -> "GlobalSolution":
        span, moves = metrics_from_paths(paths)
        return GlobalSolution({a: list(p) for a, p in paths.items()}, span, moves)


@dataclass
class Violation:
    time: int
    kind: str     # bad-edge | vertex-conflict | swap-conflict | wrong-start | goal-missed | length-mismatch
    detail: tuple

    def __str__(self):
        return f"t={self.time} {self.kind} {self.detail}"


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]


def metrics_from_paths(paths: dict[int, list[int]]) -> tuple[int, int]:
    lengths = {len(p) for p in paths.values()}
    if len(lengths) > 1:
        raise ModelError(f"paths have unequal lengths {sorted(lengths)}")
    if not paths:
        return 0, 0
    span = lengths.pop() - 1
    if span < 0:
        raise ModelError("empty path")
    moves = sum(1 for p in paths.values() for t in range(span) if p[t] != p[t + 1])
    return span, moves


def metrics(s: GlobalSolution) -> tuple[int, int]:
    return metrics_from_paths(s.paths)


def validate(p: Problem, s: GlobalSolution) -> ValidationReport:
    """Check a solution against the movement restrictions and goal conditions."""
    v: list[Violation] = []
    lengths = {len(path) for path in s.paths.values()}
    if len(lengths) > 1:
        v.append(Violation(0, "length-mismatch", (sorted(lengths),)))
        return ValidationReport(False, v)
    span = (lengths.pop() - 1) if s.paths else 0
    for a in p.agents:
        path = s.paths.get(a)
        if path is None or not path:
            v.append(Violation(0, "length-mismatch", (a,)))
            continue
        if path[0] != p.starts[a]:
            v.append(Violation(0, "wrong-start", (a, path[0], p.starts[a])))
        g = p.goals.get(a)
        if g is not None and path[-1] != g:
            v.append(Violation(span, "goal-missed", (a, path[-1], g)))
        for t in range(len(path) - 1):
            n1, n2 = path[t], path[t + 1]
            if n1 != n2 and (n1, n2) not in p.edges:
                v.append(Violation(t + 1, "bad-edge", (a, n1, n2)))
    for t in range(span + 1):
        occ: dict[int, int] = {}
        for a, path in s.paths.items():
            if t >= len(path):
                continue
            n = path[t]
            if n in occ:
                v.append(Violation(t, "vertex-conflict", (occ[n], a, n)))
            else:
                occ[n] = a
    ags = sorted(s.paths)
    for t in range(span):
        pos = {a: s.paths[a][t] for a in ags if t + 1 < len(s.paths[a])}
        nxt = {a: s.paths[a][t + 1] for a in ags if t + 1 < len(s.paths[a])}
        for i, a in enumerate(ags):
            for b in ags[i + 1:]:
                if a in pos and b in pos and pos[a] != pos[b] \
                        and nxt[a] == pos[b] and nxt[b] == pos[a]:
                    v.append(Violation(t + 1, "swap-conflict", (a, b, pos[a], pos[b])))
    return ValidationReport(not v, v)


# --- ASPRILO fact format ---------------------------------------------------

_FACT_RE = re.compile(
    r"init\(object\((?P<type>\w+),(?P<id>\d+)\),"
    r"value\((?P<what>\w+),(?P<args>[^)]*\([^)]*\)|[^)]*)\)\)"
)


def _split_facts(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        for chunk in line.split("."):
            chunk = chunk.strip()
            if chunk:
                yield lineno, chunk


def _parse_pair(args: str, lineno: int) -> tuple[str, str]:
    m = re.fullmatch(r"\((.+),(.+)\)", args.strip())
    if not m:
        raise ParseError(f"expected a pair, got {args!r}", lineno)
    return m.group(1).strip(), m.group(2).strip()


def parse_asprilo(text: str) -> Problem:
    """Parse the warehouse fact format: node/robot/order/product/shelf inits.

    Only the fact shapes the pipeline consumes are accepted; anything else is
    rejected with a line-numbered diagnostic.
    """
    coords: dict[int, Coord] = {}
    robot_at: dict[int, Coord] = {}
    order_product: dict[int, int] = {}     # order id == robot id
    product_shelf: dict[int, int] = {}
    shelf_at: dict[int, Coord] = {}
    for lineno, chunk in _split_facts(text):
        m = _FACT_RE.fullmatch(chunk.replace(" ", ""))
        if not m:
            raise ParseError(f"unrecognized fact {chunk!r}", lineno)
        typ, oid, what, args = m.group("type"), int(m.group("id")), m.group("what"), m.group("args")
        if typ == "node" and what == "at":
            x, y = _parse_pair(args, lineno)
            coords[oid] = (int(x), int(y))
        elif typ == "robot" and what == "at":
            x, y = _parse_pair(args, lineno)
            robot_at[oid] = (int(x), int(y))
        elif typ == "order" and what == "line":
            prod, _ = _parse_pair(args, lineno)
            if oid in order_product:
                raise ParseError(f"robot {oid} has two orders", lineno)
            order_product[oid] = int(prod)
        elif typ == "product" and what == "on":
            shelf, _ = _parse_pair(args, lineno)
            product_shelf[oid] = int(shelf)
        elif typ == "shelf" and what == "at":
            x, y = _parse_pair(args, lineno)
            shelf_at[oid] = (int(x), int(y))
        else:
            raise ParseError(f"unsupported fact init(object({typ},{oid}),value({what},...))", lineno)
    node_at = {}
    for n, c in coords.items():
        node_at[c] = n
    starts: dict[int, int] = {}
    for r, c in robot_at.items():
        n = node_at.get(c)
        if n is None:
            raise ModelError(f"robot {r} at {c} is not on a node")
        starts[r] = n
    goals: dict[int, int] = {}
    for r, prod in order_product.items():
        if r not in robot_at:
            raise ModelError(f"order for unknown robot {r}")
        shelf = product_shelf.get(prod)
        if shelf is None:
            raise ModelError(f"order of robot {r} references missing product {prod}")
        c = shelf_at.get(shelf)
        if c is None:
            raise ModelError(f"product {prod} references missing shelf {shelf}")
        n = node_at.get(c)
        if n is None:
            raise ModelError(f"shelf {shelf} at {c} is not on a node")
        goals[r] = n
    return Problem.build(coords, set(robot_at), starts, goals)


# --- Plain grid format -----------------------------------------------------

def parse_grid(text: str) -> Problem:
    """Parse the plain format: `agent <id> <sx> <sy> [<gx> <gy>]` header lines,
    a blank line, then a rectangular grid of '.' (free) and '#' (obstacle)."""
    lines = text.splitlines()
    header: list[tuple[int, Coord, Coord | None]] = []
    i = 0
    while i < len(lines) and lines[i].strip():
        parts = lines[i].split()
        if parts[0] != "agent" or len(parts) not in (4, 6):
            raise ParseError(f"bad header line {lines[i]!r}", i + 1)
        try:
            nums = [int(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"non-integer field in {lines[i]!r}", i + 1)
        goal = (nums[3], nums[4]) if len(nums) == 5 else None
        header.append((nums[0], (nums[1], nums[2]), goal))
        i += 1
    while i < len(lines) and not lines[i].strip():
        i += 1
    rows = [line.rstrip("\n") for line in lines[i:] if line.strip()]
    if not rows:
        raise ParseError("no grid found")
    width = len(rows[0])
    coords: dict[int, Coord] = {}
    nid = 0
    for y, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"ragged row (expected width {width})", i + y + 1)
        for x, ch in enumerate(row):
            if ch == ".":
                nid += 1
                coords[nid] = (x, y)
            elif ch != "#":
                raise ParseError(f"unexpected character {ch!r}", i + y + 1)
    node_at = {c: n for n, c in coords.items()}
    agents, starts, goals = set(), {}, {}
    for aid, sc, gc in header:
        if aid in agents:
            raise ParseError(f"duplicate agent id {aid}")
        agents.add(aid)
        if sc not in node_at:
            raise ModelError(f"agent {aid} start {sc} is not a free cell")
        starts[aid] = node_at[sc]
        if gc is not None:
            if gc not in node_at:
                raise ModelError(f"agent {aid} goal {gc} is not a free cell")
            goals[aid] = node_at[gc]
    return Problem.build(coords, agents, starts, goals)


def render_grid(p: Problem) -> str:
    """Inverse of parse_grid for problems with nonnegative coordinates."""
    max_x = max(x for x, _ in p.coords.values())
    max_y = max(y for _, y in p.coords.values())
    free = set(p.coords.values())
    header = []
    for a in sorted(p.agents):
        sx, sy = p.coords[p.starts[a]]
        if a in p.goals:
            gx, gy = p.coords[p.goals[a]]
            header.append(f"agent {a} {sx} {sy} {gx} {gy}")
        else:
            header.append(f"agent {a} {sx} {sy}")
    rows = ["".join("." if (x, y) in free else "#" for x in range(max_x + 1))
            for y in range(max_y + 1)]
    return "\n".join(header) + "\n\n" + "\n".join(rows) + "\n"


# --- Solution serialization ------------------------------------------------

def solution_to_json(p: Problem, s: GlobalSolution) -> str:
    return json.dumps({
        "paths": {str(a): [list(p.coords[n]) for n in path] for a, path in sorted(s.paths.items())},
        "makespan": s.makespan,
        "moves": s.moves,
    }, sort_keys=True)


def solution_from_json(p: Problem, text: str) -> GlobalSolution:
    data = json.loads(text)
    paths = {}
    for a, cpath in data["paths"].items():
        nodes = []
        for x, y in cpath:
            n = p.node_at.get((x, y))
            if n is None:
                raise ModelError(f"solution visits non-node ({x},{y})")
            nodes.append(n)
        paths[int(a)] = nodes
    return GlobalSolution(paths, data["makespan"], data["moves"])


def solution_to_text(p: Problem, s: GlobalSolution) -> str:
    lines = []
    for a in sorted(s.paths):
        cells = " ".join(f"({x},{y})" for x, y in (p.coords[n] for n in s.paths[a]))
        lines.append(f"agent {a}: {cells}")
    return "\n".join(lines) + "\n"
