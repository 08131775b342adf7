"""Command-line front end: solve, generate, validate, bench, render."""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from . import model
from .model import ModelError, ParseError, Problem
from .partition import divide, dump_partition, load_partition
from .runtime import RunConfig, SolveResult, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_UNSOLVABLE = 3
EXIT_TIMEOUT = 4

ENV_PREFIX = "MAPFKIT_"


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    if cast is bool:
        return raw.lower() in ("1", "true", "yes")
    return cast(raw)


def load_problem(path: str) -> Problem:
    text = Path(path).read_text()
    if "init(" in text:
        return model.parse_asprilo(text)
    return model.parse_grid(text)


def config_from_args(args) -> RunConfig:
    return RunConfig(dx=args.dx, dy=args.dy, sensitivity=args.F,
                     free_threshold=args.nf, timeout=args.timeout)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dx", type=int, default=_env("dx", int, 8))
    p.add_argument("--dy", type=int, default=_env("dy", int, 8))
    p.add_argument("--F", type=float, default=_env("f", float, 2.0),
                   help="horizon sensitivity")
    p.add_argument("--nf", type=int, default=_env("nf", int, 4),
                   help="crowding free-node threshold")
    p.add_argument("--timeout", type=float, default=_env("timeout", float, 180.0))
    p.add_argument("--transport", choices=("inproc", "tcp"),
                   default=_env("transport", str, "inproc"))


def run_solve(problem: Problem, config: RunConfig, transport: str) -> SolveResult:
    if transport == "tcp":
        from .workerproc import solve_tcp
        return solve_tcp(problem, config)
    return solve(problem, config)


def cmd_solve(args) -> int:
    try:
        problem = load_problem(args.instance)
    except (ParseError, ModelError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    config = config_from_args(args)
    result = run_solve(problem, config, args.transport)
    if result.status != "solved":
        print(f"{result.status}: {result.reason}", file=sys.stderr)
        return EXIT_TIMEOUT if result.status == "timeout" else \
            EXIT_UNSOLVABLE if result.status == "unsolvable" else EXIT_ERROR
    sol = result.solution
    out = args.out or args.instance + ".solution"
    Path(out + ".json").write_text(model.solution_to_json(problem, sol))
    Path(out + ".txt").write_text(model.solution_to_text(problem, sol))
    print(f"time={result.elapsed:.1f} span={sol.makespan} moves={sol.moves}")
    return EXIT_OK


def generate_instance(width: int, height: int, n_agents: int, density: float,
                      seed: int, solvable: bool = True) -> str:
    """Deterministic random instance text in the plain-grid format."""
    rng = random.Random(seed)
    cells = [(x, y) for y in range(height) for x in range(width)]
    n_obstacles = round(density * len(cells))
    if len(cells) - n_obstacles < 2 * n_agents:
        raise ValueError("not enough free cells for the requested agents")
    obstacles = set(rng.sample(cells, n_obstacles)) if n_obstacles else set()
    free = [c for c in cells if c not in obstacles]
    starts = rng.sample(free, n_agents)

    if solvable:
        comp: dict[tuple[int, int], int] = {}
        cid = 0
        freeset = set(free)
        for c in free:
            if c in comp:
                continue
            stack = [c]
            comp[c] = cid
            while stack:
                x, y = stack.pop()
                for nb in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
                    if nb in freeset and nb not in comp:
                        comp[nb] = cid
                        stack.append(nb)
            cid += 1

    goals: list[tuple[int, int]] = []
    taken: set[tuple[int, int]] = set()
    for i, s in enumerate(starts):
        if solvable:
            pool = [c for c in free if comp[c] == comp[s] and c != s and c not in taken]
        else:
            pool = [c for c in free if c != s and c not in taken]
        if not pool:
            raise ValueError(f"no reachable goal available for agent {i + 1}")
        g = rng.choice(pool)
        goals.append(g)
        taken.add(g)

    header = [f"agent {i + 1} {s[0]} {s[1]} {g[0]} {g[1]}"
              for i, (s, g) in enumerate(zip(starts, goals))]
    rows = ["".join("#" if (x, y) in obstacles else "." for x in range(width))
            for y in range(height)]
    return "\n".join(header) + "\n\n" + "\n".join(rows) + "\n"


def cmd_generate(args) -> int:
    try:
        text = generate_instance(args.width, args.height, args.agents,
                                 args.density, args.seed, args.solvable)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        problem = load_problem(args.instance)
        solution = model.solution_from_json(problem, Path(args.solution).read_text())
    except (ParseError, ModelError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = model.validate(problem, solution)
    if report.ok:
        print("ok")
        return EXIT_OK
    for v in report.violations:
        print(str(v))
    return EXIT_ERROR


def cmd_bench(args) -> int:
    print("| Map | n_R | Time | Span | Moves |")
    print("|-----|-----|------|------|-------|")
    for row in args.row:
        dims, _, n = row.partition(":")
        w, _, h = dims.partition("x")
        width, height, n_agents = int(w), int(h), int(n)
        text = generate_instance(width, height, n_agents, args.density, args.seed)
        problem = model.parse_grid(text)
        config = config_from_args(args)
        result = run_solve(problem, config, args.transport)
        if result.status == "solved":
            sol = result.solution
            print(f"| {width} x {height} | {n_agents} | {result.elapsed:.1f} "
                  f"| {sol.makespan} | {sol.moves} |")
        else:
            print(f"| {width} x {height} | {n_agents} | - | - | - |")
    return EXIT_OK


_PALETTE = ["#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
            "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928"]


def render_partition_svg(subs, links) -> str:
    cell = 20
    areas = [a for s in subs for a in s.areas]
    max_x = max(x for a in areas for x, _ in a.in_nodes.values())
    max_y = max(y for a in areas for _, y in a.in_nodes.values())
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{(max_x + 1) * cell}" height="{(max_y + 1) * cell}">']
    for a in areas:
        color = _PALETTE[(a.id - 1) % len(_PALETTE)]
        for n, (x, y) in a.in_nodes.items():
            out.append(f'<rect x="{x * cell}" y="{y * cell}" width="{cell}" '
                       f'height="{cell}" fill="{color}" stroke="#555"/>')
        for n in a.corners:
            x, y = a.in_nodes[n]
            out.append(f'<circle cx="{x * cell + cell // 2}" cy="{y * cell + cell // 2}" '
                       f'r="{cell // 4}" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out)


def render_solution_ascii(problem: Problem, solution) -> str:
    max_x = max(x for x, _ in problem.coords.values())
    max_y = max(y for _, y in problem.coords.values())
    free = set(problem.coords.values())
    frames = []
    span = solution.makespan
    for t in range(span + 1):
        occ = {}
        for a, path in solution.paths.items():
            occ[problem.coords[path[min(t, len(path) - 1)]]] = a
        rows = []
        for y in range(max_y + 1):
            rows.append("".join(
                str(occ[(x, y)] % 10) if (x, y) in occ
                else "." if (x, y) in free else "#"
                for x in range(max_x + 1)))
        frames.append(f"t={t}\n" + "\n".join(rows))
    return "\n\n".join(frames) + "\n"


def cmd_render(args) -> int:
    try:
        if args.dump:
            subs, links = load_partition(Path(args.dump).read_text())
            text = render_partition_svg(subs, links)
        elif args.solution:
            problem = load_problem(args.instance)
            solution = model.solution_from_json(problem, Path(args.solution).read_text())
            text = render_solution_ascii(problem, solution)
        else:
            problem = load_problem(args.instance)
            subs, links = divide(problem, args.dx, args.dy)
            if args.dump_out:
                Path(args.dump_out).write_text(dump_partition(subs, links))
            text = render_partition_svg(subs, links)
    except (ParseError, ModelError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mapfkit",
                                     description="Decentralized grid MAPF solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance")
    p.add_argument("instance")
    p.add_argument("--out", help="output path prefix (default: <instance>.solution)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("width", type=int)
    p.add_argument("height", type=int)
    p.add_argument("agents", type=int)
    p.add_argument("--density", type=float, default=_env("density", float, 0.0))
    p.add_argument("--seed", type=int, default=_env("seed", int, 0))
    p.add_argument("--solvable", action="store_true",
                   default=_env("solvable", bool, False))
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="validate a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bench", help="benchmark a matrix of generated instances")
    p.add_argument("--row", action="append", default=[],
                   help="WxH:agents, repeatable")
    p.add_argument("--density", type=float, default=_env("density", float, 0.0))
    p.add_argument("--seed", type=int, default=_env("seed", int, 0))
    _add_config_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="render a partition (SVG) or solution (ASCII)")
    p.add_argument("instance", nargs="?")
    p.add_argument("--dump", help="partition dump JSON to render")
    p.add_argument("--dump-out", help="also write the computed partition dump here")
    p.add_argument("--solution", help="solution JSON to animate")
    p.add_argument("--out")
    p.add_argument("--dx", type=int, default=_env("dx", int, 8))
    p.add_argument("--dy", type=int, default=_env("dy", int, 8))
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
