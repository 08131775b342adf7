"""The benchmark's checker must reject broken solutions and accept the
solver's.  Run with: python3 -m pytest perfbench/test_checker.py"""

import sys
from pathlib import Path

import checker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# 4x3 grid, one wall cell at (1, 1); agent 1 goes left to right along the
# top row, agent 2 right to left along the bottom row.
TEXT = """agent 1 0 0 3 0
agent 2 3 2 0 2

....
.#..
....
"""


def good():
    return {1: [(0, 0), (1, 0), (2, 0), (3, 0)],
            2: [(3, 2), (2, 2), (1, 2), (0, 2)]}


def errors(paths, makespan=3, moves=6):
    return checker.check(checker.Instance(TEXT), paths, makespan, moves)


def test_accepts_valid_solution():
    assert errors(good()) == []


def test_rejects_vertex_conflict():
    paths = good()
    # agent 2 climbs to (3, 0) just as agent 1 arrives there
    paths[2] = [(3, 2), (3, 1), (3, 0), (3, 0)]
    found = errors(paths, moves=5)
    assert any("agents 1 and 2 both on (3, 0) at t=3" in e for e in found), found


def test_rejects_swap():
    inst = checker.Instance("agent 1 0 0 1 0\nagent 2 1 0 0 0\n\n..\n")
    found = checker.check(inst, {1: [(0, 0), (1, 0)], 2: [(1, 0), (0, 0)]}, 1, 2)
    assert any("swap" in e for e in found), found


def test_rejects_jump():
    paths = good()
    paths[1] = [(0, 0), (2, 0), (2, 0), (3, 0)]
    found = errors(paths, moves=5)
    assert any("jumps (0, 0)->(2, 0)" in e for e in found), found


def test_rejects_blocked_cell_and_wrong_ends():
    paths = good()
    paths[2] = [(3, 2), (2, 2), (1, 1), (0, 1)]
    found = errors(paths)
    assert any("blocked" in e for e in found), found
    assert any("agent 2 ends at (0, 1)" in e for e in found), found
    paths = good()
    paths[1] = [(1, 0), (1, 0), (2, 0), (3, 0)]
    assert any("agent 1 starts at" in e for e in errors(paths, moves=5))


def test_rejects_misreported_metrics():
    found = errors(good(), makespan=4, moves=5)
    assert any("reported makespan 4" in e for e in found), found
    assert any("reported moves 5" in e for e in found), found


def test_bfs_bound_follows_walls():
    inst = checker.Instance("agent 1 0 0 0 2\n\n..\n#.\n..\n")
    assert inst.lower_bounds() == {1: 4}     # around the wall, not 2


def test_accepts_solver_output():
    from mapfkit.cli import generate_instance
    from mapfkit.model import parse_grid
    from mapfkit.runtime import RunConfig, solve
    text = generate_instance(16, 16, 12, 0.1, seed=3, solvable=True)
    problem = parse_grid(text)
    result = solve(problem, RunConfig(timeout=60.0))
    assert result.status == "solved"
    sol = result.solution
    paths = {a: [problem.coords[n] for n in p] for a, p in sol.paths.items()}
    assert checker.check(checker.Instance(text), paths, sol.makespan, sol.moves) == []
