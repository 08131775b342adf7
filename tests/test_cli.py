"""Command-line interface: exit codes, outputs, environment overrides."""

import json

import pytest

from mapfkit.cli import (EXIT_ERROR, EXIT_OK, EXIT_PARSE, EXIT_UNSOLVABLE,
                         generate_instance, main)

SMALL = "agent 1 0 0 3 1\nagent 2 3 0 0 1\n\n....\n....\n"


@pytest.fixture
def instance(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(SMALL)
    return path


class TestGenerate:
    def test_deterministic(self):
        a = generate_instance(10, 10, 8, 0.1, 5)
        b = generate_instance(10, 10, 8, 0.1, 5)
        assert a == b

    def test_seed_changes_output(self):
        assert generate_instance(10, 10, 8, 0.1, 5) != \
            generate_instance(10, 10, 8, 0.1, 6)

    def test_too_dense_is_an_error(self):
        with pytest.raises(ValueError):
            generate_instance(4, 4, 10, 0.5, 1)

    def test_cli_writes_file(self, tmp_path, capsys):
        out = tmp_path / "gen.txt"
        code = main(["generate", "6", "4", "3", "--seed", "2", "--solvable",
                     "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text()
        assert text.count("agent ") == 3

    def test_cli_error_exit(self, capsys):
        assert main(["generate", "4", "4", "10", "--density", "0.5"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err


class TestSolveCommand:
    def test_solve_writes_solution(self, instance, tmp_path, capsys):
        out = tmp_path / "sol"
        code = main(["solve", str(instance), "--out", str(out),
                     "--dx", "2", "--dy", "2", "--timeout", "60"])
        assert code == EXIT_OK
        data = json.loads((tmp_path / "sol.json").read_text())
        assert set(data["paths"]) == {"1", "2"}
        assert "span=" in capsys.readouterr().out

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("agent zero\n\n..\n")
        assert main(["solve", str(bad)]) == EXIT_PARSE

    def test_unsolvable_exit(self, tmp_path, capsys):
        inst = tmp_path / "walled.txt"
        inst.write_text("agent 1 0 0 3 0\n\n.#..\n.#..\n.#..\n.#..\n")
        code = main(["solve", str(inst), "--dx", "2", "--dy", "4",
                     "--timeout", "60"])
        assert code == EXIT_UNSOLVABLE


class TestValidateCommand:
    def test_roundtrip_ok(self, instance, tmp_path, capsys):
        out = tmp_path / "sol"
        main(["solve", str(instance), "--out", str(out),
              "--dx", "2", "--dy", "2", "--timeout", "60"])
        code = main(["validate", str(instance), str(tmp_path / "sol.json")])
        assert code == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_bad_solution_rejected(self, instance, tmp_path, capsys):
        sol = tmp_path / "wrong.json"
        sol.write_text(json.dumps({
            "paths": {"1": [[0, 0], [0, 0]], "2": [[3, 0], [3, 0]]},
            "makespan": 1, "moves": 0}))
        assert main(["validate", str(instance), str(sol)]) == EXIT_ERROR
        assert "goal" in capsys.readouterr().out


class TestBenchCommand:
    def test_table_rows(self, capsys):
        code = main(["bench", "--row", "6x4:2", "--seed", "3",
                     "--dx", "3", "--dy", "2", "--timeout", "60"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "| Map | n_R | Time | Span | Moves |" in out
        assert "| 6 x 4 | 2 |" in out


class TestSolveFlags:
    def test_solve_takes_no_seed(self, instance):
        # the solver is deterministic; only the generator takes a seed
        with pytest.raises(SystemExit):
            main(["solve", str(instance), "--seed", "3"])


class TestRenderCommand:
    def test_partition_svg(self, instance, tmp_path):
        out = tmp_path / "part.svg"
        code = main(["render", str(instance), "--dx", "2", "--dy", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("<svg")

    def test_solution_ascii(self, instance, tmp_path):
        main(["solve", str(instance), "--out", str(tmp_path / "sol"),
              "--dx", "2", "--dy", "2", "--timeout", "60"])
        out = tmp_path / "anim.txt"
        code = main(["render", str(instance),
                     "--solution", str(tmp_path / "sol.json"), "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("t=0")


class TestEnvOverrides:
    def test_env_sets_defaults(self, monkeypatch, capsys):
        monkeypatch.setenv("MAPFKIT_SEED", "9")
        monkeypatch.setenv("MAPFKIT_DENSITY", "0.0")
        assert main(["generate", "6", "4", "2"]) == EXIT_OK
        text = capsys.readouterr().out
        assert text == generate_instance(6, 4, 2, 0.0, 9, solvable=False)
