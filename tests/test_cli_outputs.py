"""The CLI's bytes, frozen: stdout, stderr and exit code of every subcommand in
every format, and the README's command-line examples exactly as printed."""

import json
import re
import shlex
from pathlib import Path

import pytest

import habiro.cli as cli

ROOT = Path(__file__).resolve().parent.parent
RUNS = json.loads((ROOT / "tests" / "data" / "cli_outputs.json").read_text())["runs"]


def replay(capsys, monkeypatch, tmp_path, args) -> tuple[int, str, str]:
    monkeypatch.setenv("HABIRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("entry", RUNS, ids=[" ".join(e["args"]) for e in RUNS])
def test_cli_output_is_frozen(capsys, monkeypatch, tmp_path, entry):
    at = entry.get("theta_plus_one_at")
    if at is not None:
        real = cli._theta_route

        def perturbed(spec, N):
            row = real(spec, N)
            row[at] += 1
            return row

        monkeypatch.setattr(cli, "_theta_route", perturbed)
    assert replay(capsys, monkeypatch, tmp_path, entry["args"]) == (
        entry["exit"], entry["stdout"], entry["stderr"])


def _readme_examples() -> list[tuple[list[str], str]]:
    """(argv, printed block) for each `$ habiro ...` line of README's Command line section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        command, _, printed = block.partition("\n")
        if command.startswith("$ habiro "):
            examples.append((shlex.split(command)[2:], printed))
    return examples


def test_readme_has_an_example_per_subcommand():
    assert [argv[0] for argv, _ in _readme_examples()] == [
        "expand", "crosscheck", "verify", "asym"]


@pytest.mark.parametrize("argv, printed", _readme_examples(),
                         ids=[argv[0] for argv, _ in _readme_examples()])
def test_readme_example_prints_its_block(capsys, monkeypatch, tmp_path, argv, printed):
    assert replay(capsys, monkeypatch, tmp_path, argv) == (0, printed, "")
