"""README's example commands against the reference outputs in reference/cli_outputs.json.

Each command of the ```sh block in README's "Command line" section runs
through `cli.main` in a fresh directory, with the README's arguments as
they stand: its outputs go to the default --outdir ".". The file-based
`cocycle` example reads `my_algebra.txt` and `my_cocycle.txt`, whose text
the reference file fixes. The reference holds each command's exit code,
stdout and every file it writes.

Text must match exactly, except numeric tokens. Those must keep their
shape (digits before and after the point, and an exponent or none), so a
changed float format shows, and their value within 1e-11 relative:
another CPU's BLAS may move a last bit across a 12-digit print boundary.
Printed rounding residues (scalar discrepancies, Wronskian drifts,
quadrature error estimates) are multiples of eps, so any token also
passes within 1e-13 absolute. Same-machine byte identity is the job of
`test_outputs_byte_deterministic`.

Rewrite the file after a deliberate change of an output with

    PYTHONPATH=src python tests/test_cli_reference.py
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from platevac import algebra as alg
from platevac import cli

REFERENCE = Path(__file__).parent / "reference" / "cli_outputs.json"
README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def readme_commands():
    """The `platevac ...` lines of the ```sh block in README's "Command line" section."""
    readme = README.read_text()
    start = readme.index("```sh", readme.index("## Command line"))
    block = readme[start:readme.index("```\n", start + 1)]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("platevac ")]


def run(argv, inputs, directory):
    """Exit code, stdout and written files of `cli.main(argv)` run in `directory` holding `inputs`."""
    directory = Path(directory)
    for name, text in inputs.items():
        (directory / name).write_text(text)
    stdout, cwd = io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {path.name: path.read_text() for path in sorted(directory.iterdir())
             if path.name not in inputs}
    return {"exit_code": code, "stdout": stdout.getvalue(), "files": files}


def _shape(token):
    return re.sub(r"[-+]", "", re.sub(r"\d", "0", token))


def _text_mismatches(got, want, path):
    """Where `got` differs from `want`: text exactly, numeric tokens as the module says."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return [f"{path}: {len(got_parts) // 2} numbers != {len(want_parts) // 2}:\n{got}"]
    bad = []
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0 or _shape(g) != _shape(w):
            same = g == w
        else:
            same = abs(float(g) - float(w)) <= 1e-11 * abs(float(w)) + 1e-13
        if not same:
            bad.append(f"{path}: {g!r} != {w!r}")
    return bad


def _mismatches(got, want):
    if got["exit_code"] != want["exit_code"]:
        return [f"exit code {got['exit_code']} != {want['exit_code']}"]
    if sorted(got["files"]) != sorted(want["files"]):
        return [f"files {sorted(got['files'])} != {sorted(want['files'])}"]
    bad = _text_mismatches(got["stdout"], want["stdout"], "stdout")
    for name, text in want["files"].items():
        bad += _text_mismatches(got["files"][name], text, name)
    return bad


def _reference():
    return json.loads(REFERENCE.read_text())


def test_reference_holds_every_readme_command():
    assert [entry["argv"] for entry in _reference()["commands"]] == readme_commands()


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_matches_the_reference(argv, tmp_path):
    reference = _reference()
    want = next(entry for entry in reference["commands"] if entry["argv"] == argv)
    bad = _mismatches(run(argv, reference["inputs"], tmp_path), want["outputs"])
    assert not bad, bad[:20]


def main():
    with tempfile.TemporaryDirectory() as scratch:
        alg.save_algebra(alg.build_poincare_2plus1(), Path(scratch) / "my_algebra.txt")
        alg.save_cocycle(alg.shift_cocycle(1, 0, 0), Path(scratch) / "my_cocycle.txt")
        inputs = {path.name: path.read_text() for path in sorted(Path(scratch).iterdir())}
    commands = []
    for argv in readme_commands():
        with tempfile.TemporaryDirectory() as directory:
            commands.append({"argv": argv, "outputs": run(argv, inputs, directory)})
    REFERENCE.write_text(json.dumps({"inputs": inputs, "commands": commands}, indent=1) + "\n")


if __name__ == "__main__":
    main()
