"""README's and CI's commands against the reference outputs in reference/cli_outputs.json.

Each command of the ```sh block in README's "Command line" section runs
through `cli.main` in a fresh directory, with the README's arguments as
they stand: its outputs go to the default --outdir ".". The file-based
`cocycle` example reads `my_algebra.txt` and `my_cocycle.txt`, whose text
the reference file fixes. So do CI's cheap commands, read from
.github/workflows/test.yml: every `expect` line but the two slow ones
(0.4 and 1.2 s in-process; CI runs them), the config-file runs, and the
lattice runs of the warnings-as-errors step, which run here under
`warnings.simplefilter("error")`. They drop CI's `--outdir out`, and the
files CI writes for them (`gl8.txt`, `widec.txt`, `zdiag.txt` and four INI
files) are inputs of the reference too. The reference holds each
command's exit code, an argparse refusal's `SystemExit` code included,
stdout, stderr and every file it writes. In stderr the run's directory
reads `<tmp>`, and argparse wraps its usage text at 80 columns, whatever
the terminal.

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
import itertools
import re
import shlex
import tempfile
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import pytest

from platevac import algebra as alg
from platevac import cli

REFERENCE = Path(__file__).parent / "reference" / "cli_outputs.json"
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "test.yml"
# CI runs these `expect` lines; in-process they take 0.4 and 1.2 s
SLOW = [["adiabatic", "--L0", "1", "--L1", "2", "--n", "3", "--T", "2000"],
        ["adiabatic", "--L0", "1", "--L1", "2", "--T", "17000"]]
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def readme_commands():
    """The `platevac ...` lines of the ```sh block in README's "Command line" section."""
    readme = README.read_text()
    start = readme.index("```sh", readme.index("## Command line"))
    block = readme[start:readme.index("```\n", start + 1)]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("platevac ")]


def _step(name):
    """The text of the workflow step whose name starts with `name`, up to the next step."""
    text = WORKFLOW.read_text()
    start = text.index(f"- name: {name}")
    end = text.find("- name: ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def workflow_expects():
    """(wanted exit code, argv) of every `expect` line of CI's edge-input step."""
    lines = re.findall(r"^\s*expect (\d+) (.+)$", _step("Reproduced edge inputs"), re.M)
    return [(int(code), shlex.split(args)) for code, args in lines]


def workflow_commands():
    """(argv, strict) of CI's cheap commands, without --outdir; strict: warnings as errors."""
    config = [shlex.split(line)[1:] for line in _step("README config file runs").splitlines()
              if line.strip().startswith("platevac ")]
    config = [argv[:argv.index("--outdir")] for argv in config]
    strict = _step("Lattice commands run clean with warnings as errors")
    strict = [["algebra-verify", *args.split()]
              for args in re.findall(r'"([^"]*)"', strict[:strict.index("; do")])]
    cheap = [argv for _, argv in workflow_expects() if argv not in SLOW]
    return [(argv, False) for argv in cheap + config] + [(argv, True) for argv in strict]


def workflow_inputs():
    """The files CI's steps write for their commands to read."""
    config, edges = _step("README config file runs"), _step("Reproduced edge inputs")
    name, body = re.search(r"cat > (\S+) <<'EOF'\n(.*?)\n *EOF\n", config, re.S).groups()
    files = {name: textwrap.dedent(body) + "\n"}
    for text, name in re.findall(r"printf '([^']*)' > (\S+)", config + edges):
        files[name] = text.replace("\\n", "\n")
    files["widec.txt"] = " ".join(["basis", *(f"X{i}" for i in range(65))]) + "\n"
    n = 8  # gl(8) on the matrix units: [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
    units = list(itertools.product(range(n), repeat=2))
    brackets = {(a, b): {**({i * n + l: 1} if j == k else {}),
                         **({k * n + j: -1} if l == i else {})}
                for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(units), 2)}
    with tempfile.TemporaryDirectory() as scratch:
        alg.save_algebra(alg.LieAlgebraSpec(tuple(f"E{i}{j}" for i, j in units), brackets),
                         Path(scratch) / "gl8.txt")
        files["gl8.txt"] = (Path(scratch) / "gl8.txt").read_text()
    return files


def reference_commands():
    """README's commands, then CI's that README does not hold, each once."""
    commands = readme_commands()
    for argv, _ in workflow_commands():
        if argv not in commands:
            commands.append(argv)
    return commands


def run(argv, inputs, directory):
    """Exit code, stdout, stderr and written files of `cli.main(argv)` run in `directory`
    holding `inputs`."""
    directory = Path(directory)
    for name, text in inputs.items():
        (directory / name).write_text(text)
    stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
              mock.patch.dict(os.environ, COLUMNS="80")):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a bad command line with exit code 2
        code = exc.code
    finally:
        os.chdir(cwd)
    files = {path.name: path.read_text() for path in sorted(directory.iterdir())
             if path.name not in inputs}
    errors = stderr.getvalue()
    for path in sorted({str(directory), str(directory.resolve())}, key=len, reverse=True):
        errors = errors.replace(path, "<tmp>")
    return {"exit_code": code, "stdout": stdout.getvalue(), "stderr": errors, "files": files}


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
    bad = (_text_mismatches(got["stdout"], want["stdout"], "stdout")
           + _text_mismatches(got["stderr"], want["stderr"], "stderr"))
    for name, text in want["files"].items():
        bad += _text_mismatches(got["files"][name], text, name)
    return bad


def _reference():
    return json.loads(REFERENCE.read_text())


def _entry(reference, argv):
    return next(entry for entry in reference["commands"] if entry["argv"] == argv)


def test_reference_holds_every_readme_command():
    # README's commands first, then CI's, and no other
    assert [entry["argv"] for entry in _reference()["commands"]] == reference_commands()


def test_reference_holds_every_workflow_command():
    # each `expect` line but the two slow ones, with the exit code CI wants
    reference = _reference()
    expects = workflow_expects()
    assert [argv for _, argv in expects if argv in SLOW] == SLOW
    for code, argv in expects:
        if argv not in SLOW:
            assert _entry(reference, argv)["outputs"]["exit_code"] == code, argv
    assert all(_entry(reference, argv) for argv, _ in workflow_commands())
    assert reference["inputs"].items() >= workflow_inputs().items()


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_matches_the_reference(argv, tmp_path):
    reference = _reference()
    bad = _mismatches(run(argv, reference["inputs"], tmp_path), _entry(reference, argv)["outputs"])
    assert not bad, bad[:20]


@pytest.mark.parametrize("argv,strict", workflow_commands(),
                         ids=[" ".join(argv) + " (-W error)" * strict
                              for argv, strict in workflow_commands()])
def test_workflow_command_matches_the_reference(argv, strict, tmp_path):
    reference = _reference()
    with warnings.catch_warnings():
        if strict:
            warnings.simplefilter("error")
        got = run(argv, reference["inputs"], tmp_path)
    bad = _mismatches(got, _entry(reference, argv)["outputs"])
    assert not bad, bad[:20]


def main():
    with tempfile.TemporaryDirectory() as scratch:
        alg.save_algebra(alg.build_poincare_2plus1(), Path(scratch) / "my_algebra.txt")
        alg.save_cocycle(alg.shift_cocycle(1, 0, 0), Path(scratch) / "my_cocycle.txt")
        inputs = {path.name: path.read_text() for path in sorted(Path(scratch).iterdir())}
    inputs.update(sorted(workflow_inputs().items()))
    commands = []
    for argv in reference_commands():
        with tempfile.TemporaryDirectory() as directory:
            commands.append({"argv": argv, "outputs": run(argv, inputs, directory)})
    REFERENCE.write_text(json.dumps({"inputs": inputs, "commands": commands}, indent=1) + "\n")


if __name__ == "__main__":
    main()
