"""The ``## Pipeline walkthrough`` block of README.md as argv lists.

The README block is the one list of walkthrough commands: tests parse it
rather than copy it.  Run as a script, ``python walkthrough.py OUT`` runs the
walkthrough into ``OUT`` in a fresh interpreter with a profile hook set
before ``scamscout`` is imported, and prints, as the last line of standard
output, a JSON list of the ``[co_filename, co_firstlineno]`` of every named
function it entered.  This module imports nothing from ``scamscout``, so the
hook sees the package's import too.
"""

from __future__ import annotations

import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"

# the lines of the block that set up the shell rather than run a stage
_SETUP = {"FX=tests/fixtures", "mkdir -p out"}


def _block_lines() -> list[str]:
    """The lines of the bash block under ``## Pipeline walkthrough``, each
    ``\\``-continued line joined to the next."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Pipeline walkthrough")
    begin = lines.index("```bash", start) + 1
    end = lines.index("```", begin)
    joined, pending = [], ""
    for line in lines[begin:end]:
        if line.endswith("\\"):
            pending += line[:-1]
        else:
            joined.append(pending + line)
            pending = ""
    assert not pending, "the walkthrough block ends inside a continued line"
    return joined


def _argument(token: str, out: Path) -> str:
    if token.startswith("$FX/"):
        return str(FIXTURES / token[len("$FX/"):])
    if token.startswith("out/"):
        return str(out / token[len("out/"):])
    assert "$" not in token and "out/" not in token, token
    return token


def walkthrough(out: Path) -> list[list[str]]:
    """The argv of each ``scamscout`` command of the README walkthrough, with
    ``$FX`` read as the fixtures directory and ``out/`` as ``out``.  Any line
    that is not a comment, blank, a set-up line or a ``scamscout`` command
    fails, so a README edit cannot drop a step unseen."""
    argvs = []
    for line in _block_lines():
        line = line.strip()
        if not line or line.startswith("#") or line in _SETUP:
            continue
        program, *args = shlex.split(line)
        assert program == "scamscout", f"not a walkthrough step: {line!r}"
        argvs.append([_argument(arg, out) for arg in args])
    assert argvs, "the walkthrough block has no scamscout command"
    return argvs


def _profiled_run(out: Path) -> list[tuple[str, int]]:
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from scamscout.cli import main
        for argv in walkthrough(out):
            assert main(argv) == 0, f"stage failed: {argv}"
    finally:
        sys.setprofile(None)
    import scamscout
    package = str(Path(scamscout.__file__).parent)
    # comprehensions, lambdas and module bodies have names like "<lambda>"
    return sorted({(code.co_filename, code.co_firstlineno) for code in entered
                   if code.co_filename.startswith(package)
                   and not code.co_name.startswith("<")})


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(_profiled_run(out)))
