"""What `import qident.cli` loads, in a fresh interpreter.

Every check of the paper runs as one short command per process, so start-up
is paid on every check.  Importing the CLI must not load the dataclasses
module or the form tooling of qident.forms, and the commands of every
identity family must then load no module of their own (apart from a text
codec), so no import cost hides inside a timed command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = [
    "verify thm1 --variant a --n 3 --order 8 --charges",
    "verify d4 --order 4",
    "verify b2-product --order 12",
    "jets hilbert --preset d4-d --d4-reading repaired --weight 3",
    "verify pentagon --negative-control --xdeg 4 --qorder 8",
    "verify ordered-product --type d4 --xdeg 3 --qorder 4",
    "verify quiver --rank 2 --orientation R --kmax 2 --order 6",
]

SCRIPT = """
import contextlib, io, json, shlex, sys
import qident.cli as cli
at_import = sorted(sys.modules)
loaded = set(at_import)
codes, new = [], {}
for line in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(["--json"] + shlex.split(line), standalone_mode=False)
        except SystemExit as exc:
            codes.append(exc.code)
    new[line] = sorted(set(sys.modules) - loaded)
    loaded = set(sys.modules)
print(json.dumps({"at_import": at_import, "codes": codes, "new": new}))
""" % (COMMANDS,)


def _run():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_cli_import_and_commands_load_nothing_extra():
    result = _run()
    at_import = set(result["at_import"])
    assert "qident.cli" in at_import
    assert "dataclasses" not in at_import
    assert "qident.forms" not in at_import
    assert result["codes"] == [0] * len(COMMANDS)
    for line, modules in result["new"].items():
        assert all(m.startswith("encodings.") for m in modules), (line, modules)
