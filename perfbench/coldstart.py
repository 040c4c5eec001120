"""One cold CLI invocation in a fresh interpreter.

Usage: python3 perfbench/coldstart.py <ddlqr command arguments...>

Times ``import ddlqr.cli`` and then the first command, and prints one JSON
line with ``import_s``, ``first_command_s``, the exit code and the path of
the imported package. Run with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

start = perf_counter()
import ddlqr.cli  # noqa: E402

imported = perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = ddlqr.cli.main(sys.argv[1:])
done = perf_counter()
print(json.dumps({
    "import_s": imported - start,
    "first_command_s": done - imported,
    "rc": rc,
    "package": ddlqr.__file__,
}))
