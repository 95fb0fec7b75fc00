"""Run one public schurlab library call in this interpreter and write its report.

    python perfbench/api_step.py OUT FUNC ARGS_JSON

FUNC is a name exported by the ``schurlab`` package and ARGS_JSON a JSON list
of its positional arguments. The report has the CLI's layout: a header with
the duration and a canonical body holding the call, its arguments and the
returned value, so repeated calls give byte-identical bodies.
"""

from __future__ import annotations

import json
import sys
import time

import schurlab
from schurlab import serialize


def run(out: str, func: str, args: list) -> int:
    started = time.time()
    value = getattr(schurlab, func)(*args)
    header = {"duration_seconds": time.time() - started}
    body = {"call": func, "args": args, "value": value}
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{"header":' + serialize.dumps_canonical(header)
                 + ',"body":' + serialize.dumps_canonical(body) + "}\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: api_step.py OUT FUNC ARGS_JSON")
    sys.exit(run(sys.argv[1], sys.argv[2], json.loads(sys.argv[3])))
