"""One cold start of pufir: the import, then each command once, timed.

    PYTHONPATH=src python3 perfbench/coldstart.py < argv-lists.json

Reads a JSON list of CLI argument lists on stdin and prints one JSON
object: the seconds `import pufir.cli` took (NumPy included) and, for each
command, its exit code, stdout and seconds.  Only the standard library is
loaded before the clock starts, so the first call of each command pays
its cold costs: imports, BLAS start-up and first use of memory.
"""
import contextlib
import io
import json
import sys
from time import perf_counter


def main():
    argvs = json.load(sys.stdin)
    t0 = perf_counter()
    import pufir.cli as cli
    import_s = perf_counter() - t0
    ops = []
    for argv in argvs:
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        ops.append({"rc": rc, "out": out.getvalue(),
                    "s": perf_counter() - t0})
    print(json.dumps({"import_s": import_s, "ops": ops}))


if __name__ == "__main__":
    main()
