"""Import pathevac from this checkout, and the set-up a workload pays.

Run as a script it is the set-up probe: a fresh process that imports the
library, loads and validates the given instance files, and prints the
seconds that took, counted from the script's first statement:

    python3 perfbench/library.py {cli|nocli} FILE...
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "pathevac", "__init__.py")):
        fail(f"no pathevac sources under {SRC}")


def import_library(needs_cli):
    """Import pathevac from this checkout's ``src`` and nowhere else."""
    require_sources()
    sys.path.insert(0, SRC)
    import pathevac
    import pathevac.evac
    import pathevac.minmax
    import pathevac.model
    import pathevac.optk
    import pathevac.regret

    if os.path.dirname(os.path.dirname(os.path.abspath(pathevac.__file__))) != SRC:
        fail(f"pathevac imported from {pathevac.__file__}, not from {SRC}")
    lib = SimpleNamespace(
        evac=pathevac.evac, minmax=pathevac.minmax, model=pathevac.model,
        optk=pathevac.optk, regret=pathevac.regret, cli=None,
    )
    if needs_cli:
        import pathevac.cli

        lib.cli = pathevac.cli
    return lib


def load_instances(lib, files):
    """``load_instance`` + ``validate_instance`` of every file."""
    insts = []
    for path in files:
        inst = lib.model.load_instance(path)
        problems = lib.model.validate_instance(inst)
        if problems:
            raise ValueError(f"{path}: {'; '.join(problems)}")
        insts.append(inst)
    return insts


if __name__ == "__main__":
    load_instances(import_library(sys.argv[1] == "cli"), sys.argv[2:])
    print(time.perf_counter() - T0)
