#!/usr/bin/env python
"""Import-layering check for the bottom-layer packages.

``repro.ir`` and ``repro.obs`` are the bottom layers of the package:
every subsystem (training, simulator, arch, runtime, networks) consumes
them, so they must not import from any of those — a cycle there would
make the bottom layers un-importable in isolation and let subsystem
concepts leak downward.  The two bottom layers are also independent of
each other.

One sanctioned exception: ``repro.ir.passes`` (the lowering pipeline)
may import ``repro.obs`` for its per-pass tracing spans — it is listed
in :data:`EXCEPTIONS` and nothing else gets a waiver.

``repro.serve`` and ``repro.runtime`` sit at the *top* of the stack
(:data:`TOP_LAYERS`).  Serve orchestrates the runtime, networks and obs
layers to serve traffic, and only the CLI, which wires every subsystem
to argv, may import it.  The runtime compiles, ships and runs plans for
serve and the CLI, and only those two may import it, so the simulator
never depends on how the runtime moves plans between processes.  A
lower layer importing either would invert the dependency and drag that
machinery into every import.

Walks every module under each bottom-layer root with the ``ast`` module
(no imports are executed) and fails with a non-zero exit code listing
each violating import.  Run from the repository root:

    python scripts/check_layering.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

_SUBSYSTEMS = ("training", "simulator", "arch", "runtime", "networks",
               "analysis", "baselines", "core", "datasets")

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src/repro"

#: Bottom-layer root -> subsystems it must never import from.
BOTTOM_LAYERS = {
    _SRC / "ir": _SUBSYSTEMS + ("obs",),
    _SRC / "obs": _SUBSYSTEMS + ("ir",),
}

#: Per-file waivers: module path -> names dropped from its forbidden
#: set.  The pass pipeline may use repro.obs for per-pass spans.
EXCEPTIONS = {
    _SRC / "ir" / "passes.py": ("obs",),
}

#: Top-layer package name -> the modules and packages (paths relative
#: to src/repro) allowed to import it.  Everything else under src/repro
#: (outside the package itself) must not.
TOP_LAYERS = {
    "serve": ("cli.py",),
    "runtime": ("serve", "cli.py"),
}

# Historical single-root spellings, kept for check()'s callers/tests.
FORBIDDEN = _SUBSYSTEMS
IR_ROOT = _SRC / "ir"


def _forbidden_target(module: str, level: int, forbidden: tuple) -> str:
    """Return the offending subsystem name, or '' if the import is fine."""
    if level == 0:
        # Absolute import: repro.<subsystem>... is the only repro form.
        parts = module.split(".")
        if parts[0] == "repro" and len(parts) > 1 and parts[1] in forbidden:
            return parts[1]
        return ""
    # Relative import: level 1 stays inside the bottom-layer package;
    # level >= 2 reaches repro.<module> (e.g. ``from ..training import``).
    if level >= 2 and module:
        head = module.split(".")[0]
        if head in forbidden:
            return head
    return ""


def check(root: pathlib.Path = IR_ROOT, forbidden: tuple = None) -> list:
    if forbidden is None:
        forbidden = BOTTOM_LAYERS.get(root, FORBIDDEN)
    violations = []
    for path in sorted(root.rglob("*.py")):
        allowed = EXCEPTIONS.get(path, ())
        effective = tuple(n for n in forbidden if n not in allowed)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bad = _forbidden_target(alias.name, 0, effective)
                    if bad:
                        violations.append(
                            f"{path}:{node.lineno}: imports repro.{bad} "
                            f"(via 'import {alias.name}')")
            elif isinstance(node, ast.ImportFrom):
                bad = _forbidden_target(node.module or "", node.level,
                                        effective)
                if bad:
                    dots = "." * node.level
                    violations.append(
                        f"{path}:{node.lineno}: imports repro.{bad} "
                        f"(via 'from {dots}{node.module or ''} import ...')")
    return violations


def check_top_layers(root: pathlib.Path = _SRC) -> list:
    """Flag imports of a top-layer package from anywhere below it."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        for package, importers in TOP_LAYERS.items():
            allowed = [root / name for name in (package, *importers)]
            if any(p == path or p in path.parents for p in allowed):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                bad = ""
                if isinstance(node, ast.Import):
                    if any(_forbidden_target(a.name, 0, (package,))
                           for a in node.names):
                        bad = package
                elif isinstance(node, ast.ImportFrom):
                    bad = _forbidden_target(node.module or "", node.level,
                                            (package,))
                    # ``from .serve import ...`` / ``from . import serve``
                    # in a module that sits directly under src/repro.
                    if not bad and node.level == 1 and path.parent == root:
                        head = (node.module or "").split(".")[0]
                        names = [a.name for a in node.names]
                        if head == package or (not node.module
                                               and package in names):
                            bad = package
                if bad:
                    violations.append(
                        f"{path}:{node.lineno}: imports repro.{bad} — a "
                        f"top layer; only "
                        f"{', '.join(importers)} may import it")
    return violations


#: AlexNet perfsim goldens captured immediately before the grouped-conv
#: lowering landed: the refactor threads ``groups`` through the IR and
#: kernels but must not move a single perf-model number.  Values are
#: compared bit-equal (``==`` on floats) — any drift means the lowering
#: changed the cost arithmetic, not just the plumbing.
ALEXNET_PERFSIM_GOLDEN = {
    "lp": {
        "total_cycles": 1027003.546875,
        "compute_cycles": 209040.0,
        "energy_j": 0.0003067073153124273,
        "dram_bytes": 61110243.0,
    },
    "ulp": {
        "total_cycles": 6576415.0,
        "compute_cycles": 6576584.0,
        "energy_j": 0.00023968621158128246,
        "dram_bytes": 0.0,
    },
}


def check_perfsim_goldens() -> list:
    """AlexNet LP/ULP perfsim results must be bit-equal to the values
    captured before grouped-conv lowering (golden-equivalence guard)."""
    sys.path.insert(0, str(_SRC.parent))
    try:
        from repro.arch import LP_CONFIG, ULP_CONFIG, simulate_network
        from repro.networks.zoo import NETWORK_SPECS
    except Exception as exc:   # import failure is itself a violation
        return [f"cannot import repro for the perfsim golden check: {exc}"]
    violations = []
    configs = {"lp": LP_CONFIG, "ulp": ULP_CONFIG}
    for name, golden in ALEXNET_PERFSIM_GOLDEN.items():
        result = simulate_network(NETWORK_SPECS["alexnet"](), configs[name])
        for field, want in golden.items():
            got = getattr(result, field)
            if got != want:
                violations.append(
                    f"alexnet {name} {field}: got {got!r}, golden {want!r}")
    return violations


def main() -> int:
    violations = []
    for root, forbidden in BOTTOM_LAYERS.items():
        violations.extend(check(root, forbidden))
    if violations:
        print("bottom layers must not import from the subsystems above:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    top = check_top_layers()
    if top:
        print("lower layers must not import the top layers:")
        for violation in top:
            print(f"  {violation}")
        return 1
    goldens = check_perfsim_goldens()
    if goldens:
        print("perfsim goldens drifted from the pre-grouped-lowering "
              "values:")
        for violation in goldens:
            print(f"  {violation}")
        return 1
    print("layering OK: repro.ir and repro.obs import nothing from the "
          "upper layers (sole waiver: repro.ir.passes -> repro.obs), "
          "repro.serve is imported only by the CLI, repro.runtime only "
          "by repro.serve and the CLI, and the AlexNet perfsim goldens "
          "are bit-equal to their pre-grouped-lowering values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
