"""Record the benchmark's expected outputs into ``data/expected.json``.

Run from the repository root, on the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record_expected.py

It pins the ladder tables, the degree-3 rows of the combined tables and a
digest of every ``partial`` output, and the ``--no-timing`` report and exit
code of every command of the fixtures mix.  The benchmark compares against
this file; re-recording replaces the reference, so do it only when the
expected outputs change on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from bihomega import samples  # noqa: E402
from bihomega.bimodule import regular_bimodule  # noqa: E402
from bihomega.cochain import cohomology_dims, delta_matrix, equivariant_basis  # noqa: E402
from bihomega.linalg import rank  # noqa: E402
from bihomega.rbf import rbfa_cohomology_dims, partial  # noqa: E402

import workloads  # noqa: E402


def degree0_free_pins(b, max_degree: int) -> dict:
    """Table entries of degrees 1..max_degree that do not involve degree 0."""
    pins = []
    ranks = {k: rank(delta_matrix(b, k)) for k in range(1, max_degree + 1)}
    for k in range(1, max_degree + 1):
        pins.append([k, "cochains", equivariant_basis(b, k).dim()])
        pins.append([k, "cocycles", equivariant_basis(b, k).dim() - ranks[k]])
        if k >= 2:
            pins.append([k, "coboundaries", ranks[k - 1]])
    return {"max_degree": max_degree, "pins": pins}


def main():
    ladder = {
        "c2_variant0": cohomology_dims(regular_bimodule(samples.build_c2_example(0)), 4).to_json(),
        "semidirect": cohomology_dims(regular_bimodule(samples.build_e1_semidirect()), 5).to_json(),
        "c2_variant1": degree0_free_pins(regular_bimodule(samples.build_c2_example(1)), 2),
    }
    ctx = workloads.load_context((ROOT / "fixtures" / "c2_rbf.json").read_text(encoding="utf-8"))
    tables = rbfa_cohomology_dims(ctx, 3)
    combined = {
        "degree3": {name: rep.to_json()["degrees"][3] for name, rep in tables.items()},
        "partials": {
            f"{n}:{j}": workloads.cochain_digest(partial(ctx, ctx.basis(n).cochain(j), check=False))
            for n in (1, 2, 3)
            for j in range(ctx.basis(n).dim())
        },
    }
    fixtures = {}
    for argv in workloads.COMMANDS:
        text, code = workloads.run_cli(argv)
        fixtures[workloads.command_key(argv)] = {"exit": code, "report": text}
    out = {"ladder": ladder, "combined": combined, "fixtures": fixtures}
    path = HERE / "data" / "expected.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
