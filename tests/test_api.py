"""The supported top-level API of the package."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import tracepursuit as tp

ROOT = Path(__file__).resolve().parents[1]

SCALAR_ROUTE = (
    "ResidualStats",
    "residualize",
    "auxiliary_stats",
    "trace_diff",
    "influence_samples",
    "omega_hat",
    "weighted_chisq_quantile_mc",
)


def test_every_exported_name_resolves():
    assert len(set(tp.__all__)) == len(tp.__all__)
    for name in tp.__all__:
        assert hasattr(tp, name), name


def test_benchmark_and_readme_names_are_exported():
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\btp\.(\w+)", path.read_text()))
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"from tracepursuit import \(([^)]*)\)", readme).group(1)
    used |= {name.strip() for name in block.split(",") if name.strip()}
    assert used and used <= set(tp.__all__), sorted(used - set(tp.__all__))


def test_readme_python_blocks_run():
    """Every ``python`` block of the README runs, in order and in one
    namespace, so a signature change that misses the README fails here."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert (namespace["statistic"], namespace["threshold"]) == (
        namespace["res"].statistic,
        namespace["res"].threshold,
    )


def test_scalar_route_is_imported_from_its_modules():
    import tracepursuit.kernels as kernels
    import tracepursuit.nulldist as nulldist

    for name in SCALAR_ROUTE:
        assert name not in tp.__all__ and not hasattr(tp, name), name
        assert hasattr(kernels, name) or hasattr(nulldist, name), name


def test_scipy_special_is_imported_only_by_a_trace_test():
    """``scipy.special`` is most of the package's import time; importing the
    package and running a forward path must not load it."""
    code = (
        "import sys, tracepursuit as tp\n"
        "d, _ = tp.generate(tp.SimDesign(model='I', n=60, p=8, seed=1))\n"
        "tp.ftp_run(d, tp.slice_response(d.y, 4), tp.Method.SIR)\n"
        "assert 'scipy.special' not in sys.modules, 'imported scipy.special'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT / "src")
