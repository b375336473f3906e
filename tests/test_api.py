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


def test_no_scipy_at_run_time(tmp_path):
    """scipy is a test dependency only: with every scipy import made to
    fail, the trace tests (both quantile schemes), HTP and the CLI's
    ``select`` and ``test`` still run for each kernel."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy or a submodule raises\n"
        "import tracepursuit as tp\n"
        "from tracepursuit import cli\n"
        "from tracepursuit.nulldist import trace_test_with_weights\n"
        "path = sys.argv[1]\n"
        "d, _ = tp.generate(tp.SimDesign(model='I', n=120, p=6, seed=3))\n"
        "cli.write_csv(d, path)\n"
        "s = tp.slice_response(d.y, 4)\n"
        "commands = (['select', path], ['test', path, '--working-set', '1', '--candidate', '2'])\n"
        "for m in tp.Method:\n"
        "    tp.trace_test(m, d, s, (1,), 2, 0.05)\n"
        "    for quantile in ('two-moment', 'monte-carlo'):\n"
        "        trace_test_with_weights(m, d, s, (1,), 2, 0.05, quantile=quantile)\n"
        "    tp.htp_run(d, s, m)\n"
        "    for argv in commands:\n"
        "        assert cli.main(argv + ['--method', m.value, '--format', 'json-lines']) == 0\n"
    )
    argv = [sys.executable, "-c", code, str(tmp_path / "d.csv")]
    subprocess.run(argv, check=True, cwd=ROOT / "src")
