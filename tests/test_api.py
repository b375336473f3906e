"""The supported top-level API of the package."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracepursuit as tp

ROOT = Path(__file__).resolve().parents[1]

SCALAR_ROUTE = (
    "ResidualStats",
    "residualize",
    "auxiliary_stats",
    "trace_diff",
    "influence_samples",
    "omega_hat",
    "weighted_chisq_quantile_exact",
    "weighted_chisq_tail",
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
        "    for quantile in ('two-moment', 'exact'):\n"
        "        trace_test_with_weights(m, d, s, (1,), 2, 0.05, quantile=quantile)\n"
        "    tp.htp_run(d, s, m)\n"
        "    for argv in commands:\n"
        "        assert cli.main(argv + ['--method', m.value, '--format', 'json-lines']) == 0\n"
    )
    argv = [sys.executable, "-c", code, str(tmp_path / "d.csv")]
    subprocess.run(argv, check=True, cwd=ROOT / "src")


def test_no_numpy_ma_at_run_time(tmp_path):
    """Slicing, the three selectors, the trace test with either quantile and
    the CLI's ``select``, ``screen`` and ``test`` with automatic slicing (by
    value and into four) run for each kernel with every import of
    ``numpy.ma`` made to fail.  numpy 1.x imports ``numpy.ma`` with numpy
    itself, so there the test is skipped; numpy 2 loads it on first use."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    sys.exit(3)  # loaded by numpy itself\n"
        "sys.modules['numpy.ma'] = None  # any later import of numpy.ma raises\n"
        "import tracepursuit as tp\n"
        "from tracepursuit import cli\n"
        "from tracepursuit.nulldist import trace_test_with_weights\n"
        "d, _ = tp.generate(tp.SimDesign(model='I', n=120, p=6, seed=3))\n"
        "paths = [sys.argv[1] + '/d.csv', sys.argv[1] + '/discrete.csv']\n"
        "cli.write_csv(d, paths[0])\n"
        "y7 = np.round(3.0 * d.y / np.abs(d.y).max())  # at most seven values\n"
        "cli.write_csv(tp.Dataset.from_arrays(d.x, y7), paths[1])\n"
        "s = tp.slice_response(d.y, 4)\n"
        "tp.slice_response(y7, 10, discrete=True)\n"
        "for m in tp.Method:\n"
        "    tp.ftp_run(d, s, m)\n"
        "    tp.stp_run(d, s, m, alpha=0.3)\n"
        "    tp.htp_run(d, s, m)\n"
        "    tp.trace_test(m, d, s, (1,), 2, 0.05)\n"
        "    trace_test_with_weights(m, d, s, (1,), 2, 0.05, quantile='exact')\n"
        "    for path in paths:\n"
        "        for argv in (['select', path], ['screen', path],\n"
        "                     ['test', path, '--working-set', '1', '--candidate', '2'],\n"
        "                     ['test', path, '--candidate', '2', '--exact-quantile']):\n"
        "            argv += ['--method', m.value, '--format', 'json-lines']\n"
        "            assert cli.main(argv) == 0, argv\n"
        "assert sys.modules['numpy.ma'] is None\n"
    )
    argv = [sys.executable, "-c", code, str(tmp_path)]
    run = subprocess.run(argv, cwd=ROOT / "src", capture_output=True, text=True)
    if run.returncode == 3:
        pytest.skip(f"numpy {np.__version__} imports numpy.ma when numpy is imported")
    assert run.returncode == 0, run.stderr

