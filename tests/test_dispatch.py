"""One worker-range dispatch and one path synthesis: only ``fbm.py`` creates
a thread pool, so every sampler and experiment splits its replicates the
same way, and only ``fbm.py`` sums increments into paths, in
``fbm.fft_paths``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbmlab"


def call_sites(source: str, name: str) -> list:
    """Lines of ``source`` that call ``name``, bare or as an attribute
    (``futures.ThreadPoolExecutor(...)``, ``np.cumsum(...)``)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                sites.append(node.lineno)
    return sites


def package_sites(name: str) -> dict:
    """Call sites of ``name`` per src module that has any."""
    sites = {p.name: call_sites(p.read_text(), name)
             for p in sorted(PACKAGE.glob("*.py"))}
    return {module: lines for module, lines in sites.items() if lines}


def test_pool_site_is_reported():
    source = ("import concurrent.futures as cf\nfrom concurrent.futures import "
              "ThreadPoolExecutor\nThreadPoolExecutor(2)\n\ncf.ThreadPoolExecutor()\n")
    assert call_sites(source, "ThreadPoolExecutor") == [3, 5]


def test_only_fbm_creates_a_thread_pool():
    sites = package_sites("ThreadPoolExecutor")
    assert list(sites) == ["fbm.py"]
    assert len(sites["fbm.py"]) == 1


def test_cumsum_site_is_reported():
    source = ("import numpy as np\nfrom numpy import cumsum\nnp.cumsum(x)\n"
              "cumsum(x, out=y)\nx.cumsum(axis=-1)\n")
    assert call_sites(source, "cumsum") == [3, 4, 5]


def test_only_fbm_sums_increments_into_paths():
    assert list(package_sites("cumsum")) == ["fbm.py"]
