"""One worker-range dispatch: only ``fbm.py`` creates a thread pool, so
every sampler and experiment splits its replicates the same way."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbmlab"


def pool_sites(source: str) -> list:
    """Lines of ``source`` that call ``ThreadPoolExecutor``, by name or as
    an attribute (``futures.ThreadPoolExecutor(...)``)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "ThreadPoolExecutor":
                sites.append(node.lineno)
    return sites


def test_pool_site_is_reported():
    source = ("import concurrent.futures as cf\nfrom concurrent.futures import "
              "ThreadPoolExecutor\nThreadPoolExecutor(2)\n\ncf.ThreadPoolExecutor()\n")
    assert pool_sites(source) == [3, 5]


def test_only_fbm_creates_a_thread_pool():
    sites = {p.name: pool_sites(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {
        "fbm.py": sites["fbm.py"]}
    assert len(sites["fbm.py"]) == 1
