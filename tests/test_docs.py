"""Documentation accuracy: the README's code blocks must run.

Broken quickstart snippets are the fastest way to lose a prospective
user; this test executes every Python fence in README.md.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
DESIGN = Path(__file__).parent.parent / "DESIGN.md"
EXPERIMENTS = Path(__file__).parent.parent / "EXPERIMENTS.md"


def python_blocks(path: Path) -> list[str]:
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_readme_exists_with_required_sections():
    text = README.read_text()
    for section in ("Install", "Quickstart", "Architecture",
                    "Reproducing the paper"):
        assert section in text


def test_readme_python_blocks_execute():
    blocks = python_blocks(README)
    assert blocks, "README should contain runnable python examples"
    for block in blocks:
        exec(compile(block, "<README>", "exec"), {})


def test_design_lists_every_experiment():
    text = DESIGN.read_text()
    for artifact in ("Fig 2a", "Fig 2b", "Fig 3a", "Fig 3b", "Fig 4a",
                     "Fig 4b", "Fig 5", "Table 1", "Fig 7"):
        assert artifact in text, f"DESIGN.md missing {artifact}"


def test_experiments_covers_every_figure():
    text = EXPERIMENTS.read_text()
    for heading in ("Figure 2", "Figure 3", "Figure 4", "Figure 5",
                    "Table 1", "Figure 7"):
        assert heading in text, f"EXPERIMENTS.md missing {heading}"


def test_design_module_map_matches_tree():
    """Every subpackage named in DESIGN.md's module map exists."""
    import repro

    root = Path(repro.__file__).parent
    for package in ("traces", "forecast", "workload", "cluster",
                    "multisite", "sched", "sim", "analysis",
                    "availability", "batch", "wan"):
        assert (root / package / "__init__.py").exists(), package


def test_examples_referenced_in_readme_exist():
    text = README.read_text()
    examples_dir = Path(__file__).parent.parent / "examples"
    for match in re.findall(r"examples/(\w+\.py)", text):
        assert (examples_dir / match).exists(), match
