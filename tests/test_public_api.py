"""README's "Public API" section against the code: its export bullet
names what ``langprofile/__init__.py`` imports, and every name that a
demo imports from a ``langprofile`` module is listed in the section."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Public API\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _backticked(text: str) -> list[str]:
    return re.findall(r"`([^`\n]+)`", text)


def _imported(path: Path, level: int) -> list[tuple[str, str]]:
    """Each ``(module, name)`` that ``path`` imports with ``from module
    import name``, relative imports of ``level`` or absolute ones when
    ``level`` is 0."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module or "", alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == level
            for alias in node.names]


def test_export_bullet_names_what_the_package_imports():
    bullet = re.search(r"^\* `langprofile` exports (.*?)(?=^\* |\n\n)", _section(),
                       re.MULTILINE | re.DOTALL)
    assert bullet, "no '* `langprofile` exports' bullet"
    exported = [name for _, name in _imported(ROOT / "src" / "langprofile" / "__init__.py", 1)]
    assert sorted(_backticked(bullet[1])) == sorted(exported)


def test_every_name_a_demo_imports_from_a_module_is_listed():
    listed = {token.rsplit(".", 1)[-1] for token in _backticked(_section())}
    missing = [f"{demo.name}: {module}.{name}"
               for demo in sorted((ROOT / "demos").glob("*.py"))
               for module, name in _imported(demo, 0)
               if module.startswith("langprofile.") and name not in listed]
    assert missing == []
