"""Each module of the package uses only the public names of its siblings."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "transelect"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name):
            found += [f"{path.name}:{node.lineno} imports {a.name} from "
                      f"{'.' * node.level}{node.module or ''}"
                      for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [line for path in modules for line in _private_imports(path)] == []
