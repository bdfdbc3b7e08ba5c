"""The README names only what the package defines."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import peqfdn

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_example_uses_real_names():
    missing = []
    for block in re.findall(r"```python\n(.*?)```", README, flags=re.S):
        tree = ast.parse(block)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "peqfdn":
                for alias in node.names:
                    if hasattr(peqfdn, alias.name):
                        imported[alias.asname or alias.name] = getattr(peqfdn, alias.name)
                    else:
                        missing.append(alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                target, label = imported[func.id], func.id
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imported
            ):
                label = f"{func.value.id}.{func.attr}"
                target = getattr(imported[func.value.id], func.attr, None)
                if target is None:
                    missing.append(label)
                    continue
            else:
                continue
            params = inspect.signature(target).parameters
            missing += [f"{label}({kw.arg}=)" for kw in node.keywords if kw.arg not in params]
    assert missing == []


def test_module_notes_name_real_functions():
    bullets = re.findall(r"^- `peqfdn\.(\w+)`:(.*?)(?=^- |^\n)", README, flags=re.S | re.M)
    assert len(bullets) >= 8
    missing = []
    for module_name, body in bullets:
        module = importlib.import_module(f"peqfdn.{module_name}")
        for name in re.findall(r"`([A-Za-z_]\w*)`", body):
            if not hasattr(module, name):
                missing.append(f"peqfdn.{module_name}.{name}")
    assert missing == []
