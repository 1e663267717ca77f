#!/usr/bin/env python3
"""Print the two size numbers of the package: its line count and its count
of settable values.

The line count is the number of lines of every ``.py`` file under
``src/ehglue`` (what ``wc -l`` adds up).  A settable value is a function
parameter with a default, positional or keyword-only, or a field with a
default in a class decorated with ``dataclass``; both are counted with
``ast``, lambdas included.

    python3 scripts/code_size.py            # this checkout
    python3 scripts/code_size.py OTHER/src/ehglue
"""

import argparse
import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "src", "ehglue")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", "")) == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=PACKAGE,
                        help="package directory (default: src/ehglue)")
    args = parser.parse_args()
    lines = settable = 0
    for name in sorted(os.listdir(args.package)):
        if name.endswith(".py"):
            with open(os.path.join(args.package, name), encoding="utf-8") as fh:
                text = fh.read()
            lines += text.count("\n")
            settable += settable_values(ast.parse(text))
    print(f"lines {lines}")
    print(f"settable_values {settable}")


if __name__ == "__main__":
    main()
