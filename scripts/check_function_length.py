#!/usr/bin/env python3
"""Fails when an engine function grows past a fixed length.

Scans every *.hpp / *.cpp under every directory of src/ and measures
each function body
that is not nested inside another function: namespace-scope functions
and member functions, whether defined in or out of their class. A
body's length runs from the line of its opening brace to the line of
its closing brace; lambdas and local classes count toward the function
that contains them. Any body longer than LIMIT lines is reported and the
script exits 1.

Usage (from anywhere; takes no flags):

    python3 scripts/check_function_length.py
"""

import pathlib
import re
import sys

LIMIT = 150
ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRS = tuple(sorted(str(d.relative_to(ROOT))
                   for d in (ROOT / "src").iterdir() if d.is_dir()))

SCOPE_RE = re.compile(
    r"^(template\s*<.*>\s*)?(namespace|class|struct|union|enum)\b"
    r"|^extern\s*\"", re.S)
# A signature ends in ')' plus optional qualifiers or a trailing return
# type; a constructor's ends in its member-initializer list.
SIGNATURE_RE = re.compile(
    r"\)\s*(const|override|final|noexcept|mutable|&&?|\s)*"
    r"(->\s*[\w:<>,\s*&]+)?$", re.S)
INIT_LIST_RE = re.compile(r"\)\s*:\s*[\w:]+\s*[({].*[)}]$", re.S)
NAME_RE = re.compile(r"([~\w:]+|operator\s*\S+)\s*\(")


def strip(text):
    """Blanks comments, string and char literals and preprocessor lines,
    keeping every newline so line numbers survive."""
    out = []
    i = 0
    n = len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "\n":
            at_line_start = True
            out.append(c)
            i += 1
            continue
        if not c.isspace():
            at_line_start = False
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
            continue
        if c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (min(j, n) - i - 1) + c)
            i = j + 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def functions(path):
    """Yields (name, first line, length) of every outermost function."""
    text = strip(path.read_text())
    stack = []  # (kind, open line, name)
    boundary = 0  # start of the current declaration's header
    line = 1
    for i, c in enumerate(text):
        if c == "\n":
            line += 1
        elif c == ";" and not any(k == "func" for k, _, _ in stack):
            boundary = i + 1
        elif c == "{":
            if any(k == "func" for k, _, _ in stack):
                stack.append(("block", line, ""))
                continue
            header = " ".join(text[boundary:i].split())
            if SCOPE_RE.search(header) and not header.endswith(")"):
                stack.append(("scope", line, ""))
                boundary = i + 1
            elif SIGNATURE_RE.search(header) or INIT_LIST_RE.search(header):
                names = NAME_RE.findall(header.split(")")[0] + ")")
                stack.append(("func", line, names[0] if names else "?"))
            else:
                stack.append(("init", line, ""))
        elif c == "}" and stack:
            kind, start, name = stack.pop()
            if kind == "func":
                yield name, start, line - start + 1
            if kind in ("func", "scope"):
                boundary = i + 1


def main():
    too_long = []
    for d in DIRS:
        for path in sorted((ROOT / d).glob("*.[ch]pp")):
            for name, start, length in functions(path):
                if length > LIMIT:
                    too_long.append(
                        f"{path.relative_to(ROOT)}:{start}: {name} is "
                        f"{length} lines (limit {LIMIT})")
    for msg in too_long:
        print(msg)
    if too_long:
        return 1
    print(f"check_function_length: every function in {', '.join(DIRS)} "
          f"is at most {LIMIT} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
