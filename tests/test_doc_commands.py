"""Commands and paths quoted in the README, CI and examples exist.

Docs drift when code moves: a ``python -m repro.<module>`` line whose
module was deleted, a ``tests/...`` path that was renamed, or a
``python -m repro.service`` flag that was removed keeps reading fine
until someone copies it.  This test resolves every such quote against
the checkout, and parses every quoted service command with the real
argument parser (without running it).
"""

from __future__ import annotations

import contextlib
import glob
import importlib.util
import io
import os
import re
import shlex

from repro.service.__main__ import _build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCUMENTS = sorted(
    [os.path.join(ROOT, "README.md"),
     os.path.join(ROOT, "examples", "cluster-compose.yml")]
    + glob.glob(os.path.join(ROOT, ".github", "workflows", "*.yml"))
)

MODULE_RE = re.compile(r"python3? -m (repro(?:\.\w+)*)")
PATH_RE = re.compile(
    r"(?<![\w./-])((?:benchmarks|tests|examples|perfbench)/[\w./-]*)"
)


#: A command runs to the end of its line or inline code span.
SERVICE_RE = re.compile(r"python3? -m repro\.service ([a-z][a-z-]*[^\n`]*)")
#: A YAML key that opens a folded block scalar (``run: >``).
FOLDED_RE = re.compile(r"^(\s*)(?:- )?[\w-]+:\s*>[-+]?\s*$")
#: A shell line continuation, also inside a ``#`` comment block.
CONTINUATION_RE = re.compile(r"\\\n[ \t]*(?:#[ \t]*)?")


def _unfold(text):
    """Join each YAML folded block's lines into one line."""
    lines = text.split("\n")
    out = []
    index = 0
    while index < len(lines):
        line = lines[index]
        index += 1
        opener = FOLDED_RE.match(line)
        if opener is None:
            out.append(line)
            continue
        indent = len(opener.group(1))
        folded = []
        while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) > indent):
            folded.append(lines[index].strip())
            index += 1
        out.append(line.rstrip() + " " + " ".join(filter(None, folded)))
    return "\n".join(out)


def _service_commands():
    """``(document, argv)`` for every quoted ``python -m repro.service``
    command; the argv stops at the first shell operator."""
    found = []
    for document in DOCUMENTS:
        with open(document, encoding="utf-8") as handle:
            text = handle.read()
        if document.endswith(".yml"):
            text = _unfold(text)
        text = CONTINUATION_RE.sub(" ", text)
        for match in SERVICE_RE.finditer(text):
            lexer = shlex.shlex(match.group(1), posix=True,
                                punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if set(token) <= set("<>|&;()"):
                    break
                argv.append(token)
            found.append((os.path.relpath(document, ROOT), argv))
    return found


def _quotes(pattern):
    found = set()
    for document in DOCUMENTS:
        with open(document, encoding="utf-8") as handle:
            text = handle.read()
        for match in pattern.finditer(text):
            found.add(
                (os.path.relpath(document, ROOT), match.group(1).rstrip("."))
            )
    return sorted(found)


def test_documents_are_found():
    assert os.path.join(ROOT, "README.md") in DOCUMENTS
    assert any(doc.endswith("ci.yml") for doc in DOCUMENTS)


def test_quoted_modules_resolve():
    quotes = _quotes(MODULE_RE)
    assert quotes
    missing = [
        "%s: python -m %s" % (document, module)
        for document, module in quotes
        if importlib.util.find_spec(module) is None
    ]
    assert not missing, "quoted modules do not resolve: %s" % missing


def test_quoted_paths_exist():
    quotes = _quotes(PATH_RE)
    assert quotes
    missing = [
        "%s: %s" % (document, path)
        for document, path in quotes
        if not os.path.exists(os.path.join(ROOT, path))
    ]
    assert not missing, "quoted paths do not exist: %s" % missing


def test_quoted_service_commands_parse():
    commands = _service_commands()
    assert {argv[0] for _, argv in commands} >= {
        "serve", "cluster", "spawn-cluster", "loadgen",
    }
    assert {document for document, _ in commands} >= {
        "README.md", "examples/cluster-compose.yml",
        os.path.join(".github", "workflows", "ci.yml"),
    }
    parser = _build_parser()
    failures = []
    for document, argv in commands:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parser.parse_args(argv)
        except SystemExit:
            failures.append("%s: python -m repro.service %s\n  %s" % (
                document, " ".join(argv),
                stderr.getvalue().strip().splitlines()[-1],
            ))
    assert not failures, "quoted service commands do not parse:\n%s" % (
        "\n".join(failures)
    )
