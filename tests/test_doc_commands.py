"""Commands and paths quoted in the README and the CI workflows exist.

Docs drift when code moves: a ``python -m repro.<module>`` line whose
module was deleted, or a ``tests/...`` path that was renamed, keeps
reading fine until someone copies it.  This test resolves every such
quote against the checkout.
"""

from __future__ import annotations

import glob
import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCUMENTS = sorted(
    [os.path.join(ROOT, "README.md")]
    + glob.glob(os.path.join(ROOT, ".github", "workflows", "*.yml"))
)

MODULE_RE = re.compile(r"python3? -m (repro(?:\.\w+)*)")
PATH_RE = re.compile(
    r"(?<![\w./-])((?:benchmarks|tests|examples|perfbench)/[\w./-]*)"
)


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
