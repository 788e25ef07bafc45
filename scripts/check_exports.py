#!/usr/bin/env python3
"""Fail on exported values that nothing outside their own module calls.

Every `val` in a `lib/**/*.mli` is an export.  A file references the export
`M.v` when, outside strings and comments, it names `v` qualified by `M`:
`M.v`, `A.M.v`, or `X.v` after `module X = A.M`; or names `v` unqualified
after `open M` (anywhere in the file) or inside `M.( ... )`.  Another
module's value of the same name is no reference.  The export's own
`.ml`/`.mli` do not count, and files under `test/` are tests.  Its own
`.ml` uses it when it names `v` with no `.` right before: `Array.length`
or `t.length` in `heap.ml` is no use of `Heap.length`.  The check fails
on:

  unreferenced   no file outside the module names it, and its own `.ml`
                 does not use it either: delete it;
  internal-only  only its own `.ml` uses it: take it out of the `.mli`;
  test-only      only tests name it and its own `.ml` never uses it:
                 delete it with the tests whose only subject it is, or list
                 it in scripts/exports_allow.txt with the reason it stays;
  stale          an allow-list entry names no export, or an export that is
                 not test-only;
  no reason      an allow-list entry gives no reason.

An allow-list line is `Module.value  reason`; `#` starts a comment.

Limit: own uses are matched by name, not binding, so a record field of the
same name that the module declares or builds unqualified (`breaker :
...`, `{ breaker = ... }`) still counts as a use.  `Controller.breaker`,
which only a test calls, passes for that reason.

Run it from anywhere: python3 scripts/check_exports.py.  It checks the tree
it sits in (the directory above scripts/), prints one line per problem and
exits 1 when there is any, 0 otherwise.
"""

import collections
import os
import re
import sys

ALLOW = os.path.join("scripts", "exports_allow.txt")

IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
NUMBER = re.compile(r"[0-9][0-9A-Za-z_'.]*")
# Operator runs are one token, so the dot of `+.` qualifies nothing.
OPERATOR = re.compile(r"[!$%&*+\-./:<=>?@^|~]+")
CHAR = re.compile(
    r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def skip_string(src, i):
    """Index just past the string literal that opens at src[i]."""
    i += 1
    while i < len(src) and src[i] != '"':
        i += 2 if src[i] == "\\" else 1
    return i + 1


def tokens(src):
    """The identifiers, operators and parentheses outside comments and
    strings, in source order."""
    seq = []
    i, n, depth = 0, len(src), 0
    while i < n:
        if src.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif src[i] == '"':
            i = skip_string(src, i)
        elif src[i] == "{" and QUOTED.match(src, i):
            m = QUOTED.match(src, i)
            end = src.find("|" + m.group(1) + "}", m.end())
            i = n if end < 0 else end + len(m.group(1)) + 2
        elif src[i] == "'" and CHAR.match(src, i):
            i = CHAR.match(src, i).end()
        elif depth:
            i += 1
        elif src[i] in "()":
            seq.append(src[i])
            i += 1
        else:
            m = (IDENT.match(src, i) or NUMBER.match(src, i)
                 or OPERATOR.match(src, i))
            if m is None:
                i += 1
                continue
            if m.re is not NUMBER:
                seq.append(m.group())
            i = m.end()
    return seq


def unqualified(seq):
    """Occurrence counts of the identifiers no `.` comes right before:
    `length` counts, `Array.length` and `t.length` do not."""
    return collections.Counter(
        t for k, t in enumerate(seq)
        if IDENT.fullmatch(t) and (k == 0 or seq[k - 1] != "."))


def is_module(tok):
    return tok[:1].isupper() and IDENT.fullmatch(tok) is not None


def path_end(seq, j):
    """Index of the last component of the module path `A.B.M` at seq[j]."""
    while j + 2 < len(seq) and seq[j + 1] == "." and is_module(seq[j + 2]):
        j += 2
    return j


def references(seq):
    """The (module, value) pairs a token sequence references."""
    aliases = {}
    for k, tok in enumerate(seq[:-3]):
        if tok == "module" and is_module(seq[k + 1]) and seq[k + 2] == "=" \
                and is_module(seq[k + 3]):
            j = path_end(seq, k + 3)
            if j + 1 >= len(seq) or seq[j + 1] not in ("(", "."):
                aliases[seq[k + 1]] = seq[j]

    def resolve(m):
        return aliases.get(m, m)

    refs, opens = set(), set()
    for k, tok in enumerate(seq):
        if tok == "open" and k + 1 < len(seq):
            j = k + 2 if seq[k + 1] == "!" else k + 1
            if j < len(seq) and is_module(seq[j]):
                opens.add(resolve(seq[path_end(seq, j)]))
        elif tok == "." and 0 < k < len(seq) - 1 and is_module(seq[k - 1]):
            nxt = seq[k + 1]
            if IDENT.fullmatch(nxt):
                refs.add((resolve(seq[k - 1]), nxt))
            elif nxt == "(":
                # A local open: the unqualified names up to the matching
                # parenthesis.
                mod, depth = resolve(seq[k - 1]), 0
                for j in range(k + 1, len(seq)):
                    depth += {"(": 1, ")": -1}.get(seq[j], 0)
                    if depth == 0:
                        break
                    if IDENT.fullmatch(seq[j]) and seq[j - 1] != ".":
                        refs.add((mod, seq[j]))
    for k, tok in enumerate(seq):
        if IDENT.fullmatch(tok) and (k == 0 or seq[k - 1] != "."):
            refs.update((m, tok) for m in opens)
    return refs


def sources(root):
    """Every .ml/.mli under root, as paths relative to it, skipping build
    output and the directories dune ignores."""
    for top, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if not d.startswith(("_", ".")))
        for f in sorted(files):
            if f.endswith((".ml", ".mli")):
                yield os.path.relpath(os.path.join(top, f), root)


def exports(path, seq):
    """(module, value) for each `val` of a .mli's token sequence."""
    mod = os.path.basename(path)[:-4].capitalize()
    return [(mod, seq[k + 1]) for k, tok in enumerate(seq[:-1]) if tok == "val"]


def read_allow(root):
    """The allow-list as {"Module.value": (line number, reason)}."""
    allow = {}
    path = os.path.join(root, ALLOW)
    if not os.path.exists(path):
        return allow
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            fields = line.split("#", 1)[0].split(None, 1)
            if fields:
                allow[fields[0]] = (lineno, fields[1:])
    return allow


def check(root):
    """The problems found in the tree at root, one line each."""
    seqs, refsets = {}, {}
    for path in sources(root):
        with open(os.path.join(root, path)) as f:
            seqs[path] = tokens(f.read())
        refsets[path] = references(seqs[path])
    allow = read_allow(root)
    problems = []
    known, test_only = set(), set()
    for mli in sorted(p for p in seqs if p.endswith(".mli")
                      and p.split(os.sep)[0] == "lib"):
        ml = mli[:-1]
        own_uses = unqualified(seqs.get(ml, []))
        for mod, v in exports(mli, seqs[mli]):
            name = mod + "." + v
            known.add(name)
            refs = [p for p in seqs if p not in (ml, mli)
                    and (mod, v) in refsets[p]]
            live = [p for p in refs if p.split(os.sep)[0] != "test"]
            # The definition itself is one occurrence in the .ml.
            used_inside = own_uses[v] > 1
            if not refs and used_inside:
                problems.append(f"{mli}: internal-only export {name}: only "
                                "its own module uses it")
            elif not refs:
                problems.append(f"{mli}: unreferenced export {name}: "
                                "nothing uses it")
            elif not live and not used_inside:
                test_only.add(name)
                if name not in allow:
                    problems.append(f"{mli}: test-only export {name}: only "
                                    "tests use it (" + ", ".join(sorted(refs))
                                    + ")")
    for name, (lineno, reason) in sorted(allow.items(), key=lambda e: e[1]):
        if not reason:
            problems.append(f"{ALLOW}:{lineno}: entry {name} gives no reason")
        if name not in known:
            problems.append(f"{ALLOW}:{lineno}: stale entry {name}: no such "
                            "export")
        elif name not in test_only:
            problems.append(f"{ALLOW}:{lineno}: stale entry {name}: not a "
                            "test-only export")
    return problems


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    problems = check(root)
    for p in problems:
        print(p)
    if problems:
        print(f"check_exports: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
