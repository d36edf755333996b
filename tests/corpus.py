"""A fixed corpus of `icsets` commands whose outputs are pinned by digest.

Each command runs in this process through `icsets.cli.main`, and its
(argv, exit code, stdout, stderr) feeds the SHA-256 digest of its named
group; `verify --json` records drop their `elapsed` field first.
`tests/corpus_digests.json` holds each group's digest and command count,
and `tests/test_corpus.py` recomputes them.  A change that alters an output
on purpose rewrites that file with `--write` and names the groups, and the
commands, whose output changed.

The corpus keeps its own spec lists.  It leaves out argparse usage errors
and JSON-decoder messages, whose texts differ across Python versions.

    python tests/corpus.py               check every group against the digests
    python tests/corpus.py --write       rewrite the digests from this tree
    python tests/corpus.py --against REV list the commands whose exit code,
                                         stdout or stderr differs at git
                                         revision REV (checked out with
                                         `git worktree` in a temporary folder)
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"

TABLES = ("rectangle", "bminuscule", "typeA", "truncated", "broot")
SERIES_ORDERS = (0, 1, 5, 12, 20, 40, 41)
FORMATS = ("text", "csv", "json")

SMALL_COUNT_SPECS = (
    [f"rect:{m}x{n}" for m in range(5) for n in range(5)]
    + [f"trunc:{m}x{n}:{r}" for m in range(5) for n in range(5) for r in range(min(m, n) + 1)]
    + ["trunc:3x3:-1", "trunc:4x2:-3"]
    + [f"rootA:{k}" for k in range(9)]
    + [f"minB:{n}" for n in range(9)]
    + [f"rootB:{n}" for n in range(6)]
    + ["ordsum:1", "ordsum:5", "ordsum:3+3", "ordsum:2+3+1", "ordsum:1+1+1+1", "ordsum:8+8+8"]
    + ["cube:0x0x0", "cube:1x1x1", "cube:2x2x2", "cube:1x2x3", "cube:2x3x4", "cube:3x3x3"]
)
# one spec per family under each single method, where some engines are missing
METHOD_SPECS = ("rect:3x4", "rect:4x5", "trunc:3x4:1", "rootA:3", "minB:3", "rootB:2", "ordsum:2+2", "cube:2x2x2")
# reached by the series engines only: no oracle runs to its work bound
SERIES_ONLY_SPECS = (
    [f"rootA:{k}" for k in range(20, 40)]
    + [f"rootB:{n}" for n in range(21, 41)]
    + ["trunc:40x40:0", "trunc:40x40:20"]
    # past a series budget
    + ["rootA:40", "rootB:41", "rect:41x2", "trunc:41x3:1", "trunc:3x41:1"]
)
# the specs whose every ICS is mapped, classified, measured and mapped back
MAP_SPECS = (
    [f"rect:{m}x{n}" for m in range(4) for n in range(4)]
    + [f"trunc:{m}x{n}:{r}" for m in range(4) for n in range(4) for r in range(min(m, n) + 1)]
    + [f"rootA:{k}" for k in range(5)]
)
# map requests that no frame or engine allows
MAP_REFUSALS = (
    ("map", "minB:3", "[]", "--to", "walk"),
    ("map", "rootB:2", "[]", "--to", "classify"),
    ("map", "ordsum:2+1", "[]", "--to", "walk"),
    ("map", "cube:2x2x2", "[]", "--to", "walk"),
    ("map", "rootA:3", "[]", "--to", "motzkin"),
    ("map", "trunc:3x3:1", "[]", "--to", "motzkin"),
    ("map", "rect:2x2", "[]", "--to", "classify", "--inverse"),
    ("map", "rootA:2", "e w", "--to", "motzkin", "--inverse"),
    ("map", "rect:2x2", "U D", "--to", "motzkin", "--inverse"),
    ("map", "rect:2x2", "e w", "--to", "walk", "--inverse"),
)
ENUMERATE_SPECS = (
    "rect:0x0", "rect:1x2", "rect:2x2", "rect:2x3", "trunc:3x3:1", "trunc:3x3:3", "rootA:2",
    "minB:2", "rootB:1", "ordsum:1+2", "cube:1x2x2",
)
ENUMERATE_REFUSALS = (
    ("enumerate", "rect:2x2", "--limit", "-1"),
    ("enumerate", "rect:6x6"),
    ("enumerate", "ordsum:30"),
    ("enumerate", "ordsum:18"),
    ("enumerate", "cube:3x3x3", "--limit", "4"),
)
# each pair of elements, interval-closed or not, and inputs that are no ICS
WITNESS_SPECS = ("rect:3x3", "trunc:3x3:1", "rootA:3", "minB:3", "rootB:2", "ordsum:1+2+1", "cube:2x2x2")
BAD_INPUTS = (
    ("stats", "rect:2x2", "[[3,3]]"),
    ("stats", "rect:2x2", "[[0,1],[1,1]]"),
    ("stats", "rect:2x2", "[[1,true]]"),
    ("stats", "rect:2x2", '[["a",1]]'),
    ("stats", "rect:2x2", "{}"),
    ("stats", "rect:2x2", "7"),
    ("stats", "cube:2x2x2", "[[1,1]]"),
    ("map", "rect:2x2", "[[3,1]]", "--to", "walk"),
    ("map", "trunc:3x3:1", "[[1,1]]", "--to", "walk"),
    ("map", "rootA:3", "[[1,1]]", "--to", "classify"),
)
BAD_SPECS = (
    "", "rect", "rect:", "rect:2", "rect:2z3", "rect:2x3x4", "rect:-1x2", "rect:ax2", "rect:2x3:1",
    "trunc:3x3", "trunc:3x3:4", "trunc:2x3:x", "rootA:", "rootA:-1", "rootA:1x1", "minB:-1",
    "minB:b", "rootB:-2", "ordsum:", "ordsum:0", "ordsum:2+0+1", "ordsum:2++1", "cube:1x2",
    "cube:1x2x-3", "pyramid:9", "RECT:2x2",
)


def run(argv) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process `icsets` command."""
    from icsets import cli  # here: as a script, main() puts the tree's src on sys.path first

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # an argparse refusal
            code = exc.code
        except Exception as exc:  # a crash is recorded, so that it shows as a change
            code = "raised"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    stdout = out.getvalue()
    if argv[0] == "verify" and stdout.startswith("["):
        records = [{k: v for k, v in r.items() if k != "elapsed"} for r in json.loads(stdout)]
        stdout = json.dumps(records, indent=2) + "\n"
    return code, stdout, err.getvalue()


def _every_ics(spec: str) -> list[str]:
    code, out, err = run(["enumerate", spec, "--json"])
    if code != 0:
        raise RuntimeError(f"enumerate {spec} exited {code}: {err}")
    return [json.dumps(labels, separators=(",", ":")) for labels in json.loads(out)]


def _mutated(text: str, k: int) -> str:
    """A path text with one change, chosen by k: two adjacent tokens swapped,
    the last token dropped, or the first token repeated."""
    tokens = text.split()
    if len(tokens) < 2:
        return text + " " + text
    kind, at = k % 3, k % (len(tokens) - 1)
    if kind == 0:
        tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    elif kind == 1:
        tokens.pop()
    else:
        tokens.insert(0, tokens[0])
    return " ".join(tokens)


@lru_cache(maxsize=None)
def commands() -> dict[str, list[tuple[str, ...]]]:
    """The corpus, group by group, in a fixed order.  The inverse maps read
    back the forward images that this tree prints."""
    count = []
    for spec in SMALL_COUNT_SPECS:
        count += [("count", spec), ("count", spec, "--json")]
    for spec in METHOD_SPECS:
        count += [("count", spec, "--method", method) for method in ("oracle", "formula", "series")]
    for spec in SERIES_ONLY_SPECS:
        count += [("count", spec, "--method", "series"), ("count", spec, "--method", "series", "--json")]

    series = [("series", which) for which in TABLES]
    series += [("--seed-order", "3", "series", which) for which in TABLES]
    for which in TABLES:
        for order in (-1, *SERIES_ORDERS):
            series += [("series", which, "--order", str(order), "--format", fmt) for fmt in FORMATS]

    maps, inverse, classify, stats = [], [], [], []
    for spec in MAP_SPECS:
        motzkin = spec.startswith("rect:") or spec.endswith(":0")
        for ics in _every_ics(spec):
            for to in ("walk", "motzkin") if motzkin else ("walk",):
                maps.append(("map", spec, ics, "--to", to))
                text = run(maps[-1])[1].strip()
                inverse.append(("map", spec, text, "--to", to, "--inverse"))
                if len(maps) % 2:  # every other image, mutated
                    inverse.append(("map", spec, _mutated(text, len(maps) // 2), "--to", to, "--inverse"))
            classify.append(("map", spec, ics, "--to", "classify"))
            stats.append(("stats", spec, ics, "--json") if len(classify) % 2 else ("stats", spec, ics))
    maps += MAP_REFUSALS

    witnesses = list(BAD_INPUTS)
    for spec in WITNESS_SPECS:
        elements = [json.loads(ics)[0] for ics in _every_ics(spec) if ics.count("[") == 2]
        for a, x in enumerate(elements):
            for y in elements[a + 1 :]:
                pair = json.dumps([x, y], separators=(",", ":"))
                witnesses += [("stats", spec, pair, "--json"), ("map", spec, pair, "--to", "classify")]

    enumerate_ = list(ENUMERATE_REFUSALS)
    for spec in ENUMERATE_SPECS:
        enumerate_ += [("enumerate", spec), ("enumerate", spec, "--json")]
        enumerate_ += [("enumerate", spec, "--limit", "0"), ("enumerate", spec, "--limit", "3", "--json")]

    bad_specs = []
    for spec in BAD_SPECS:
        bad_specs += [("count", spec), ("enumerate", spec), ("stats", spec, "[]"), ("map", spec, "[]", "--to", "walk")]

    return {
        "count": count,
        "series": series,
        "map": maps,
        "inverse": inverse,
        "classify": classify,
        "stats": stats,
        "witnesses": witnesses,
        "enumerate": enumerate_,
        "bad_specs": bad_specs,
        "verify": [("verify", "--json", "--level", "quick")],
        "verify_full": [("verify", "--json", "--level", "full")],
    }


def _record(argv, result) -> bytes:
    return (json.dumps([list(argv), *result]) + "\n").encode()


def digest(group: str) -> dict:
    """The command count and SHA-256 of one group, as in the digest file."""
    h = hashlib.sha256()
    cmds = commands()[group]
    for argv in cmds:
        h.update(_record(argv, run(argv)))
    return {"commands": len(cmds), "sha256": h.hexdigest()}


def committed() -> dict:
    return json.loads(DIGESTS.read_text())


def _results_at(rev: str, cmds: list[tuple[str, ...]]) -> list:
    """Run cmds against icsets at git revision rev, in a child interpreter."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            child = subprocess.run(
                [sys.executable, __file__, "--run", str(tree / "src")],
                input=json.dumps(cmds), capture_output=True, text=True,
            )
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    if child.returncode:
        sys.exit(f"the corpus run at {rev} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def _short(text: object) -> str:
    text = repr(text)
    return text if len(text) <= 160 else text[:150] + f"... ({len(text)} chars)"


def against(rev: str) -> int:
    """Print each command whose exit code, stdout or stderr differs between
    rev and this tree, as rev -> tree; the number of such commands."""
    groups = commands()
    flat = [(group, argv) for group, cmds in groups.items() for argv in cmds]
    theirs = _results_at(rev, [argv for _, argv in flat])
    changed = 0
    for (group, argv), old in zip(flat, theirs):
        new = list(run(argv))
        if new == old:
            continue
        changed += 1
        print(f"[{group}] icsets {shlex.join(argv)}")
        for name, a, b in zip(("exit", "stdout", "stderr"), old, new):
            if a != b:
                print(f"    {name}: {_short(a)} -> {_short(b)}")
    print(f"{changed} of {len(flat)} commands differ between {rev} and this tree")
    return changed


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"] and len(argv) == 2:  # the child of --against: argv lists on stdin
        sys.path.insert(0, argv[1])
        json.dump([run(cmd) for cmd in json.load(sys.stdin)], sys.stdout)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["--against"] and len(argv) == 2:
        return 1 if against(argv[1]) else 0
    if argv == ["--write"]:
        DIGESTS.write_text(json.dumps({g: digest(g) for g in commands()}, indent=2) + "\n")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    expected, bad = committed(), 0
    for group in commands():
        ok = digest(group) == expected.get(group)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {group}")
    return 1 if bad or expected.keys() != commands().keys() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
