"""Command-line interface.

Poset specs use a compact text form:

  rect:MxN       chain product [M] x [N]
  trunc:MxN:R    [M] x [N] with the bottom R ranks removed
  rootA:K        root triangle with K minimal elements
  minB:N         staircase half of [N] x [N]
  rootB:N        type B root poset of rank N
  ordsum:2+3+1   ordinal sum of antichains
  cube:LxMxN     chain product [L] x [M] x [N]

ICS inputs are JSON arrays of 1-based coordinate tuples, e.g.
'[[1,2],[1,3]]' (a single tuple may be given flat: '[1,1]'; the empty
string or '[]' is the empty set).  Path text encodings follow the paths
module: Motzkin tokens 'U D 1 2', walk tokens 'e w se nw'.

Exit codes: 0 success, 1 output pipe closed by its reader, 2
parse/validation error, 3 scale or budget exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import posets, series

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_VERIFY = 4

DEFAULT_SERIES_ORDER = 10
# sets that enumerate prints, at about 23 us each on a 2-vCPU VM: about 5 s
ENUMERATE_SET_BOUND = 200_000

# every bound on a poset's size or an engine's work; each exits 3
SCALE_ERRORS = (posets.OracleScaleExceeded, posets.PosetScaleExceeded, series.SeriesBudgetExceeded)


class VerificationFailure(RuntimeError):
    pass


def parse_poset_spec(text: str) -> posets.PosetSpec:
    kind, _, rest = text.partition(":")
    family = posets.FAMILY_BY_PREFIX.get(kind)
    if family is None:
        raise ValueError(f"bad poset spec {text!r}: unknown family {kind!r}")
    try:
        spec = family.parse(rest)
    except ValueError:
        raise ValueError(f"bad poset spec {text!r}: expected {family.form}") from None
    try:
        return family.check(spec)
    except ValueError as exc:
        raise ValueError(f"bad poset spec {text!r}: {exc}") from None


def parse_ics_json(text: str) -> frozenset[tuple]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad ICS JSON: {exc}") from None
    if not isinstance(data, list):
        raise ValueError("ICS JSON must be an array")
    if not data:
        return frozenset()
    if not any(isinstance(v, list) for v in data):
        data = [data]  # a single tuple given flat
    out = []
    for item in data:
        # type() rather than isinstance(): JSON true/false are bools, and bool is an int
        if not isinstance(item, list) or not all(type(v) is int for v in item):
            raise ValueError(f"bad ICS element {json.dumps(item)}; expected [a,b] or [a,b,c]")
        out.append(tuple(item))
    return frozenset(out)


def label_rows(labels) -> list[list]:
    """Sorted labels as JSON-ready lists."""
    return [list(lab) for lab in sorted(labels)]


def format_labels(labels) -> str:
    return json.dumps(label_rows(labels), separators=(",", ":"))


# ---------------------------------------------------------------------------
# count


@contextlib.contextmanager
def _full_decimal_digits():
    """Lift the interpreter's limit on int-to-decimal conversion (4300 digits
    by default; absent before Python 3.10.7) while counts are printed: the
    limit guards the parsing of untrusted text, which keeps it, and each
    engine bounds the size of its own counts."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_count(args) -> int:
    """Count with the engine named, or with every engine that applies: under
    --method all, an engine past a bound is skipped, and if no engine answers,
    the last engine's scale error is raised.  The oracle applies to every
    family, so under --method all some engine answers or raises."""
    spec = parse_poset_spec(args.spec)
    family = posets.family_of(spec)
    method = args.method
    results: dict[str, int] = {}
    skipped = None
    for name, engine, missing in (
        ("oracle", family.oracle, None),
        ("formula", family.formula, "no closed formula"),
        ("series", family.series, "no series engine"),
    ):
        if method not in (name, "all"):
            continue
        try:
            value = engine(spec)
        except SCALE_ERRORS as exc:
            if method == name:
                raise
            skipped = exc
            continue
        if value is not None:
            results[name] = value
        elif method == name:
            raise ValueError(f"{missing} for {args.spec}")
    if not results:
        raise skipped
    with _full_decimal_digits():
        if args.json:
            print(json.dumps({"spec": args.spec, "counts": {k: str(v) for k, v in results.items()}}))
        else:
            print(", ".join(str(v) for v in results.values()))
        if len(set(results.values())) > 1:
            raise VerificationFailure(f"methods disagree: {results}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate / stats


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ValueError("--limit must be non-negative")
    spec = parse_poset_spec(args.spec)
    posets.check_oracle_scale(posets.family_of(spec).size(spec))  # before building
    poset = posets.build_poset(spec)
    sets = posets.count_ics(poset)  # at most about 13 ms within the element bound
    if args.limit is not None:
        sets = min(sets, args.limit)
    if sets > ENUMERATE_SET_BOUND:
        raise posets.OracleScaleExceeded(
            f"oracle scale exceeded: {sets} sets > bound {ENUMERATE_SET_BOUND}"
        )
    stream = (
        label_rows(poset.labels_of(s))
        for s in posets.enumerate_ics(poset, limit=args.limit)
    )
    if args.json:
        # the array is written row by row, never held whole
        print("[", end="")
        for k, row in enumerate(stream):
            print(("," if k else "") + json.dumps(row, separators=(",", ":")), end="")
        print("]")
    else:
        for row in stream:
            print(json.dumps(row, separators=(",", ":")))
    return EXIT_OK


def cmd_stats(args) -> int:
    spec = parse_poset_spec(args.spec)
    poset = posets.build_poset(spec)
    labels = parse_ics_json(args.ics)
    members = poset.indices_of(labels)
    posets.require_ics(poset, members)
    st = posets.subset_stats(poset, members)
    payload = {
        "cardinality": st.cardinality,
        "components": st.component_count,
        "incomparable": st.incomparable_count,
        "minimal_in_subset": st.minimal_in_subset,
    }
    if st.hits_all_files is not None:
        payload["hits_all_files"] = st.hits_all_files
    if args.json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# map


def _map_frame(args, spec) -> tuple[int, int, int]:
    """The spec's rectangle frame (m, n, r); Motzkin images need r = 0."""
    frame = posets.family_of(spec).frame(spec)
    if args.to == "motzkin" and (frame is None or frame[2] != 0):
        raise ValueError("Motzkin images are defined for rect:MxN and trunc:MxN:0 specs")
    if frame is None:
        raise ValueError(f"no rectangle frame for {args.spec}")
    return frame


def cmd_map(args) -> int:
    from . import bijections, paths

    spec = parse_poset_spec(args.spec)
    if args.inverse:
        return _cmd_map_inverse(args, spec)
    labels = parse_ics_json(args.input)
    posets.build_poset(spec).indices_of(labels)  # unknown labels exit 2 before any family check
    m, n, _ = _map_frame(args, spec)
    if args.to == "motzkin":
        word = bijections.ics_to_motzkin(m, n, labels)
        print(paths.motzkin_to_text(word))
    elif args.to == "walk":
        walk = bijections.ics_to_walk(spec, labels)
        print(paths.walk_to_text(walk))
    elif args.to == "classify":
        cl = bijections.classify_elements(spec, labels)
        payload = {
            "in": label_rows(cl.in_ics),
            "below_only": label_rows(cl.below_only),
            "above_only": label_rows(cl.above_only),
            "incomparable": label_rows(cl.incomparable),
        }
        print(json.dumps(payload, separators=(",", ":")))
    return EXIT_OK


def _cmd_map_inverse(args, spec) -> int:
    from . import bijections, paths

    if args.to == "classify":
        raise ValueError("classification has no inverse")
    m, n, r = _map_frame(args, spec)
    if args.to == "motzkin":
        word = paths.motzkin_from_text(args.input)
        wm, wn, labels = bijections.motzkin_to_ics(word)
        if (wm, wn) != (m, n):
            raise ValueError(f"word has shape ({wm}, {wn}), spec asks for ({m}, {n})")
    else:
        walk = paths.walk_from_text(n - r, args.input)
        frame = bijections.walk_frame(walk)
        if frame != (m, n, r):
            raise ValueError(f"walk frame {frame} does not match spec frame {(m, n, r)}")
        _, labels = bijections.walk_to_ics(walk)
    print(format_labels(labels))
    return EXIT_OK


# ---------------------------------------------------------------------------
# series


def cmd_series(args) -> int:
    order = args.order if args.order is not None else args.seed_order
    series._check_budget(order)  # before any engine steps
    which = args.which
    if which == "rectangle":
        table = series.rectangle_counts(order, order)
        if args.format == "json":
            _print_integer_series(["x", "y"], sorted(table.items()))
        else:
            print("m\\n," + ",".join(str(n) for n in range(order + 1)))
            for m in range(order + 1):
                print(f"{m}," + ",".join(str(table[(m, n)]) for n in range(order + 1)))
    elif which == "bminuscule":
        counts = series.b_minuscule_counts(order)
        if args.format == "json":
            _print_integer_series(["x"], (((n,), c) for n, c in enumerate(counts)))
        else:
            _print_sequence(args, counts, start=0)
    elif which in ("typeA", "broot"):
        if order == 0:
            raise ValueError(f"the {which} sequence starts at order 1, got order 0")
        count = series.typeA_counts if which == "typeA" else series.b_root_counts
        # largest n first: the first call steps F once, the rest read its cache
        _print_sequence(args, [count(n) for n in range(order, 0, -1)][::-1], start=1)
    elif which == "truncated":
        table = series.truncated_counts(order, order, order)
        if args.format == "json":
            _print_integer_series(
                ["t", "x", "z"],
                (((n - r, m - r, m + n), c) for (m, n, r), c in table.items()),
            )
        else:
            print("m,n,r,count")
            for (m, n, r), c in table.items():
                print(f"{m},{n},{r},{c}")
    return EXIT_OK


def _print_integer_series(variables, terms) -> None:
    """Print (exponent, integer coefficient) pairs in the series JSON format
    of reference.TruncatedSeries.to_json_dict, in the order given."""
    payload = [{"exp": list(exp), "num": str(c), "den": "1"} for exp, c in terms]
    print(json.dumps({"vars": variables, "terms": payload}))


def _print_sequence(args, counts, start: int) -> None:
    if args.format == "json":
        print(json.dumps({"start": start, "counts": [str(c) for c in counts]}))
    elif args.format == "csv":
        print("n,count")
        for i, c in enumerate(counts, start=start):
            print(f"{i},{c}")
    else:
        print(", ".join(str(c) for c in counts))


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify

    records = verify.run_checks(args.level)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in records], indent=2))
    else:
        for r in records:
            mark = "PASS" if r.passed else "FAIL"
            print(f"[{mark}] {r.name} ({r.source}, {r.elapsed:.2f}s)")
            if not r.passed:
                print(f"    expected: {r.expected!r}")
                print(f"    actual:   {r.actual!r}")
        failed = sum(1 for r in records if not r.passed)
        print(f"{len(records) - failed}/{len(records)} checks passed")
    if any(not r.passed for r in records):
        raise VerificationFailure("verification failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsets",
        description="Count, enumerate, and map interval-closed sets of chain products, truncated rectangles, and root/minuscule posets.",
    )
    parser.add_argument(
        "--seed-order",
        type=int,
        default=DEFAULT_SERIES_ORDER,
        help=f"default series order when --order is omitted (default {DEFAULT_SERIES_ORDER})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count the ICS of a poset")
    p.add_argument("spec")
    p.add_argument("--method", choices=["oracle", "formula", "series", "all"], default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("enumerate", help="list every ICS in deterministic order")
    p.add_argument("spec")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("map", help="apply a bijection to an ICS (or invert one)")
    p.add_argument("spec")
    p.add_argument("input", help="ICS as JSON, or encoded path text with --inverse")
    p.add_argument("--to", choices=["motzkin", "walk", "classify"], required=True)
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("stats", help="statistics of an ICS")
    p.add_argument("spec")
    p.add_argument("ics")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("series", help="emit a counting sequence or table")
    p.add_argument(
        "which", choices=["rectangle", "bminuscule", "typeA", "truncated", "broot"]
    )
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="recompute every reference number")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early (`icsets enumerate ... | head`): send what
        # is still buffered to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SCALE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
