"""Command-line interface: build summaries, verification sweeps, cohomology
tables, and diagnostic dumps, with machine-readable deterministic reports.

Exit codes: 0 for a clean run, 1 when a verification finds violations, 2 for
configuration errors (N <= 2, a fault spec that the verify kind cannot
inject, --max-arity or --max-len given to a verify kind that does not read
it, --max-len given to dump special, and a bound that leaves nothing to
check or list: --max-arity < 3 for the ainfty kinds and < 2 for grading,
--max-len < 0 for the ainfty kinds, grading, build and dump basis,
--max-len < 1 for homotopy and dump strings, --n-max < 3 for cohomology;
and for cohomology a --trunc below 0 or a --j given twice).
Any other exception is an internal error and propagates.  JSON reports carry
a versioned "schema" field and record the full configuration including the
seed, so equal configurations produce byte-identical output.  Every command
also prints text; cohomology tables print CSV too.  Every sweep runs serially.
Every configuration error is raised before the first byte is written.
Reports stream: a cohomology table is written cell by cell as each is
computed, in every format, and every JSON report goes through one writer that
gives json.dumps's bytes in bounded pieces.  So an internal error can leave a
partial report on stdout before its traceback.
Each command imports the modules it runs inside its own function, so start-up
loads no module of the algebra and not the json package (the report writer
takes its string escaper from the C module `_json`).  A relation sweep never
loads the cobar, cohomology or grading-group modules, and cohomology and
verify homotopy never load the relation kernel; likewise only the command
that runs gets its options added to the parser.

Fault specs for `verify --inject-fault` are negative controls, each valid for
one verify kind only: "drop-mu2N" or "drop-mu2N:k" with 0 <= k < 2N (drop one
component of the centered A-operation) for ainfty-a, and "break-h" (zero the
homotopy) for homotopy.  k is spelled one way, as str(k) writes it: ASCII
digits, no sign, no leading zero ("drop-mu2N:1", never ":01" or ":+1").
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from _json import encode_basestring_ascii

SCHEMA = "starcob/1"


class ConfigError(Exception):
    pass


# the verify kind each parsed fault can be injected into
FAULT_KINDS = {"drop-a-centered": "ainfty-a", "break-h": "homotopy"}

# sweep options a verify kind does not read
UNREAD_OPTIONS = {"homotopy": ("--max-arity",), "arities": ("--max-arity", "--max-len")}


def parse_fault(text: str) -> tuple:
    """Parse a fault-injection spec: "break-h", "drop-mu2N" or "drop-mu2N:k".

    k has one spelling, str(k): ASCII digits with no sign and no leading
    zero, so one fault is one spec and one report.  Only the syntax is
    checked here; `_fault` checks which verify kind the fault applies to
    and the range of k.
    """
    if text == "break-h":
        return ("break-h",)
    if text == "drop-mu2N":
        return ("drop-a-centered", 0)
    k = text.removeprefix("drop-mu2N:")
    # int() caps its digits; past the cap no k is in range anyway
    if k != text and k.isascii() and k.isdigit() and len(k) < 64 and str(int(k)) == k:
        return ("drop-a-centered", int(k))
    raise ValueError(f"unknown fault spec {text!r}")


def _fault(args) -> Optional[tuple]:
    """The parsed --inject-fault spec, checked against the verify kind and N."""
    spec = args.inject_fault
    if spec is None:
        return None
    try:
        fault = parse_fault(spec)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if FAULT_KINDS[fault[0]] != args.kind:
        raise ConfigError(f"fault spec {spec!r} applies only to verify {FAULT_KINDS[fault[0]]}")
    if fault[0] == "drop-a-centered":
        from .ainfty import higher_arity

        if not 0 <= fault[1] < higher_arity("A", args.n):
            raise ConfigError(f"fault spec {spec!r} needs 0 <= k < 2N = {higher_arity('A', args.n)}")
    return fault


def _check_options(args) -> None:
    for opt in UNREAD_OPTIONS.get(args.kind, ()):
        if getattr(args, opt[2:].replace("-", "_")) is not None:
            raise ConfigError(f"option {opt} does not apply to verify {args.kind}")


def _window(args, algebra: str) -> tuple[int, int]:
    """The (max-arity, max-len) of a sweep over the algebra: the options,
    else the higher arity + 2 and length 4N for A, 3N for B."""
    from .ainfty import higher_arity

    max_arity = args.max_arity if args.max_arity is not None else higher_arity(algebra, args.n) + 2
    max_len = args.max_len if args.max_len is not None else (4 if algebra == "A" else 3) * args.n
    return max_arity, max_len


def _check_max_len(args, least: int, empty: str, command: str) -> None:
    # a bound below `least` leaves nothing (--max-len 0 still holds the idempotents)
    if args.max_len is not None and args.max_len < least:
        raise ConfigError(f"--max-len {args.max_len} {empty}: {command} needs --max-len >= {least}")


def _check_n(n: int) -> None:
    if n <= 2:
        raise ConfigError(f"the construction needs N > 2, got N={n}")


class _JsonWriter:
    """Writes a report as json.dumps(doc, indent=2, sort_keys=True) does,
    piece by piece into a buffer that goes out whenever it holds FLUSH
    characters, so no copy of the whole report is made.

    Values are dispatched on their exact type: str, int, bool, None, dicts
    (with str keys, in sorted order), and lists or tuples.  Beyond json, an
    iterator is written as the list of what it yields, and a GF(2) sum (any
    value with `sorted_terms`, such as a gf2la.F2Sum) as the string its
    `render()` gives, written term by term.
    """

    FLUSH = 1 << 13

    def __init__(self, out) -> None:
        self.out = out
        self.parts: list[str] = []
        self.size = 0

    def put(self, piece: str) -> None:
        self.parts.append(piece)
        self.size += len(piece)
        if self.size >= self.FLUSH:
            self.flush()

    def flush(self) -> None:
        self.out.write("".join(self.parts))
        self.parts = []
        self.size = 0

    def value(self, value, indent: str, head: str = "") -> None:
        """Write `head` (the separator and key before the value), then the
        value, at nesting `indent`."""
        kind = type(value)
        if kind is str:
            self.put(head + encode_basestring_ascii(value))
        elif kind is int:
            self.put(head + int.__repr__(value))
        elif kind is bool:
            self.put(head + ("true" if value else "false"))
        elif value is None:
            self.put(head + "null")
        elif kind is dict:
            keyed = ((f"{encode_basestring_ascii(k)}: ", v) for k, v in sorted(value.items()))
            self.items(keyed, indent, head + "{", "}")
        elif kind is list or kind is tuple or hasattr(value, "__next__"):
            self.items((("", v) for v in value), indent, head + "[", "]")
        elif hasattr(value, "sorted_terms"):
            self.f2sum(value, head)
        else:
            raise TypeError(f"{kind.__name__} is not written to a report")

    def items(self, items, indent: str, opening: str, closing: str) -> None:
        """Write the (key head, value) pairs `items` between `opening` and
        `closing`; a list's key heads are empty."""
        inner = indent + "  "
        lead = f"{opening}\n{inner}"
        empty = True
        for key, item in items:
            self.value(item, inner, lead + key)
            lead = f",\n{inner}"
            empty = False
        self.put(opening + closing if empty else f"\n{indent}{closing}")

    def f2sum(self, value, head: str) -> None:
        # the JSON string of value.render(): its terms' renderings in
        # sorted_terms() order joined by " + ", or "0" for the zero sum.  A
        # term renders as printable ASCII with no '"' or '\\' (see the
        # staralg docstring), which JSON writes as it is.
        terms = value.sorted_terms()
        if not terms:
            self.put(head + '"0"')
            return
        sep = head + '"'
        for term in terms:
            self.put(sep + term.render())
            sep = " + "
        self.put('"')


def _emit_json(doc: dict, out) -> None:
    writer = _JsonWriter(out)
    writer.value(doc, "")
    writer.put("\n")
    writer.flush()


def _config_doc(args, n: int, extra: Optional[dict] = None) -> dict:
    doc = {"N": n, "seed": args.seed}
    if extra:
        doc.update(extra)
    return doc


def cmd_build(args, out) -> int:
    from .staralg import enumerate_basis, var_grading

    n = args.n
    _check_n(n)
    _check_max_len(args, 0, "lists no word", "build")
    max_len = args.max_len if args.max_len is not None else 4 * n
    counts = {}
    generators = {}
    for alg in ("A", "B"):
        basis = enumerate_basis(alg, max_len, n)
        generators[alg] = [w.render() for w in basis if w.ell <= 1]
        by_len: dict[str, int] = {}
        for w in basis:
            by_len[str(w.ell)] = by_len.get(str(w.ell), 0) + 1
        counts[alg] = by_len
    gradings = {}
    for var in (0, n + 1):
        g = var_grading(var, n)
        gradings[f"V{var}"] = {"m": g.m, "weights": list(g.alexander), "len": g.ell}
    doc = {
        "schema": SCHEMA,
        "command": "build",
        "config": _config_doc(args, n, {"max-len": max_len}),
        "generators": generators,
        "grading-table": gradings,
        "basis-counts": counts,
    }
    if args.format == "json":
        _emit_json(doc, out)
    else:
        out.write(f"N = {n}\n")
        for alg in ("A", "B"):
            out.write(f"algebra {alg} generators: {', '.join(generators[alg])}\n")
        for var, g in gradings.items():
            out.write(f"{var}: m = {g['m']}, weights = {g['weights']}, len = {g['len']}\n")
        for alg in ("A", "B"):
            pairs = ", ".join(f"len {k}: {v}" for k, v in sorted(counts[alg].items(), key=lambda kv: int(kv[0])))
            out.write(f"algebra {alg} basis counts: {pairs}\n")
    return 0


def _verify_ainfty(args, algebra: str, fault: Optional[tuple]) -> tuple[list[dict], dict]:
    from .ainfty import check_ainfty

    max_arity, max_len = _window(args, algebra)
    if max_arity < 3:
        raise ConfigError(f"--max-arity {max_arity} checks no relation: verify {args.kind} needs --max-arity >= 3")
    _check_max_len(args, 0, "checks no tuple", f"verify {args.kind}")
    violations = check_ainfty(algebra, max_arity, max_len, args.n, fault=fault)
    extra = {"max-arity": max_arity, "max-len": max_len, "fault": args.inject_fault}
    return violations, extra


def _verify_homotopy(args, fault: Optional[tuple]) -> tuple[list[dict], dict]:
    from .barcobar import homotopy_failure, phi_psi_failures

    n = args.n
    _check_max_len(args, 1, "checks no string", "verify homotopy")
    # the default window holds B's full loops, of length 2N
    max_len = args.max_len if args.max_len is not None else max(8, 2 * n)
    violations = []
    for base in ("A", "B"):
        failures = phi_psi_failures(max_len, n, base)
        for w in failures:
            violations.append({"base": base, "reason": f"phi(psi({w.render()})) != {w.render()}"})
        failure = homotopy_failure(max_len, n, base, fault)
        if failure is not None:
            violations.append({"base": base, "reason": "homotopy certificate fails", **failure})
        if failures:
            violations.append({"base": base, "reason": "phi-psi identity fails"})
    extra = {"max-len": max_len, "fault": args.inject_fault}
    return violations, extra


def _verify_grading(args) -> tuple[list[dict], dict]:
    from .ainfty import op_grading_check
    from .gradegroup import check_multiplicativity
    from .staralg import var_grading

    n = args.n
    if args.max_arity is not None and args.max_arity < 2:
        # the sweep checks the binary products whatever the bound, so a lower
        # one would misstate its window
        raise ConfigError(f"--max-arity {args.max_arity} is below the binary products: verify grading needs --max-arity >= 2")
    _check_max_len(args, 0, "checks no tuple", f"verify {args.kind}")
    violations = []
    windows = {}
    for algebra in ("A", "B"):
        max_arity, max_len = _window(args, algebra)
        windows[algebra] = {"max-arity": max_arity, "max-len": max_len}
        violations.extend(op_grading_check(algebra, max_arity, max_len, n))
        violations.extend(check_multiplicativity(algebra, max_arity, max_len, n))
    expected_m = {0: 2 * n - 2, n + 1: -2}
    for var, m_expected in expected_m.items():
        got = var_grading(var, n).m
        if got != m_expected:
            violations.append({"reason": f"m(V{var}) = {got} != {m_expected}"})
    return violations, {"windows": windows}


def _verify_arities(args) -> tuple[list[dict], dict]:
    from .ainfty import higher_arity
    from .gradegroup import admissible_arities

    n = args.n
    violations = []
    computed = {}
    for side in ("A", "B"):
        boundary = higher_arity(side, n)
        below = (3, boundary - 1)
        empty = admissible_arities(side, n, *below)
        bound = admissible_arities(side, n, 3, boundary)
        computed[side] = {
            "below-boundary": sorted(empty),
            "through-boundary": sorted(bound),
        }
        if empty:
            violations.append({"side": side, "reason": f"expected no admissible arities in {below}, got {sorted(empty)}"})
        if bound != {boundary}:
            violations.append({"side": side, "reason": f"expected {{{boundary}}} through the boundary, got {sorted(bound)}"})
    return violations, {"computed": computed}


def cmd_verify(args, out) -> int:
    _check_n(args.n)
    _check_options(args)
    fault = _fault(args)
    kind = args.kind
    if kind == "ainfty-a":
        violations, extra = _verify_ainfty(args, "A", fault)
    elif kind == "ainfty-b":
        violations, extra = _verify_ainfty(args, "B", fault)
    elif kind == "homotopy":
        violations, extra = _verify_homotopy(args, fault)
    elif kind == "grading":
        violations, extra = _verify_grading(args)
    elif kind == "arities":
        violations, extra = _verify_arities(args)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown verify kind {kind!r}")
    doc = {
        "schema": SCHEMA,
        "command": "verify",
        "kind": kind,
        "config": _config_doc(args, args.n, extra),
        "violations": violations,
        "violation-count": len(violations),
    }
    if args.format == "json":
        _emit_json(doc, out)
    else:
        import json

        out.write(f"verify {kind}: {len(violations)} violation(s)\n")
        for v in violations:
            out.write(json.dumps(v, sort_keys=True) + "\n")
    return 1 if violations else 0


def cmd_cohomology(args, out) -> int:
    from .hochschild import cohomology_table, witness_cocycle

    n = args.n
    _check_n(n)
    model = args.algebra
    n_max = args.n_max if args.n_max is not None else 3 * n
    if n_max < 3:
        raise ConfigError(f"--n-max {n_max} gives an empty table: cohomology needs --n-max >= 3")
    j_values = tuple(args.j) if args.j else (-1, -2)
    repeated = sorted({j for j in j_values if j_values.count(j) > 1})
    if repeated:
        raise ConfigError(f"--j {', '.join(map(str, repeated))} given more than once: each j is one table column")
    if args.trunc is not None and args.trunc < 0:
        raise ConfigError(f"--trunc {args.trunc} admits no coefficient power: cohomology needs --trunc >= 0")
    cells = cohomology_table(model, n, n_max, j_values, args.trunc)
    if args.format == "json":
        config = {"algebra": model, "n-max": n_max, "j": list(j_values), "trunc": args.trunc}
        doc = {
            "schema": SCHEMA,
            "command": "cohomology",
            "config": _config_doc(args, n, config),
            "rows": cells,
            "distinguished-cocycle": witness_cocycle(model, n),
        }
        _emit_json(doc, out)
    elif args.format == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["model", "N", "n", "j", "dim", "witnesses"])
        for cell in cells:
            if "error" in cell:
                dim, witnesses = "error", cell["error"]
            else:
                dim, witnesses = cell["dim"], "; ".join(w.render() for w in cell["witnesses"])
            writer.writerow([cell["model"], cell["N"], cell["n"], cell["j"], dim, witnesses])
    else:
        for cell in cells:
            if "error" in cell:
                out.write(f"H^({cell['n']},{cell['j']}) [{model}]: error: {cell['error']}\n")
            else:
                wits = "; ".join(w.render() for w in cell["witnesses"])
                wit = f"  witnesses: {wits}" if cell["witnesses"] else ""
                out.write(f"H^({cell['n']},{cell['j']}) [{model}]: dim {cell['dim']}{wit}\n")
    return 0


def cmd_dump(args, out) -> int:
    from .staralg import enumerate_basis, special_element

    n = args.n
    _check_n(n)
    what = args.what
    if what == "special" and args.max_len is not None:
        raise ConfigError("option --max-len does not apply to dump special")
    _check_max_len(args, 1 if what == "strings" else 0, "lists nothing", f"dump {what}")
    max_len = args.max_len if args.max_len is not None else 2 * n
    if what == "basis":
        items = [w.render() for w in enumerate_basis(args.algebra, max_len, n)]
    elif what == "special":
        if args.algebra == "A":
            items = [f"U{n + 1} = {special_element('A', f'U{n + 1}', n).render()}"]
        else:
            items = [f"U0 = {special_element('B', 'U0', n).render()}"]
    elif what == "strings":
        from .barcobar import block_renderings

        items = block_renderings(args.algebra, max_len, n)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown dump target {what!r}")
    config = {"algebra": args.algebra}
    if what != "special":  # the special elements do not depend on a length bound
        config["max-len"] = max_len
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "command": "dump",
            "what": what,
            "config": _config_doc(args, n, config),
            "items": items,
        }
        _emit_json(doc, out)
    else:
        for item in items:
            out.write(item + "\n")
    return 0


def _common(p, formats=("json", "text")) -> None:
    p.add_argument("--n", type=int, default=3, help="number of quiver nodes (N > 2)")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")


def _build_options(p) -> None:
    _common(p)
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(func=cmd_build)


def _verify_options(p) -> None:
    p.add_argument("kind", choices=("ainfty-a", "ainfty-b", "homotopy", "grading", "arities"))
    _common(p)
    p.add_argument("--max-arity", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument(
        "--inject-fault", default=None, help="drop-mu2N[:k] (ainfty-a, 0 <= k < 2N) or break-h (homotopy)"
    )
    p.set_defaults(func=cmd_verify)


def _cohomology_options(p) -> None:
    _common(p, ("json", "csv", "text"))
    p.add_argument("--algebra", choices=("A", "B"), default="A")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--j", type=int, action="append", default=None)
    p.add_argument("--trunc", type=int, default=None)
    p.set_defaults(func=cmd_cohomology)


def _dump_options(p) -> None:
    p.add_argument("what", choices=("basis", "special", "strings"))
    _common(p)
    p.add_argument("--algebra", choices=("A", "B"), default="A")
    p.add_argument("--max-len", type=int, default=None)
    p.set_defaults(func=cmd_dump)


# each command's help line and the function that adds its options
COMMANDS = {
    "build": ("print generators, gradings, and basis counts", _build_options),
    "verify": ("run a verification sweep", _verify_options),
    "cohomology": ("bigraded cohomology table", _cohomology_options),
    "dump": ("dump bases, special elements, or strings", _dump_options),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every command is listed, but only the one that
    argv runs gets its options.  That is argv's first command name, since
    the top level takes no option with a value; with none, argparse stops
    at the top level (help, or a missing or unknown command)."""
    parser = argparse.ArgumentParser(
        prog="starcob",
        description="Exact verification toolkit for a dual pair of quiver algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if arg in COMMANDS), None)
    for name, (help_text, add_options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == chosen:
            add_options(p)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
