"""Tests for the command-line interface: exit codes, schemas, determinism."""
from __future__ import annotations

import hashlib
import io
import json
import sys
import weakref

import pytest

from starcob import cli
from starcob.barcobar import _tables
from starcob.cli import main, parse_fault


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_json(capsys):
    code, out, _ = _run(["build", "--n", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "starcob/1"
    assert doc["config"]["N"] == 3
    assert doc["config"]["seed"] == 0
    assert len(doc["generators"]["A"]) == 9
    assert len(doc["generators"]["B"]) == 9
    assert doc["grading-table"]["V0"]["m"] == 4
    assert doc["grading-table"]["V4"]["m"] == -2


def test_small_n_is_config_error(capsys):
    code, _, err = _run(["build", "--n", "2"], capsys)
    assert code == 2
    assert "N > 2" in err
    code, _, _ = _run(["verify", "ainfty-a", "--n", "1"], capsys)
    assert code == 2
    code, _, _ = _run(["cohomology", "--n", "2"], capsys)
    assert code == 2


def test_verify_clean_sweeps(capsys):
    code, out, _ = _run(["verify", "ainfty-a", "--n", "3", "--max-arity", "7", "--max-len", "8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["violation-count"] == 0
    code, out, _ = _run(["verify", "ainfty-b", "--n", "3"], capsys)
    assert code == 0
    code, out, _ = _run(["verify", "homotopy", "--n", "3", "--max-len", "5"], capsys)
    assert code == 0
    code, out, _ = _run(["verify", "grading", "--n", "3", "--max-arity", "6", "--max-len", "8"], capsys)
    assert code == 0
    code, out, _ = _run(["verify", "arities", "--n", "4"], capsys)
    assert code == 0


def test_verify_fault_exits_one(capsys):
    code, out, _ = _run(
        ["verify", "ainfty-a", "--n", "3", "--inject-fault", "drop-mu2N"], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["violation-count"] > 0
    assert doc["violations"][0]["algebra"] == "A"
    code, _, _ = _run(
        ["verify", "homotopy", "--n", "3", "--max-len", "4", "--inject-fault", "break-h"],
        capsys,
    )
    assert code == 1


def test_unknown_fault_is_config_error(capsys):
    code, _, err = _run(["verify", "ainfty-a", "--n", "3", "--inject-fault", "nope"], capsys)
    assert code == 2
    assert "fault" in err


def test_reports_are_byte_identical(capsys):
    args = ["verify", "ainfty-a", "--n", "3", "--seed", "11"]
    _, out1, _ = _run(args, capsys)
    _, out2, _ = _run(args, capsys)
    assert out1 == out2
    args = ["cohomology", "--algebra", "B", "--n", "3", "--n-max", "5"]
    _, out1, _ = _run(args, capsys)
    _, out2, _ = _run(args, capsys)
    assert out1 == out2


def test_seed_recorded(capsys):
    _, out, _ = _run(["verify", "arities", "--n", "3", "--seed", "99"], capsys)
    assert json.loads(out)["config"]["seed"] == 99


def test_cohomology_table_json(capsys):
    code, out, _ = _run(["cohomology", "--algebra", "A", "--n", "3", "--n-max", "7"], capsys)
    assert code == 0
    doc = json.loads(out)
    rows = doc["rows"]
    assert len(rows) == 10
    hits = [r for r in rows if r.get("dim", 0) > 0]
    assert len(hits) == 1
    assert (hits[0]["n"], hits[0]["j"], hits[0]["dim"]) == (6, -2, 1)
    assert hits[0]["witnesses"]
    assert "distinguished-cocycle" in doc


def test_cohomology_csv(capsys):
    code, out, _ = _run(
        ["cohomology", "--algebra", "B", "--n", "3", "--n-max", "4", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,N,n,j,dim,witnesses"
    assert len(lines) == 5
    assert any(line.startswith("B,3,3,-2,1,") for line in lines)


def test_cohomology_truncation_reported_per_cell(capsys):
    code, out, _ = _run(
        ["cohomology", "--algebra", "A", "--n", "3", "--n-max", "12", "--j", "-4", "--trunc", "1"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    errored = [r for r in rows if "error" in r]
    assert errored
    assert all("truncation" in r["error"] for r in errored)


def test_dump_strings_block_marker(capsys):
    code, out, _ = _run(
        ["dump", "strings", "--algebra", "A", "--n", "3", "--max-len", "2", "--format", "text"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all("|" in line for line in lines)


def test_dump_basis_and_special(capsys):
    code, out, _ = _run(["dump", "basis", "--algebra", "B", "--n", "3", "--max-len", "1"], capsys)
    assert code == 0
    items = json.loads(out)["items"]
    assert len(items) == 9
    code, out, _ = _run(["dump", "special", "--algebra", "A", "--n", "3", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("U4 = ")
    code, out, _ = _run(["dump", "special", "--algebra", "B", "--n", "4", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("U0 = ")
    # the special elements take no length bound, and their config records none
    code, out, _ = _run(["dump", "special", "--algebra", "B", "--n", "4"], capsys)
    assert code == 0
    assert json.loads(out)["config"] == {"N": 4, "algebra": "B", "seed": 0}
    code, out, _ = _run(["dump", "basis", "--algebra", "B", "--n", "4"], capsys)
    assert json.loads(out)["config"]["max-len"] == 8


def test_threads_env(monkeypatch, capsys):
    # STARCOB_THREADS is retired: every sweep is serial, whatever it holds.
    outs = []
    for value in ("2", "junk", None):
        if value is None:
            monkeypatch.delenv("STARCOB_THREADS", raising=False)
        else:
            monkeypatch.setenv("STARCOB_THREADS", value)
        code, out, _ = _run(["verify", "ainfty-b", "--n", "3"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("ainfty-a", "drop-mu2N:6"),
        ("ainfty-a", "drop-mu2N:99"),
        ("ainfty-a", "drop-mu2N:-1"),
        ("ainfty-a", "drop-mu2N:x"),
        # k is spelled only as str(k): each of these once injected k = 1
        ("ainfty-a", "drop-mu2N:+1"),
        ("ainfty-a", "drop-mu2N: 1"),
        ("ainfty-a", "drop-mu2N:01"),
        ("ainfty-a", "drop-mu2N:0_1"),
        ("ainfty-a", "drop-mu2N:\uff11"),
        ("ainfty-a", "break-h"),
        ("ainfty-b", "drop-mu2N"),
        ("homotopy", "drop-mu2N"),
        ("grading", "drop-mu2N"),
        ("arities", "break-h"),
    ],
)
def test_rejected_fault_spec_is_config_error(kind, spec, capsys):
    code, out, err = _run(["verify", kind, "--n", "3", "--inject-fault", spec], capsys)
    assert code == 2
    assert out == ""
    assert repr(spec) in err


def test_parse_fault():
    assert parse_fault("break-h") == ("break-h",)
    assert parse_fault("drop-mu2N") == ("drop-a-centered", 0)
    assert parse_fault("drop-mu2N:3") == ("drop-a-centered", 3)
    with pytest.raises(ValueError):
        parse_fault("bogus")
    with pytest.raises(ValueError):
        parse_fault("drop-mu2N:x")
    # k has one spelling, str(k); int() would read each of these as 1
    for spec in ("drop-mu2N:+1", "drop-mu2N: 1", "drop-mu2N:01", "drop-mu2N:0_1", "drop-mu2N:\uff11"):
        with pytest.raises(ValueError, match="unknown fault spec"):
            parse_fault(spec)
    assert parse_fault("drop-mu2N:0") == ("drop-a-centered", 0)
    assert parse_fault("drop-mu2N:10") == ("drop-a-centered", 10)


@pytest.mark.parametrize("n", [3, 4])
def test_every_rendered_term_needs_no_json_escape(n):
    # The report writer puts each term of a GF(2) sum into a JSON string
    # unescaped, which is right only while every rendering is printable
    # ASCII with no '"' or '\\': render every word kind, every monomial kind
    # with p = 0, 1, 2 in both models, and the dual strings.
    from _json import encode_basestring_ascii

    from starcob.barcobar import block_renderings, enumerate_strings
    from starcob.hochschild import slice_basis, witness_cocycle
    from starcob.staralg import enumerate_basis

    rendered = []
    for algebra in ("A", "B"):
        words = enumerate_basis(algebra, 2 * n + 1, n)
        assert {(w.kind, getattr(w, "first", "")) for w in words} >= (
            {("i", ""), ("u", ""), ("s", "")} if algebra == "A" else {("i", ""), ("c", "r"), ("c", "s")}
        )
        rendered += [w.render() for w in words]
        monos = [tm for n_deg in range(4 * n + 2) for j in range(-2 * n - 2, 2) for tm in slice_basis(algebra, n_deg, j, n)]
        assert {tm.p for tm in monos} >= {0, 1, 2}
        rendered += [tm.render() for tm in monos] + [witness_cocycle(algebra, n).render()]
        rendered += [ts.render() for ts in enumerate_strings(algebra, 4, n)] + block_renderings(algebra, 4, n)
    for text in rendered:
        assert text.isascii() and text.isprintable()
        assert encode_basestring_ascii(text) == f'"{text}"', text


def test_last_fault_component_is_accepted(capsys):
    # k = 2N - 1 is the last component of the centered operation.
    code, _, _ = _run(["verify", "ainfty-a", "--n", "3", "--inject-fault", "drop-mu2N:5"], capsys)
    assert code == 1


def test_break_h_control_is_deterministic(capsys):
    args = ["verify", "homotopy", "--n", "3", "--max-len", "6", "--inject-fault", "break-h"]
    code1, out1, _ = _run(args, capsys)
    code2, out2, _ = _run(args, capsys)
    assert code1 == code2 == 1
    assert out1 == out2


def test_verify_text_format_streams_violations(capsys):
    code, out, _ = _run(
        ["verify", "ainfty-a", "--n", "3", "--inject-fault", "drop-mu2N:2", "--format", "text"],
        capsys,
    )
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("verify ainfty-a:")
    # Each remaining line is a self-contained JSON violation record.
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["algebra"] == "A"


@pytest.mark.parametrize(
    "kind, option",
    [("homotopy", "--max-arity"), ("arities", "--max-arity"), ("arities", "--max-len")],
)
def test_unread_option_is_config_error(kind, option, capsys):
    code, out, err = _run(["verify", kind, "--n", "3", option, "5"], capsys)
    assert code == 2
    assert out == ""
    assert option in err and f"verify {kind}" in err


@pytest.mark.parametrize("max_len", ["0", "9"])
def test_dump_special_rejects_max_len(max_len, capsys):
    # The special elements do not depend on a length bound, so the option
    # is rejected as verify rejects an option its kind does not read.
    code, out, err = _run(["dump", "special", "--n", "3", "--max-len", max_len], capsys)
    assert code == 2
    assert out == ""
    assert "--max-len" in err and "dump special" in err


def test_internal_value_error_propagates(monkeypatch):
    # Only configuration errors exit 2; an internal ValueError is a bug.
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr("starcob.ainfty.check_ainfty", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["verify", "ainfty-b", "--n", "3"])


@pytest.mark.parametrize(
    "argv",
    [["build"], ["verify", "arities"], ["dump", "basis"]],
)
def test_csv_format_only_on_cohomology(argv, capsys):
    # Only cohomology writes CSV; elsewhere argparse rejects the choice.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "3", "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "homotopy", "--max-len", "0"], "--max-len"),
        (["verify", "homotopy", "--max-len", "-1"], "--max-len"),
        (["verify", "ainfty-a", "--max-arity", "2"], "--max-arity"),
        (["verify", "ainfty-b", "--max-arity", "2"], "--max-arity"),
        (["cohomology", "--n-max", "2"], "--n-max"),
        (["verify", "ainfty-a", "--max-len", "-1"], "--max-len"),
        (["verify", "ainfty-b", "--max-len", "-1"], "--max-len"),
        (["verify", "grading", "--max-len", "-1"], "--max-len"),
        (["verify", "ainfty-a", "--max-arity", "3", "--max-len", "-5"], "--max-len"),
        (["cohomology", "--trunc", "-1"], "--trunc"),
        (["build", "--max-len", "-1"], "--max-len"),
        (["dump", "basis", "--max-len", "-1"], "--max-len"),
        (["dump", "strings", "--max-len", "0"], "--max-len"),
        (["dump", "strings", "--max-len", "-1"], "--max-len"),
        (["verify", "grading", "--max-arity", "1"], "--max-arity"),
        (["verify", "grading", "--max-arity", "0"], "--max-arity"),
    ],
)
def test_empty_sweep_is_config_error(argv, option, capsys):
    # A bound that leaves nothing to check must not report "0 violations",
    # nor one that leaves nothing to list an empty list.
    code, out, err = _run(argv + ["--n", "3"], capsys)
    assert code == 2
    assert out == ""
    assert option in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "homotopy", "--max-len", "1"],
        ["verify", "ainfty-a", "--max-arity", "3"],
        ["verify", "ainfty-b", "--max-arity", "3"],
        ["cohomology", "--n-max", "3"],
        ["verify", "ainfty-a", "--max-len", "0"],
        ["verify", "ainfty-b", "--max-len", "0"],
        ["verify", "grading", "--max-len", "0"],
        ["cohomology", "--trunc", "0"],
        ["build", "--max-len", "0"],
        ["dump", "basis", "--max-len", "0"],
        ["dump", "strings", "--max-len", "1"],
        ["verify", "grading", "--max-arity", "2"],
    ],
)
def test_smallest_sweep_is_accepted(argv, capsys):
    code, out, _ = _run(argv + ["--n", "3"], capsys)
    assert code == 0
    assert json.loads(out)["schema"] == "starcob/1"


@pytest.mark.parametrize("js", [["-1", "-1"], ["-1", "-2", "-1"], ["0", "-2", "-2", "0"]])
def test_repeated_j_is_config_error(js, capsys):
    # A repeated j would print its cells twice.
    argv = ["cohomology", "--n", "3"]
    for j in js:
        argv += ["--j", j]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--j" in err


def test_distinct_j_values_make_one_column_each(capsys):
    code, out, _ = _run(["cohomology", "--n", "3", "--n-max", "4", "--j", "-2", "--j", "-1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["j"] == [-2, -1]
    assert [(r["n"], r["j"]) for r in doc["rows"]] == [(3, -2), (3, -1), (4, -2), (4, -1)]


def test_grading_report_records_its_window(capsys):
    # Two different sweeps give two different configs.
    _, default, _ = _run(["verify", "grading", "--n", "3"], capsys)
    _, wide, _ = _run(["verify", "grading", "--n", "3", "--max-arity", "10", "--max-len", "13"], capsys)
    assert json.loads(default)["config"]["windows"] == {
        "A": {"max-arity": 8, "max-len": 12},
        "B": {"max-arity": 5, "max-len": 9},
    }
    assert json.loads(wide)["config"]["windows"] == {
        "A": {"max-arity": 10, "max-len": 13},
        "B": {"max-arity": 10, "max-len": 13},
    }


def test_homotopy_builds_one_table_per_algebra(capsys):
    # The phi-psi identity and the certificate share the tables of
    # (algebra, N, --max-len), so the sweep builds exactly two.
    _tables.cache_clear()
    code, _, _ = _run(["verify", "homotopy", "--n", "3", "--max-len", "5"], capsys)
    assert code == 0
    assert _tables.cache_info().misses == 2


def test_grading_frees_the_a_table_before_the_b_laws_run(capsys, monkeypatch):
    # The op table cache keeps one table, so the sweep of B's grading laws
    # runs after A's table is gone: no reference to it is left anywhere.
    from starcob import ainfty, gradegroup

    laws = ainfty.operation_violations
    a_tables, a_alive_at_b = [], []

    def watched(ops, *args):
        if ops.algebra == "A":
            a_tables.append(weakref.ref(ops))
        else:
            a_alive_at_b.extend(ref() is not None for ref in a_tables)
        return laws(ops, *args)

    monkeypatch.setattr(ainfty, "operation_violations", watched)
    monkeypatch.setattr(gradegroup, "operation_violations", watched)
    ainfty.op_tables.cache_clear()
    code, _, _ = _run(["verify", "grading", "--n", "3"], capsys)
    assert code == 0
    assert len(a_tables) == 2 and len(a_alive_at_b) == 4
    assert not any(a_alive_at_b)


def test_homotopy_failure_names_the_string_and_both_sides(capsys):
    args = ["verify", "homotopy", "--n", "3", "--max-len", "4", "--inject-fault", "break-h"]
    code, out, _ = _run(args, capsys)
    assert code == 1
    first = json.loads(out)["violations"][0]
    # with h replaced by zero the left side vanishes, while psi(phi(U1*.U1*))
    # is zero too, so the right side is the string itself
    assert first == {
        "base": "A",
        "reason": "homotopy certificate fails",
        "string": "U1*.U1*",
        "lhs-sum": "0",
        "rhs-sum": "U1*.U1*",
    }


def test_homotopy_frontier_window(capsys):
    # Length 24 is out of reach of a sweep over every string (about 3^24 per
    # side); the reduced sweep checks 2 * 24^2 strings per side.
    code, out, _ = _run(["verify", "homotopy", "--n", "3", "--max-len", "24"], capsys)
    assert code == 0
    assert json.loads(out)["violation-count"] == 0
    firsts = {}
    for max_len in (4, 24):
        args = ["verify", "homotopy", "--n", "3", "--max-len", str(max_len), "--inject-fault", "break-h"]
        code, out, _ = _run(args, capsys)
        assert code == 1
        firsts[max_len] = [v["string"] for v in json.loads(out)["violations"]]
    # Under break-h, A fails first on the same string at both bounds.  B's
    # enumeration runs down the block r1*.r1*... before it tries s3* after
    # the first r1*, so its first failure is the longest such block that
    # fits, then s3*, as in a sweep over every string.
    assert firsts[4] == ["U1*.U1*", ".".join(["r1*"] * 3 + ["s3*"])]
    assert firsts[24] == ["U1*.U1*", ".".join(["r1*"] * 23 + ["s3*"])]


def test_homotopy_default_window_holds_the_full_loops(capsys, monkeypatch):
    # The default --max-len is max(8, 2N): 8 at N = 3, 4, then 2N.
    # The sweeps are stubbed out, so this reads the window only.
    seen = []
    monkeypatch.setattr("starcob.barcobar.phi_psi_failures", lambda max_len, n, base: [])
    monkeypatch.setattr("starcob.barcobar.homotopy_failure", lambda max_len, n, base, fault: seen.append(max_len))
    for n, max_len in ((3, 8), (4, 8), (5, 10), (6, 12)):
        code, out, _ = _run(["verify", "homotopy", "--n", str(n)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["max-len"] == max_len
        assert seen[-2:] == [max_len, max_len]


def test_failing_homotopy_sweep_runs_once_per_base(capsys, monkeypatch):
    # The verdict is read off the one sweep that names the failing string.
    from starcob import barcobar

    bases = []
    failure = barcobar.homotopy_failure

    def counted(max_len, n, base, fault):
        bases.append(base)
        return failure(max_len, n, base, fault)

    monkeypatch.setattr(barcobar, "homotopy_failure", counted)
    args = ["verify", "homotopy", "--n", "3", "--max-len", "8", "--inject-fault", "break-h"]
    code, out, _ = _run(args, capsys)
    assert code == 1
    assert [v["base"] for v in json.loads(out)["violations"]] == ["A", "B"]
    assert bases == ["A", "B"]


def test_dump_strings_builds_one_table(capsys):
    # One table at the bound holds every string: no table per string length.
    _tables.cache_clear()
    code, out, _ = _run(["dump", "strings", "--algebra", "A", "--n", "3", "--max-len", "9"], capsys)
    assert code == 0
    assert len(json.loads(out)["items"]) == 3 * (3**9 - 1)
    assert _tables.cache_info().misses == 1


# The sha256 of stdout, a NUL and stderr, and the exit code, with 80 columns:
# recorded while the parser still built every command's options.
PARSER_GOLDEN = [
    ("--help", 0, "36e7cc8bbbff8ad465e8e4c81e8bed8f6f06e54f732295a3b2ac114f6509cc58"),
    ("build --help", 0, "ff41cb6fd219c3d0fbe443157ba4eab6ec06aa283470b3227d258d7fb233e6c3"),
    ("verify --help", 0, "b488c96b72ce50b4730c26a9385825a9e1bd1f6ab6862f0226207b68be63fc13"),
    ("cohomology --help", 0, "73960f156557e1aad9b882c754d66d5f93f989a0997a520fa70e4697dd44ff30"),
    ("dump --help", 0, "1699ce0da6a24aad3176088aa0e05a8e23f4ca3557a77daa992fa10d3bbbeeb5"),
    ("", 2, "e1338646eaef080584a508f1b2bd257fc88aac9cfdaf941ae7880520e5f48681"),
    ("frobnicate", 2, "21f7f5cf1ca01c4fbb214c25d18ca7f721a2ec13803decc74430e7ff390bfd05"),
    ("verify", 2, "654890cb8bd2805e9f719a2027e1ff50f3a22ab8db4861d74feacb1d74488386"),
    ("verify ainfty-c", 2, "c1f932b9684fd928bde66d6045610be9423ac81a1b09d47b63b9f5d5e4c8d943"),
    ("cohomology --n x", 2, "0ad0f17822ef53dd6d8417c83e00d080e419fb14e92d2c8c43b63ee5bcdb10d1"),
    ("dump basis --bogus", 2, "b0e6951664b31983fcb465f2c1c368f6655298a3611804686a39f8d5d3f24d7a"),
    ("-x build", 2, "addc9eec2bde05eecc0bb257ff84bdb9f50a33451651d69dd17f8d5ea04b1b62"),
]


@pytest.mark.parametrize("argv, code, digest", PARSER_GOLDEN, ids=[g[0] or "no-command" for g in PARSER_GOLDEN])
def test_help_and_usage_errors_are_unchanged(argv, code, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    captured = capsys.readouterr()
    got = hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest()
    assert (exc.value.code, got) == (code, digest)


def _stdout_of(argv, capsys, code=0) -> str:
    assert main(argv) == code
    return capsys.readouterr().out


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cohomology_report(model, big_n):
    """The default cohomology report, rebuilt from the public API."""
    from starcob.hochschild import cohomology_table, witness_cocycle

    rows = []
    for cell in cohomology_table(model, big_n, 3 * big_n):
        if "witnesses" in cell:
            cell["witnesses"] = [w.render() for w in cell["witnesses"]]
        rows.append(cell)
    return {
        "schema": "starcob/1",
        "command": "cohomology",
        "config": {"N": big_n, "seed": 0, "algebra": model, "n-max": 3 * big_n, "j": [-1, -2], "trunc": None},
        "rows": rows,
        "distinguished-cocycle": witness_cocycle(model, big_n).render(),
    }


@pytest.mark.parametrize("model", ["A", "B"])
@pytest.mark.parametrize("big_n", [16, 24, 32, 48, 64, 96, 128])
def test_emit_json_matches_json_dumps(model, big_n, capsys):
    # The tables benchmark's reports, streamed cell by cell with the witness
    # cocycles written term by term, are the bytes json.dumps gives for the
    # report rebuilt from the public API.
    out = _stdout_of(["cohomology", "--algebra", model, "--n", str(big_n)], capsys)
    assert out == _dumps(_cohomology_report(model, big_n))


@pytest.mark.parametrize(
    "argv",
    [
        "build --n 3",
        "dump basis --n 3",
        "dump special --n 3",
        "dump strings --n 3",
        "verify ainfty-a --n 3",
        "verify ainfty-a --n 3 --inject-fault drop-mu2N:1",
        "verify ainfty-b --n 3",
        "verify homotopy --n 3",
        "verify homotopy --n 3 --max-len 6 --inject-fault break-h",
        "verify grading --n 3",
        "verify arities --n 3",
    ],
)
def test_every_report_is_json_dumps_of_itself(argv, capsys):
    # Keys sorted, indented by two and escaped as json.dumps does: a report
    # read back and dumped again gives its own bytes.
    out = _stdout_of(argv.split(), capsys, 1 if "--inject-fault" in argv else 0)
    assert out == _dumps(json.loads(out))


class _Sum:
    """A stand-in for a GF(2) sum: terms with `render`, in a sorted order."""

    class Term:
        def __init__(self, text):
            self.text = text

        def render(self):
            return self.text

    def __init__(self, *texts):
        self.terms = [self.Term(t) for t in texts]

    def sorted_terms(self):
        return sorted(self.terms, key=lambda t: t.text)


@pytest.mark.parametrize("flush", [1, 7, cli._JsonWriter.FLUSH])
def test_writer_matches_json_dumps_on_every_value_kind(flush, monkeypatch):
    monkeypatch.setattr(cli._JsonWriter, "FLUSH", flush)
    doc = {
        "z": [1, -2, 0, True, False, None, "", "tab\t \"quote\" \\ é \u2603 \U0001f600"],
        "empty-dict": {},
        "empty-list": [],
        "empty-iter": iter(()),
        "tuple": (1, ("a",), {"k": []}),
        "iter": (x * x for x in range(3)),
        "nested": {"b": {"c": [{}], "a": [[]]}, "a": -(10**30)},
        # a sum's terms are written unescaped: each renders as printable
        # ASCII with no '"' or '\\' (test_every_rendered_term_needs_no_json_escape)
        "sums": [_Sum(), _Sum("x"), _Sum("s2 (x) r1.s1", "V0^2*I1 (x) s[1,4]")],
    }
    expect = dict(doc, **{"empty-iter": [], "iter": [0, 1, 4]})
    expect["sums"] = ["0", "x", "V0^2*I1 (x) s[1,4] + s2 (x) r1.s1"]
    out = io.StringIO()
    cli._emit_json(doc, out)
    assert out.getvalue() == _dumps(expect)


@pytest.mark.parametrize("value", [1.5, {1: "int key"}, {"set": {1}}, object()])
def test_writer_rejects_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        cli._emit_json({"v": value}, io.StringIO())


def test_cohomology_report_is_streamed(monkeypatch):
    # No report-sized string is built: the traced peak of a report of
    # 2,594,983 bytes (A at N = 256) stays below its own length.
    import tracemalloc

    class Sink:
        def __init__(self):
            self.digest = hashlib.sha256()
            self.size = 0

        def write(self, text):
            self.digest.update(text.encode())
            self.size += len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["cohomology", "--algebra", "A", "--n", "256"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size == 2_594_983
    assert sink.digest.hexdigest() == "723e13c8d7018044ae80145ee1abd09ace1325e4f2852d7c86b78f7bf8fec870"
    assert peak < sink.size
