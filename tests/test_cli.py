"""Command-line behavior: commands, formats, and the exit-code contract."""

import argparse
import codecs
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raqdp
from raqdp import cli, constraints, query
from raqdp.cli import _check_options, build_parser, main
from raqdp.constraints import diameter, iter_solutions, solution_count
from raqdp.dp import laplace_sample, make_rng
from raqdp.parsing import parse_schemas

PEOPLE_SCHEMA = """
relation People {
  Name: string in {"Ann", "Bob", "Cy", "Dee"};
  Weight: int [0, 150];
  Height: int [0, 200]
}
"""

PEOPLE_CSV = """Name,Weight,Height
Ann,60,170
Bob,90,180
Cy,50,140
Dee,40,160
"""


@pytest.fixture
def workspace(tmp_path):
    schema = tmp_path / "people.schema"
    schema.write_text(PEOPLE_SCHEMA)
    query = tmp_path / "avg.raq"
    query.write_text("avg(Weight) of select Weight <= Height - 100 from People\n")
    data = tmp_path / "people.csv"
    data.write_text(PEOPLE_CSV)
    return tmp_path


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_table_output(workspace, capsys):
    code = main(["analyze", str(workspace / "people.schema"), str(workspace / "avg.raq")])
    out = capsys.readouterr().out
    assert code == 0
    assert "global sensitivity: 50" in out
    assert "restriction" in out


def test_analyze_json_output(workspace, capsys):
    code = main(
        ["analyze", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--format", "json"]
    )
    assert code == 0
    d = json.loads(capsys.readouterr().out)
    assert d["gs"] == "50"
    assert d["top"]["bounds"]["hi"] == "100"


# A repeated subtree with both structural warnings: the pinned side of the
# block product is derived, and each difference is over unrelated operands.
STRUCTURAL_FILES = {
    "rtu.schema": "relation R { a: int [0, 3] }\n"
    "relation T { a: int [0, 3] }\n"
    "relation U { b: int [0, 2] }\n",
    "structural.raq": "count of ((R minus T) union (R minus T)) productn 1 "
    "(select b >= 1 from U)\n",
    "r.csv": "a\n0\n2\n",
    "t.csv": "a\n2\n3\n",
    "u.csv": "b\n0\n1\n2\n",
}

A_TEXT = "a >= 0 and a <= 3"
B_TEXT = "b >= 0 and b <= 2"
UNION_TEXT = f"{A_TEXT} or {A_TEXT}"
PINNED_WARNING = (
    "the pinned side of a restricted product is a derived subquery; "
    "the static factor assumes it does not vary with the database"
)
DIFFERENCE_WARNING = (
    "set difference over unrelated operands: the right-hand constraint "
    "cannot be negated soundly, so only the left constraint was kept"
)

STRUCTURAL_TABLE = f"""\
global sensitivity: 4
aggregation: count   delta_f: 1
nodes (bottom-up):
  id               delta=1      diam=4          S=1
    constraint: {A_TEXT}
  id               delta=1      diam=4          S=1
    constraint: {A_TEXT}
  difference       delta=2      diam=4          S=2
    constraint: {A_TEXT}
  id               delta=1      diam=4          S=1
    constraint: {A_TEXT}
  id               delta=1      diam=4          S=1
    constraint: {A_TEXT}
  difference       delta=2      diam=4          S=2
    constraint: {A_TEXT}
  union            delta=2      diam=4          S=4
    constraint: {UNION_TEXT}
  id               delta=1      diam=3          S=1
    constraint: {B_TEXT}
  restriction      delta=1      diam=2          S=1
    constraint: {B_TEXT} and b >= 1
  product-n        delta=1      diam=8          S=4
    constraint: ({UNION_TEXT}) and {B_TEXT} and b >= 1
warning: {PINNED_WARNING}
warning: {DIFFERENCE_WARNING}
warning: {DIFFERENCE_WARNING}
"""


def _node_json(op, s, delta, diam, text):
    return {
        "op": op,
        "s": str(s), "s_float": float(s),
        "delta_op": str(delta), "delta_op_float": float(delta),
        "diam": str(diam), "diam_float": float(diam),
        "constraint_text": text,
    }


_DIFFERENCE_NODES = [
    _node_json("id", 1, 1, 4, A_TEXT),
    _node_json("id", 1, 1, 4, A_TEXT),
    _node_json("difference", 2, 2, 4, A_TEXT),
]
STRUCTURAL_JSON = {
    "gs": "4", "gs_float": 4.0,
    "top": {"fn": "count", "attr": None, "delta": "1", "delta_float": 1.0, "bounds": None},
    "nodes": _DIFFERENCE_NODES + _DIFFERENCE_NODES + [
        _node_json("union", 4, 2, 4, UNION_TEXT),
        _node_json("id", 1, 1, 3, B_TEXT),
        _node_json("restriction", 1, 1, 2, f"{B_TEXT} and b >= 1"),
        _node_json("product-n", 4, 1, 8, f"({UNION_TEXT}) and {B_TEXT} and b >= 1"),
    ],
    "warnings": [PINNED_WARNING, DIFFERENCE_WARNING, DIFFERENCE_WARNING],
}


@pytest.fixture
def structural(tmp_path):
    for name, text in STRUCTURAL_FILES.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def structural_argv(root, command, *options):
    argv = [command, str(root / "rtu.schema"), str(root / "structural.raq")]
    if command == "dp-run":
        # seeded, so that two releases print the same bytes
        argv += ["--epsilon", "1", "--seed", "1"]
        argv += [f"--data={name}={root / name.lower()}.csv" for name in "RTU"]
    return argv + list(options)


@pytest.mark.parametrize(
    "options, want",
    [((), STRUCTURAL_TABLE), (("--format", "json"), json.dumps(STRUCTURAL_JSON, indent=2) + "\n")],
    ids=["table", "json"],
)
def test_analyze_prints_the_whole_report(structural, capsys, options, want):
    assert main(structural_argv(structural, "analyze", *options)) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (want, "")


@pytest.mark.parametrize("command", ["validate", "dp-run"])
def test_commands_that_print_no_report_format_no_constraint(
    structural, monkeypatch, capsys, command
):
    argv = structural_argv(structural, command)
    assert main(argv) == 0
    usual = capsys.readouterr()

    def refuse(c):
        raise AssertionError("format_constraint called")

    real = raqdp.constraints.format_constraint
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "raqdp"]
    patched = [m for m in modules if getattr(m, "format_constraint", None) is real]
    assert {m.__name__ for m in patched} >= {
        "raqdp", "raqdp.analyzer", "raqdp.cli", "raqdp.constraints", "raqdp.parsing"
    }
    for module in patched:
        monkeypatch.setattr(module, "format_constraint", refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == usual


def test_analyze_takes_no_data_flag(workspace):
    # static analysis must not even accept data files
    with pytest.raises(SystemExit):
        main(
            ["analyze", str(workspace / "people.schema"), str(workspace / "avg.raq"),
             "--data", "People=whatever.csv"]
        )


def test_analyze_works_without_any_data_files(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 2] }")
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["analyze", schema, query]) == 0


def test_analyze_unbounded_exits_3(tmp_path, capsys):
    schema = write(
        tmp_path, "s.schema",
        "relation A { x: real [0, 1] }\nrelation B { y: real [0, 1] }",
    )
    query = write(tmp_path, "q.raq", "count of A product B")
    code = main(["analyze", schema, query, "--format", "json"])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["gs"] == "inf"


def _strict_json(text: str):
    """JSON as RFC 8259 has it: NaN, Infinity and -Infinity are refused."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_json_outputs_parse_strictly(workspace, tmp_path):
    schema = write(tmp_path, "w.schema", "relation W { w: real [-inf, inf]; k: int [0, 3] }")
    unbounded = write(tmp_path, "w.raq", "sum(w) of select w >= 0 from W")
    people = [str(workspace / "people.schema"), str(workspace / "avg.raq")]
    data = ["--data", f"People={workspace / 'people.csv'}"]
    calls = {
        "analyze": (["analyze", schema, unbounded], 3),
        "analyze people": (["analyze", *people], 0),
        "run": (["run", *people, *data, "--trace"], 0),
        "dp-run": (["dp-run", *people, *data, "--epsilon", "1", "--seed", "3"], 0),
        "dp-run samples": (["dp-run", *people, *data, "--epsilon", "1", "--samples", "3"], 0),
        "validate": (["validate", write(tmp_path, "k.schema", "relation K { k: int [0, 3] }"),
                      write(tmp_path, "k.raq", "sum(k) of K")], 0),
        "validate people": (["validate", *people, *data], 0),
    }
    outputs = {}
    for name, (argv, code) in calls.items():
        got, out = cli_result([*argv, "--format", "json"])
        assert got == code, name
        outputs[name] = _strict_json(out)
    report = outputs["analyze"]
    assert (report["gs"], report["gs_float"]) == ("inf", None)
    assert report["top"]["bounds"] == {"lo": "0", "hi": "inf", "lo_float": 0.0, "hi_float": None}
    assert [n["diam_float"] for n in report["nodes"]] == [None, None]


def test_parse_error_exits_2(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 2] }")
    query = write(tmp_path, "q.raq", "count of")
    assert main(["analyze", schema, query]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["analyze", str(tmp_path / "nope.schema"), query]) == 2


# ---------------------------------------------------------------------------
# run


def test_run_exact_answer(workspace, capsys):
    code = main(
        ["run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", f"People={workspace / 'people.csv'}"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "50"


@pytest.mark.parametrize("name", ["people.schema", "avg.raq", "people.csv"])
def test_run_reads_a_file_with_a_utf8_byte_order_mark(workspace, capsys, name):
    path = workspace / name
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    code = main(
        ["run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", f"People={workspace / 'people.csv'}"]
    )
    assert (code, capsys.readouterr().out.strip()) == (0, "50")


def test_run_trace_row_counts(workspace, capsys):
    code = main(
        ["run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", f"People={workspace / 'people.csv'}", "--trace", "--format", "json"]
    )
    assert code == 0
    d = json.loads(capsys.readouterr().out)
    assert d["answer"] == "50"
    assert d["trace"] == [{"op": "id", "rows": 4}, {"op": "restriction", "rows": 2}]


def test_run_missing_data_exits_2(workspace, capsys):
    code = main(["run", str(workspace / "people.schema"), str(workspace / "avg.raq")])
    assert code == 2
    assert "no --data" in capsys.readouterr().err


def test_run_invalid_rows_exit_2_and_list_them(workspace, tmp_path, capsys):
    bad = write(tmp_path, "bad.csv", "Name,Weight,Height\nAnn,999,170\nBob,90,180\n")
    code = main(
        ["run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", f"People={bad}"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "row 1" in err and "Weight" in err


def test_run_group_example_trace(tmp_path, capsys):
    schema = write(
        tmp_path, "cars.schema",
        'relation Drivers {\n'
        '  Name: string in {"John", "Tim", "Alice", "Natalie"};\n'
        '  Height: int [0, 220];\n'
        '  Car: string in {"Ford", "Fiat", "Renault"}\n'
        '}\n',
    )
    query = write(
        tmp_path, "group.raq",
        "max(avg_Height) of group Car agg count, avg(Height) from Drivers",
    )
    data = write(
        tmp_path, "drivers.csv",
        "Name,Height,Car\nJohn,150,Ford\nTim,180,Ford\nAlice,180,Fiat\nNatalie,165,Renault\n",
    )
    code = main(["run", schema, query, "--data", f"Drivers={data}", "--trace",
                 "--format", "json"])
    assert code == 0
    d = json.loads(capsys.readouterr().out)
    assert d["answer"] == "180"
    assert {"op": "group-aggregate", "rows": 3} in d["trace"]


# ---------------------------------------------------------------------------
# dp-run


def test_dp_run_deterministic_json(workspace, capsys):
    argv = ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
            "--data", f"People={workspace / 'people.csv'}",
            "--epsilon", "1/2", "--seed", "7"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["gs_used"] == 50.0
    assert first["epsilon"] == 0.5
    assert first["true_value_withheld"] is True
    assert first["rng"] == "mt19937"


def test_dp_run_unbounded_exits_3(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation U { x: real [0, inf] }")
    query = write(tmp_path, "q.raq", "sum(x) of U")
    data = write(tmp_path, "u.csv", "x\n1\n")
    code = main(["dp-run", schema, query, "--data", f"U={data}", "--epsilon", "1"])
    assert code == 3
    assert "unbounded" in capsys.readouterr().err


def test_dp_run_rejects_bad_epsilon(workspace, capsys):
    code = main(
        ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", f"People={workspace / 'people.csv'}", "--epsilon", "0"]
    )
    assert code == 2


def test_dp_run_samples_mode(workspace, capsys):
    argv = ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
            "--data", f"People={workspace / 'people.csv'}",
            "--epsilon", "1/2", "--seed", "3", "--samples", "50"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)["samples"]) == 50
    assert captured.err == (
        "warning: the 50 draws together cost epsilon 25 (sequential composition)\n"
    )


def test_dp_run_seeded_record_gives_the_exact_answer_back_and_warns(workspace, capsys):
    argv = ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
            "--data", f"People={workspace / 'people.csv'}", "--epsilon", "1/2", "--seed", "7"]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    noise = laplace_sample(make_rng(record["seed"]), record["gs_used"] / record["epsilon"])
    assert record["noisy_value"] - noise == pytest.approx(50.0, abs=1e-9)  # the answer
    assert record["warnings"] == [
        "the noise can be recomputed from the seed, so the release is private"
        " only while the seed stays secret"
    ]


def test_dp_run_unseeded_releases_differ_and_carry_no_seed(workspace, capsys):
    argv = ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
            "--data", f"People={workspace / 'people.csv'}", "--epsilon", "1/2"]
    records = []
    for _ in range(2):
        assert main(argv) == 0
        records.append(json.loads(capsys.readouterr().out))
    assert records[0]["noisy_value"] != records[1]["noisy_value"]
    for record in records:
        assert (record["seed"], record["rng"], record["warnings"]) == (None, "os.urandom", [])


def test_dp_run_samples_table_prints_one_float_per_line(workspace, capsys):
    argv = ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
            "--data", f"People={workspace / 'people.csv'}",
            "--epsilon", "1", "--seed", "3", "--samples", "3", "--format", "table"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(line == repr(float(line)) for line in lines)


REFUSED_QUERY_SCHEMA = """relation R { a: int [0, 9]; b: int [0, 9]; count: int [0, 3] }
relation T { a: int [0, 9]; c: int [0, 9] }
relation U { d: int [0, 9] }"""


@pytest.mark.parametrize(
    "text, message",
    [
        ("count of project a, a from R", "duplicate attributes in projection"),
        ("count of project zz from R", "projection of unknown attributes ['zz']"),
        ("count of R productagg max(c) T", "product operands share attributes ['a']"),
        ("count of R productagg count U",
         "aggregate column 'count' collides with a left-operand attribute"),
        ("count of group a, a agg count from R", "duplicate grouping attributes"),
    ],
    ids=["duplicate-projection", "unknown-projection", "productagg-shared",
         "productagg-column", "duplicate-grouping"],
)
def test_analyze_refuses_a_malformed_plan_with_one_line(tmp_path, capsys, text, message):
    schema = write(tmp_path, "r.schema", REFUSED_QUERY_SCHEMA)
    query = write(tmp_path, "q.raq", text)
    assert main(["analyze", schema, query]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_dp_run_statically_empty_release_prints_every_line(tmp_path, capsys):
    # gs is 0, so no noise is drawn and no sampler value is pinned
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 5] } check { a > 9 }")
    query = write(tmp_path, "q.raq", "sum(a) of R")
    data = write(tmp_path, "r.csv", "a\n")
    argv = ["dp-run", schema, query, "--data", f"R={data}", "--epsilon", "1"]
    assert main([*argv, "--format", "table"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0] == "noisy answer: 0.0"
    assert lines[1] == "gs: 0   epsilon: 1   seed: none   rng: os.urandom"
    assert lines[2].startswith("note: ")
    assert lines[3:] == [
        "warning: query is statically empty: the propagated constraint is unsatisfiable",
        "warning: sensitivity is zero; the exact answer is released without noise",
    ]
    assert main([*argv, "--samples", "2"]) == 0
    assert capsys.readouterr().out == '{"samples": [0.0, 0.0]}\n'


def test_readme_quick_tour(workspace, capsys):
    # the README's People example, its published trace and its published release
    base = [str(workspace / "people.schema"), str(workspace / "avg.raq"),
            "--data", f"People={workspace / 'people.csv'}"]
    assert main(["run", *base, "--trace"]) == 0
    assert capsys.readouterr().out == (
        "trace (bottom-up):\n"
        "  id               4 rows\n"
        "  restriction      2 rows\n"
        "50\n"
    )
    assert main(["dp-run", *base, "--epsilon", "1/2", "--seed", "7"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["noisy_value"] == 6.561912619244303
    assert d["gs_used"] == 50.0


def test_readme_library_use(workspace, monkeypatch):
    # the README's "Library use" snippet, run as written over the same files
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Library use", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(workspace)
    namespace: dict = {}
    exec(snippet, namespace)
    assert namespace["report"].gs == 50
    assert namespace["ans"].noisy_value == 6.561912619244303


# ---------------------------------------------------------------------------
# validate


def test_validate_strict_on_simple_count(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 2] }")
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["validate", schema, query]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] == "STRICT"
    assert d["gs"] == d["oracle"] == "1"
    assert d["witness"] is not None


def test_validate_reports_violation_with_corrupted_factor(tmp_path, capsys, monkeypatch):
    schema = write(
        tmp_path, "s.schema",
        "relation R { a: int [0, 2] }\nrelation T { a: int [3, 5] }",
    )
    query = write(tmp_path, "q.raq", "count of R union T")
    monkeypatch.setitem(raqdp.query._BASE_DELTAS, "union", Fraction(1))
    assert main(["validate", schema, query]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] == "VIOLATION"
    assert d["gs"] == "1" and d["oracle"] == "2"
    assert d["witness"]["R"] != d["witness"]["R_plus"]


def test_validate_honest_factor_is_strict(tmp_path, capsys):
    schema = write(
        tmp_path, "s.schema",
        "relation R { a: int [0, 2] }\nrelation T { a: int [3, 5] }",
    )
    query = write(tmp_path, "q.raq", "count of R union T")
    assert main(["validate", schema, query]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "STRICT"


def test_validate_oracle_cap_exits_4(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 50] }")
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["validate", schema, query]) == 4
    assert "more than 12" in capsys.readouterr().err


def test_validate_names_the_cap_to_raise(tmp_path, capsys):
    # one admissible tuple, but a 100 x 100 grid to search for it
    schema = write(
        tmp_path, "s.schema",
        "relation R { a: int [0, 99]; b: int [0, 99] } check { a * b >= 9800 }",
    )
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["validate", schema, query]) == 4
    assert capsys.readouterr().err == (
        "error: relation 'R' has more than 4096 grid points to search; raise --universe-cap\n"
    )
    assert main(["validate", schema, query, "--universe-cap", "200"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] == "STRICT" and d["oracle"] == "1"
    real = write(tmp_path, "real.schema", "relation R { x: real [0, 1] }")
    assert main(["validate", real, query]) == 4
    assert capsys.readouterr().err == "error: relation 'R' has a non-enumerable tuple universe\n"


def test_validate_universe_cap_flag(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 13] }")
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["validate", schema, query]) == 4
    capsys.readouterr()
    assert main(["validate", schema, query, "--universe-cap", "14"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "STRICT"


def test_validate_data_files_fix_context(tmp_path, capsys):
    schema = write(
        tmp_path, "s.schema",
        "relation S { a: int [0, 1] }\nrelation T { a: int [0, 50] }",
    )
    query = write(tmp_path, "q.raq", "count of S intersect T")
    data = write(tmp_path, "t.csv", "a\n1\n")
    # T alone would blow the cap; fixing it as context data keeps S sensitive
    assert main(["validate", schema, query, "--data", f"T={data}"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] in ("STRICT", "SOUND")


def test_validate_table_output(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", "relation R { a: int [0, 2] }")
    query = write(tmp_path, "q.raq", "count of R")
    assert main(["validate", schema, query, "--format", "table"]) == 0
    assert capsys.readouterr().out == (
        "static bound: 1   oracle: 1   verdict: STRICT\n"
        'witness pair: {"R": {"R": []}, "R_plus": {"R": [["0"]]}}\n'
    )


def validate_result(tmp_path, schema_text, query_text, *options):
    """(gs, oracle, verdict) as `validate --format json` prints them."""
    schema = write(tmp_path, "s.schema", schema_text)
    query = write(tmp_path, "q.raq", query_text)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["validate", schema, query, *options]) == 0
    d = json.loads(out.getvalue())
    return d["gs"], d["oracle"], d["verdict"]


@pytest.mark.parametrize(
    "options, want",
    [
        (["--enum-cap", "1"], ("0", "0", "STRICT")),
        # past the branch cap the structural box keeps a in [3, 5]
        (["--enum-cap", "1", "--dnf-cap", "0"], ("2", "0", "SOUND")),
    ],
)
def test_validate_past_the_dnf_cap_falls_back_to_the_structural_box(tmp_path, options, want):
    query = "max(a) of select (a <= 2 or a >= 7) and a >= 3 and a <= 5 from R"
    assert validate_result(tmp_path, "relation R { a: int [0, 9] }", query, *options) == want


IFF_SCHEMA = "relation R { a: int [0, 2]; b: int [0, 2] } check { a >= 1 iff b >= 1 }"


@pytest.mark.parametrize(
    "query, want",
    [
        ("sum(a) of R", ("2", "2", "STRICT")),
        ("sum(b) of select a = 0 iff b = 0 from R", ("2", "2", "STRICT")),
        ("count of group a agg count from R", ("2", "1", "SOUND")),
        ("count of project a from R", ("1", "1", "STRICT")),
    ],
)
def test_validate_iff_in_the_check_and_in_a_predicate(tmp_path, query, want):
    assert validate_result(tmp_path, IFF_SCHEMA, query) == want


MIXED_DOMAINS = """
relation S { s: string in {"x"}; k: int [0, 1] }
relation T { s: string in {"y", "z"}; k: int [0, 2] }
relation U { n: num in {1/2, 3}; k: int [0, 1] }
relation V { n: int [0, 2]; k: int [0, 1] }
relation W { n: num in {1, 3}; k: int [0, 1] }
"""


@pytest.mark.parametrize(
    "query, want",
    [
        ("count of S union T", ("2", "2", "STRICT")),
        ("sum(k) of (project k from S) union (project k from T)", ("4", "3", "SOUND")),
        ("sum(n) of U union V", ("6", "5", "SOUND")),
        ("sum(n) of U union W", ("6", "6", "STRICT")),
        ("sum(k) of (project k from S) union (project k from V)", ("2", "1", "SOUND")),
    ],
)
def test_validate_union_of_operands_with_different_domains(tmp_path, query, want):
    assert validate_result(tmp_path, MIXED_DOMAINS, query) == want


def cli_result(argv) -> tuple[int, str]:
    """The exit code and standard output of one CLI call."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "other", ["x: real [0, 10]", "x: int [0, 10000000]"], ids=["infinite", "exceeds-cap"]
)
def test_an_attribute_with_no_candidate_value_empties_the_grid_in_any_order(tmp_path, other):
    # e's pinned values 1 and 3 both lie outside its box [2, 5/2], so R is
    # empty whether x, which cannot be listed within the cap, comes first or not
    check = "check { (e = 1 or e = 3) and e >= 2 and e <= 5/2 }"
    query = write(tmp_path, "q.raq", "count of R")
    seen = []
    for attrs in ((other, "e: real [0, 10]"), ("e: real [0, 10]", other)):
        text = f"relation R {{ {'; '.join(attrs)} }} {check}"
        schema = parse_schemas(text)["R"]
        c = schema.constraint
        solutions = iter_solutions(c, schema)
        path = write(tmp_path, "r.schema", text)
        code, out = cli_result(["analyze", path, query, "--format", "json"])
        gs = json.loads(out)["gs"] if code == 0 else code
        code, out = cli_result(["validate", path, query, "--format", "json"])
        verdict = json.loads(out)["verdict"] if code == 0 else code
        seen.append((
            solution_count(c, schema),
            diameter(c, schema),
            solutions if isinstance(solutions, str) else list(solutions),
            gs,
            verdict,
        ))
    assert seen == [(0, 0, [], "0", "STRICT")] * 2


def test_validate_prepares_each_leaf_once(tmp_path, monkeypatch):
    # the oracle enumerates each leaf from the constraint validation prepared,
    # so validate builds no structural box that analyze does not build
    schema = write(
        tmp_path, "s.schema", "relation R { a: int [0, 2] }\nrelation T { a: int [1, 3] }"
    )
    query = write(tmp_path, "q.raq", "count of R union T")
    boxes = {}
    built = constraints._struct_box
    for command in ("analyze", "validate"):
        calls = []

        def counted(*args, calls=calls):
            calls.append(args)
            return built(*args)

        monkeypatch.setattr(constraints, "_struct_box", counted)
        assert cli_result([command, schema, query])[0] == 0
        boxes[command] = len(calls)
    assert boxes["validate"] == boxes["analyze"] > 0


def test_unknown_data_relation_exits_2(workspace, capsys):
    code = main(
        ["run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", "Ghost=people.csv"]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# caps shared by run and the oracle; numbers beyond double precision

CAP_SCHEMA = "relation R { a: int [0, 4]; b: int [0, 4] } check { a * b >= 12 }"
BIG = "1" + "0" * 401  # 10^401, past the largest double


def test_oracle_evaluates_with_the_user_caps(tmp_path, capsys):
    # avg over an empty R is the midpoint of a's proven range: [0, 4] when
    # --enum-cap 1 stops the enumeration, the exact [3, 4] otherwise
    schema = write(tmp_path, "s.schema", CAP_SCHEMA)
    query = write(tmp_path, "q.raq", "avg(a) of R")
    empty = write(tmp_path, "r.csv", "a,b\n")
    assert main(["run", schema, query, "--data", f"R={empty}", "--enum-cap", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["validate", schema, query, "--enum-cap", "1"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["gs"], d["oracle"], d["verdict"]) == ("2", "2", "STRICT")
    assert main(["validate", schema, query]) == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["gs"], d["oracle"], d["verdict"]) == ("1/2", "1/2", "STRICT")


def test_product_agg_over_empty_operand_follows_the_user_caps(tmp_path, capsys):
    # avg(a) over an empty S is the midpoint of a's proven range: [3, 4], or
    # [0, 4] when --enum-cap 1 stops the enumeration; max over one row of R
    # returns it
    schema = write(
        tmp_path, "s.schema",
        "relation R { c: int [0, 1] }\n"
        "relation S { a: int [0, 4]; b: int [0, 4] } check { a * b >= 12 }",
    )
    query = write(tmp_path, "q.raq", "max(avg_a) of R productagg avg(a) S")
    r = write(tmp_path, "r.csv", "c\n1\n")
    s = write(tmp_path, "s.csv", "a,b\n")
    data = ["--data", f"R={r}"]
    assert main(["run", schema, query, *data, "--data", f"S={s}"]) == 0
    assert capsys.readouterr().out.strip() == "7/2"
    assert main(["run", schema, query, *data, "--data", f"S={s}", "--enum-cap", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["validate", schema, query, *data]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"] == "1/2"
    assert main(["validate", schema, query, *data, "--enum-cap", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"] == "2"


def test_enum_cap_bounds_the_whole_product_grid(workspace, tmp_path, capsys):
    # the product grid is 4 * 3 * 5 = 60 points, of which 9 * 5 = 45 are
    # solutions: a cap of 60 counts them, a cap of 59 counts nothing, even
    # though each operand's grid alone is within it
    schema = write(
        tmp_path, "pin.schema",
        "relation A { a: int [0, 3]; b: int [0, 2] } check { a >= b }\n"
        "relation B { c: int [0, 4] }",
    )
    query = write(tmp_path, "pin.raq", "count of A product B")
    assert main(["analyze", schema, query, "--enum-cap", "60"]) == 0
    out = capsys.readouterr().out
    assert "global sensitivity: 45\n" in out
    assert "  product          delta=inf    diam=45         S=45\n" in out
    assert main(["analyze", schema, query, "--enum-cap", "59"]) == 3
    out = capsys.readouterr().out
    assert "global sensitivity: inf\n" in out
    assert "  product          delta=inf    diam=inf        S=inf\n" in out
    # the README example's grids (4 * 151 * 201 points) stay over the budget
    assert main(["analyze", str(workspace / "people.schema"), str(workspace / "avg.raq")]) == 0
    diams = [line.split()[2] for line in capsys.readouterr().out.splitlines() if "diam=" in line]
    assert diams == ["diam=inf", "diam=inf"]


def test_analyze_json_beyond_double_range_exits_2(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", f"relation R {{ x: real [0, {BIG}] }}")
    query = write(tmp_path, "q.raq", "sum(x) of R")
    assert main(["analyze", schema, query, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    # the exact table output has no float fields and still works
    assert main(["analyze", schema, query]) == 0
    assert f"global sensitivity: {BIG}" in capsys.readouterr().out


def test_dp_run_beyond_double_range_exits_2(tmp_path, capsys):
    schema = write(tmp_path, "s.schema", f"relation R {{ x: real [0, {BIG}] }}")
    query = write(tmp_path, "q.raq", "sum(x) of R")
    data = write(tmp_path, "r.csv", "x\n5\n")
    assert main(["dp-run", schema, query, "--data", f"R={data}", "--epsilon", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_dp_run_epsilon_below_double_range_exits_2(workspace, capsys):
    code = main(
        ["dp-run", str(workspace / "people.schema"), str(workspace / "avg.raq"),
         "--data", f"People={workspace / 'people.csv'}", "--epsilon", "1e-400"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "epsilon" in err


def test_numbers_past_the_digit_limit_exit_2_and_say_where(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    digits = "1" + "0" * limit
    long_schema = write(tmp_path, "long.schema", f"relation R {{ x: real [0, {digits}] }}")
    schema = write(tmp_path, "s.schema", "relation R { x: real [0, 9] }")
    query = write(tmp_path, "q.raq", "sum(x) of R")
    long_query = write(tmp_path, "long.raq", f"sum(x) of select x <= {digits} from R")
    data = write(tmp_path, "r.csv", "x\n1\n")
    for argv, col in (([long_schema, query], 26), ([schema, long_query], 23)):
        assert main(["analyze", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: number has more than {limit} digits (line 1, col {col})\n"
        )
    assert main(["dp-run", schema, query, "--data", f"R={data}", "--epsilon", digits]) == 2
    assert capsys.readouterr().err == f"error: epsilon has more than {limit} digits\n"


def test_exponent_option_values_past_the_digit_limit_exit_2(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    schema = write(tmp_path, "s.schema", "relation R { x: real [0, 9] }")
    query = write(tmp_path, "q.raq", "sum(x) of R")
    data = write(tmp_path, "r.csv", "x\n1\n")
    for epsilon in ("1e5000", "1e20000000", f" 1E-{limit} "):
        assert main(["dp-run", schema, query, "--data", f"R={data}", "--epsilon", epsilon]) == 2
        assert capsys.readouterr().err == f"error: epsilon has more than {limit} digits\n"


@pytest.mark.parametrize("text", ["abc", "1/0", "1/x", "2/-0"])
def test_number_options_that_are_not_numbers_name_the_option(tmp_path, capsys, text):
    schema = write(tmp_path, "s.schema", "relation R { x: real [0, 9] }")
    query = write(tmp_path, "q.raq", "sum(x) of R")
    data = write(tmp_path, "r.csv", "x\n1\n")
    assert main(["dp-run", schema, query, "--data", f"R={data}", f"--epsilon={text}"]) == 2
    assert capsys.readouterr().err == f"error: epsilon is not a number: {text!r}\n"


def _subcommand_options():
    """(command, option) for every option of every subcommand."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings and action.dest != "help":
                yield command, action.option_strings[0]


OPTIONS = list(_subcommand_options())


def test_each_subcommand_takes_exactly_its_options():
    common = {"--dnf-cap", "--enum-cap", "--format"}
    got = {}
    for command, option in OPTIONS:
        got.setdefault(command, set()).add(option)
    assert got == {
        "analyze": common,
        "run": common | {"--data", "--trace"},
        "dp-run": common | {"--data", "--epsilon", "--samples", "--seed"},
        "validate": common | {"--data", "--universe-cap"},
    }


@pytest.mark.parametrize("command, option", OPTIONS,
                         ids=[f"{command} {option}" for command, option in OPTIONS])
def test_every_option_given_dashes_exits_2_naming_it(workspace, capsys, command, option):
    # given `--opt=--`, argparse stores an empty list or the string '--' as the
    # value, or refuses it itself (flags; typed options in some Python versions)
    argv = [command, str(workspace / "people.schema"), str(workspace / "avg.raq")]
    if command == "dp-run":
        argv += ["--epsilon", "1"]
    argv.append(f"{option}=--")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and option in errors[0]


@pytest.mark.parametrize("dest", ["epsilon", "data"])
def test_option_holding_dashes_is_refused(dest):
    args = build_parser().parse_args(["dp-run", "s.schema", "q.raq", "--epsilon", "1"])
    # what argparse stores for `--opt=--` in some Python versions
    setattr(args, dest, ["--"] if dest == "data" else "--")
    with pytest.raises(ValueError, match=f"^--{dest} needs a value, got '--'$"):
        _check_options(args)


# ---------------------------------------------------------------------------
# exit-code contract, checked on a separate interpreter so that an uncaught
# exception shows as its traceback and exit code 1

CONTRACT_FILES = {
    "people.schema": PEOPLE_SCHEMA,
    "people.csv": PEOPLE_CSV,
    "bad.csv": "Name,Weight,Height\nAnn,999,170\n",
    "avg.raq": "avg(Weight) of People\n",
    "cut.raq": "count of\n",
    "big.schema": f"relation R {{ x: real [0, {BIG}] }}",
    "unbounded.schema": "relation R { x: real [0, inf] }",
    "r.csv": "x\n5\n",
    "sum.raq": "sum(x) of R\n",
    "wide.schema": "relation R { a: int [0, 50] }",
    "count.raq": "count of R\n",
    "big.csv": f"x\n{BIG}\n",
    "huge.schema": f"relation R {{ x: real [0, 1{'0' * 300}] }}",
    "long.csv": "x\n1\n" + "1" * 131_073 + "\n",
    "empty.schema": "relation R { x: real [inf, inf] }",
    # 1,000 levels of nesting, past the interpreter's recursion limit
    "parens.raq": "count of select " + "(" * 1000 + "x >= 1" + ")" * 1000 + " from R\n",
    "unions.raq": "count of " + " union ".join(["R"] * 1000) + "\n",
    "selects.raq": "count of " + "select x >= 1 from " * 1000 + "R\n",
    "plus.raq": "count of select " + " + ".join(["x"] * 1000) + " >= 1 from R\n",
}


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param("analyze people.schema cut.raq", 2, id="parse-error"),
        pytest.param("analyze nope.schema avg.raq", 2, id="missing-file"),
        pytest.param("run people.schema avg.raq --data People=bad.csv", 2, id="bad-row"),
        pytest.param("dp-run big.schema sum.raq --data R=r.csv --epsilon 1", 2, id="overflow"),
        pytest.param(
            "dp-run people.schema avg.raq --data People=people.csv --epsilon 1e-400", 2,
            id="epsilon-underflow",
        ),
        pytest.param("dp-run unbounded.schema sum.raq --data R=r.csv --epsilon 1", 3,
                     id="unbounded"),
        pytest.param("validate wide.schema count.raq", 4, id="oracle-cap"),
        pytest.param("analyze people.schema avg.raq --enum-cap -1", 2, id="negative-enum-cap"),
        pytest.param("analyze people.schema avg.raq --dnf-cap -1", 2, id="negative-dnf-cap"),
        pytest.param("validate wide.schema count.raq --universe-cap -1", 2,
                     id="negative-universe-cap"),
        pytest.param(
            "dp-run people.schema avg.raq --data People=people.csv --epsilon 1 --samples -1", 2,
            id="negative-samples",
        ),
        pytest.param("analyze big.schema parens.raq", 2, id="deep-parens"),
        pytest.param("run big.schema unions.raq --data R=r.csv", 2, id="deep-unions"),
        pytest.param("dp-run big.schema selects.raq --data R=r.csv --epsilon 1", 2,
                     id="deep-selects"),
        pytest.param("validate big.schema plus.raq", 2, id="deep-plus"),
        pytest.param("run big.schema count.raq --data R=long.csv", 2, id="long-cell"),
        pytest.param("analyze empty.schema count.raq", 2, id="infinite-point-range"),
    ],
)
def test_errors_end_in_a_documented_exit_code(tmp_path, argv, code):
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(raqdp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "raqdp.cli", *argv.split()],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["parens", "unions", "selects", "plus"])
def test_deeply_nested_input_ends_in_one_error_line(tmp_path, capsys, name):
    for file_name in ("big.schema", f"{name}.raq"):
        (tmp_path / file_name).write_text(CONTRACT_FILES[file_name])
    argv = ["analyze", str(tmp_path / "big.schema"), str(tmp_path / f"{name}.raq")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the input is nested too deeply\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        pytest.param(
            "dp-run people.schema avg.raq --data People=people.csv --epsilon 1e400", "epsilon",
            id="epsilon",
        ),
        pytest.param("analyze big.schema sum.raq --format json", "delta", id="delta"),
        pytest.param("dp-run big.schema sum.raq --data R=r.csv --epsilon 1", "gs", id="gs"),
        pytest.param("run big.schema sum.raq --data R=big.csv --format json", "answer",
                     id="answer"),
        pytest.param("dp-run huge.schema sum.raq --data R=r.csv --epsilon 1e-300", "noise scale",
                     id="noise-scale"),
        pytest.param("analyze people.schema avg.raq --enum-cap -1", "--enum-cap", id="enum-cap"),
        pytest.param("analyze people.schema avg.raq --dnf-cap -1", "--dnf-cap", id="dnf-cap"),
        pytest.param("validate wide.schema count.raq --universe-cap -1", "--universe-cap",
                     id="universe-cap"),
        pytest.param(
            "dp-run people.schema avg.raq --data People=people.csv --epsilon 1 --samples -1",
            "--samples", id="samples",
        ),
    ],
)
def test_input_errors_name_the_field(tmp_path, monkeypatch, capsys, argv, field):
    for name, text in CONTRACT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert field in captured.err


# ---------------------------------------------------------------------------
# a standard output whose reader has gone; no command loads numpy, each
# checked on a separate interpreter


def _deep_union(depth: int) -> str:
    """count of ((R) union T) union R ..., `depth` unions deep."""
    plan = "(R)"
    for i in range(depth):
        plan = f"({plan} union {'TR'[i % 2]})"
    return f"count of {plan}\n"


CLOSED_STDOUT_FILES = {
    **STRUCTURAL_FILES,
    "count.raq": "count of R\n",
    # its analyze report is larger than a Linux pipe's 64 KiB buffer
    "deep.raq": _deep_union(150),
}


def _child_env(unbuffered: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(raqdp.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param("run rtu.schema count.raq --data R=r.csv", id="one-line"),
        pytest.param("analyze rtu.schema deep.raq", id="past-the-pipe-buffer"),
    ],
)
def test_a_closed_stdout_ends_quietly_with_exit_0(tmp_path, argv, unbuffered):
    for name, text in CLOSED_STDOUT_FILES.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.Popen(
        [sys.executable, "-m", "raqdp.cli", *argv.split()],
        cwd=tmp_path, env=_child_env(unbuffered),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # closed before the child has even imported raqdp, so its first write fails
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_stdout_that_refuses_writes_ends_quietly_with_exit_0(tmp_path, monkeypatch):
    for name, text in CLOSED_STDOUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", "rtu.schema", "deep.raq"]
    report = io.StringIO()
    with redirect_stdout(report):
        assert main(argv) == 0
    assert len(report.getvalue().encode()) > 1 << 16
    err = io.StringIO()
    with redirect_stdout(_ClosedPipe()), redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")


# Other test modules import numpy and build parsers, so only a fresh
# interpreter shows what raqdp itself loads and builds. Each step records
# [step, exit code, numpy loaded, argument parsers constructed so far].
LOAD_PROBE = """
import argparse, contextlib, io, json, sys

parsers = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global parsers
    parsers += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init

import raqdp, raqdp.cli

seen = [["import", None, "numpy" in sys.modules, parsers]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = raqdp.cli.main(argv)
    seen.append([argv[0], code, "numpy" in sys.modules, parsers])
print(json.dumps({"seen": seen, "last_out": out.getvalue()}))
"""


def _probe(cwd, commands: list) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(commands)],
        cwd=cwd, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_numpy(workspace):
    for name, text in CLOSED_STDOUT_FILES.items():
        (workspace / name).write_text(text)
    people = ["people.schema", "avg.raq", "--data", "People=people.csv"]
    commands = [
        ["analyze", "people.schema", "avg.raq"],
        ["run", *people],
        ["validate", "rtu.schema", "count.raq"],
        ["dp-run", *people, "--epsilon", "1/2", "--seed", "7", "--samples", "3"],
        # the README's release
        ["dp-run", *people, "--epsilon", "1/2", "--seed", "7"],
    ]
    result = _probe(workspace, commands)
    assert [step[:3] for step in result["seen"]] == [
        ["import", None, False],
        ["analyze", 0, False],
        ["run", 0, False],
        ["validate", 0, False],
        ["dp-run", 0, False],
        ["dp-run", 0, False],
    ]
    assert json.loads(result["last_out"])["noisy_value"] == 6.561912619244303


def test_the_parser_is_built_at_the_first_main_call_not_at_import(workspace):
    commands = [["analyze", "people.schema", "avg.raq"], ["analyze", "people.schema", "avg.raq"]]
    # one build constructs the top parser and one parser per command
    assert _probe(workspace, commands)["seen"] == [
        ["import", None, False, 0],
        ["analyze", 0, False, 5],
        ["analyze", 0, False, 5],
    ]


# ---------------------------------------------------------------------------
# one validation per command; exit codes over arbitrary argv, in-process

TINY_FILES = {
    "r.schema": "relation R { a: int [0, 2] }\nrelation U { x: real [0, inf] }\n",
    "count.raq": "count of R\n",
    "sum.raq": "sum(a) of R\n",
    "unbounded.raq": "sum(x) of U\n",
    "r.csv": "a\n1\n2\n",
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    for name, text in TINY_FILES.items():
        (root / name).write_text(text)
    return root


def tiny_argv(root, command, *options):
    argv = [command, str(root / "r.schema"), str(root / "count.raq")]
    if command in ("run", "dp-run"):
        argv += ["--data", f"R={root / 'r.csv'}"]
    if command == "dp-run":
        argv += ["--epsilon", "1"]
    return argv + list(options)


@pytest.mark.parametrize(
    "command, options",
    [("analyze", ()), ("run", ()), ("run", ("--trace",)), ("dp-run", ()),
     ("dp-run", ("--samples", "5")), ("validate", ())],
    ids=["analyze", "run", "run --trace", "dp-run", "dp-run --samples", "validate"],
)
def test_each_command_validates_once(tiny, monkeypatch, capsys, command, options):
    built = []

    class CountingBuilder(query._SchemaBuilder):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(query, "_SchemaBuilder", CountingBuilder)
    assert main(tiny_argv(tiny, command, *options)) == 0
    assert len(built) == 1


def test_sample_count_too_large_to_allocate_exits_2(tiny, capsys):
    # a list of 10^15 draws needs 8 PB, past any address space, so it is
    # refused before it takes any memory; 10^30 is past the index range
    for count in (10**15, 10**30):
        assert main(tiny_argv(tiny, "dp-run", "--samples", str(count))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples {count} is more draws than memory can hold\n"


# ---------------------------------------------------------------------------
# one argument parser per process, shared by every main call

@pytest.fixture
def fresh_parser():
    """Start and end with no parser built, so the test sees the first build."""
    build_parser.cache_clear()
    yield
    build_parser.cache_clear()


def test_main_builds_one_parser_for_every_command(tiny, fresh_parser, monkeypatch, capsys):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for command in ("analyze", "run", "dp-run", "validate", "analyze"):
        assert main(tiny_argv(tiny, command)) == 0
    assert progs == ["raqdp", "raqdp analyze", "raqdp run", "raqdp dp-run", "raqdp validate"]


def test_data_from_one_call_does_not_reach_the_next(tiny, fresh_parser, monkeypatch, capsys):
    seen = []
    validate_command = cli._COMMANDS["validate"]

    def recording(args):
        seen.append(list(args.data))
        return validate_command(args)

    monkeypatch.setitem(cli._COMMANDS, "validate", recording)
    with_data = tiny_argv(tiny, "run")
    assert main(with_data) == 0
    assert main(tiny_argv(tiny, "validate")) == 0
    assert main(tiny_argv(tiny, "validate") + with_data[-2:]) == 0
    assert main(tiny_argv(tiny, "validate")) == 0
    assert seen == [[], with_data[-1:], []]
    parser = build_parser()
    first = parser.parse_args(with_data + with_data[-2:])
    assert parser.parse_args(tiny_argv(tiny, "validate")).data == []
    assert first.data == with_data[-1:] * 2


@pytest.mark.parametrize("refused", [
    [], ["analyze"], ["check"], ["analyze", "s", "q", "--data", "R=r.csv"],
    ["analyze", "s", "q", "--format", "xml"], ["validate", "s", "q", "--universe-cap", "x"],
], ids=["no-command", "no-files", "unknown-command", "option-of-another-command",
        "bad-choice", "bad-number"])
def test_a_refused_call_leaves_the_parser_as_built(tiny, fresh_parser, capsys, refused):
    argv = tiny_argv(tiny, "validate")
    first = run_in_process(argv)
    build_parser.cache_clear()
    code, out, err = run_in_process(refused)
    assert (code, out) == (2, "")
    assert err.startswith("usage: raqdp") and "error:" in err
    with redirect_stderr(io.StringIO()) as fresh_err, pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(refused)
    assert err == fresh_err.getvalue()
    assert first[0] == 0 and first[2] == ""
    assert run_in_process(argv) == first


@pytest.mark.parametrize("command", [None, "analyze", "run", "dp-run", "validate"])
def test_help_of_the_shared_parser_is_that_of_a_fresh_one(tiny, fresh_parser, command):
    argv = [command, "--help"] if command else ["--help"]
    for call in (tiny_argv(tiny, command or "analyze"), ["analyze"], argv):
        run_in_process(call)
    code, out, err = run_in_process(argv)
    with redirect_stdout(io.StringIO()) as fresh_out, pytest.raises(SystemExit):
        build_parser.__wrapped__().parse_args(argv)
    assert (code, err) == (0, "")
    assert out == fresh_out.getvalue() and out.startswith(f"usage: raqdp {command or ''}".rstrip())


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _flags():
    """(command, option) for every option that takes no value."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {(command, action.option_strings[0]) for command, sub in commands.choices.items()
            for action in sub._actions if action.option_strings and action.nargs == 0}


_FLAGS = _flags()
_WORDS = st.sampled_from([
    "--", "", "-", "abc", "1/2", "1/0", "0.25", "1e400", "1e-400", "inf", "-inf", "nan",
    "0x10", " 1", "R", "R=", "=", "Ghost=x.csv", "R=nope.csv", "json", "table",
    "1" + "0" * 400,
]) | st.text(alphabet=st.characters(blacklist_characters="/"), max_size=8)
_NUMBERS = st.integers(min_value=-(10**30), max_value=10**30).map(str)
_COUNTS = (st.integers(0, 4) | st.integers(min_value=0, max_value=10**30)).map(str)


def _values(option: str, root):
    """Values for an option: mostly ones it accepts, else anything."""
    if option == "--samples":
        # a sample count that memory could actually hold would be drawn
        anything = st.integers(min_value=-(10**30), max_value=1000).map(str) | _WORDS.filter(
            lambda text: not _is_int(text)
        )
        return st.integers(0, 1000).map(str) | anything
    good = {
        "--enum-cap": _COUNTS,
        "--dnf-cap": _COUNTS,
        "--universe-cap": _COUNTS,
        "--format": st.sampled_from(["json", "table"]),
        "--data": st.just(f"R={root / 'r.csv'}"),
        "--epsilon": st.sampled_from(["1", "1/2", "0.25", "3"]),
        "--seed": st.integers(0, 2**64 - 1).map(str),
    }[option]
    return good | good | _WORDS | _NUMBERS


@st.composite
def argvs(draw, root):
    command = draw(st.sampled_from(["analyze", "run", "dp-run", "validate"]))
    argv = tiny_argv(root, command)
    argv[2] = str(root / draw(st.sampled_from(["count.raq", "sum.raq", "unbounded.raq"])))
    if draw(st.integers(0, 4)) == 0:  # mangle a positional or a preset option value
        argv[draw(st.integers(1, len(argv) - 1))] = draw(_WORDS | _NUMBERS)
    options = [option for c, option in OPTIONS if c == command]
    for option in draw(st.lists(st.sampled_from(options), max_size=4)):
        if (command, option) in _FLAGS:
            argv.append(option)
            continue
        value = draw(_values(option, root))
        argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    return argv


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def tiny_argvs(tiny):
    return argvs(tiny)


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_any_argv_ends_in_a_documented_exit_code(tiny_argvs, data):
    argv = data.draw(tiny_argvs, label="argv")
    code, out, err = run_in_process(argv)
    assert code in (0, 2, 3, 4)
    if code == 3 and argv[0] == "analyze":
        # the full report of an infinite bound, whose warning names the cause
        assert out and err == ""
    elif code != 0:
        assert out == ""
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1


# ---------------------------------------------------------------------------
# Terms nested past Python's parser limits, in restrictions and check constraints


def _nested_term(shape: str) -> str:
    """A 400-term chain a + a + ... + a, or the 199-deep a - (a - (... - (a - b)))."""
    if shape == "chain":
        return " + ".join(["a"] * 400)
    term = "a - b"
    for _ in range(198):
        term = f"a - ({term})"
    return term


NESTED_ROWS = [(i % 11, i % 7) for i in range(300)]  # 77 distinct rows


def _nested_csv(tmp_path, name, rows, extra=""):
    return write(tmp_path, name, "a,b\n" + "".join(f"{a},{b}\n" for a, b in rows) + extra)


@pytest.mark.parametrize(
    "shape, predicate, check, holds, bad, answer, loaded",
    [
        # 400 a <= 2000 keeps a <= 5, and the check 400 a <= 2400 keeps a <= 6
        ("chain", "{} <= 2000", "{} <= 2400", lambda a, b: a <= 6, "10,0", "42\n", "49\n"),
        # the deep term is a - b: the predicate keeps a <= b, the check a - b >= -3
        ("deep", "{} <= 0", "{} >= -3", lambda a, b: a - b >= -3, "0,6", "28\n", "71\n"),
    ],
    ids=["chain", "deep"],
)
def test_terms_nested_past_the_parser_limits_answer(
    tmp_path, shape, predicate, check, holds, bad, answer, loaded
):
    term = _nested_term(shape)
    data = _nested_csv(tmp_path, "r.csv", NESTED_ROWS)
    plain = write(tmp_path, "plain.schema", "relation R { a: int [0, 10]; b: int [0, 10] }")
    query = write(tmp_path, "select.raq", f"count of select {predicate.format(term)} from R")
    assert cli_result(["run", plain, query, "--data", f"R={data}"]) == (0, answer)
    checked = write(tmp_path, "checked.schema",
                    f"relation R {{ a: int [0, 10]; b: int [0, 10] }} check {{ {check.format(term)} }}")
    count = write(tmp_path, "count.raq", "count of R")
    valid = [row for row in NESTED_ROWS if holds(*row)]
    # every row in the generated loop, then a row read again on its own for its "3.0"
    for extra in ("", "3.0,3\n"):
        data = _nested_csv(tmp_path, "valid.csv", valid, extra)
        assert cli_result(["run", checked, count, "--data", f"R={data}"]) == (0, loaded)
    data = _nested_csv(tmp_path, "bad.csv", valid, f"3.0,3\n{bad}\n")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(["run", checked, count, "--data", f"R={data}"]) == 2
    assert err.getvalue().endswith(f"  row {len(valid) + 2}: violates the check constraint\n")
