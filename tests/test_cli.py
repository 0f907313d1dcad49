"""Command-line driver: subcommands, exit codes, output determinism."""

import json
import os
import subprocess
import sys

from grem_algebra import modern_graph_path

from corpus import Q_OLDEST_KNOWN_AGE, Q_COCREATOR_30
from test_evaluator import PAST_FLOAT_RANGE

GOLDEN_EQ7 = """\
group[name]
  project[a,c]
    filter[c.age=30]
      traverse-in[created](b->c)
        filter[b.name=lop]
          traverse-out[created](a->b)
            V
"""


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "grem_algebra.cli", *args],
        capture_output=True,
        text=True,
    )


def test_run_oldest_known_age():
    proc = cli("run", "--graph", modern_graph_path(), "--query", Q_OLDEST_KNOWN_AGE)
    assert proc.returncode == 0
    assert proc.stdout == "32\n"


def test_plan_cocreator_ascii_grouped():
    proc = cli("plan", "--style", "ascii", "--eq7-grouping", "--query", Q_COCREATOR_30)
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_EQ7


def test_plan_needs_no_graph(tmp_path):
    # plan mode works with no graph anywhere near
    proc = cli("plan", "--query", "g.V().out('knows')")
    assert proc.returncode == 0
    assert "traverse-out[knows]" in proc.stdout


def test_unknown_step_exit_1():
    proc = cli("run", "--graph", modern_graph_path(), "--query", "g.V().frobnicate()")
    assert proc.returncode == 1
    assert "unknown step 'frobnicate'" in proc.stderr


def test_compile_error_exit_1():
    proc = cli("plan", "--query", "g.V().select('z')")
    assert proc.returncode == 1
    assert "undeclared" in proc.stderr


def test_missing_graph_exit_2(tmp_path):
    proc = cli("run", "--graph", str(tmp_path / "nope.json"), "--query", "g.V()")
    assert proc.returncode == 2


def test_bad_graph_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"vertices": [], "edges": [], "junk": 1}')
    proc = cli("run", "--graph", str(path), "--query", "g.V()")
    assert proc.returncode == 2
    assert "graph error" in proc.stderr


def test_lone_surrogate_in_graph_exit_2(tmp_path):
    """A lone surrogate is valid JSON, but printing it to UTF-8 output
    fails: the graph is rejected at load, with the entry and field named,
    before any query runs."""
    path = tmp_path / "surrogate.json"
    path.write_text(
        '{"vertices":[{"id":"\\ud800","label":"person","properties":{"name":"\\udc00x"}}],"edges":[]}'
    )
    for query in ("g.V()", "g.V().values('name')"):
        proc = cli("run", "--graph", str(path), "--format", "table", "--query", query)
        assert proc.returncode == 2
        assert proc.stderr == "graph error: vertices[0]: field 'id' holds a lone surrogate\n"
    path.write_text(
        '{"vertices":[{"id":"1","label":"person","properties":{"name":"\\ud83d\\ude00\\udc00x"}}],"edges":[]}'
    )
    proc = cli("run", "--graph", str(path), "--query", "g.V().values('name')")
    assert proc.returncode == 2
    assert proc.stderr == "graph error: vertices[0]: property 'name' holds a lone surrogate\n"


def test_lone_surrogate_in_query_exit_1():
    """A query byte that is not UTF-8 reaches the program as a lone
    surrogate: a parse error at its position, not a crash on printing."""
    query = "g.V().has('name','a\udcff')"
    for args in (("parse",), ("plan",), ("run", "--graph", modern_graph_path())):
        proc = subprocess.run(
            [sys.executable, "-m", "grem_algebra.cli", *args, "--query", query],
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == 1
        assert proc.stderr == b"parse error: illegal character '\\udcff' at line 1, column 20\n"
        assert proc.stdout == b""


def test_surrogate_pair_in_graph_prints(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text('{"vertices":[{"id":"1","label":"p","properties":{"name":"\\ud83d\\ude00"}}],"edges":[]}')
    proc = subprocess.run(
        [sys.executable, "-m", "grem_algebra.cli", "run", "--graph", str(path),
         "--query", "g.V().values('name')"],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    assert proc.returncode == 0
    assert proc.stdout.decode("utf-8") == "\U0001f600\n"


def test_evaluation_error_exit_3():
    proc = cli(
        "run", "--graph", modern_graph_path(), "--query", "g.V().values('name').max()"
    )
    assert proc.returncode == 3
    assert "evaluation error" in proc.stderr


def test_out_of_memory_exit_3(monkeypatch, capsys):
    """A product too large to hold (a disconnected match(), a chain of
    union()s) raises MemoryError in evaluate or in a renderer: the CLI
    reports an evaluation error, not a traceback.  The error is faked, so
    the test allocates nothing large."""
    from grem_algebra import cli as cli_module

    def out_of_memory(*args):
        raise MemoryError

    for name, fmt in (("evaluate", "jsonl"), ("to_jsonl", "jsonl"), ("to_table", "table")):
        argv = ["run", "--graph", modern_graph_path(), "--format", fmt, "--query", "g.V()"]
        with monkeypatch.context() as patched:
            patched.setattr(cli_module, name, out_of_memory)
            assert cli_module.main(argv) == cli_module.EXIT_EVAL_ERROR, name
        assert capsys.readouterr() == ("", "evaluation error: out of memory\n"), name


def test_max_past_the_float_range_exit_3(tmp_path, capsys):
    """The int is not printed: it may hold thousands of digits."""
    from grem_algebra import cli as cli_module

    path = tmp_path / "big.json"
    path.write_text(json.dumps(PAST_FLOAT_RANGE))
    argv = ["run", "--graph", str(path), "--query", "g.V().values('age').max()"]
    assert cli_module.main(argv) == cli_module.EXIT_EVAL_ERROR
    assert capsys.readouterr() == ("", "evaluation error: max() over floats and an int past the float range\n")


def test_group_then_order_exit_0():
    query = "g.V().group().by('lang').order()"
    proc = cli("run", "--graph", modern_graph_path(), "--query", query)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "key   member\n----  ------\njava  v[3]\njava  v[5]\n"


def test_jsonl_format():
    proc = cli(
        "run",
        "--graph",
        modern_graph_path(),
        "--format",
        "jsonl",
        "--query",
        'g.V().match(__.as("a").out("knows").as("b")).select("b")',
    )
    assert proc.returncode == 0
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert rows == [{"b": {"vertex": "2"}}, {"b": {"vertex": "4"}}]


def test_parse_subcommand_canonical():
    proc = cli("parse", "--query", "g.V().has( 'name' , 'marko' )")
    assert proc.returncode == 0
    assert proc.stdout == 'g.V().has("name","marko")\n'


def test_query_file(tmp_path):
    path = tmp_path / "query.grem"
    path.write_text(Q_OLDEST_KNOWN_AGE)
    proc = cli("run", "--graph", modern_graph_path(), "--query-file", str(path))
    assert proc.stdout == "32\n"


def test_query_file_not_utf8_exit_1(tmp_path):
    path = tmp_path / "query.grem"
    path.write_bytes(b"g.V().has('name','\xff')")
    proc = cli("run", "--graph", modern_graph_path(), "--query-file", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot read query file:")
    assert "Traceback" not in proc.stderr


def test_graph_not_utf8_or_nested_too_deeply_exit_2(tmp_path):
    path = tmp_path / "graph.json"
    for data, message in [
        (b'{"vertices": [{"id": "\xff", "label": "person"}], "edges": []}', "not UTF-8"),
        (b'{"vertices": [' + b"[" * 100_000 + b"]" * 100_000 + b'], "edges": []}',
         "nested too deeply"),
    ]:
        path.write_bytes(data)
        proc = cli("run", "--graph", str(path), "--query", "g.V()")
        assert proc.returncode == 2
        assert proc.stderr.startswith("graph error:") and message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_query_and_query_file_exclusive(tmp_path):
    """Both flags given is a usage error, even when one of them is empty."""
    path = tmp_path / "query.grem"
    path.write_text("g.V()")
    for query, query_file in (("g.V()", str(path)), ("", str(path)), ("g.V()", "")):
        proc = cli("run", "--graph", modern_graph_path(), "--query", query, "--query-file", query_file)
        assert proc.returncode == 1, (query, query_file)
        assert proc.stderr == "error: exactly one of --query/--query-file is required\n", (query, query_file)


def test_an_empty_query_is_a_positioned_parse_error(capsys):
    """--query '' is a given flag: the query is empty, and does not parse."""
    from grem_algebra import cli as cli_module

    assert cli_module.main(["parse", "--query", ""]) == cli_module.EXIT_QUERY_ERROR
    assert capsys.readouterr() == ("", "parse error: traversal must start with 'g' or '__' at line 1, column 1\n")


def test_usage_error_exit_1_not_the_graph_code():
    """An argparse usage error keeps argparse's message and exits 1, the
    query error code, not 2, the graph-load code."""
    proc = cli("run", "--graph", modern_graph_path(), "--format", "xml", "--query", "g.V()")
    assert proc.returncode == 1
    assert "error: argument --format: invalid choice: 'xml'" in proc.stderr
    assert proc.stdout == ""


def test_eq7_grouping_only_where_it_acts():
    """parse never compiles, so it does not take --eq7-grouping."""
    proc = cli("parse", "--eq7-grouping", "--query", "g.V()")
    assert proc.returncode == 1
    assert "unrecognized arguments: --eq7-grouping" in proc.stderr
    assert proc.stdout == ""


def test_help_exit_0():
    proc = cli("run", "--help")
    assert proc.returncode == 0
    assert "--query-file" in proc.stdout


def test_byte_identical_reruns():
    args = ("run", "--graph", modern_graph_path(), "--format", "jsonl", "--query", Q_COCREATOR_30.replace("30", "32"))
    first = cli(*args)
    second = cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_unknown_step_without_graph_still_exit_1():
    # the query is checked before the graph requirement
    proc = cli("run", "--query", "g.V().frobnicate()")
    assert proc.returncode == 1
    assert "unknown step" in proc.stderr


def test_run_without_graph_exit_2():
    proc = cli("run", "--query", "g.V()")
    assert proc.returncode == 2
    assert "requires --graph" in proc.stderr


def test_non_finite_graph_value_exit_2(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(
        '{"vertices": [{"id": "1", "label": "person", "properties": {"age": NaN}}], "edges": []}'
    )
    proc = cli("run", "--graph", str(path), "--query", "g.V().values('age')", "--format", "jsonl")
    assert proc.returncode == 2
    assert "non-finite value" in proc.stderr
    assert proc.stdout == ""


def test_integer_past_the_digit_limit_no_traceback(tmp_path):
    proc = cli("parse", "--query", "g.V().limit(" + "9" * 5000 + ")")
    assert proc.returncode == 1
    assert proc.stderr == "parse error: integer literal has too many digits at line 1, column 13\n"
    path = tmp_path / "big.json"
    path.write_text(
        '{"vertices": [{"id": "1", "label": "p", "properties": {"n": %s}}], "edges": []}'
        % ("9" * 5000)
    )
    proc = cli("run", "--graph", str(path), "--query", "g.V()")
    assert proc.returncode == 2
    assert proc.stderr == "graph error: invalid JSON: integer has too many digits\n"
    assert proc.stdout == ""

def test_float_literal_out_of_range_no_traceback():
    for literal in ("1e999", "-1e999", "2e308"):
        proc = cli("parse", "--query", f"g.V().has('age',{literal})")
        assert proc.returncode == 1
        assert proc.stderr == "parse error: float literal out of range at line 1, column 17\n"
        assert "Traceback" not in proc.stderr and proc.stdout == ""
    proc = cli("parse", "--query", "g.V().has('age',1e-999)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == 'g.V().has("age",0.0)\n'


def _long_chain(steps):
    """g.V() then out('knows') steps: `steps` steps in all."""
    return "g.V()" + ".out('knows')" * (steps - 1)


def test_step_limit_accepted_at_the_limit(tmp_path):
    from grem_algebra.parser import MAX_STEPS

    query_file = tmp_path / "q.txt"
    query_file.write_text(_long_chain(MAX_STEPS))
    proc = cli("run", "--graph", modern_graph_path(), "--query-file", str(query_file))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""  # no knows-path that long in the fixture
    for style in ("paper", "ascii", "curried"):
        proc = cli("plan", "--style", style, "--query-file", str(query_file))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("knows") == MAX_STEPS - 1


def test_step_limit_exceeded_is_a_positioned_parse_error(tmp_path):
    from grem_algebra.parser import MAX_STEPS

    query_file = tmp_path / "q.txt"
    text = _long_chain(MAX_STEPS + 1)
    query_file.write_text(text)
    for args in (
        ("run", "--graph", modern_graph_path()),
        ("plan",),
        ("plan", "--style", "paper"),
    ):
        proc = cli(*args, "--query-file", str(query_file))
        assert proc.returncode == 1
        column = text.rindex("out") + 1
        assert proc.stderr == (
            f"parse error: traversal has more than {MAX_STEPS} steps at line 1, column {column}\n"
        )
    # a 2000-step chain, far past the limit: no traceback either
    query_file.write_text(_long_chain(2001))
    proc = cli("run", "--graph", modern_graph_path(), "--query-file", str(query_file))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_empty_or_reserved_as_label_exit_1():
    for query, label in (
        ("g.V().as('@').out().as('b').select('@','b')", "'@'"),
        ("g.V().as('').select('')", "''"),
    ):
        proc = cli("run", "--graph", modern_graph_path(), "--query", query)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"parse error: as() label {label} is empty or reserved at line 1, column 7\n"
        )
        assert proc.stdout == ""


def test_reader_closing_the_pipe_gets_no_traceback(tmp_path):
    """A reader that stops after one line (`| head -1`) closes the pipe
    while the output, far larger than a pipe's buffer, is still being
    written: the CLI exits with its documented code, 141, and says
    nothing."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"vertices": [{"id": str(i), "label": "p"} for i in range(20000)], "edges": []}
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "grem_algebra.cli", "run", "--graph", str(path),
         "--format", "jsonl", "--query", "g.V()"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    with proc:
        assert proc.stdout.readline() == b'{"value":{"vertex":"0"}}\n'
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert stderr == b""  # no traceback, nor a note on the last flush
