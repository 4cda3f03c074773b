import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import blocksel
from blocksel.cli import EXIT_PIPE, dump_instance, generate_instance, load_instance, main
from blocksel.model import BudgetExceededError, Instance
from blocksel.solver import reduce

DOC = json.dumps(
    {
        "blocks": [[["1"]], [["1"]]],
        "coupling": [["1", "1"]],
        "b": ["2", "1"],
        "sigma": 1,
    }
)


def write_doc(tmp_path, text=DOC, name="inst.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_round_trip_is_exact():
    inst = load_instance(DOC)
    again = load_instance(dump_instance(inst))
    assert again == inst


def test_decimal_literals_stay_exact():
    doc = json.dumps(
        {"blocks": [[[0.5]]], "coupling": [], "b": [0.1], "sigma": 1}
    )
    inst = load_instance(doc)
    assert inst.blocks[0].at(0, 0) == Fraction(1, 2)
    assert inst.b[0] == Fraction(1, 10)


def test_load_rejects_garbage():
    with pytest.raises(ValueError, match="not valid JSON"):
        load_instance("{nope")
    with pytest.raises(ValueError, match="top-level"):
        load_instance("[1, 2]")
    with pytest.raises(ValueError, match="missing fields"):
        load_instance('{"blocks": [], "coupling": []}')
    with pytest.raises(ValueError, match="sigma must be an integer"):
        load_instance('{"blocks": [[["1"]]], "coupling": [], "b": ["1"], "sigma": true}')
    with pytest.raises(ValueError, match="malformed instance"):
        load_instance('{"blocks": [[["x"]]], "coupling": [], "b": ["1"], "sigma": 0}')
    with pytest.raises(ValueError, match="b has length"):
        load_instance('{"blocks": [[["1"]]], "coupling": [], "b": ["1", "2"], "sigma": 0}')


def test_solve_command_reports_the_optimum(tmp_path, capsys):
    assert main(["solve", write_doc(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "objective  1/2" in out
    assert "support    3" in out


def test_solve_json_document(tmp_path, capsys):
    assert main(["solve", "--json", write_doc(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == "1/2"
    assert doc["objective_decimal"] == 0.5
    assert doc["support"] == [3]
    assert doc["x"] == ["0", "0", "3/2"]
    assert doc["mu"] is None
    assert len(doc["subproblems"]) == 2
    assert {sub["path"] for sub in doc["subproblems"]} == {"diagonal"}


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(DOC))
    assert main(["solve", "-"]) == 0
    assert "objective  1/2" in capsys.readouterr().out


def test_solve_method_override(tmp_path, capsys):
    assert main(["solve", "--method", "extended", write_doc(tmp_path)]) == 0
    assert "objective  1/2" in capsys.readouterr().out


def test_solve_rejects_bad_documents(tmp_path, capsys):
    path = write_doc(tmp_path, text='{"blocks": [[["1"]]], "coupling": [], "b": ["1", "2"], "sigma": 0}')
    assert main(["solve", path]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_oracle_command(tmp_path, capsys):
    assert main(["oracle", write_doc(tmp_path)]) == 0
    assert "objective  1/2" in capsys.readouterr().out


def test_oracle_budget_flag(tmp_path, capsys):
    assert main(["oracle", "--max-oracle", "2", write_doc(tmp_path)]) == 2
    assert "budget exceeded" in capsys.readouterr().err


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BLOCKSEL_MAX_ORACLE", "2")
    assert main(["oracle", write_doc(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["oracle", "--max-oracle", "1000", write_doc(tmp_path)]) == 0
    capsys.readouterr()
    monkeypatch.setenv("BLOCKSEL_MAX_ORACLE", "abc")
    assert main(["oracle", write_doc(tmp_path)]) == 1
    assert "BLOCKSEL_MAX_ORACLE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["solve", "--max-cells", "-5"], {}),
        (["solve", "--max-cells", "-5", "--method", "extended"], {}),
        (["solve"], {"BLOCKSEL_MAX_CELLS": "-1"}),
        (["oracle", "--max-oracle", "-1"], {}),
        (["oracle"], {"BLOCKSEL_MAX_ORACLE": "-3"}),
        (["compare", "--max-cells", "-2"], {}),
        (["compare"], {"BLOCKSEL_MAX_ORACLE": "-1"}),
    ],
)
def test_negative_budgets_are_input_errors(tmp_path, capsys, monkeypatch, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = argv + [write_doc(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "must be non-negative" in err
    assert (next(iter(env)) if env else argv[1]) in err


def number_doc(value, sigma=0):
    return json.dumps({"blocks": [[["1"]]], "coupling": [], "b": [value], "sigma": sigma})


BLOCK_DOC = json.dumps(
    {
        "blocks": [[["1", "2"], ["0", "1"]]],
        "coupling": [["1", "0"], ["2", "1"]],
        "intercept": ["1", "1"],
        "b": ["1", "3"],
        "sigma": 2,
    }
)
DIGITS = f"more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "argv, text, needle",
    [
        (["solve", "--method", "diagonal"], BLOCK_DOC, "method 'diagonal' needs 1x1 blocks"),
        (["solve", "--method", "cover"], BLOCK_DOC, "method 'cover' takes at most two"),
        (["solve"], number_doc("1e5000"), DIGITS),
        (["solve"], number_doc("1e-5000"), DIGITS),
        (["solve"], number_doc("1e1000000000"), DIGITS),
        (["oracle"], number_doc("1e-1000000000"), DIGITS),
        (["solve"], number_doc("1e200").replace('"1e200"', "1e1000000000"), DIGITS),
        (["oracle"], number_doc("1e5000"), DIGITS),
        (["compare"], number_doc("1e5000"), DIGITS),
        (["solve"], number_doc("1e2200"), "too large to print"),
        (["solve", "--json"], number_doc("1e2200"), "too large to print"),
        (["oracle"], number_doc("1e2200"), "too large to print"),
        (["compare"], number_doc("1e2200"), "too large to print"),
        (["solve"], number_doc("1e200"), "too large to print"),
        (["solve"], number_doc("1e200").replace('"1e200"', "1" * 5000), "Exceeds the limit"),
    ],
)
def test_hostile_inputs_exit_1_without_output(tmp_path, capsys, argv, text, needle):
    assert main(argv + [write_doc(tmp_path, text=text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needle in captured.err


def malformed_doc(**fields):
    doc = {"blocks": [[["1"]], [["2"]]], "coupling": [["1", "1"]], "b": ["1", "2"], "sigma": 1}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text, needle",
    [
        (malformed_doc(b="12"), "a vector must be a list"),
        (malformed_doc(coupling=["34"]), "a vector must be a list"),
        (malformed_doc(intercept="11"), "a vector must be a list"),
        (malformed_doc(b={"1": "0", "2": "0"}), "a vector must be a list"),
        (malformed_doc(b=[True, "2"]), "cannot parse rational from True"),
        (malformed_doc(blocks=[[[False]], [["2"]]]), "cannot parse rational from False"),
        (malformed_doc(b=["1/0", "2"]), "zero denominator"),
        (malformed_doc(blocks=[{"a": 1}, [["2"]]]), "a matrix must be a list"),
        (malformed_doc(blocks=["1", [["2"]]]), "a matrix must be a list"),
        (malformed_doc(blocks=[[{"a": 1}], [["2"]]]), "a matrix row must be a list"),
        (malformed_doc(blocks=[]).replace("[]", "[" * 1000 + "]" * 1000), "nested too deeply"),
        (malformed_doc(blocks=[]).replace("[]", "[" * 100000 + "]" * 100000), "nested too deeply"),
        (malformed_doc(b=["x" * 200000, "2"]), "invalid rational literal 'xxxx"),
    ],
    ids=[
        "b-string",
        "coupling-string",
        "intercept-string",
        "b-object",
        "b-true",
        "block-false",
        "zero-denominator",
        "block-object",
        "block-string",
        "row-object",
        "nested-1000",
        "nested-100000",
        "long-entry",
    ],
)
def test_malformed_documents_exit_1_with_one_error_line(monkeypatch, capsys, text, needle):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["solve", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 200
    assert needle in captured.err


def test_compare_pass(tmp_path, capsys):
    assert main(["compare", write_doc(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.index("oracle  1/2") < out.index("solver  1/2")
    assert "PASS" in out


def test_compare_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "blocksel.cli.solve",
        lambda instance, max_cells: SimpleNamespace(objective=Fraction(7)),
    )
    assert main(["compare", write_doc(tmp_path)]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def test_compare_keeps_oracle_answer_on_solver_refusal(tmp_path, capsys, monkeypatch):
    def refuse(instance, max_cells):
        raise BudgetExceededError("too many cells")

    monkeypatch.setattr("blocksel.cli.solve", refuse)
    assert main(["compare", write_doc(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "oracle  1/2" in captured.out
    assert "solver budget exceeded" in captured.err


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen", "--seed", "9", "--coupling", "1", "-o", str(a)]) == 0
    assert main(["gen", "--seed", "9", "--coupling", "1", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["gen", "--seed", "10", "--coupling", "1", "-o", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_gen_output_is_loadable_and_in_range(tmp_path):
    path = tmp_path / "g.json"
    assert main([
        "gen", "--blocks", "2", "--coupling", "1", "--intercept",
        "--sigma", "2", "--seed", "3", "--range", "4", "-o", str(path),
    ]) == 0
    inst = load_instance(path.read_text(encoding="utf-8"))
    assert inst.h == 2
    assert inst.k == 1
    assert inst.sigma == 2
    assert inst.intercept == tuple([Fraction(1)] * inst.m_total)
    for blk in inst.blocks:
        for row in blk.to_rows():
            for v in row:
                assert abs(v.numerator) <= 4 * 4


def test_gen_intercept_only_reduces_to_one_subproblem():
    inst = generate_instance(
        blocks=2, block_rows=2, block_cols=2, coupling=0,
        intercept=True, sigma=1, seed=0, spread=5,
    )
    rps = reduce(inst)
    assert len(rps) == 1
    assert rps[0].tags == ("mu",)


def test_gen_flag_validation(capsys):
    assert main(["gen", "--blocks", "0"]) == 1
    assert main(["gen", "--coupling", "-1"]) == 1
    assert main(["gen", "--range", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_gen_writes_stdout_by_default(capsys):
    assert main(["gen", "--seed", "4", "--sigma", "1"]) == 0
    inst = load_instance(capsys.readouterr().out)
    assert isinstance(inst, Instance)
    assert inst.sigma == 1



def test_closed_stdout_exits_with_one_error_line(tmp_path):
    # The reader closes its end of the pipe before anything is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(blocksel.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "blocksel.cli", "solve", "--json", write_doc(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert EXIT_PIPE == 4
    assert proc.returncode == EXIT_PIPE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
