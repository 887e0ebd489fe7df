import contextlib
import io
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propm import Allocation, Instance, cli, verify_certificate
from propm.cli import main
from propm.core import InvariantViolationError
from propm.cpsets import _best_subset
from propm.solver import certificate_from_json_dict


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def eps_file(tmp_path):
    path = tmp_path / "eps.json"
    code = main(["counterexample", "--scale", "100", "--out", str(path)])
    assert code == 0
    return path


def test_gen_then_verify_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code, _, _ = _run(capsys, "gen", "--n", "2", "--m", "4", "--max-value", "30",
                      "--seed", "7", "--out", str(inst_path))
    assert code == 0
    data = json.loads(inst_path.read_text())
    assert data["n"] == 2 and data["m"] == 4

    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(json.dumps({"bundles": [[0, 1, 2, 3], []]}))
    code, out, _ = _run(capsys, "verify", "--instance", str(inst_path),
                        "--allocation", str(alloc_path), "--notion", "prop1", "--json")
    payload = json.loads(out)
    assert payload["notion"] == "prop1"
    assert code in (0, 1)


def test_gen_past_the_cell_budget_exits_3_before_drawing(capsys):
    # 10^10 cells against the default budget of 10^7: refused before any draw.
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "gen", "--n", "100000", "--m", "100000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert "needs 10000000000 cells, budget is 10000000" in err
    assert "allocations" not in err
    assert peak < 1 << 20


def test_gen_budget_lifts_the_cell_limit(capsys):
    code, out, _ = _run(capsys, "gen", "--n", "3", "--m", "4", "--budget", "12")
    assert code == 0 and json.loads(out)["m"] == 4
    code, out, err = _run(capsys, "gen", "--n", "3", "--m", "4", "--budget", "11")
    assert (code, out) == (3, "") and "needs 12 cells, budget is 11" in err


def test_verify_propm_on_eps(eps_file, tmp_path, capsys):
    alloc_path = tmp_path / "x.json"
    alloc_path.write_text(json.dumps({"bundles": [[0], [1, 2, 3], [4, 5, 6]]}))
    code, out, _ = _run(capsys, "verify", "--instance", str(eps_file),
                        "--allocation", str(alloc_path), "--notion", "propm")
    assert code == 0
    assert "all satisfied" in out


def test_solve_2a(tmp_path, capsys):
    inst_path = tmp_path / "i2a.json"
    inst_path.write_text(json.dumps({"n": 2, "m": 2, "values": [[60, 40], [10, 90]]}))
    code, out, _ = _run(capsys, "solve", "--instance", str(inst_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["allocation"]["bundles"] == [[0], [1]]
    # item 0 is over-share for agent 0 (2*60 > 100), so the pipeline reduces
    # it away before dispatching; the residual is a single take-all agent
    kinds = [s["type"] for s in payload["certificate"]["steps"]]
    assert kinds == ["reduction", "case"]


def test_solve_balanced_pair_uses_cut_and_choose(tmp_path, capsys):
    inst_path = tmp_path / "pair.json"
    inst_path.write_text(json.dumps({"n": 2, "m": 3, "values": [[40, 30, 30], [20, 40, 40]]}))
    code, out, _ = _run(capsys, "solve", "--instance", str(inst_path), "--json")
    assert code == 0
    payload = json.loads(out)
    lemmas = [s["lemma"] for s in payload["certificate"]["steps"] if s["type"] == "case"]
    assert lemmas == ["n2.cut_and_choose"]


def test_solve_writes_certificate(tmp_path, capsys, eps_file):
    cert_path = tmp_path / "cert.json"
    code, out, _ = _run(capsys, "solve", "--instance", str(eps_file), "--json",
                        "--certificate-out", str(cert_path))
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert [step["type"] for step in cert["steps"]] == ["reduction", "ladder", "case"]
    # The written file alone proves the printed allocation, with no CP bundle remembered.
    inst = Instance.of(json.loads(eps_file.read_text())["values"])
    allocation = Allocation.of(json.loads(out)["allocation"]["bundles"])
    _best_subset.cache_clear()
    assert verify_certificate(inst, allocation, certificate_from_json_dict(cert))


def test_exists_alt_median_counterexample(eps_file, capsys):
    code, out, _ = _run(capsys, "exists", "--instance", str(eps_file),
                        "--notion", "alt-median")
    assert code == 1
    assert "does not exist" in out


def test_exists_propm_counterexample(eps_file, capsys):
    code, out, _ = _run(capsys, "exists", "--instance", str(eps_file), "--notion", "propm")
    assert code == 0


def test_audit_clean_instance(tmp_path, capsys):
    inst_path = tmp_path / "pair.json"
    inst_path.write_text(json.dumps({"n": 2, "m": 2, "values": [[5, 5], [5, 5]]}))
    code, out, _ = _run(capsys, "audit", "--instance", str(inst_path))
    assert code == 0
    assert "audit clean" in out


def test_audit_counterexample_flags_known_edge(eps_file, capsys):
    # I_EPS trips the one edge that is not a theorem (EFx vs min-pooled bonus)
    code, out, _ = _run(capsys, "audit", "--instance", str(eps_file))
    assert code == 1
    assert "EFX=>PROPX" in out


def test_leximin_command(tmp_path, capsys):
    inst_path = tmp_path / "pair.json"
    inst_path.write_text(json.dumps({"n": 2, "m": 2, "values": [[5, 5], [5, 5]]}))
    code, out, _ = _run(capsys, "leximin", "--instance", str(inst_path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle"] is None
    assert payload["profile"]["ascending"] == ["15/2", "15/2"]


def test_malformed_instance_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "exists", "--instance", str(bad), "--notion", "propm")
    assert code == 2
    assert "input error" in err


def test_unknown_notion_is_input_error(eps_file, capsys):
    code, _, err = _run(capsys, "exists", "--instance", str(eps_file), "--notion", "bogus")
    assert code == 2


def test_budget_exceeded_exit_code(eps_file, capsys):
    code, _, err = _run(capsys, "exists", "--instance", str(eps_file),
                        "--notion", "propm", "--budget", "5")
    assert code == 3
    assert "budget" in err


def test_cp_take_row_budget_exit_code(tmp_path, capsys):
    # Cutting 3000 equal items in half needs a CP table over too many take rows.
    m = 3000
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 2, "m": m, "values": [[1333] * m, [1333] * m]}))
    code, _, err = _run(capsys, "solve", "--instance", str(path))
    assert code == 3
    assert "take rows" in err


def test_counterexample_scale_validation(capsys):
    code, _, err = _run(capsys, "counterexample", "--scale", "6")
    assert code == 2


def test_solve_unsupported_size(tmp_path, capsys):
    inst_path = tmp_path / "big.json"
    inst_path.write_text(json.dumps({"n": 8, "m": 8, "values": [[1] * 8] * 8}))
    code, _, err = _run(capsys, "solve", "--instance", str(inst_path))
    assert code == 2


@pytest.mark.parametrize("fault", ["invariant", "self-verification"])
def test_solver_faults_exit_1(tmp_path, capsys, monkeypatch, fault):
    def broken_solve(inst):
        raise InvariantViolationError("a forced solver fault")

    if fault == "invariant":
        monkeypatch.setattr(cli, "solve_propm", broken_solve)
    else:
        monkeypatch.setattr(cli, "verify_certificate", lambda *args: False)
    inst_path = tmp_path / "i2a.json"
    inst_path.write_text(json.dumps({"n": 2, "m": 2, "values": [[60, 40], [10, 90]]}))
    code, out, err = _run(capsys, "solve", "--instance", str(inst_path))
    assert code == 1 and not out
    expected = {"invariant": "invariant violation", "self-verification": "self-verification"}
    assert expected[fault] in err


def test_kernel_int64_range_is_budget_error(tmp_path, capsys):
    # n * total = 10^4 * 2^50 passes 2^63: the scan kernels would overflow int64.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**4, "m": 1, "values": [[2**50]] * 10**4}))
    code, _, err = _run(capsys, "exists", "--instance", str(huge), "--notion", "ef")
    assert code == 3
    assert "int64" in err
    # 81 allocations, a valid instance: every scan exits 3, not 2, whatever --budget.
    values = [[10**18, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 3, "m": 4, "values": values}))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"bundles": [[0], [1, 2], [3]]}))
    for command in (
        ["exists", "--notion", "propm"],
        ["audit"],
        ["leximin"],
        ["verify", "--allocation", str(alloc), "--notion", "mms"],
    ):
        for budget in ([], ["--budget", str(10**9)]):
            code, out, err = _run(capsys, *command, "--instance", str(big), *budget)
            assert (code, out) == (3, ""), command
            assert "int64" in err and "--budget cannot lift it" in err, command
    # Commands that run no scan answer it exactly.
    code, _, _ = _run(capsys, "verify", "--instance", str(big), "--allocation", str(alloc),
                      "--notion", "propm")
    assert code == 0
    assert _run(capsys, "solve", "--instance", str(big))[0] == 0


def test_budget_flag_only_on_enumerating_commands(tmp_path, capsys):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"n": 2, "m": 3, "values": [[1, 2, 3], [3, 2, 1]]}))
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"bundles": [[0, 1], [2]]}))
    code, _, err = _run(capsys, "solve", "--instance", str(path), "--budget", "8")
    assert code == 2
    assert "--budget" in err
    enumerating = [
        ["verify", "--allocation", str(alloc), "--notion", "mms"],
        ["exists", "--notion", "prop"],
        ["audit"],
        ["leximin"],
    ]
    for command in enumerating:
        assert _run(capsys, *command, "--instance", str(path), "--budget", "8")[0] in (0, 1)
        code, _, err = _run(capsys, *command, "--instance", str(path), "--budget", "7")
        assert code == 3, command
        assert "needs 8 allocations, budget is 7" in err


@pytest.mark.parametrize("cell", ["1.9", "2.0", '"2"', "true", "NaN", "Infinity"])
def test_non_int_instance_values_exit_2(tmp_path, capsys, cell):
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"n": 2, "m": 3, "values": [[1, 1, 1], [1, {cell}, 1]]}}')
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"bundles": [[0], [1, 2]]}))
    code, out, err = _run(capsys, "solve", "--instance", str(inst))
    assert (code, out) == (2, "")
    assert "must be integers" in err
    code, _, err = _run(capsys, "verify", "--instance", str(inst), "--allocation", str(alloc),
                        "--notion", "propm")
    assert code == 2
    assert "must be integers" in err


_SMALL = json.dumps({"n": 2, "m": 3, "values": [[1, 2, 3], [3, 2, 1]]})


@pytest.mark.parametrize(
    "instance, bundles",
    [
        ('{"n": 2, "m": 3, "values": null}', "[[0], [1, 2]]"),
        ("[" * 100_000 + "]" * 100_000, "[[0], [1, 2]]"),
        ('{"n": 1, "m": 1, "values": [[' + "9" * 5000 + "]]}", "[[0]]"),
        (_SMALL, "[[[0]], [1, 2]]"),
        (_SMALL, '[[0, "a"], [1, 2]]'),
        (_SMALL, "[[0, 0], [1, 2]]"),
        (_SMALL, "[{}, [0, 1, 2]]"),
        (_SMALL, "[[0, 9], [1, 2]]"),
        (_SMALL, "[[-2, 1], [0, 2]]"),
        ('{"n": true, "m": 3, "values": [[1, 2, 3]]}', "[[0, 1, 2]]"),
        ('{"n": 2.0, "m": 3.0, "values": [[1, 2, 3], [3, 2, 1]]}', "[[0], [1, 2]]"),
    ],
    ids=[
        "values-null",
        "deep-nesting",
        "5000-digit-int",
        "nested-bundle",
        "mixed-bundle",
        "repeated-item",
        "object-bundle",
        "item-past-m",
        "negative-item",
        "bool-header",
        "float-header",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, instance, bundles):
    inst = tmp_path / "inst.json"
    inst.write_text(instance)
    alloc = tmp_path / "alloc.json"
    alloc.write_text(f'{{"bundles": {bundles}}}')
    code, _, err = _run(capsys, "verify", "--instance", str(inst), "--allocation", str(alloc),
                        "--notion", "prop")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", "{inst}", "--certificate-out", "{out}"],
        ["gen", "--n", "2", "--m", "3", "--out", "{out}"],
        ["counterexample", "--scale", "10", "--out", "{out}"],
    ],
    ids=["solve-certificate-out", "gen-out", "counterexample-out"],
)
def test_write_into_a_missing_directory_exits_2(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(_SMALL)
    out = tmp_path / "missing" / "out.json"
    argv = [a.format(inst=inst, out=out) for a in argv]
    code, stdout, err = _run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert f"cannot write {out}" in err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing-file", "directory"])
def test_an_unreadable_input_path_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    code, stdout, err = _run(capsys, "solve", "--instance", str(path))
    assert (code, stdout) == (2, "")
    assert f"cannot read {path}" in err


def test_budget_flag_boundary(tmp_path, capsys):
    # 2 agents, 3 items: every enumerating command needs 2^3 = 8 allocations.
    path = tmp_path / "small.json"
    path.write_text(_SMALL)
    exists_cmd = ["exists", "--instance", str(path), "--notion", "prop"]
    for budget, expected in [("8", 0), ("7", 3), ("0", 2), ("-3", 2)]:
        code, _, err = _run(capsys, *exists_cmd, "--budget", budget)
        assert code == expected, (budget, err)
        if expected == 2:
            assert "budget must be a positive int" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", [["exists", "--notion", "prop"], ["audit"]])
def test_bad_worker_counts_exit_2(tmp_path, capsys, command, workers):
    path = tmp_path / "small.json"
    path.write_text(_SMALL)
    code, out, err = _run(capsys, *command, "--instance", str(path), "--workers", workers)
    assert (code, out) == (2, "")
    assert "workers must be an int of at least 1" in err


# JSON trees of every kind the decoder yields, ints past int64 included.
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
    | st.integers()
    | st.sampled_from([2**31, 2**63, 2**64 + 1, -(2**63), 10**40]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
_INSTANCE = {"n": 2, "m": 3, "values": [[1, 2, 3], [3, 2, 1]]}
_ALLOCATION = {"bundles": [[0], [1, 2]]}
# (document, path): the tree replaces the field at the path; () replaces the document.
_FIELDS = [
    ("instance", ()),
    ("instance", ("n",)),
    ("instance", ("m",)),
    ("instance", ("values",)),
    ("instance", ("values", 1)),
    ("instance", ("values", 1, 2)),
    ("allocation", ()),
    ("allocation", ("bundles",)),
    ("allocation", ("bundles", 1)),
    ("allocation", ("bundles", 1, 0)),
]
# Command -> the JSON key that is false when its checked claim fails, or None
# when the command checks no claim that can fail on valid input.
_CLAIMS = {
    ("verify", "--notion", "propm"): "all_satisfied",
    ("exists", "--notion", "prop"): "exists",
    ("audit",): "ok",
    ("solve",): None,
    ("leximin",): None,
}


def _placed(document, path, tree):
    if not path:
        return tree
    document = json.loads(json.dumps(document))
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = tree
    return document


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from(_FIELDS), tree=_JSON_TREES)
def test_any_json_tree_in_any_field_exits_cleanly(field, tree):
    docs = {"instance": _INSTANCE, "allocation": _ALLOCATION}
    docs[field[0]] = _placed(docs[field[0]], field[1], tree)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, document in docs.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(document, fh)
        for command, claim in _CLAIMS.items():
            argv = [*command, "--instance", paths["instance"], "--json"]
            if command[0] == "verify":
                argv += ["--allocation", paths["allocation"]]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), (command, code)
            if code == 1:
                assert claim is not None, command
                assert json.loads(out.getvalue())[claim] is False, command
            if code == 0 and claim is not None:
                assert json.loads(out.getvalue())[claim] is True, command
