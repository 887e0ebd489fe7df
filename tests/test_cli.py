import json

import pytest

from propm.cli import main


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
    code, _, _ = _run(capsys, "solve", "--instance", str(eps_file),
                      "--certificate-out", str(cert_path))
    assert code == 0
    cert = json.loads(cert_path.read_text())
    assert cert["steps"][0]["type"] == "reduction"


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


def test_kernel_int64_range_is_input_error(tmp_path, capsys):
    # n * total = 10^4 * 2^50 passes 2^63: the scan kernels would overflow int64.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**4, "m": 1, "values": [[2**50]] * 10**4}))
    code, _, err = _run(capsys, "exists", "--instance", str(huge), "--notion", "ef")
    assert code == 2
    assert "int64" in err


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
