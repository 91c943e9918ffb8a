"""Command line behavior: output shape, exit codes, env overrides."""

import json

import pytest

from kmagic import cycle, parse_graph, petersen, write_graph
from kmagic.cli import main
from conftest import hub10, quintic38


@pytest.fixture()
def k5_file(tmp_path):
    from kmagic import complete

    p = tmp_path / "k5.txt"
    p.write_text(write_graph(complete(5)), encoding="ascii")
    return str(p)


@pytest.fixture()
def pete_file(tmp_path):
    p = tmp_path / "pete.txt"
    p.write_text(write_graph(petersen()), encoding="ascii")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_parseable_graph(tmp_path, capsys):
    target = tmp_path / "c6.txt"
    code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "6", "-o", str(target))
    assert code == 0
    G = parse_graph(target.read_text(encoding="ascii"))
    assert (G.n, G.m) == (6, 6)
    code, out, _ = run(capsys, "gen", "--family", "petersen")
    assert code == 0
    assert parse_graph(out).m == 15


def test_gen_random_needs_seed(capsys):
    code, _, err = run(capsys, "gen", "--family", "random_regular", "--n", "6", "--r", "3")
    assert code == 2
    assert "seed" in err
    code, _, _ = run(
        capsys, "gen", "--family", "random_regular", "--n", "6", "--r", "3", "--seed", "1"
    )
    assert code == 0


def test_gen_compound_families(capsys):
    code, out, _ = run(
        capsys, "gen", "--family", "disjoint_union", "--parts", "cycle:3,cycle:4"
    )
    assert code == 0
    assert parse_graph(out).n == 7
    code, out, _ = run(capsys, "gen", "--family", "circulant", "--n", "8", "--offsets", "1,2")
    assert code == 0
    assert parse_graph(out).m == 16
    code, _, _ = run(capsys, "gen", "--family", "circulant", "--n", "8", "--offsets", "1,x")
    assert code == 2


def test_unknown_family_is_usage_error(capsys):
    assert run(capsys, "gen", "--family", "nope")[0] == 2


def assert_labels_once(payload):
    """K5's labeling sits at the top level; each trace step records only
    its rule, params and scope."""
    assert sorted(payload["labels"], key=int) == [str(e) for e in range(10)]
    assert payload["trace"]
    for step in payload["trace"]:
        assert sorted(step) == ["params", "rule", "scope"]


def test_label_found_absent_and_file(tmp_path, k5_file, capsys):
    out_file = tmp_path / "lab.json"
    code, out, _ = run(capsys, "label", k5_file, "--k", "6", "--c", "2", "-o", str(out_file))
    assert code == 0
    assert "found" in out
    payload = json.loads(out_file.read_text(encoding="ascii"))
    assert payload["c"] == 2 and payload["k"] == 6
    assert_labels_once(payload)
    code, out, _ = run(capsys, "label", k5_file, "--k", "6", "--c", "3")
    assert code == 1
    assert "absent" in out and "spectrum-excluded" in out


def test_label_prints_json_without_output_flag(k5_file, capsys):
    code, out, _ = run(capsys, "label", k5_file, "--k", "6", "--c", "2")
    assert code == 0
    body = out.splitlines()[-1]
    payload = json.loads(body)
    assert payload["c"] == 2
    assert_labels_once(payload)


def test_verify_reads_trace_steps_that_carry_labels(tmp_path, k5_file, capsys):
    # a file in the earlier format, whose trace steps copied the labeling
    labels = {str(e): 1 for e in range(10)}
    step = {"labels": labels, "params": {"a": 1}, "rule": "constant", "scope": "graph"}
    lab = tmp_path / "lab.json"
    payload = {"c": 4, "k": 6, "labels": labels, "trace": [step]}
    lab.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="ascii")
    code, out, _ = run(capsys, "verify", k5_file, str(lab))
    assert (code, out.strip()) == (0, "4")


def test_verify_roundtrip(tmp_path, k5_file, capsys):
    lab = tmp_path / "lab.json"
    run(capsys, "label", k5_file, "--k", "6", "--c", "2", "-o", str(lab))
    code, out, _ = run(capsys, "verify", k5_file, str(lab))
    assert code == 0
    assert out.strip() == "2"


def test_verify_not_magic_and_malformed(tmp_path, k5_file, capsys):
    bad = tmp_path / "bad.json"
    labels = {str(i): 1 for i in range(10)}
    labels["0"] = 2
    bad.write_text(json.dumps({"c": 0, "k": 6, "labels": labels}), encoding="ascii")
    code, out, _ = run(capsys, "verify", k5_file, str(bad))
    assert code == 1
    assert out.strip() == "not magic"
    zero = tmp_path / "zero.json"
    labels["0"] = 0
    zero.write_text(json.dumps({"c": 0, "k": 6, "labels": labels}), encoding="ascii")
    assert run(capsys, "verify", k5_file, str(zero))[0] == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("nope", encoding="ascii")
    assert run(capsys, "verify", k5_file, str(garbage))[0] == 2
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps({"k": 5, "c": 0, "labels": [1, 2]}), encoding="ascii")
    assert run(capsys, "verify", k5_file, str(listed))[0] == 2
    accented = tmp_path / "accented.json"
    note = {"k": 5, "c": 0, "labels": {"0": 1}, "note": "caf\u00e9"}
    accented.write_text(json.dumps(note, ensure_ascii=False), encoding="utf-8")
    assert run(capsys, "verify", k5_file, str(accented))[0] == 2


ONES_K5 = {str(i): 1 for i in range(10)}


@pytest.mark.parametrize(
    "payload",
    [
        {"k": 5.0, "c": 4, "labels": ONES_K5},
        {"k": True, "c": 4, "labels": ONES_K5},
        {"k": 5, "c": 4, "labels": {**ONES_K5, "0": True}},
    ],
    ids=["float-k", "bool-k", "bool-label"],
)
def test_verify_rejects_non_integer_k_and_labels(tmp_path, k5_file, capsys, payload):
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps(payload), encoding="ascii")
    code, out, err = run(capsys, "verify", k5_file, str(lab))
    assert (code, out) == (2, "")
    assert "is not an integer" in err


@pytest.mark.parametrize("c", [4.0, True], ids=["float-c", "bool-c"])
def test_verify_rejects_a_non_integer_c(tmp_path, k5_file, capsys, c):
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"k": 5, "c": c, "labels": ONES_K5}), encoding="ascii")
    code, out, err = run(capsys, "verify", k5_file, str(lab))
    assert (code, out) == (2, "")
    assert "sum" in err and "is not an integer" in err


@pytest.mark.parametrize(
    ("k", "c", "code", "out"),
    [
        (5, 0, 1, "sum 4 differs from the recorded c = 0\n"),
        (5, 9, 0, "4\n"),  # the recorded c is read mod k
        (1, 4, 0, "4\n"),
        (1, 9, 1, "sum 4 differs from the recorded c = 9\n"),  # over the integers, c itself
    ],
    ids=["k5-c0", "k5-c9", "k1-c4", "k1-c9"],
)
def test_verify_compares_the_sum_with_the_recorded_c(tmp_path, k5_file, capsys, k, c, code, out):
    # ten labels 1 on K5 sum to 4 at every vertex
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"k": k, "c": c, "labels": ONES_K5}), encoding="ascii")
    assert run(capsys, "verify", k5_file, str(lab))[:2] == (code, out)


@pytest.mark.parametrize(
    "labels",
    [
        json.dumps({**ONES_K5, "05": 1}),
        json.dumps({**ONES_K5, "5": 2})[:-1] + ', "5": 1}',
        json.dumps({**{i: 1 for i in ONES_K5 if i != "5"}, "05": 1}),
        json.dumps({**{i: 1 for i in ONES_K5 if i != "5"}, "0_5": 1}),
    ],
    ids=["duplicate-id", "repeated-key", "zero-padded-id", "underscore-id"],
)
def test_verify_rejects_edge_ids_that_are_not_canonical(tmp_path, k5_file, capsys, labels):
    # each file would read as a 4-sum labeling of K5 if its ids went through int()
    lab = tmp_path / "lab.json"
    lab.write_text(f'{{"k": 5, "c": 4, "labels": {labels}}}', encoding="ascii")
    code, out, err = run(capsys, "verify", k5_file, str(lab))
    assert (code, out) == (2, "")
    assert "bad labeling file" in err


def test_verify_rejects_edge_ids_that_skip_one(tmp_path, k5_file, capsys):
    # ten labels for K5's ten edges, but id 9 is skipped and 10 is no edge
    labels = {**{i: 1 for i in ONES_K5 if i != "9"}, "10": 1}
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps({"k": 5, "c": 4, "labels": labels}), encoding="ascii")
    code, out, err = run(capsys, "verify", k5_file, str(lab))
    assert (code, out) == (2, "")
    assert "bad labeling file: edge ids are not 0..9: no 9" in err


def test_spectrum_methods_agree_and_are_stable(k5_file, capsys):
    code, out1, _ = run(capsys, "spectrum", k5_file, "--k", "6", "--method", "predict")
    assert code == 0
    code, out2, _ = run(capsys, "spectrum", k5_file, "--k", "6", "--method", "predict")
    assert out1 == out2  # byte stable
    payload = json.loads(out1)
    assert payload["spectrum"] == [0, 2, 4]
    assert out1.endswith("\n")
    code, out, _ = run(capsys, "spectrum", k5_file, "--k", "6", "--method", "oracle")
    assert code == 0
    assert json.loads(out)["spectrum"] == [0, 2, 4]
    code, out, _ = run(capsys, "spectrum", k5_file, "--k", "6", "--method", "both")
    assert code == 0
    both = json.loads(out)
    assert both["match"] is True
    assert both["oracle"] == both["predict"] == [0, 2, 4]


def test_factorize_modes(tmp_path, k5_file, pete_file, capsys, monkeypatch):
    code, out, _ = run(capsys, "factorize", k5_file, "--mode", "two-factors")
    assert code == 0
    assert out.endswith("\n")
    payload = json.loads(out)
    assert payload["degrees"] == [2, 2]
    assert sorted(sum(payload["parts"], [])) == list(range(10))
    code, out, _ = run(capsys, "factorize", pete_file, "--mode", "f-factor", "--h", "1")
    assert code == 0
    assert json.loads(out)["degrees"] == [1, 2]
    code, out, _ = run(capsys, "factorize", k5_file, "--mode", "f-factor", "--h", "1")
    assert code == 1
    assert "no factor" in out
    assert run(capsys, "factorize", k5_file, "--mode", "f-factor")[0] == 2
    # the path 0-1-2-3 has a 1-factor, but the rest has no single degree
    path = tmp_path / "path.txt"
    path.write_text("p 4 3\n0 1\n1 2\n2 3\n", encoding="ascii")
    code, out, err = run(capsys, "factorize", str(path), "--mode", "f-factor", "--h", "1")
    assert code == 2
    assert out == ""
    assert "regular" in err
    code, out, _ = run(capsys, "factorize", pete_file, "--mode", "mod3")
    assert code == 0
    assert json.loads(out)["degrees_mod_3"] == 1
    # mod3 on even degree is a domain error
    assert run(capsys, "factorize", k5_file, "--mode", "mod3")[0] == 2
    # without a perfect matching the label search decides under the budget
    G = hub10()
    hub = tmp_path / "hub10.txt"
    hub.write_text(write_graph(G), encoding="ascii")
    monkeypatch.setenv("MAGIC_SOLVER_BUDGET", "10")
    assert run(capsys, "factorize", str(hub), "--mode", "mod3") == (3, "undecided\n", "")
    monkeypatch.delenv("MAGIC_SOLVER_BUDGET")
    code, out, _ = run(capsys, "factorize", str(hub), "--mode", "mod3")
    assert code == 0
    degrees = [0] * G.n
    for eid in json.loads(out)["edges"]:
        for v in G.endpoints(eid):
            degrees[v] += 1
    assert all(d % 3 == 1 for d in degrees)


def test_null_set_output(k5_file, capsys):
    code, out, _ = run(capsys, "null-set", k5_file, "--kmax", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["null_set"] == [1, 2, 3, 4, 5, 6]
    assert payload["undecided"] == []


def test_compare_over_corpus(tmp_path, capsys):
    from kmagic import complete

    d = tmp_path / "corpus"
    d.mkdir()
    (d / "k4.txt").write_text(write_graph(complete(4)), encoding="ascii")
    (d / "c5.txt").write_text(write_graph(cycle(5)), encoding="ascii")
    code, out, _ = run(capsys, "compare", "--corpus", str(d), "--k-range", "3..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(ln.endswith("PASS") for ln in lines)
    assert lines[0].startswith("c5.txt k=3")
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(capsys, "compare", "--corpus", str(empty), "--k-range", "3..4")[0] == 2
    assert run(capsys, "compare", "--corpus", str(d), "--k-range", "35")[0] == 2
    assert run(capsys, "compare", "--corpus", str(d), "--k-range", "5..3")[0] == 2


def test_budget_env_var(tmp_path, pete_file, capsys, monkeypatch):
    monkeypatch.setenv("MAGIC_SOLVER_BUDGET", "2")
    code, out, _ = run(capsys, "spectrum", pete_file, "--k", "4", "--method", "oracle")
    assert code == 3
    assert json.loads(out)["undecided"]
    # Petersen's perfect matching settles its zero sum mod 4 without the
    # solver; this 5-regular graph has none, so the capped solver leaves
    # it undecided
    unmatched = tmp_path / "unmatched.txt"
    unmatched.write_text(write_graph(quintic38()), encoding="ascii")
    code, _, _ = run(capsys, "label", str(unmatched), "--k", "4", "--c", "0")
    assert code == 3
    monkeypatch.setenv("MAGIC_SOLVER_BUDGET", "bogus")
    assert run(capsys, "spectrum", pete_file, "--k", "4")[0] == 2
    monkeypatch.setenv("MAGIC_SOLVER_BUDGET", "-5")
    assert run(capsys, "spectrum", pete_file, "--k", "4")[0] == 2


def test_missing_graph_file(capsys):
    assert run(capsys, "label", "/does/not/exist.txt", "--k", "5", "--c", "0")[0] == 2


def test_invalid_graph_content(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 2 1\n0 0\n", encoding="ascii")
    assert run(capsys, "spectrum", str(bad), "--k", "5")[0] == 2
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    accented = corpus / "accented.txt"
    accented.write_text("# caf\u00e9\np 3 3\n0 1\n1 2\n2 0\n", encoding="utf-8")
    assert run(capsys, "spectrum", str(accented), "--k", "5")[0] == 2
    assert run(capsys, "compare", "--corpus", str(corpus), "--k-range", "3..4")[0] == 2


def test_spectrum_rejects_modulus_below_one(tmp_path, capsys):
    c5 = tmp_path / "c5.txt"
    c5.write_text(write_graph(cycle(5)), encoding="ascii")
    for k in ("0", "-3"):
        assert run(capsys, "spectrum", str(c5), "--k", k)[0] == 2
