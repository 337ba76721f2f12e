"""End-to-end tests for the command line interface, including exit codes."""

import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from propersplit import cli, make_pds, solve_double, splitting
from propersplit.cli import main
from propersplit.comparison import TheoremId
from propersplit.errors import DecompositionMismatchError, NotProperError
from propersplit.generators import comparison_pair
from propersplit.matrixfile import parse_matrix, read_matrix, write_matrix

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def _example_paths(prefix):
    paths = {name: str(DATA / f"{prefix}_{name}.mat") for name in
             ("a", "p1", "r1", "s1", "p2", "r2", "s2", "b")}
    return paths


@pytest.fixture(scope="module")
def ex1_files():
    return _example_paths("ex1")


@pytest.fixture(scope="module")
def ex2_files():
    return _example_paths("ex2")


def test_bundled_data_matches_fixtures(ex1, ex2):
    # the shipped .mat files and the in-code constants are the same matrices
    for prefix, ex in (("ex1", ex1), ("ex2", ex2)):
        for name in ("a", "p1", "r1", "s1", "p2", "r2", "s2"):
            on_disk = read_matrix(DATA / f"{prefix}_{name}.mat")
            assert np.array_equal(on_disk, getattr(ex, name))


class TestPinv:
    def test_identity(self, tmp_path, capsys):
        p = tmp_path / "i.mat"
        write_matrix(p, np.eye(2))
        assert main(["pinv", str(p)]) == 0
        out = capsys.readouterr().out
        m = parse_matrix(out)
        assert np.array_equal(m, np.eye(2))
        assert "penrose residual axa = 0.0" in out

    def test_first_example_pattern(self, ex1_files, ex1, capsys):
        assert main(["pinv", ex1_files["p1"]]) == 0
        m = parse_matrix(capsys.readouterr().out)
        assert np.max(np.abs(m - ex1.p1_pinv)) < 1e-12

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.mat"
        p.write_text("2 2\n1 2 3\n4 5 6\n")
        assert main(["pinv", str(p)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["pinv", str(tmp_path / "absent.mat")]) == 2

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "latin1.mat"
        p.write_bytes(b"2 2\n1 \xff\n3 4\n")
        assert main(["pinv", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {p}: not valid UTF-8 at byte 6\n"

    def test_byte_order_mark_exit_0(self, tmp_path, capsys):
        p = tmp_path / "bom.mat"
        p.write_bytes(b"\xef\xbb\xbf2 2\n1 0\n0 1\n")
        assert main(["pinv", str(p)]) == 0
        assert np.array_equal(parse_matrix(capsys.readouterr().out), np.eye(2))


class TestSpectrum:
    def test_nonneg_matrix(self, tmp_path, capsys):
        p = tmp_path / "m.mat"
        write_matrix(p, np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert main(["spectrum", str(p), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["spectral_radius"] - 3.0) < 1e-10
        assert doc["dominant_vector"] is not None

    def test_rectangular_exit_3(self, tmp_path):
        p = tmp_path / "m.mat"
        write_matrix(p, np.ones((2, 3)))
        assert main(["spectrum", str(p)]) == 3

    def test_dominant_vector_has_no_negative_zero(self, capsys):
        # the -P^+S block of this companion holds -0.0 entries
        path = str(DATA / "ex2_w1.mat")
        assert main(["spectrum", path, "--format", "json"]) == 0
        vector = json.loads(capsys.readouterr().out)["dominant_vector"]
        zeros = [x for x in vector if x == 0.0]
        assert len(zeros) == 4
        assert all(math.copysign(1.0, x) > 0 for x in zeros)
        assert main(["spectrum", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "dominant vector (unit max entry): 0.0 0.7675918792439981 0.0 0.0 1.0 0.0"


@pytest.mark.parametrize("command, routine", [("pinv", "svd"), ("spectrum", "eig")])
def test_lapack_failure_exit_3(command, routine, monkeypatch, capsys):
    def fails(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(np.linalg, routine, fails)
    assert main([command, str(DATA / "ex2_w1.mat")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "did not converge: forced failure" in err


class TestClassify:
    def test_single(self, ex2_files, capsys):
        assert main(["classify", "single", ex2_files["a"], ex2_files["p1"]]) == 0
        out = capsys.readouterr().out
        assert "class: ProperRegular" in out
        assert "three-way equivalence" in out

    def test_single_classifies_once(self, ex2_files, tmp_path, monkeypatch, capsys):
        calls = []
        real = splitting.classify_single

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(splitting, "classify_single", counting)
        monkeypatch.setattr(cli, "classify_single", counting, raising=False)
        negated = tmp_path / "neg_a.mat"  # U = -A: proper, U^+ <= 0, so ProperOnly
        write_matrix(negated, -read_matrix(ex2_files["a"]))
        for u, tag in ((ex2_files["p1"], "ProperRegular"), (str(negated), "ProperOnly")):
            for fmt in ("text", "json"):
                calls.clear()
                assert main(["classify", "single", ex2_files["a"], u, "--format", fmt]) == 0
                assert tag in capsys.readouterr().out
                assert len(calls) == 1

    def test_double_json(self, ex1_files, capsys):
        code = main(
            [
                "classify", "double",
                ex1_files["a"], ex1_files["p1"], ex1_files["r1"], ex1_files["s1"],
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["class"] == "RegularProperDouble"
        assert abs(doc["rho_w"] - 0.9079) < 5e-4
        assert doc["semi_monotone"] is True

    def test_not_proper_exit_4(self, tmp_path, capsys):
        a = tmp_path / "a.mat"
        u = tmp_path / "u.mat"
        write_matrix(a, np.array([[1.0, 0.0], [0.0, 0.0]]))
        write_matrix(u, np.eye(2))
        assert main(["classify", "single", str(a), str(u)]) == 4

    def test_decomposition_mismatch_exit_4(self, ex1_files, tmp_path, capsys):
        z = tmp_path / "z.mat"
        write_matrix(z, np.zeros((2, 3)))
        code = main(
            ["classify", "double", ex1_files["a"], ex1_files["p1"], ex1_files["r1"], str(z)]
        )
        assert code == 4


class TestSolve:
    def test_identity_double(self, tmp_path, capsys):
        files = {}
        for name, m in (
            ("a", np.eye(2)),
            ("p", np.eye(2)),
            ("z", np.zeros((2, 2))),
            ("b", np.array([[1.0], [2.0]])),
        ):
            p = tmp_path / f"{name}.mat"
            write_matrix(p, m)
            files[name] = str(p)
        code = main(
            ["solve", "double", files["a"], files["p"], files["z"], files["z"], files["b"],
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert np.allclose(doc["limit"], [1.0, 2.0])

    def test_second_example_matches_reference(self, ex2_files, capsys):
        code = main(
            ["solve", "double", ex2_files["a"], ex2_files["p1"], ex2_files["r1"],
             ex2_files["s1"], ex2_files["b"], "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert np.max(np.abs(np.array(doc["limit"]) - np.array([0.5, 1.0, 0.5]))) < 1e-8

    def test_divergent_reported_exit_0(self, tmp_path, ex1, capsys):
        # diagnosis is the product: a divergent run still exits 0
        p_mat = ex1.p1
        r_mat = 1.5 * ex1.r1
        s_mat = 1.5 * ex1.s1
        a_mat = p_mat - r_mat + s_mat
        files = {}
        for name, m in (("a", a_mat), ("p", p_mat), ("r", r_mat), ("s", s_mat),
                        ("b", np.array([[1.0], [0.0]]))):
            path = tmp_path / f"{name}.mat"
            write_matrix(path, m)
            files[name] = str(path)
        code = main(
            ["solve", "double", files["a"], files["p"], files["r"], files["s"], files["b"],
             "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diverged"] is True and doc["converged"] is False

    def test_trace_holds_the_kept_iterates(self, ex2_files, capsys):
        names = ("a", "p1", "r1", "s1", "b")
        paths = [ex2_files[k] for k in names]
        assert main(["solve", "double", *paths, "--trace", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        a, p, r, s, b = (read_matrix(path) for path in paths)
        want = solve_double(make_pds(a, p, r, s), b.ravel(), keep_iterates=True).iterates
        got = np.array(doc["iterates"])
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert main(["solve", "double", *paths, "--format", "json"]) == 0
        assert "iterates" not in json.loads(capsys.readouterr().out)

    def test_overflow_writes_strict_json(self, ex2_files, tmp_path, capsys):
        # a huge start overflows the first step: JSON writes the infinite
        # residual and distance as null, the text report as Infinity
        x0 = tmp_path / "x0.mat"
        x0.write_text("3 1\n1e200\n1e200\n1e200\n", encoding="utf-8")
        argv = ["solve", "double", *(ex2_files[k] for k in ("a", "p1", "r1", "s1", "b")),
                "--x0", str(x0)]

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        assert main([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["final_step_residual"] is None and doc["distance_to_reference"] is None
        assert doc["diverged"] is True
        assert main(argv) == 0
        assert "final step residual: Infinity" in capsys.readouterr().out.splitlines()

    def test_single_with_trace(self, tmp_path, capsys):
        files = {}
        for name, m in (("a", np.eye(1)), ("u", 2.0 * np.eye(1)), ("b", np.array([[1.0]]))):
            p = tmp_path / f"{name}.mat"
            write_matrix(p, m)
            files[name] = str(p)
        code = main(["solve", "single", files["a"], files["u"], files["b"], "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "iterates:" in out and "converged: True" in out

    def test_wrong_file_count_exit_2(self, ex2_files):
        assert main(["solve", "single", ex2_files["a"], ex2_files["p1"]]) == 2

    def test_second_start_on_single_exit_2(self, ex2_files, capsys):
        files = [ex2_files[k] for k in ("a", "p1", "b")]
        assert main(["solve", "single", *files, "--x1", ex2_files["b"]]) == 2
        assert "--x1 applies to the double scheme only" in capsys.readouterr().err


class TestCompare:
    def test_first_example_converse_pattern(self, ex1_files, capsys):
        argv = ["compare", "regular-vs-weak"] + [
            ex1_files[k] for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[FAIL] P1^+ >= P2^+" in out
        assert "conclusion predicted: False" in out
        assert "conclusion observed (rho1 <= rho2 and rho2 < 1): True" in out

    def test_second_example_hypotheses_json(self, ex2_files, capsys):
        argv = ["compare", "weak-vs-regular"] + [
            ex2_files[k] for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")
        ] + ["--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conclusion_predicted"] is True
        assert doc["conclusion_observed"] is True
        labels = {h["label"]: h["passed"] for h in doc["hypotheses"]}
        assert labels["e in range(A)"] and labels["P2^+ has no zero row"]

    def test_text_json_same_numbers(self, ex1_files, capsys):
        argv = ["compare", "regular-vs-weak"] + [
            ex1_files[k] for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert f"rho(W1) = {json.dumps(doc['rho1'])}" in text
        assert f"rho(W2) = {json.dumps(doc['rho2'])}" in text
        for hyp in doc["hypotheses"]:
            assert f"{hyp['label']} (residual {json.dumps(hyp['residual'])})" in text

    def test_identity_equality(self, tmp_path, capsys):
        files = {}
        for name, m in (("a", np.eye(2)), ("p", 2.0 * np.eye(2)), ("r", np.eye(2)),
                        ("z", np.zeros((2, 2)))):
            p = tmp_path / f"{name}.mat"
            write_matrix(p, m)
            files[name] = str(p)
        argv = ["compare", "weak-vs-weak", files["a"], files["p"], files["r"], files["z"],
                files["p"], files["r"], files["z"], "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rho1"] == doc["rho2"] == 0.5
        assert doc["conclusion_predicted"] and doc["conclusion_observed"]

    def test_square_corollary_example(self, capsys):
        # A = 3I - J with P1 = 3I, R1 = J, S1 = 0 and P2 = 4I, R2 = I, S2 = -J
        argv = ["compare", "regular-vs-weak"] + [
            str(DATA / f"sq_{k}.mat") for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")
        ] + ["--square-corollary", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["square_corollary"] is True
        assert abs(doc["rho1"] - 2.0 / 3.0) <= 1e-15
        assert {"label": "R1 >= R2", "passed": True, "residual": 0.0} in doc["hypotheses"]
        assert doc["notes"] == [
            "square corollary mode: A is invertible, classical inverse used",
            "branch (i) implied: P1^+ >= P2^+ >= 0 and R1 >= R2 >= 0 force P1^+ R1 >= P2^+ R2",
        ]

    @pytest.mark.parametrize("theorem, ordered", [
        ("regular-vs-weak", True), ("weak-vs-regular", True), ("weak-vs-weak", False),
    ])
    def test_square_corollary_orders_r_only_where_p_is_ordered(self, theorem, ordered, capsys):
        # R1 >= R2 and the branch (i) note need P1^+ >= P2^+, which
        # weak-vs-weak does not require
        argv = ["compare", theorem] + [
            str(DATA / f"sq_{k}.mat") for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")
        ] + ["--square-corollary", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        labels = [h["label"] for h in doc["hypotheses"]]
        assert ("R1 >= R2" in labels) is ordered
        assert ("P1^+ >= P2^+" in labels) is ordered
        assert any(n.startswith("branch (i) implied") for n in doc["notes"]) is ordered

    def test_square_corollary_flag_on_rectangular_exit_4(self, ex1_files):
        argv = ["compare", "regular-vs-weak"] + [
            ex1_files[k] for k in ("a", "p1", "r1", "s1", "p2", "r2", "s2")
        ] + ["--square-corollary"]
        assert main(argv) == 4


class TestOutputOptions:
    def test_out_file(self, ex1_files, tmp_path):
        target = tmp_path / "report.json"
        argv = ["pinv", ex1_files["p1"], "--format", "json", "--out", str(target)]
        assert main(argv) == 0
        doc = json.loads(target.read_text())
        assert doc["rows"] == 3 and doc["cols"] == 2

    def test_echo_inputs(self, ex1_files, capsys):
        argv = ["pinv", ex1_files["p1"], "--format", "json", "--echo-inputs"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"]["A"] == [[5.0, -1.0, 0.0], [0.0, 1.0, 0.0]]

    def test_tol_eq_flag_changes_validity(self, tmp_path, capsys):
        a = tmp_path / "a.mat"
        u = tmp_path / "u.mat"
        write_matrix(a, np.array([[1.0, 0.0], [0.0, 0.0]]))
        write_matrix(u, np.eye(2))
        assert main(["classify", "single", str(a), str(u)]) == 4
        capsys.readouterr()
        # a loose equality tolerance accepts the same pair
        assert main(["classify", "single", str(a), str(u), "--tol-eq", "10"]) == 0

    def test_tol_nonneg_flag_changes_verdict(self, tmp_path, capsys):
        p = tmp_path / "m.mat"
        write_matrix(p, np.array([[2.0, 1.0], [-1e-6, 1.0]]))
        assert main(["spectrum", str(p), "--format", "json"]) == 0
        strict = json.loads(capsys.readouterr().out)
        assert strict["dominant_vector"] is None  # not nonneg under default slack
        assert main(["spectrum", str(p), "--tol-nonneg", "1e-3", "--format", "json"]) == 0
        loose = json.loads(capsys.readouterr().out)
        assert loose["dominant_vector"] is not None

    def test_max_iter_flag_limits_solver(self, ex1_files, capsys):
        argv = ["solve", "double", ex1_files["a"], ex1_files["p2"], ex1_files["r2"],
                ex1_files["s2"], ex1_files["b"], "--max-iter", "5", "--format", "json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations_used"] == 5 and doc["converged"] is False

    @pytest.mark.parametrize(
        "flag", [["--max-iter", "0"], ["--tol-eq", "-1"], ["--tol-eq", "nan"]]
    )
    def test_out_of_range_tolerance_flag_exit_2(self, ex1_files, flag, capsys):
        assert main(["pinv", ex1_files["a"], *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_out_path_exit_2(self, ex1_files, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        assert main(["pinv", ex1_files["a"], "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def _readme_commands():
    """Commands of the ``sh`` block under "Command line" in the README."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


@pytest.mark.parametrize(
    "command", _readme_commands(), ids=lambda c: "-".join(shlex.split(c)[1:3])
)
def test_readme_command_runs(command, monkeypatch, capsys):
    words = shlex.split(command)
    assert words[0] == "propersplit"
    monkeypatch.chdir(ROOT)
    assert main(words[1:]) == 0, capsys.readouterr().err


def test_readme_quick_start_runs():
    """The ``python`` block under "Library quick start" in the README."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    trace, a = namespace["trace"], namespace["a"]
    assert trace.converged
    assert np.allclose(trace.limit, np.linalg.pinv(a) @ [1.0, 1.0], atol=1e-9)


_SEVEN = ("a", "p1", "r1", "s1", "p2", "r2", "s2")

# ``exN_*`` names a bundled file, ``sq_*`` a file of a generated square pair
_AGREEMENT_CASES = {
    "spectrum": ["spectrum", "ex2_w1"],
    "classify-single": ["classify", "single", "ex2_a", "ex2_p1"],
    "classify-single-weak": ["classify", "single", "ex1_a", "ex1_p2"],
    "classify-double": ["classify", "double", "ex1_a", "ex1_p1", "ex1_r1", "ex1_s1"],
    "solve-single-trace": ["solve", "single", "ex2_a", "ex2_p1", "ex2_b", "--trace"],
    "solve-double-trace": ["solve", "double", "ex2_a", "ex2_p1", "ex2_r1", "ex2_s1", "ex2_b", "--trace"],
    "compare": ["compare", "regular-vs-weak", *(f"ex1_{k}" for k in _SEVEN)],
    "compare-square-corollary": [
        "compare", "regular-vs-weak", *(f"sq_{k}" for k in _SEVEN), "--square-corollary"
    ],
}


@pytest.fixture(scope="module")
def square_pair_dir(tmp_path_factory):
    d1, d2 = comparison_pair(np.random.default_rng(3), TheoremId.REGULAR_VS_WEAK, 4, 4, 4)
    target = tmp_path_factory.mktemp("square_pair")
    for name, m in zip(_SEVEN, (d1.a, d1.p, d1.r, d1.s, d2.p, d2.r, d2.s)):
        write_matrix(target / f"sq_{name}.mat", m)
    return target


def _float_leaves(node):
    if isinstance(node, float):
        yield node
    elif isinstance(node, dict):
        for value in node.values():
            yield from _float_leaves(value)
    elif isinstance(node, list):
        for value in node:
            yield from _float_leaves(value)


def _text_and_doc(argv, capsys):
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    return text, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", list(_AGREEMENT_CASES), ids=str)
def test_text_carries_every_json_float(case, square_pair_dir, capsys):
    argv = [
        str(DATA / f"{tok}.mat") if tok.startswith("ex")
        else str(square_pair_dir / f"{tok}.mat") if tok.startswith("sq_")
        else tok
        for tok in _AGREEMENT_CASES[case]
    ]
    text, doc = _text_and_doc(argv, capsys)
    floats = list(_float_leaves(doc))
    assert floats
    missing = [x for x in floats if json.dumps(abs(x)) not in text]
    assert not missing


@pytest.mark.parametrize("name", ["ex1_p1", "ex2_w1"])
def test_pinv_text_matrix_equals_json_entries(name, capsys):
    text, doc = _text_and_doc(["pinv", str(DATA / f"{name}.mat")], capsys)
    assert np.array_equal(parse_matrix(text), np.array(doc["entries"]))


def _key_paths(node, prefix=""):
    """Every key of a JSON document in order, as a dotted path, recursing into
    dicts and into the first item of a list of dicts."""
    if isinstance(node, list) and node and isinstance(node[0], dict):
        yield from _key_paths(node[0], prefix + "[0]")
    elif isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            yield path
            yield from _key_paths(value, path)


_SPECTRUM_KEYS = ["command", "input", "eigenvalues", "spectral_radius", "dominant_vector"]
_CLASSIFY_SINGLE_KEYS = [
    "command", "kind", "class",
    "projector_range_residual", "projector_rowspace_residual", "projector_identities_pass",
]
_SOLVE_KEYS = [
    "command", "kind", "converged", "diverged", "iterations_used", "final_step_residual",
    "distance_to_reference", "limit", "reference_solution", "x0_in_nullspace_v",
]
_COMPARE_KEYS = [
    "command", "theorem", "square_corollary",
    "hypotheses", "hypotheses[0].label", "hypotheses[0].passed", "hypotheses[0].residual",
    "branch_used", "rho1", "rho2", "conclusion_predicted", "conclusion_observed", "notes",
]

# ``exN_*`` names a bundled file, ``sq_*`` a file of a generated square pair,
# ``neg_ex2_a`` the negated A of the second example (U = -A is ProperOnly)
_KEY_CASES = {
    "pinv-echo": (
        ["pinv", "ex1_p1", "--echo-inputs"],
        ["command", "input", "rows", "cols", "entries", "penrose_residuals",
         "penrose_residuals.axa", "penrose_residuals.xax", "penrose_residuals.ax_symmetry",
         "penrose_residuals.xa_symmetry", "inputs", "inputs.A"],
    ),
    "spectrum-dominant": (["spectrum", "ex2_w1"], _SPECTRUM_KEYS),
    "spectrum-no-dominant": (["spectrum", "sq_s1"], _SPECTRUM_KEYS),
    "classify-single-proper-only": (
        ["classify", "single", "ex2_a", "neg_ex2_a"], _CLASSIFY_SINGLE_KEYS
    ),
    "classify-single-weak": (
        ["classify", "single", "ex1_a", "ex1_p2"],
        _CLASSIFY_SINGLE_KEYS + [
            "a_pinv_nonneg", "a_pinv_v_nonneg", "iteration_radius", "radius_below_one",
            "equivalence_agrees",
        ],
    ),
    "classify-double": (
        ["classify", "double", "ex1_a", "ex1_p1", "ex1_r1", "ex1_s1"],
        ["command", "kind", "class", "rho_w", "rho_induced", "semi_monotone",
         "biconditional_agrees", "guaranteed_convergent", "converges"],
    ),
    "solve-single": (["solve", "single", "ex2_a", "ex2_p1", "ex2_b"], _SOLVE_KEYS),
    "solve-double-trace-echo": (
        ["solve", "double", "ex2_a", "ex2_p1", "ex2_r1", "ex2_s1", "ex2_b", "--trace", "--echo-inputs"],
        _SOLVE_KEYS + ["iterates", "inputs", "inputs.A", "inputs.P", "inputs.R", "inputs.S", "inputs.b"],
    ),
    **{
        f"compare-{theorem}": (["compare", theorem, *(f"ex2_{k}" for k in _SEVEN)], _COMPARE_KEYS)
        for theorem in ("regular-vs-weak", "weak-vs-regular", "weak-vs-weak")
    },
    "compare-square-corollary": (
        ["compare", "regular-vs-weak", *(f"sq_{k}" for k in _SEVEN), "--square-corollary"],
        _COMPARE_KEYS,
    ),
}


@pytest.mark.parametrize("case", list(_KEY_CASES), ids=str)
def test_json_key_contract(case, square_pair_dir, tmp_path, capsys):
    # the library reports' field order is the JSON key order: pin both
    write_matrix(tmp_path / "neg_ex2_a.mat", -read_matrix(DATA / "ex2_a.mat"))
    tokens, expected = _KEY_CASES[case]
    argv = [
        str(DATA / f"{tok}.mat") if tok.startswith("ex")
        else str(square_pair_dir / f"{tok}.mat") if tok.startswith("sq_")
        else str(tmp_path / f"{tok}.mat") if tok.startswith("neg_")
        else tok
        for tok in tokens
    ]
    assert main(argv + ["--format", "json"]) == 0
    assert list(_key_paths(json.loads(capsys.readouterr().out))) == expected


@pytest.mark.parametrize("kind", ["single", "double"])
def test_solve_echo_inputs_includes_vectors(kind, tmp_path, capsys):
    # the echoed document holds every input, so the run can be repeated from it
    names = ("a", "p1", "b") if kind == "single" else ("a", "p1", "r1", "s1", "b")
    x0, x1 = tmp_path / "x0.mat", tmp_path / "x1.mat"
    write_matrix(x0, np.array([[0.5], [-1.0], [2.0]]))
    write_matrix(x1, np.array([[1.0, 0.0, -0.25]]))
    argv = ["solve", kind, *(str(DATA / f"ex2_{n}.mat") for n in names), "--x0", str(x0)]
    if kind == "double":
        argv += ["--x1", str(x1)]
    assert main(argv + ["--format", "json", "--echo-inputs"]) == 0
    echoed = json.loads(capsys.readouterr().out)["inputs"]
    assert list(echoed) == (["A", "U", "b", "x0"] if kind == "single" else ["A", "P", "R", "S", "b", "x0", "x1"])
    assert echoed["b"] == read_matrix(DATA / "ex2_b.mat").reshape(-1).tolist()
    assert echoed["x0"] == [0.5, -1.0, 2.0]
    if kind == "double":
        assert echoed["x1"] == [1.0, 0.0, -0.25]


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("2 2\n1 2 3\n4 5 6\n")
    out = tmp_path / "report.json"
    ex2 = [str(DATA / f"ex2_{k}.mat") for k in ("a", "p1", "r1", "s1")]
    compare = ["compare", "weak-vs-regular", *(str(DATA / f"ex2_{k}.mat") for k in _SEVEN)]
    calls = [
        compare + ["--format", "json", "--out", str(out)],
        compare,
        ["solve", "double", *ex2, str(DATA / "ex2_b.mat"), "--tol-solve", "0"],
        ["pinv", str(bad)],
        ["solve", "double", *ex2, str(DATA / "ex2_b.mat")],
        compare + ["--format", "text"],
        ["spectrum", str(DATA / "ex2_w1.mat"), "--format", "json"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    parser = cli.build_parser()
    in_a_row = [run(argv) for argv in calls]
    assert cli.build_parser() is parser
    assert in_a_row == alone
    assert [code for code, *_ in alone] == [0, 0, 0, 2, 0, 0, 0]


def _error_of(cls):
    args = {NotProperError: (1.0, 1.0, 1e-10), DecompositionMismatchError: (1.0, 1e-10)}
    return cls(*args.get(cls, ("boom",)))


@pytest.mark.parametrize("cls", list(cli._EXIT_CODES), ids=lambda c: c.__name__)
def test_exit_code_table(cls, ex1_files, monkeypatch, capsys):
    def build(args, cfg):
        raise _error_of(cls)

    monkeypatch.setitem(cli._COMMANDS, "pinv", (build, cli.text_pinv))
    assert main(["pinv", ex1_files["a"]]) == cli._EXIT_CODES[cls]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("exc", [RuntimeError("boom"), ValueError("boom")])
def test_errors_outside_the_table_propagate(exc, ex1_files, monkeypatch):
    def build(args, cfg):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "pinv", (build, cli.text_pinv))
    with pytest.raises(type(exc)):
        main(["pinv", ex1_files["a"]])


def test_theorem_names():
    parser = cli.build_parser()
    compare = next(a for a in parser._actions if a.dest == "command").choices["compare"]
    choices = next(a for a in compare._actions if a.dest == "theorem").choices
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("`compare` takes ", 1)[1].split("followed by", 1)[0]
    assert sorted(cli._THEOREMS) == list(choices) == sorted(re.findall(r"`([a-z-]+)`", sentence))
    assert cli._THEOREMS == {
        "regular-vs-weak": TheoremId.REGULAR_VS_WEAK,
        "weak-vs-regular": TheoremId.WEAK_VS_REGULAR,
        "weak-vs-weak": TheoremId.WEAK_VS_WEAK,
    }
