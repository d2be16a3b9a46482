import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from vnoether import (KIND_GHOST, ODD, Current, FieldSymbol, GradedPoly,
                      NoetherOperator, cli, jet, load_model)
from vnoether import gauge
from vnoether.algebra import poly_to_data, poly_to_json
from vnoether.render import poly_text

from helpers import CH1, PHI, print_elaborated, rand_poly

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "vnoether.cli", *args],
        capture_output=True, text=True, cwd=ROOT, env=env)


def test_el_text():
    res = run_cli("el", str(MODELS / "maxwell2.vln"))
    assert res.returncode == 0
    assert "A0: A0_{,11} - A1_{,01}" in res.stdout
    assert "A1: -A0_{,01} + A1_{,00}" in res.stdout


def test_el_scalar():
    res = run_cli("el", str(MODELS / "scalar_shift.vln"))
    assert res.returncode == 0
    assert "phi: -phi_{,00} + psi_{,0}" in res.stdout


def test_el_single_field_and_missing_field():
    res = run_cli("el", str(MODELS / "maxwell2.vln"), "--field", "A0")
    assert res.returncode == 0
    assert "A1:" not in res.stdout
    bad = run_cli("el", str(MODELS / "maxwell2.vln"), "--field", "nope")
    assert bad.returncode == 2
    # a ghost is a declared symbol but not a field
    ghost = run_cli("el", str(MODELS / "maxwell2.vln"), "--field", "c")
    assert ghost.returncode == 2
    assert "unknown field 'c'" in ghost.stderr
    assert ghost.stdout == ""


def _pipe_env(unbuffered: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_closed_stdout_exits_141_without_traceback():
    # the read end is closed before the child starts, so writing or
    # flushing the report meets EPIPE whether or not stdout is buffered
    for args in (("--format", "text"), ("--format", "json"), ("--help",)):
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                res = subprocess.run(
                    [sys.executable, "-m", "vnoether.cli", "verify",
                     str(MODELS / "maxwell2.vln"), *args],
                    stdout=write_end, stderr=subprocess.PIPE, text=True,
                    cwd=ROOT, env=_pipe_env(unbuffered))
            finally:
                os.close(write_end)
            assert res.returncode == cli.EXIT_PIPE == 141, (args, unbuffered)
            assert "Traceback" not in res.stderr
            assert "Exception ignored" not in res.stderr
    # a reader that takes a few bytes of a report larger than a pipe buffer
    # and quits: an unbuffered write then comes back short, and the rest of
    # the report must still meet EPIPE
    argv = ["superpotential", "tests/data/tensor_gauge2.vln", "g",
            "--format", "json"]
    for unbuffered in (False, True):
        read_end, write_end = os.pipe()
        try:
            child = subprocess.Popen(
                [sys.executable, "-m", "vnoether.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                cwd=ROOT, env=_pipe_env(unbuffered))
        finally:
            os.close(write_end)
        try:
            assert os.read(read_end, 10) == b'{\n  "bound'
        finally:
            os.close(read_end)
        stderr = child.communicate()[1]
        assert child.returncode == cli.EXIT_PIPE, unbuffered
        assert "Traceback" not in stderr
        assert "Exception ignored" not in stderr


def test_unbuffered_stdout_writes_the_same_report():
    # under python -u the report is written below the text layer; it comes
    # out whole in both formats, the JSON one larger than a pipe buffer
    sizes = {}
    for fmt in ("json", "text"):
        runs = [subprocess.run(
            [sys.executable, "-m", "vnoether.cli", "superpotential",
             "tests/data/tensor_gauge2.vln", "g", "--format", fmt],
            capture_output=True, cwd=ROOT, env=_pipe_env(unbuffered))
            for unbuffered in (False, True)]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[1].stdout == runs[0].stdout, fmt
        sizes[fmt] = len(runs[0].stdout)
    assert sizes["json"] > 300_000 and sizes["text"] > 10_000


def test_parse_error_exit_code():
    bad = MODELS / "broken.vln"
    bad.write_text("dim )\n")
    try:
        res = run_cli("el", str(bad))
        assert res.returncode == 2
        assert "error" in res.stderr
    finally:
        bad.unlink()


def _assert_model_error(tmp_path, data: bytes):
    path = tmp_path / "bad.vln"
    path.write_bytes(data)
    res = run_cli("verify", str(path))
    assert res.returncode == 2, res.stderr
    assert f"error: {path}: " in res.stderr
    assert "Traceback" not in res.stderr
    return res.stderr


def test_model_file_not_utf8_exits_2(tmp_path):
    err = _assert_model_error(
        tmp_path, b"dim 1\nfield phi even\nlagrangian d[0](phi)^2 \xff\n")
    assert "can't decode byte 0xff" in err


def test_superscript_digit_exits_2(tmp_path):
    # str.isdigit accepts a superscript two that int() refuses
    err = _assert_model_error(
        tmp_path, "dim 1\nfield phi even\nlagrangian d[0](phi)^\u00b2\n"
        .encode())
    assert "3:22: unexpected character" in err


def test_missing_file_exit_code():
    res = run_cli("el", str(MODELS / "does_not_exist.vln"))
    assert res.returncode == 2


def test_check_identity():
    res = run_cli("check-identity", str(MODELS / "maxwell2.vln"), "gauge")
    assert res.returncode == 0
    assert "identity gauge: pass" in res.stdout
    unknown = run_cli("check-identity", str(MODELS / "maxwell2.vln"), "zzz")
    assert unknown.returncode == 2


def test_check_identity_failure(tmp_path):
    bad = tmp_path / "bad.vln"
    bad.write_text("""
dim 1
field phi even
lagrangian (1/2)*d[0](phi)^2
identity wrong: 1*EL(phi)
""")
    res = run_cli("check-identity", str(bad), "wrong")
    assert res.returncode == 1
    assert "fail" in res.stdout
    assert "residual" in res.stdout


def test_gauge_symmetry_command():
    res = run_cli("gauge-symmetry", str(MODELS / "maxwell2.vln"), "gauge")
    assert res.returncode == 0
    assert "A0: -c_{,0}" in res.stdout
    assert "A1: -c_{,1}" in res.stdout


def test_gauge_symmetry_refusal(tmp_path):
    bad = tmp_path / "bad.vln"
    bad.write_text("""
dim 1
field phi even
ghost c odd for wrong
lagrangian (1/2)*d[0](phi)^2
identity wrong: 1*EL(phi)
""")
    res = run_cli("gauge-symmetry", str(bad), "wrong")
    assert res.returncode == 1
    assert "refusing" in res.stdout


def test_superpotential_command():
    res = run_cli("superpotential", str(MODELS / "maxwell2.vln"), "gauge")
    assert res.returncode == 0
    assert "U^01: -A0_{,1}*c + A1_{,0}*c" in res.stdout
    assert "w[A0,(),mu=0]: -c" in res.stdout
    assert "reconstruction: True" in res.stdout


def test_superpotential_json_schema():
    res = run_cli("superpotential", str(MODELS / "maxwell2.vln"), "gauge",
                  "--format", "json")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    payload = [s for s in report["steps"]
               if s["name"] == "superpotential"][0]["payload"]
    assert set(payload) == {"W", "U", "W_components", "checks",
                            "remainder_witness"}
    row = payload["W"][0]
    assert set(row) == {"field", "index", "mu", "coefficient"}
    mono = row["coefficient"]["monomials"][0]
    assert set(mono) == {"coeff", "even", "odd"}


def test_superpotential_corrupted_current():
    # the stray c in J^0 adds -c_{,0} to the residual u^A E_A - div J that
    # the corrupted current's own check carries: level 1, which is the
    # lead-source level of the gauge current (ghost-jet order 1) and the
    # top level of the declared shift's current (order 0)
    for model, name, tag in (("maxwell2.vln", "gauge", "lead-source"),
                             ("scalar_shift.vln", "shift", "top-symmetric")):
        res = run_cli("superpotential", str(MODELS / model), name,
                      "--debug-corrupt-current", "--format", "json")
        assert res.returncode == 1
        steps = json.loads(res.stdout)["steps"]
        assert [(s["name"], s["status"]) for s in steps] \
            == [("current", "pass"), ("superpotential", "fail")]
        assert steps[1]["payload"]["equation"] == tag, name


def test_superpotential_by_symmetry_name():
    res = run_cli("superpotential", str(MODELS / "scalar_shift.vln"), "shift")
    assert res.returncode == 0
    assert "reconstruction: True" in res.stdout


def test_verify_all_models():
    for model in sorted(MODELS.glob("*.vln")):
        res = run_cli("verify", str(model))
        assert res.returncode == 0, (model, res.stdout, res.stderr)
        assert "fail" not in res.stdout


def test_verify_json_determinism():
    # two processes under different hash seeds: jet variables hash by
    # identity, so a set of them iterates in memory order, and every output
    # must be sorted
    for model in sorted(MODELS.glob("*.vln")):
        first, second = (run_cli("verify", str(model), "--format", "json",
                                 env_extra={"PYTHONHASHSEED": seed})
                         for seed in ("1", "4242"))
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["format_version"] == 1
        assert all(step["status"] == "pass" for step in report["steps"])


def test_bound_exhaustion_exit_code(tmp_path):
    # exactness decisions take no bound and the CLI has no option for
    # one: --ansatz-degree is a usage error
    model = tmp_path / "m.vln"
    model.write_text("""
dim 1
field phi even
lagrangian (1/2)*d[0](phi)^2
symmetry translate: phi <- d[0](phi)
""")
    res = run_cli("superpotential", str(model), "translate",
                  "--ansatz-degree", "1")
    assert res.returncode == 2
    ok = run_cli("superpotential", str(model), "translate")
    assert ok.returncode in (0, 1)


def test_verify_empty_model(tmp_path):
    model = tmp_path / "empty.vln"
    model.write_text("")
    res = run_cli("verify", str(model))
    assert res.returncode == 0


def test_verify_false_identity(tmp_path):
    model = tmp_path / "false.vln"
    model.write_text("""
dim 1
field phi even
lagrangian (1/2)*d[0](phi)^2
identity wrong: 1*EL(phi)
""")
    res = run_cli("verify", str(model))
    assert res.returncode == 1
    assert "identity wrong: fail" in res.stdout


def test_jet_cap_env(tmp_path):
    model = tmp_path / "m.vln"
    model.write_text("""
dim 1
field phi even
lagrangian (1/2)*d[0](d[0](d[0](phi)))^2
""")
    res = run_cli("verify", str(model), env_extra={"VNOETHER_JET_CAP": "4"})
    assert res.returncode == 3
    ok = run_cli("verify", str(model), env_extra={"VNOETHER_JET_CAP": "8"})
    assert ok.returncode == 0
    # a cap that is not a non-negative integer is a usage error, from the
    # environment or from the option
    for bad in (run_cli("el", str(model),
                        env_extra={"VNOETHER_JET_CAP": "abc"}),
                run_cli("el", str(model), "--jet-cap", "-1")):
        assert bad.returncode == 2, bad.stderr
        assert "non-negative integer" in bad.stderr
        assert "Traceback" not in bad.stderr


def test_verify_scalar_qed_dim3(tmp_path):
    # every step passes in well under a second: the weak-conservation
    # witness is read off the first variational formula, not searched for
    model = tmp_path / "sqed3.vln"
    model.write_text("""
dim 3
field A[mu] even
field phi even
field chi even
ghost c odd for gauge
let F[mu,nu] = d[mu](A[nu]) - d[nu](A[mu])
let D1[mu] = d[mu](phi) - A[mu]*chi
let D2[mu] = d[mu](chi) + A[mu]*phi
lagrangian (-1/4)*F[mu,nu]*F[mu,nu] + (1/2)*D1[mu]*D1[mu] + (1/2)*D2[mu]*D2[mu]
identity gauge: 1*d[nu](EL(A[nu])) + phi*EL(chi) - chi*EL(phi)
""")
    res = run_cli("verify", str(model), "--format", "json")
    assert res.returncode == 0, res.stderr
    steps = json.loads(res.stdout)["steps"]
    assert [s["name"] for s in steps] == [
        "lepage", "euler-lagrange", "identity gauge",
        "variational-formula gauge", "weak-conservation gauge",
        "structural-equations gauge", "superpotential gauge"]
    assert all(s["status"] == "pass" for s in steps)


def _verify_in_process(capsys, model, *options):
    code = cli.main(["verify", str(model), "--format", "json", *options])
    return code, json.loads(capsys.readouterr().out)


def test_verify_weak_conservation_failure_reports_residual(monkeypatch,
                                                           capsys):
    # a current with a stray ghost term is not weakly conserved: the step
    # fails and carries the residual of the exact re-check
    real = cli.noether_current
    ghost = GradedPoly.variable(jet(FieldSymbol("c", KIND_GHOST, ODD)))

    def corrupted(ups, L, sigma, *shared):
        J = real(ups, L, sigma, *shared)
        return Current({**J.components, 0: J.component(0) + ghost}, J.dim)

    monkeypatch.setattr(cli, "noether_current", corrupted)
    code, report = _verify_in_process(capsys, MODELS / "scalar_shift.vln")
    assert code == 1
    step = {s["name"]: s for s in report["steps"]}["weak-conservation shift"]
    assert step["status"] == "fail"
    assert step["payload"]["residual"]["text"] == "-c_{,0}"


def test_failed_self_check_exits_4_without_traceback(monkeypatch, capsys):
    # a constructed object that fails its own re-check is a fault in the
    # program, not in the model: exit 4 and the check's name on stderr,
    # with no traceback; here the adjoint's second transfer, the one that
    # moves the derivatives back, is corrupted
    real = gauge.transfer_derivatives

    def corrupted(items, cap, *rest):
        out = real(items, cap, *rest)
        if sys._getframe(1).f_code.co_name == "adjoint":
            key = min(out, key=repr)
            out[key] = out[key] * 2
        return out

    monkeypatch.setattr(gauge, "transfer_derivatives", corrupted)
    for argv in (["gauge-symmetry", "stueck"], ["verify"]):
        code = cli.main([argv[0], str(MODELS / "scalar_shift.vln"),
                         *argv[1:], "--format", "json"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INTERNAL == 4
        assert captured.out == ""
        assert captured.err == ("error: internal check failed: "
                                "adjoint involution failed\n")
        assert "Traceback" not in captured.err


def test_verify_decides_each_symmetry_without_bound(tmp_path, capsys):
    # 'translate' needs a degree-2 witness and passes; the later 'wrong' is
    # no symmetry and fails; no step is left undecided
    model = tmp_path / "two.vln"
    model.write_text("""
dim 1
field phi even
lagrangian (1/2)*d[0](phi)^2
symmetry translate: phi <- d[0](phi)
symmetry wrong: phi <- phi
""")
    code, report = _verify_in_process(capsys, model)
    statuses = {s["name"]: s["status"] for s in report["steps"]}
    assert statuses["symmetry translate"] == "pass"
    assert statuses["symmetry wrong"] == "fail"
    assert report["bound_exhausted"] is False
    assert code == 1


def test_verify_quintic_translation_needs_no_degree_bound(tmp_path):
    # the divergence witness of the translation has degree 5: exactness
    # decisions take no degree bound
    model = tmp_path / "quintic.vln"
    model.write_text("""
dim 2
field phi even
lagrangian (1/2)*d[mu](phi)*d[mu](phi) + (1/5)*phi^5
symmetry translate: phi <- d[0](phi)
""")
    res = run_cli("verify", str(model))
    assert res.returncode == 0, (res.stdout, res.stderr)
    assert "symmetry translate: pass" in res.stdout.splitlines()


def _count_calls(patch, source, names):
    """Count calls of the functions ``names`` of ``source`` (a module or a
    class) in ``source`` and in every module that binds them."""
    from vnoether import forms, gauge, superpotential, variational
    counts = {}
    for name in names:
        counts[name] = 0
        real = getattr(source, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for owner in (source, cli, forms, gauge, superpotential, variational):
            if getattr(owner, name, None) is real:
                patch.setattr(owner, name, counted)
    return counts


def _count_builds(patch):
    from vnoether import Lagrangian, forms, variational
    counts = _count_calls(patch, variational, ("euler_lagrange", "lepage_table",
                                               "prolong"))
    counts.update(_count_calls(patch, forms, ("lie_derivative",)))
    # d(L vol) is the cached property Lagrangian.d_form
    counts["d_form"] = 0
    prop = Lagrangian.__dict__["d_form"]
    real = prop.func

    def counted(L):
        counts["d_form"] += 1
        return real(L)

    patch.setattr(prop, "func", counted)
    return counts


def test_each_command_builds_derived_objects_once(monkeypatch, capsys):
    # one Euler-Lagrange and one Lepage build per command, one prolongation
    # per distinct vector field and d(L vol) once where the Lepage check and
    # the first variational formula need it; the gauge route and the
    # symmetry current use pr u(L), and the first variational formula
    # writes out the Cartan formula, so lie_derivative never runs
    model = str(MODELS / "maxwell4.vln")
    for argv in (["gauge-symmetry", model, "gauge"],
                 ["superpotential", model, "gauge"],
                 ["superpotential", model, "gauge_sym"]):
        with monkeypatch.context() as patch:
            counts = _count_builds(patch)
            assert cli.main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        assert counts == {"euler_lagrange": 1, "lepage_table": 1,
                          "lie_derivative": 0, "prolong": 1,
                          "d_form": 0}, argv
    with monkeypatch.context() as patch:
        counts = _count_builds(patch)
        code, report = _verify_in_process(capsys, model)
    assert code == 0
    formula_steps = [s for s in report["steps"]
                     if s["name"].startswith("variational-formula ")]
    assert len(formula_steps) == 2
    # the declared gauge_sym equals the gauge symmetry of 'gauge', so the
    # routes share one prolongation; both are odd, so the two formula steps
    # read one check at the odd universal field, the other prolongation
    assert counts == {"euler_lagrange": 1, "lepage_table": 1,
                      "lie_derivative": 0, "prolong": 2, "d_form": 1}


def test_verify_contracts_once_per_product(monkeypatch, capsys):
    # the first variational formula is checked once per parity, at the
    # universal field: three contractions (with d(L vol), the source form
    # and the Lepage form) for the one odd check, and one per route, whose
    # current contracts its own pr u with the Lepage form.  maxwell4 has two
    # routes (gauge, gauge_sym) and su2_d4 three (ga, gb, gc)
    from vnoether import forms
    for path, want in ((MODELS / "maxwell4.vln", 5),
                       (ROOT / "perfbench" / "models" / "su2_d4.vln", 6)):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, forms, ("contract",))
            code, _ = _verify_in_process(capsys, path)
        assert code == 0
        assert counts == {"contract": want}, path.name


def test_a_broken_source_form_fails_every_formula_step(monkeypatch, capsys):
    # the single check at the universal field is not vacuous: with the
    # source form doubled it reads nonzero for both parities, and every
    # variational-formula step of verify fails, odd (the gauge routes) and
    # even (the translation) alike, with no payload and exit 1
    from vnoether import EVEN, Lagrangian
    from vnoether.variational import universal_residual
    prop = Lagrangian.__dict__["source_form"]
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda L: real(L) * 2)
    for path in (MODELS / "maxwell4.vln",
                 ROOT / "perfbench" / "models" / "maxwell3_translation.vln"):
        L = load_model(path.read_text(encoding="utf-8")).lagrangian
        for parity in (EVEN, ODD):
            assert not universal_residual(L, parity).is_zero(), (path, parity)
        code, report = _verify_in_process(capsys, path)
        assert code == 1
        steps = [s for s in report["steps"]
                 if s["name"].startswith("variational-formula ")]
        assert len(steps) == 2
        assert all(s == {"name": s["name"], "status": "fail"} for s in steps)


def test_each_identity_is_evaluated_once(monkeypatch, capsys):
    # the function that builds an object runs its checks once and the CLI
    # reports their results: one contraction per identity, one run of the
    # structural checks (_structural_checks, behind structural_checks and
    # extract) and one verify_split per split, and the gauge route builds
    # its current without noether_current (verify's one call is the
    # current of the declared symmetry gauge_sym)
    from vnoether import NoetherOperator, superpotential, variational
    model = str(MODELS / "maxwell4.vln")
    for argv, splits, currents in ((["gauge-symmetry", model, "gauge"], 0, 0),
                                   (["superpotential", model, "gauge"], 1, 0),
                                   (["verify", model], 1, 1)):
        with monkeypatch.context() as patch:
            counted = [
                _count_calls(patch, NoetherOperator, ("contraction",)),
                _count_calls(patch, superpotential,
                             ("_structural_checks", "verify_split")),
                _count_calls(patch, variational, ("noether_current",))]
            assert cli.main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        counts = {k: v for c in counted for k, v in c.items()}
        assert counts == {"contraction": 1, "_structural_checks": splits,
                          "verify_split": splits,
                          "noether_current": currents}, argv


def test_the_density_gradient_is_taken_once(monkeypatch, capsys):
    # the Euler-Lagrange operator, the Lepage table and pr u(L) of every
    # identity and declared symmetry read the Lagrangian's one gradient;
    # verify also takes d(L vol), which keeps its own, so that the first
    # variational formula's left side does not share pr u(L)'s input
    path = MODELS / "maxwell4.vln"
    density = load_model(path.read_text()).lagrangian.density
    real = GradedPoly.gradient
    for argv, want in ((["gauge-symmetry", str(path), "gauge"], 1),
                       (["superpotential", str(path), "gauge"], 1),
                       (["verify", str(path)], 2)):
        taken = []
        with monkeypatch.context() as patch:
            patch.setattr(GradedPoly, "gradient",
                          lambda p: taken.append(p == density) or real(p))
            assert cli.main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        assert sum(taken) == want, argv


def test_structural_checks_read_the_conservation_residual(monkeypatch,
                                                         capsys):
    # the split reads its structural equations off the residual of the
    # weak-conservation check instead of expanding u^A E_A again: per
    # current, one expansion each in the contraction, symmetry_witness and
    # the split's reduction invariant, and one per W component in
    # verify_split (maxwell4 has 4); verify adds the check of gauge_sym
    from vnoether import variational
    model = str(MODELS / "maxwell4.vln")
    for argv, expansions in ((["superpotential", model, "gauge"], 7),
                             (["verify", model], 8)):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, variational, ("expand_witness",))
            assert cli.main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        assert counts == {"expand_witness": expansions}, argv


def test_symmetry_route_builds_pr_u_l_once(monkeypatch, capsys):
    # is_variational_symmetry checks its witness against pr u(L), and
    # noether_current takes that result without checking it again: one
    # prolonged_variation per symmetry (verify on scalar_shift has two, the
    # gauge symmetry of 'stueck' and the declared 'shift')
    from vnoether import variational
    model = str(MODELS / "scalar_shift.vln")
    for argv, symmetries in ((["superpotential", model, "shift"], 1),
                             (["verify", model], 2)):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, variational, ("prolonged_variation",))
            assert cli.main([*argv, "--format", "json"]) == 0
        capsys.readouterr()
        assert counts == {"prolonged_variation": symmetries}, argv


def test_identity_parity_errors_exit_2(tmp_path):
    # an identity of mixed parity, or a zero identity (odd by convention)
    # with an even ghost, is an elaboration error naming the identity's line
    mixed = tmp_path / "mixed.vln"
    mixed.write_text("dim 1\nfield phi even\nfield psi odd\n"
                     "ghost c odd for g\nlagrangian (1/2)*d[0](phi)^2\n"
                     "identity g: 1*EL(phi) + psi*EL(phi)\n")
    zero = tmp_path / "zero.vln"
    zero.write_text("dim 1\nfield phi even\nghost c even for g\n"
                    "lagrangian (1/2)*d[0](phi)^2\nidentity g: 0*EL(phi)\n")
    runs = [(mixed, args, "identity 'g' (line 6): terms of mixed parity")
            for args in (["el"], ["gauge-symmetry", "g"],
                         ["superpotential", "g"], ["verify"])]
    runs += [(zero, args, "ghost 'c' parity does not match identity 'g' "
                          "(line 5)")
             for args in (["gauge-symmetry", "g"], ["superpotential", "g"])]
    for model, args, message in runs:
        res = run_cli(args[0], str(model), *args[1:])
        assert res.returncode == 2, (model.name, args, res.stderr)
        assert "Traceback" not in res.stderr
        assert message in res.stderr


def test_mixed_parity_symmetry_exits_2(tmp_path):
    # elaboration keeps a symmetry whose components mix parities, but it
    # has no prolongation: verify and superpotential stop with an error
    # naming it instead of a traceback
    for rhs, message in (("phi <- psi ; psi <- psi",
                          "components of mixed total parity"),
                         ("phi <- 1 + psi",
                          "component for phi has mixed parity")):
        model = tmp_path / "mixed.vln"
        model.write_text("dim 1\nfield phi even\nfield psi odd\n"
                         "lagrangian (1/2)*d[0](phi)^2\n"
                         f"symmetry s: {rhs}\n")
        for args in (["verify"], ["superpotential", "s"]):
            res = run_cli(args[0], str(model), *args[1:])
            assert res.returncode == 2, (rhs, args, res.stderr)
            assert "Traceback" not in res.stderr
            assert f"symmetry 's': {message}" in res.stderr


def test_verify_ghost_in_lagrangian(tmp_path, capsys):
    # the Lepage check and the reported Euler-Lagrange expressions come
    # from one definition over the density's symbols, so a ghost in L
    # does not fail the Lepage step; the report lists the declared fields
    model = tmp_path / "ghost.vln"
    model.write_text("dim 1\nfield phi even\nfield psi odd\n"
                     "ghost c odd for g\n"
                     "lagrangian (1/2)*d[0](phi)^2 + c*d[0](c)*phi\n"
                     "identity g: 0*EL(phi)\n")
    code, report = _verify_in_process(capsys, model)
    steps = {s["name"]: s for s in report["steps"]}
    assert steps["lepage"]["status"] == "pass"
    assert [item["field"] for item in steps["euler-lagrange"]["payload"]] \
        == ["phi", "psi"]
    assert steps["euler-lagrange"]["payload"][1]["expression"]["text"] == "0"
    # the identity 0*EL(phi) is vacuous, so its route stops at a failing
    # nontrivial step, and that is the only step that fails
    assert code == 1, report
    assert [name for name, s in steps.items() if s["status"] == "fail"] \
        == ["nontrivial g"], report


def test_weak_conservation_is_checked_once_per_current(monkeypatch, capsys):
    # symmetry_witness checks div J = u^A E_A once per current: inside
    # gauge_symmetry for the current of a gauge identity, which verify
    # records, and in verify for the current of a declared symmetry
    from vnoether import variational
    model = str(MODELS / "maxwell4.vln")
    for argv, witnesses in ((["gauge-symmetry", model, "gauge"], 1),
                            (["superpotential", model, "gauge"], 1),
                            (["verify", model], 2)):
        with monkeypatch.context() as patch:
            counts = _count_calls(patch, variational, ("symmetry_witness",))
            assert cli.main([*argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert counts == {"symmetry_witness": witnesses}, argv
    statuses = {s["name"]: s["status"] for s in report["steps"]}
    assert statuses["weak-conservation gauge"] == "pass"
    assert statuses["weak-conservation gauge_sym"] == "pass"


def _written(value):
    out = []
    cli._json(value, out)
    return "".join(out)


def test_json_writer_matches_json_dumps():
    cases = [
        {}, [], (), {"a": {}}, {"a": []}, [[], {}, [[]]], {"a": {"b": {}}},
        ("x", (1, 2), [()]), True, False, None, 0, -7, 10 ** 40, -(10 ** 40),
        'quote " and backslash \\', "control \x00\x01\t\n\r\x1f\x7f",
        "non-ASCII é中 ", "astral \U0001d49c", "",
        {"b": 1, "a": [True, None, {"d": "x", "c": -1}], "é": 0, "A": 2},
        {"steps": [{"name": "el", "status": "pass", "payload": [
            {"coeff": "-1/2", "even": [["A0", [0, 1], 2]], "odd": []}]}]},
    ]
    for value in cases:
        assert _written(value) == json.dumps(value, sort_keys=True,
                                             indent=2), value


def _nested(value, depth: int) -> str:
    out = []
    cli._json(value, out, "\n" + "  " * depth)
    return "".join(out)


def test_poly_payload_writer_matches_the_data_tree():
    # poly_to_json writes, at any depth, the bytes that _json writes for the
    # poly_to_data tree, and _json writes a GradedPoly payload as that tree
    # next to its poly_text: both parities, multi-indices up to order 3,
    # rational coefficients, one past the int/str digit limit, a non-ASCII
    # field name and zero
    rng = random.Random(29)
    eta = FieldSymbol("\u03b7")
    ghost = FieldSymbol("c\u00e9", KIND_GHOST, ODD)
    polys = [GradedPoly.zero(),
             GradedPoly.constant(Fraction(10 ** 4400 + 1, 3))
             * GradedPoly.variable(jet(eta, (0, 1, 2)))]
    for parity in (0, 1, None):
        for _ in range(20):
            p = rand_poly(rng, (PHI, eta, CH1, ghost), dim=3, max_order=3,
                          parity=parity)
            polys.append(p * Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(4300)   # the default limit
    try:
        for p in polys:
            data = poly_to_data(p)
            for depth in range(1, 7):
                assert poly_to_json(p, "\n" + "  " * depth) \
                    == _nested(data, depth)
                assert _nested(p, depth) == _nested(
                    {"monomials": data, "text": poly_text(p)}, depth)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    assert any(len(p.variables()) > 3 for p in polys)


def test_reports_build_no_monomial_data(monkeypatch):
    # every polynomial payload is written from the ring's terms, in both
    # formats; poly_to_data stays the data API and the writer's reference
    from vnoether import algebra
    from test_corpus_digests import corpus_commands, run_command
    counts = _count_calls(monkeypatch, algebra, ("poly_to_data",))
    for fmt in ("json", "text"):
        for argv in corpus_commands():
            run_command(argv, fmt)
    assert counts == {"poly_to_data": 0}
    algebra.poly_to_data(GradedPoly.constant(1))
    assert counts == {"poly_to_data": 1}


class _Sink:
    """A stdout that keeps only the number of characters written."""

    length = 0

    def write(self, text):
        self.length += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.skipif(tracemalloc.is_tracing(),
                    reason="memory is already traced")
def test_json_report_peak_memory_stays_near_its_length(monkeypatch):
    # no payload is held as a data tree and the report is never joined:
    # the traced peak of a 349 KB report stays under 4 times its length
    monkeypatch.chdir(ROOT)
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["superpotential", "tests/data/tensor_gauge2.vln",
                             "g", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.length > 300_000
    assert peak < 4 * sink.length, (peak, sink.length)


def test_json_writer_refuses_other_types():
    from fractions import Fraction
    for value in (1.5, Fraction(1, 2), {1, 2}, {1: "a"}, [{"a": 0.0}],
                  {"a": 1, 2: "b"}):
        try:
            _written(value)
        except TypeError:
            continue
        raise AssertionError(f"{value!r} was written")


def test_usage_errors_exit_2():
    model = str(MODELS / "maxwell2.vln")
    for args in ([], ["bogus", model], ["el"], ["check-identity", model],
                 ["el", model, "extra"], ["gauge-symmetry", model, "g", "x"],
                 ["el", model, "--bogus"], ["el", model, "--format", "xml"],
                 ["verify", model, "--field", "A0"],
                 ["el", model, "--debug-corrupt-current"]):
        res = run_cli(*args)
        assert res.returncode == 2, (args, res.stderr)
        assert res.stderr.startswith("usage:"), args
        assert "error: " in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""


def test_help_and_option_placement():
    res = run_cli("--help")
    assert res.returncode == 0
    assert res.stdout == cli.USAGE
    model = str(MODELS / "maxwell2.vln")
    plain = run_cli("el", model, "--format", "json")
    assert plain.returncode == 0
    for args in (["el", model, "--format=json", "--jet-cap=8"],
                 ["el", "--format", "json", model]):
        res = run_cli(*args)
        assert (res.returncode, res.stdout) == (0, plain.stdout), args


def test_main_returns_2_on_usage_error(capsys):
    assert cli.main(["el"]) == 2
    assert cli.main(["verify", "m.vln", "--field", "A0"]) == 2
    err = capsys.readouterr().err
    assert err.count("usage:") == 2


def test_readme_shows_usage():
    assert cli.USAGE in (ROOT / "README.md").read_text(encoding="utf-8")


ODD_MATTER = """dim {dim}
metric euclidean
field A[mu] even
field p odd
field q odd
ghost c odd for gauge
let F[mu,nu] = d[mu](A[nu]) - d[nu](A[mu])
lagrangian (-1/4)*F[mu,nu]*F[mu,nu] + p*d[0](p) + q*d[0](q) + 2*A[0]*p*q
identity gauge: 1*d[nu](EL(A[nu])) {matter}
"""


@pytest.fixture
def odd_matter_models(tmp_path, monkeypatch):
    """U(1) with two odd matter fields in dim 2 and 3, and the control with
    the signs of q*EL(p) and p*EL(q) flipped; the working directory is the
    model directory, so each report echoes a relative path."""
    monkeypatch.chdir(tmp_path)
    for dim in (2, 3):
        for suffix, matter in (("", "+ q*EL(p) - p*EL(q)"),
                               ("_flipped", "- q*EL(p) + p*EL(q)")):
            (tmp_path / f"u1_odd{dim}{suffix}.vln").write_text(
                ODD_MATTER.format(dim=dim, matter=matter))
    return tmp_path


# SHA-256 of the JSON report and the exit code of each command
ODD_MATTER_REPORTS = {
    ("verify", "u1_odd2.vln"): (
        "9628090393d4f3ff6945c8d186751b00b89a4783d6b6d0061a763306d7f688ad", 0),
    ("superpotential", "u1_odd2.vln", "gauge"): (
        "67682be9d899738240f55bc67ac7a784fe33b5c0cb84ccc8f3e2fa71f88bf0ba", 0),
    ("verify", "u1_odd2_flipped.vln"): (
        "a523e79688d59e4089c2ac4564a2d22bf3f0866d8facdf4ab43a0204c9b6a063", 1),
    ("superpotential", "u1_odd2_flipped.vln", "gauge"): (
        "6432bee8523c08bd4ea9765c8d838cc1129e7be7fbe98bc16b3a41a4ddd3cdc8", 1),
    ("verify", "u1_odd3.vln"): (
        "96dc41fd63d8c6c0e123539120ef3e67d57e2e12130e2aedf7e9abb6c2286246", 0),
    ("superpotential", "u1_odd3.vln", "gauge"): (
        "050b51b390c04c53ebce3e32d80281b279511b81d0e878f9226d49e88fe69823", 0),
    ("verify", "u1_odd3_flipped.vln"): (
        "2fcd46a444328313be53806ebb5a7577cf12e64d6ea7f20649c4e1815c19fc1e", 1),
    ("superpotential", "u1_odd3_flipped.vln", "gauge"): (
        "e5bc6f0b11d878b62bd58485e43d482df1f97d1ce72333cb02d38d56d2f967a4", 1),
}


@pytest.mark.parametrize("argv", sorted(ODD_MATTER_REPORTS))
def test_odd_matter_end_to_end(odd_matter_models, capsys, argv):
    # odd fields go through the gauge symmetry, the weak conservation, the
    # structural equations and the split; the flipped control fails
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    failing = [s["name"] for s in report["steps"] if s["status"] == "fail"]
    if argv[1].endswith("_flipped.vln"):
        assert failing == ["identity gauge"], failing
    else:
        assert not failing and report["steps"][-1]["name"].startswith(
            "superpotential")
    assert (hashlib.sha256(out.encode()).hexdigest(), code) \
        == ODD_MATTER_REPORTS[argv]


def _route(name):
    return [(f"{step} {name}", "pass") for step in (
        "identity", "variational-formula", "weak-conservation",
        "structural-equations", "superpotential")]


# models whose superpotential reduction takes a nonzero Euler-Lagrange
# increment inside its level loop (their gauge symmetries carry second
# ghost jets), and ghost2c's control with the sign of phi*EL(chi) flipped:
# verify's exit code and steps after lepage and euler-lagrange, and the
# names that superpotential splits
SECOND_GHOST_JET_MODELS = {
    "ghost2c.vln": (0, _route("g"), ["g"]),
    "ghost2c_flipped.vln": (1, [("identity g", "fail")], []),
    "ghost2c_stueck.vln": (0, _route("stueck") + [
        ("variational-formula shift", "pass"), ("symmetry shift", "pass"),
        ("weak-conservation shift", "pass")], ["stueck", "shift"]),
}


@pytest.mark.parametrize("model", sorted(SECOND_GHOST_JET_MODELS))
def test_second_ghost_jet_models(capsys, model):
    path = ROOT / "tests" / "data" / model
    code, steps, names = SECOND_GHOST_JET_MODELS[model]
    got, report = _verify_in_process(capsys, path)
    assert got == code
    assert [(s["name"], s["status"]) for s in report["steps"]] \
        == [("lepage", "pass"), ("euler-lagrange", "pass")] + steps
    for name in names:
        assert cli.main(["superpotential", str(path), name,
                         "--format", "json"]) == 0, name
        report = json.loads(capsys.readouterr().out)
        assert [(s["name"], s["status"]) for s in report["steps"]] \
            == [("current", "pass"), ("superpotential", "pass")], name


# a symmetry bilinear in the ghosts has no superpotential split: the split
# step fails with the ghost-linearity reason, in a complete report
GHOST_BILINEAR_RUNS = {
    "ghost_bilinear_identity.vln": ("verify",),
    "ghost_bilinear_symmetry.vln": ("superpotential", "s"),
}


@pytest.mark.parametrize("model", sorted(GHOST_BILINEAR_RUNS))
def test_ghost_bilinear_split_is_refused(model):
    command, *name = GHOST_BILINEAR_RUNS[model]
    res = run_cli(command, str(ROOT / "tests" / "data" / model), *name,
                  "--format", "json")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    steps = json.loads(res.stdout)["steps"]
    failing = [s for s in steps if s["status"] == "fail"]
    assert [s["name"] for s in failing] == [
        "superpotential g1" if command == "verify" else "superpotential"]
    assert failing[0]["payload"]["reason"].startswith("not ghost-linear")
    # no structural checks ran on the refused split
    assert "structural-equations g1" not in [s["name"] for s in steps]


# identities that hold for want of content: a zero Noether operator, and
# any operator on a null Lagrangian (EL vanishes identically); each command
# on the identity fails one nontrivial step and runs nothing after it.
# They sit in tests/data/vacuous/, apart from the models whose low jet-cap
# outcomes are pinned.
VACUOUS_MODELS = {
    "zero_identity.vln": "the Noether operator is zero",
    "null_lagrangian.vln": "the Euler-Lagrange expressions vanish identically",
}


@pytest.mark.parametrize("command", ["verify", "check-identity",
                                     "gauge-symmetry", "superpotential"])
@pytest.mark.parametrize("model", sorted(VACUOUS_MODELS))
def test_vacuous_identity_is_refused(capsys, model, command):
    path = str(ROOT / "tests" / "data" / "vacuous" / model)
    name = [] if command == "verify" else ["g"]
    assert cli.main([command, path, *name, "--format", "json"]) == 1
    steps = json.loads(capsys.readouterr().out)["steps"]
    prefix = [("lepage", "pass"), ("euler-lagrange", "pass")] \
        if command == "verify" else []
    assert [(s["name"], s["status"]) for s in steps] \
        == prefix + [("nontrivial g", "fail")]
    assert steps[-1]["payload"] == {"reason": VACUOUS_MODELS[model]}
    if command == "verify":   # the text report, through a fresh process
        res = run_cli(command, path)
        assert res.returncode == 1 and "Traceback" not in res.stderr
        assert f"  reason: {VACUOUS_MODELS[model]}\n" in res.stdout


def test_long_integers_print_in_full(tmp_path, capsys):
    # coefficients are exact, so a literal or a coefficient past Python's
    # default int/str digit limit is read and printed in full, and the
    # calling process keeps its own limit; the expected digits are written
    # out because this process may not convert them
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    model = tmp_path / "long.vln"
    model.write_text("dim 1\nfield phi even\n"
                     f"lagrangian {'7' * 5000}*phi^2\n")
    assert cli.main(["el", str(model)]) == 0
    assert f"phi: ({'1' + '5' * 4999 + '4'})*phi\n" in capsys.readouterr().out
    big = "1" + "0" * 2000
    model.write_text("dim 1\nfield phi even\n"
                     f"lagrangian (-1/2)*{big}*{big}*{big}*d[0](phi)^2\n")
    ten_6000 = "1" + "0" * 6000   # str(10 ** 6000)
    assert cli.main(["el", str(model), "--format", "json"]) == 0
    step = json.loads(capsys.readouterr().out)["steps"][0]
    assert step["payload"][0]["expression"]["monomials"][0]["coeff"] \
        == ten_6000
    assert cli.main(["el", str(model)]) == 0
    assert f"phi: ({ten_6000})*phi_{{,00}}\n" in capsys.readouterr().out
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_long_denominators_print_in_full(tmp_path, capsys):
    # a coefficient (1/N) with a 2,000-digit N keeps every digit of its
    # reduced denominator in text and in JSON
    n = "7" * 2000
    model = tmp_path / "frac.vln"
    model.write_text(f"dim 1\nfield phi even\nlagrangian (1/{n})*d[0](phi)^2\n")
    assert cli.main(["el", str(model)]) == 0
    assert f"phi: (-2/{n})*phi_{{,00}}\n" in capsys.readouterr().out
    assert cli.main(["el", str(model), "--format", "json"]) == 0
    step = json.loads(capsys.readouterr().out)["steps"][0]
    assert step["payload"][0]["expression"]["monomials"][0]["coeff"] \
        == f"-2/{n}"


def _check_identity_json(capsys, path, name):
    code = cli.main(["check-identity", str(path), name, "--format", "json"])
    [step] = json.loads(capsys.readouterr().out)["steps"]
    return code, step


def test_every_single_sign_mutant_fails_check_identity(tmp_path, capsys):
    # negate one coefficient Delta^{A,I} of each corpus identity, print the
    # mutant model and check it through the CLI: a check that always
    # answered "pass" would exit 0 here
    paths = sorted(MODELS.glob("*.vln")) \
        + sorted((ROOT / "perfbench" / "models").glob("*.vln"))
    path = tmp_path / "mutant.vln"
    mutants = 0
    for source in paths:
        model = load_model(source.read_text(encoding="utf-8"))
        for name, op in sorted(model.identities.items()):
            for key, delta in op.sorted_items():
                flipped = {**op.coefficients, key: -delta}
                mutant = model._replace(identities={
                    **model.identities, name: NoetherOperator(name, flipped)})
                path.write_text(print_elaborated(mutant), encoding="utf-8")
                code, step = _check_identity_json(capsys, path, name)
                where = (source.name, name, key[0].name, key[1])
                assert code == 1 and step["status"] == "fail", where
                assert step["payload"]["residual"]["monomials"], where
                mutants += 1
    assert mutants == 144


def test_the_true_sign_mutant_passes_check_identity(tmp_path, capsys):
    # su2_wrong_sign's identity with its first term, d_nu E(Aa_nu), negated
    # is -1 times su2_d3's identity ga, which holds
    models = ROOT / "perfbench" / "models"
    wrong = load_model((models / "su2_wrong_sign.vln").read_text())
    right = load_model((models / "su2_d3.vln").read_text()).identities["ga"]
    op = wrong.identities["ga"]
    flipped = {(sym, index): -delta if index else delta
               for (sym, index), delta in op.coefficients.items()}
    assert flipped == {key: -delta for key, delta in right.coefficients.items()}
    path = tmp_path / "mutant.vln"
    path.write_text(print_elaborated(wrong._replace(
        identities={"ga": NoetherOperator("ga", flipped)})))
    assert _check_identity_json(capsys, path, "ga") \
        == (0, {"name": "identity ga", "status": "pass"})
