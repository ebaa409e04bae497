"""End-to-end tests for the command line interface."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcfam
from hcfam import classify, cli, grassfam
from hcfam.cli import run
from hcfam.liefam import _sparse_table, contraction_family, sl2_algebra
from hcfam.scalars import DomainError, GaussianRational, RationalFunction
from hcfam.sl2fam import sl2_involution


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


class TestFamily:
    def test_build_and_jacobi(self, capsys):
        code, doc = invoke_json(capsys, "family", "build", "--kind", "contraction")
        assert code == 0 and doc["labels"] == ["k0", "p0", "p1"] and doc["rank"] == 3
        code, doc = invoke_json(capsys, "family", "jacobi", "--kind", "deformation")
        assert code == 0 and doc["ok"] is True

    def test_fiber_at_infinity(self, capsys):
        code, doc = invoke_json(capsys, "family", "fiber", "--kind", "contraction", "--at", "inf")
        assert code == 0
        assert doc["invariants"]["dim_derived"] == 2
        assert doc["invariants"]["solvable"] is True

    def test_basechange(self, capsys):
        code, doc = invoke_json(
            capsys, "family", "basechange", "--kind", "contraction", "--exponent", "2"
        )
        assert code == 0 and doc["rank"] == 3
        code, _ = invoke(capsys, "family", "basechange", "--exponent", "0")
        assert code == 2

    def test_morphcheck_presets(self, capsys):
        code, doc = invoke_json(capsys, "family", "morphcheck", "--preset", "pullback-deformation")
        assert code == 0 and doc["morphism"] is True
        code, doc = invoke_json(
            capsys, "family", "morphcheck", "--preset", "identity-contraction-deformation"
        )
        assert code == 1 and doc["morphism"] is False and "witness" in doc
        code, _ = invoke(capsys, "family", "morphcheck", "--preset", "nonsense")
        assert code == 2

    @pytest.mark.parametrize(
        "antisymmetric, k, residual",
        [(False, None, "antisymmetry fails"), (True, 2, ["(-1)*z", "0", "0"])],
        ids=["antisymmetry-witness", "jacobi-witness"],
    )
    def test_jacobi_failure_witness(self, capsys, monkeypatch, antisymmetric, k, residual):
        good = contraction_family(sl2_algebra(), sl2_involution())
        tbl = [[dict(cell) for cell in row] for row in good.constants]
        three = RationalFunction.constant(GaussianRational(3))
        tbl[0][1][1] = three  # [h, x] = 3x
        if antisymmetric:
            tbl[1][0][1] = -three
        bad = dataclasses.replace(good, constants=_sparse_table(tbl))
        monkeypatch.setattr(cli, "build_family", lambda *args: bad)
        code, out = invoke(capsys, "family", "jacobi")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["ok"] is False
        assert doc["witness"] == {"i": 0, "j": 1, "k": k, "residual": residual}


@pytest.fixture()
def module_file(tmp_path, capsys):
    code, out = invoke(
        capsys,
        "classify",
        "construct",
        "--weights",
        "even",
        "--class",
        "III",
        "--casimir",
        "0,0,1",
    )
    assert code == 0
    path = tmp_path / "module.json"
    path.write_text(out)
    return str(path)


class TestModule:
    def test_validate_round_trip(self, capsys, module_file):
        code, doc = invoke_json(capsys, "module", "validate", "--module", module_file)
        assert code == 0 and doc["ok"] is True

    def test_fiber_and_locus(self, capsys, module_file):
        code, doc = invoke_json(
            capsys, "module", "fiber", "--module", module_file, "--at", "1/8", "--window", "-6..6"
        )
        assert code == 1 and doc["irreducible"] is False
        code, doc = invoke_json(capsys, "module", "locus", "--module", module_file)
        assert code == 0 and "points" in doc

    def test_twist_then_iso_fails(self, capsys, module_file, tmp_path):
        code, out = invoke(capsys, "module", "twist", "--module", module_file, "--degree", "1")
        assert code == 0
        other = tmp_path / "twisted.json"
        other.write_text(out)
        code, doc = invoke_json(
            capsys, "module", "iso", "--module", module_file, "--other", str(other)
        )
        assert code == 1 and doc["isomorphic"] is False

    def test_iso_self(self, capsys, module_file):
        code, doc = invoke_json(
            capsys, "module", "iso", "--module", module_file, "--other", module_file
        )
        assert code == 0 and doc["isomorphic"] is True

    def test_missing_file_is_request_error(self, capsys):
        code, doc = invoke_json(capsys, "module", "validate", "--module", "/no/such/file.json")
        assert code == 2 and doc["error"] == "request"

    @pytest.mark.parametrize(
        "action, extra, documents",
        [
            ("validate", [], 1),
            ("fiber", ["--at", "1/8"], 1),
            ("fiber", ["--at", "inf"], 1),
            ("locus", [], 1),
            ("twist", [], 1),
            ("iso", ["--other", "@module"], 1),
            ("iso", ["--other", "@copy"], 2),
            ("swap", ["--indices", "0,2"], 1),
        ],
        ids=["validate", "fiber", "fiber-inf", "locus", "twist", "iso", "iso-copy", "swap"],
    )
    def test_one_validation_per_document(
        self, capsys, monkeypatch, tmp_path, module_file, action, extra, documents
    ):
        """One validation per distinct document text: ``iso`` of a file
        against itself validates once, against the same document written
        differently twice, and a repeated request validates nothing.  ``twist``
        and ``swap`` prove their result valid instead of validating it."""
        from hcfam import hcmod

        if action == "swap":  # a document with transitions of degree step 0
            with open(module_file, "w") as fh:
                json.dump(_flat_even(), fh)

        calls = []
        real = hcmod.validate

        def counting(module, window=hcmod.DEFAULT_WINDOW):
            calls.append((window, hcmod._VALID in vars(module)))
            return real(module, window)

        monkeypatch.setattr(hcmod, "validate", counting)
        monkeypatch.setattr(cli, "validate", counting)
        copy = tmp_path / "copy.json"
        with open(module_file) as fh:
            copy.write_text(json.dumps(json.load(fh), indent=1))
        extra = [{"@module": module_file, "@copy": str(copy)}.get(a, a) for a in extra]
        argv = ["module", action, "--module", module_file, "--window", "-6..6", *extra]
        cli._documents.clear()
        invoke(capsys, *argv)
        # Only the listing of validate reads the window; the verdicts do not.
        window = (-6, 6) if action == "validate" else hcmod.DEFAULT_WINDOW
        assert calls == [(window, False)] * documents
        calls.clear()
        invoke(capsys, *argv)
        assert calls == ([(window, True)] if action == "validate" else [])

    def test_swap_unequal_degrees_is_domain_error(self, capsys, module_file):
        code, doc = invoke_json(
            capsys, "module", "swap", "--module", module_file, "--indices", "2"
        )
        assert code == 3 and doc["error"] == "DegreeBoundViolated"


class TestClassify:
    def test_admissible_verdicts(self, capsys):
        code, doc = invoke_json(
            capsys, "classify", "admissible", "--weights", "even", "--casimir", "0,8,0"
        )
        assert code == 1 and doc["admissible"] is False
        code, doc = invoke_json(
            capsys, "classify", "admissible", "--weights", "odd", "--casimir", "0,8,0"
        )
        assert code == 0 and doc["admissible"] is True

    def test_inadmissible_construct_is_domain_error(self, capsys):
        code, doc = invoke_json(
            capsys,
            "classify",
            "construct",
            "--weights",
            "even",
            "--class",
            "III",
            "--casimir",
            "0,8,0",
        )
        assert code == 3 and doc["error"] == "InadmissibleCasimir"

    def test_report(self, capsys):
        code, doc = invoke_json(
            capsys, "classify", "report", "--weights", "lowest:3", "--class", "I:3"
        )
        assert code == 0 and doc["casimir_moduli"] == "single point"

    def test_probe_deterministic_bytes(self, capsys):
        argv = (
            "classify",
            "probe",
            "--weights",
            "even",
            "--class",
            "IV",
            "--casimir",
            "1,0,0",
            "--trials",
            "3",
            "--seed",
            "7",
            "--window",
            "-8..8",
        )
        code_a, out_a = invoke(capsys, *argv)
        code_b, out_b = invoke(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_bad_weights_is_request_error(self, capsys):
        code, _ = invoke(capsys, "classify", "admissible", "--weights", "banana")
        assert code == 2


class TestGrassmann:
    def test_pencil_and_subalg(self, capsys):
        code, doc = invoke_json(capsys, "grassmann", "pencil", "--pq", "1,1", "--det-one")
        assert code == 0 and len(doc["basis"]) == 3
        code, doc = invoke_json(capsys, "grassmann", "subalg", "--pq", "2,1", "--det-one")
        assert code == 0 and doc["subalgebra"] is True

    def test_limit_and_closure(self, capsys):
        code, doc = invoke_json(
            capsys, "grassmann", "limit", "--pq", "1,1", "--det-one", "--boundary", "inf"
        )
        assert code == 0 and len(doc["basis"]) == 2
        code, doc = invoke_json(
            capsys, "grassmann", "closure", "--pq", "1,1", "--det-one", "--boundary", "0"
        )
        assert code == 0 and doc["closed"] is True

    def test_compare_and_realform(self, capsys):
        code, doc = invoke_json(capsys, "grassmann", "compare", "--pq", "1,1", "--det-one")
        assert code == 0 and doc["isomorphic"] is True
        code, doc = invoke_json(
            capsys, "grassmann", "realform", "--pq", "1,1", "--det-one", "--at", "-1"
        )
        assert code == 0 and doc["signature"] == [0, 0, 3]

    @pytest.mark.parametrize("at", ["0", "inf"])
    def test_realform_at_a_dependent_limit_exits_3(self, capsys, monkeypatch, at):
        limit_vector, first = grassfam._limit_vector, []

        def repeating(pair, boundary):
            first.append(limit_vector(pair, boundary))
            return first[0]

        monkeypatch.setattr(grassfam, "_limit_vector", repeating)
        code, doc = invoke_json(capsys, "grassmann", "realform", "--pq", "1,1", "--det-one", "--at", at)
        assert code == 3 and doc["error"] == "RankDropAtLimit"

    def test_bad_pq_is_request_error(self, capsys):
        code, _ = invoke(capsys, "grassmann", "pencil", "--pq", "1")
        assert code == 2

    def test_pq_beyond_the_entry_bound_is_refused_before_building(self, capsys, monkeypatch):
        from hcfam import grassfam

        def unreachable(*args, **kwargs):
            raise AssertionError("a pencil basis was built")

        monkeypatch.setattr(grassfam, "k_basis", unreachable)
        for pq in ("1000,1000", "14,13", "1,26"):
            code, doc = invoke_json(capsys, "grassmann", "pencil", "--pq", pq)
            assert code == 2 and doc["error"] == "request", pq
            assert "p+q must be at most 26" in doc["message"], pq


class TestVerify:
    def test_quick_profile_passes(self, capsys):
        code, out = invoke(capsys, "verify", "--profile", "quick")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        doc = json.loads(lines[-1])
        assert doc["passed"] == 6 and doc["failed"] == []


class TestDeterminism:
    def test_construct_output_byte_identical(self, capsys):
        argv = ("classify", "construct", "--weights", "odd", "--class", "I:1", "--casimir", "1,2,3")
        _, a = invoke(capsys, *argv)
        _, b = invoke(capsys, *argv)
        assert a == b


#: (request, exit code, sha256 of stdout), recorded before pencil pairs and
#: gl(2) matrices moved to the sparse form, and (from the morphcheck entries
#: on) before Lie-algebra vectors, involutions and morphisms did; the output
#: must not change.
PAIR_OUTPUT_CORPUS = (
    ("grassmann pencil --pq 1,1", 0, "8f14112b3f46ed90835d178ff783fe016091755bc2ba8e1369013e5484c5ace4"),
    ("grassmann pencil --pq 1,1 --at 0", 0, "394ed55725b2b4a0989940f76bca68145543fa61fe0ceaa507fe29ffcf3973f1"),
    ("grassmann pencil --pq 1,1 --at -3/2", 0, "512e14a8265d7c99f63218f50573ea6896e3b5a511535082689ae901376fbe11"),
    ("grassmann limit --pq 1,1 --boundary 0", 0, "27a2144e3dcf4736c58004f95e1a39f1c613072a668794759fd7e05604908c7e"),
    ("grassmann limit --pq 1,1 --boundary inf", 0, "1e6a21bc93becfd766c19030e80ea7f7c64704e7e3375dcdfa75bbae56ee8c5a"),
    ("grassmann limit --pq 1,1 --boundary 1", 0, "781e2df5b7d4ba7e13fb8cc007fc3676844cf084df8a0afffcaac55a178628d1"),
    ("grassmann limit --pq 1,1 --boundary i", 0, "8d24fab1fede3a29b7db214ef57325c094e77011111fbc4ecb0f8f3aaaee0f23"),
    ("grassmann subalg --pq 1,1", 0, "9608a9677ddbcd6b43eb4a35fb0b99d304118e3cfbf43bc5138eed1fc6acab13"),
    ("grassmann closure --pq 1,1", 0, "6b23895a7ca5dee4e30b070d5b144a72b38f1ba722ee5cd6a670b50873016428"),
    ("grassmann compare --pq 1,1", 3, "c5fd583fb135ebb0c50dd21b2d766354e6c33a2c013c28412c08739357b788cf"),
    ("grassmann realform --pq 1,1 --at 2", 0, "f24814b7101e91eca641c223fa9714e50328d3b08fe9526d15e729af7e84a32c"),
    ("grassmann realform --pq 1,1 --at -2", 0, "2f5601b416cf0da5a98241813682ddc55087afa01cb1fecdf6926c77b35a8eca"),
    ("grassmann realform --pq 1,1 --at 0", 0, "57738f8e7283a266a5f31274661a5c6660dfa2a8717d7b8821d908954eb1927d"),
    ("grassmann realform --pq 1,1 --at inf", 0, "17f75dbc341daf001ac9ea9d42a94b41e25030ce0dd6295c96b9ebed5e5fb6e5"),
    ("grassmann pencil --pq 1,1 --det-one", 0, "fef51e7da041da0bd1e641033bd78591df4df449e290c5c5cfcc996e71cf9548"),
    ("grassmann pencil --pq 1,1 --det-one --at 0", 0, "47d814e6480a809c62a313eabba70e7504440dc8364af9249fa4e5d6983796f4"),
    ("grassmann pencil --pq 1,1 --det-one --at -3/2", 0, "a5748a248996d3190dbe7e7d4d7cc834a66411b6c87bc7d7022fb2e1b866542f"),
    ("grassmann limit --pq 1,1 --det-one --boundary 0", 0, "27a2144e3dcf4736c58004f95e1a39f1c613072a668794759fd7e05604908c7e"),
    ("grassmann limit --pq 1,1 --det-one --boundary inf", 0, "1e6a21bc93becfd766c19030e80ea7f7c64704e7e3375dcdfa75bbae56ee8c5a"),
    ("grassmann limit --pq 1,1 --det-one --boundary 1", 0, "781e2df5b7d4ba7e13fb8cc007fc3676844cf084df8a0afffcaac55a178628d1"),
    ("grassmann limit --pq 1,1 --det-one --boundary i", 0, "8d24fab1fede3a29b7db214ef57325c094e77011111fbc4ecb0f8f3aaaee0f23"),
    ("grassmann subalg --pq 1,1 --det-one", 0, "9608a9677ddbcd6b43eb4a35fb0b99d304118e3cfbf43bc5138eed1fc6acab13"),
    ("grassmann closure --pq 1,1 --det-one", 0, "6b23895a7ca5dee4e30b070d5b144a72b38f1ba722ee5cd6a670b50873016428"),
    ("grassmann compare --pq 1,1 --det-one", 0, "403181ae23c68c8f537696297234c1b3f6e7c238aa8d36c06972e3d141168f11"),
    ("grassmann realform --pq 1,1 --det-one --at 2", 0, "4c3520f4f6be0c7d6bbea36518fa73d4105062c79bc1b24c30c20198507bc198"),
    ("grassmann realform --pq 1,1 --det-one --at -2", 0, "afb08fde8b8518bf74f02cb8dab2e79518590bc9c49d1001549ac1be3138d936"),
    ("grassmann realform --pq 1,1 --det-one --at 0", 0, "4142e732b8d1323111d70fc7046320fa31285f928150bc0754d6d63dd9066a77"),
    ("grassmann realform --pq 1,1 --det-one --at inf", 0, "6909adad8389855dc6c87f24a359cf76c83120a53697172a45ba83f0cae12721"),
    ("grassmann pencil --pq 2,1", 0, "79f889eddeef28731d070ff6a4dc043b1211eea2d6937e7c1fdd3629245ce2f4"),
    ("grassmann pencil --pq 2,1 --at 0", 0, "3fafeb084e1002847a25177f3119bab3b46c7e902bcec327e31e7692844b8afb"),
    ("grassmann pencil --pq 2,1 --at -3/2", 0, "e2805c3d91e5eeb28a1072aa0d0d8ba29dd5485e7222cf8efe09a249d03b77a5"),
    ("grassmann limit --pq 2,1 --boundary 0", 0, "ee6b840c418c788a14b83e11be286f84387bb9193b604301a378339ebb681a9e"),
    ("grassmann limit --pq 2,1 --boundary inf", 0, "3780ee940f2a88c7730ef86174de6943c30f90afa1abbd244f014af9bf27c570"),
    ("grassmann limit --pq 2,1 --boundary 1", 0, "b1276193ad41a22e84dfa4c545faff816a2b82f095b77b3db832ff9b4e0b3d0b"),
    ("grassmann limit --pq 2,1 --boundary i", 0, "3aa6d9b6f9b72effdb020bf9c2606bc33806e7432b7560feea3b7948995f67e0"),
    ("grassmann subalg --pq 2,1", 0, "9608a9677ddbcd6b43eb4a35fb0b99d304118e3cfbf43bc5138eed1fc6acab13"),
    ("grassmann closure --pq 2,1", 0, "6b23895a7ca5dee4e30b070d5b144a72b38f1ba722ee5cd6a670b50873016428"),
    ("grassmann compare --pq 2,1", 3, "c5fd583fb135ebb0c50dd21b2d766354e6c33a2c013c28412c08739357b788cf"),
    ("grassmann realform --pq 2,1 --at 2", 0, "ebba9d6aca2e9c26268b494ff387a3c693049619863e2a682712f272b15120dc"),
    ("grassmann realform --pq 2,1 --at -2", 0, "6c088db1979c65ac603d5668aab7e0a71fbf873c41a56ac263b6d6f207161620"),
    ("grassmann realform --pq 2,1 --at 0", 0, "6e95c3af674c2ef3d5ed434d29e68a132f9e9de06007c0f22f0010543eb8db8a"),
    ("grassmann realform --pq 2,1 --at inf", 0, "0345199a2a7d16f479507b6efb1de7b79444aa3de558a00f4c281f72ba801bf1"),
    ("grassmann pencil --pq 2,1 --det-one", 0, "7b197c4d834a47b888b30b0cd1e806b3dac947f685cae4fdbdd94e64b8de3356"),
    ("grassmann pencil --pq 2,1 --det-one --at 0", 0, "7f668e898c14e29ff7fc59ef4a560d66e4eaae7382cf165efcd12c1a6198894d"),
    ("grassmann pencil --pq 2,1 --det-one --at -3/2", 0, "ebba38b35562bac26c1ed2a5cf0038014e42f3166404949f51e5a176055f0a2c"),
    ("grassmann limit --pq 2,1 --det-one --boundary 0", 0, "ee6b840c418c788a14b83e11be286f84387bb9193b604301a378339ebb681a9e"),
    ("grassmann limit --pq 2,1 --det-one --boundary inf", 0, "3780ee940f2a88c7730ef86174de6943c30f90afa1abbd244f014af9bf27c570"),
    ("grassmann limit --pq 2,1 --det-one --boundary 1", 0, "b1276193ad41a22e84dfa4c545faff816a2b82f095b77b3db832ff9b4e0b3d0b"),
    ("grassmann limit --pq 2,1 --det-one --boundary i", 0, "3aa6d9b6f9b72effdb020bf9c2606bc33806e7432b7560feea3b7948995f67e0"),
    ("grassmann subalg --pq 2,1 --det-one", 0, "9608a9677ddbcd6b43eb4a35fb0b99d304118e3cfbf43bc5138eed1fc6acab13"),
    ("grassmann closure --pq 2,1 --det-one", 0, "6b23895a7ca5dee4e30b070d5b144a72b38f1ba722ee5cd6a670b50873016428"),
    ("grassmann compare --pq 2,1 --det-one", 3, "c5fd583fb135ebb0c50dd21b2d766354e6c33a2c013c28412c08739357b788cf"),
    ("grassmann realform --pq 2,1 --det-one --at 2", 0, "38d600308ea3400710c802ddaeec2859a21c005cfbd75bb070af302538bea2e0"),
    ("grassmann realform --pq 2,1 --det-one --at -2", 0, "c20175476f284cb772b6ea9b427cefe1ca2040adab8b07ed66abf92d2dc9d126"),
    ("grassmann realform --pq 2,1 --det-one --at 0", 0, "baeac58317e06ac76f5ddcd609715400ba21e0dc2bbe0781584a71dc7932e859"),
    ("grassmann realform --pq 2,1 --det-one --at inf", 0, "0f20f6695917439520468f60c418aec3718fc792901f12d524af3afd5f762b08"),
    ("grassmann pencil --pq 1,2", 0, "4696a065c1337f78c263fca405bf6fe1e4b9e86000aaf274d430bfeb5c1da8d3"),
    ("grassmann pencil --pq 1,2 --at 0", 0, "8efc20893849d084bedb0c888af718d22a5f6310c1541c2beecc5b6dec7f3ea6"),
    ("grassmann pencil --pq 1,2 --at -3/2", 0, "da55dabf210d3030fda8d3ba499b421429526ff9c1f7b521e819b15e83117769"),
    ("grassmann limit --pq 1,2 --boundary 0", 0, "b248947f1753742f9bf8496ff4132f1ccbf07860e112a1dceb27d379095dfcf1"),
    ("grassmann limit --pq 1,2 --boundary inf", 0, "a36344fba0e22f800bef90f273906be4527b6eda530aeb12ab61717c134576b1"),
    ("grassmann limit --pq 1,2 --boundary 1", 0, "38dadea466baced38cfc61c895ae4a74ada6318155cb6395dc12eaabdf6ac11f"),
    ("grassmann limit --pq 1,2 --boundary i", 0, "92eb1a42a3bec81b618f9407c6d0f5090587bdec057c81b712694d65cfa19d13"),
    ("grassmann subalg --pq 1,2", 0, "9608a9677ddbcd6b43eb4a35fb0b99d304118e3cfbf43bc5138eed1fc6acab13"),
    ("grassmann closure --pq 1,2", 0, "6b23895a7ca5dee4e30b070d5b144a72b38f1ba722ee5cd6a670b50873016428"),
    ("grassmann compare --pq 1,2", 3, "c5fd583fb135ebb0c50dd21b2d766354e6c33a2c013c28412c08739357b788cf"),
    ("grassmann realform --pq 1,2 --at 2", 0, "06344a55b4092e384d29f6115e93699ca04badd3366357e6bd20ee3b718de123"),
    ("grassmann realform --pq 1,2 --at -2", 0, "d8e5d9ef1e01a566d650cec263d49e929b17908e0ee69549da60331389afa054"),
    ("grassmann realform --pq 1,2 --at 0", 0, "6aa6874a3eb1e117babe82910159f095331b0c99bf5bc5ac242e52c61b3a6c16"),
    ("grassmann realform --pq 1,2 --at inf", 0, "e5907fae748db14fd861ff9b184041fb4b28aa68543f167597501fe285f38ed2"),
    ("grassmann pencil --pq 1,2 --det-one", 0, "f8e6c87a367fd9f5bd69433061ad1a0c008aea890f29133dbb085c90014d5eb7"),
    ("grassmann pencil --pq 1,2 --det-one --at 0", 0, "1c6197288800730f70c2fa661581cb20cc247fb08b27d7a60818413a4529a0f4"),
    ("grassmann pencil --pq 1,2 --det-one --at -3/2", 0, "f6d7bd57cbd60e924d3bd167104a9550221cfefeeae9d8116d88968371156e88"),
    ("grassmann limit --pq 1,2 --det-one --boundary 0", 0, "b248947f1753742f9bf8496ff4132f1ccbf07860e112a1dceb27d379095dfcf1"),
    ("grassmann limit --pq 1,2 --det-one --boundary inf", 0, "a36344fba0e22f800bef90f273906be4527b6eda530aeb12ab61717c134576b1"),
    ("grassmann limit --pq 1,2 --det-one --boundary 1", 0, "38dadea466baced38cfc61c895ae4a74ada6318155cb6395dc12eaabdf6ac11f"),
    ("grassmann limit --pq 1,2 --det-one --boundary i", 0, "92eb1a42a3bec81b618f9407c6d0f5090587bdec057c81b712694d65cfa19d13"),
    ("grassmann subalg --pq 1,2 --det-one", 0, "9608a9677ddbcd6b43eb4a35fb0b99d304118e3cfbf43bc5138eed1fc6acab13"),
    ("grassmann closure --pq 1,2 --det-one", 0, "6b23895a7ca5dee4e30b070d5b144a72b38f1ba722ee5cd6a670b50873016428"),
    ("grassmann compare --pq 1,2 --det-one", 3, "c5fd583fb135ebb0c50dd21b2d766354e6c33a2c013c28412c08739357b788cf"),
    ("grassmann realform --pq 1,2 --det-one --at 2", 0, "5d049d07e61988cf6b557394f6be58ddb91153fa42f3f070bb7ff7030c48965b"),
    ("grassmann realform --pq 1,2 --det-one --at -2", 0, "87a07d7d6fc9f7a1d412cf66802570dc179916e3e7a8190da67b6fa7a2561a25"),
    ("grassmann realform --pq 1,2 --det-one --at 0", 0, "ec3ec2b4469ff6f823fb243d5cd26ab9f93121bc026cdf2708b41002107b40ce"),
    ("grassmann realform --pq 1,2 --det-one --at inf", 0, "2aeb0d3d55899d0ef324dd4c745465544f3fb68347dea57b3cbec4af515dac44"),
    ("family build --algebra gl2 --kind constant", 0, "90c61170be6181749a2287417e91bd2dcf189877c77fd1abecc8a8ba3604d2cb"),
    ("family fiber --algebra gl2 --kind constant --at inf", 0, "5c85ad74e77802c962edd07ebebedb69ce4a733108d1d5794acae7f66ea5f093"),
    ("family build --algebra gl2 --kind scaled", 0, "f7d4e3b92f2b5adc032769f06a0da8435e0e25e39650f2aa8753a81224b679d9"),
    ("family fiber --algebra gl2 --kind scaled --at inf", 0, "919833d8e6372b57422fe051ce8df1e00717f8306dd926f218ab679ed9c88779"),
    ("family build --algebra gl2 --kind contraction", 0, "a98932007f342b2efabfb1f0b827e6e3d8b0036ff3dde6101ee81db354b92ac3"),
    ("family fiber --algebra gl2 --kind contraction --at inf", 0, "cc35f3223197bb20400bf31e86b3cb8e0cb7b0d5505ed21aac0af2d834e6bc10"),
    ("family build --algebra gl2 --kind deformation", 0, "b80f144c2df5453cc594d2dc9748c2d08ba68f1ebee8107fb7c8c1e5fad51e40"),
    ("family fiber --algebra gl2 --kind deformation --at inf", 0, "cc35f3223197bb20400bf31e86b3cb8e0cb7b0d5505ed21aac0af2d834e6bc10"),
    ("family morphcheck --preset pullback-deformation", 0, "38969620d431c31a9d548ac5a3e3d99be57b8bdc14a3065ceb0d92bc0a46c146"),
    ("family morphcheck --preset p-scaling-embedding", 0, "de1c07d37297d10113f42a9f75e84dfeeea557bb6f7e2340bdf6aa6a0d8387bc"),
    ("family morphcheck --preset identity-contraction-deformation", 1, "53ff9853c74f861ccca2c9b99644e64b926cfe371059a13bee7be8f5c0f82683"),
    ("family jacobi --algebra sl2 --kind constant", 0, "e5f1eb4d806641698a35efe20e098efd20d7d57a9b90ee69079d5bb650920726"),
    ("family fiber --algebra sl2 --kind constant --at 0", 0, "61f14a5e92b62e1a2742dbb7285835b61eddc4d6d419f558d53852b81cc9498c"),
    ("family fiber --algebra sl2 --kind constant --at inf", 0, "4e7db247c35e4a97167473cc7240c0ade1506627cd6b3dc323188a691a7c0505"),
    ("family fiber --algebra sl2 --kind constant --at 2", 0, "73afde00de4eb58d4e7bc826a06b57bf04831f1c65b28616a03c8c622fd5be0b"),
    ("family jacobi --algebra sl2 --kind scaled", 0, "e5f1eb4d806641698a35efe20e098efd20d7d57a9b90ee69079d5bb650920726"),
    ("family fiber --algebra sl2 --kind scaled --at 0", 0, "3901cbcbe2ea6f88d988eaaf99540050c980625cba28dd5c8a60ecbcdc48862a"),
    ("family fiber --algebra sl2 --kind scaled --at inf", 0, "e158f5d5ebbb4383fba341f20a6ac0b0684ea755ba6bfa9945c136de232622d8"),
    ("family fiber --algebra sl2 --kind scaled --at 2", 0, "73afde00de4eb58d4e7bc826a06b57bf04831f1c65b28616a03c8c622fd5be0b"),
    ("family jacobi --algebra sl2 --kind contraction", 0, "e5f1eb4d806641698a35efe20e098efd20d7d57a9b90ee69079d5bb650920726"),
    ("family fiber --algebra sl2 --kind contraction --at 0", 0, "ee88746a33b8c08c0c4b40d3bf6c7f3e6d2b77748ed62227f8be9b07db0b86ff"),
    ("family fiber --algebra sl2 --kind contraction --at inf", 0, "974d8aabc2e2aa1a26121a81e08ab48bfeecdb90242a60e4b1977b1166975deb"),
    ("family fiber --algebra sl2 --kind contraction --at 2", 0, "73afde00de4eb58d4e7bc826a06b57bf04831f1c65b28616a03c8c622fd5be0b"),
    ("family jacobi --algebra sl2 --kind deformation", 0, "e5f1eb4d806641698a35efe20e098efd20d7d57a9b90ee69079d5bb650920726"),
    ("family fiber --algebra sl2 --kind deformation --at 0", 0, "ee88746a33b8c08c0c4b40d3bf6c7f3e6d2b77748ed62227f8be9b07db0b86ff"),
    ("family fiber --algebra sl2 --kind deformation --at inf", 0, "974d8aabc2e2aa1a26121a81e08ab48bfeecdb90242a60e4b1977b1166975deb"),
    ("family fiber --algebra sl2 --kind deformation --at 2", 0, "73afde00de4eb58d4e7bc826a06b57bf04831f1c65b28616a03c8c622fd5be0b"),
    ("family fiber --algebra gl2 --kind constant --at 2", 0, "020594651e8bbaf7763794b4e119676725221133f800e926778088bdc28dae0b"),
    ("family fiber --algebra gl2 --kind constant --at i", 0, "7c3fe526a10b4de36dae49936cfbfb92e0faffec5a48f2873650019df97d866a"),
    ("family fiber --algebra gl2 --kind scaled --at 2", 0, "020594651e8bbaf7763794b4e119676725221133f800e926778088bdc28dae0b"),
    ("family fiber --algebra gl2 --kind scaled --at i", 0, "7c3fe526a10b4de36dae49936cfbfb92e0faffec5a48f2873650019df97d866a"),
    ("family fiber --algebra gl2 --kind contraction --at 2", 0, "020594651e8bbaf7763794b4e119676725221133f800e926778088bdc28dae0b"),
    ("family fiber --algebra gl2 --kind contraction --at i", 0, "7c3fe526a10b4de36dae49936cfbfb92e0faffec5a48f2873650019df97d866a"),
    ("family fiber --algebra gl2 --kind deformation --at 2", 0, "020594651e8bbaf7763794b4e119676725221133f800e926778088bdc28dae0b"),
    ("family fiber --algebra gl2 --kind deformation --at i", 0, "7c3fe526a10b4de36dae49936cfbfb92e0faffec5a48f2873650019df97d866a"),
    ("family build --algebra sl2 --kind constant", 0, "e78edc54a5f32377a44664726313f10542103f349b98a9c7ca69676c0a079379"),
    ("family build --algebra sl2 --kind scaled", 0, "f6193a92c8291495035927ee6525e2fc45f70cf2ff65ea78b6d580dbeb9c1d27"),
    ("family build --algebra sl2 --kind contraction", 0, "6a6de4fa401cbd263f493e591cab17da4789bfc5162b72227f2f0bd0da2a9ff1"),
    ("family build --algebra sl2 --kind deformation", 0, "9bb7ba0c86d596145ef2e9706d5ccca35b022c6710aaeb4a4c40ffdd7264fbec"),
    ("family build --algebra sl2 --kind scaled --power 3", 0, "a225aecd31522544c4bed33693200d5b224d628de0f7ab094249e51f7334b826"),
    ("family build --algebra gl2 --kind scaled --power 3", 0, "62bbb036c066694536d93dbcfc5d87e4a3c8e8d80a1772ba2bbc219e684e73fb"),
    ("family basechange --algebra sl2 --kind constant --exponent 2", 0, "e78edc54a5f32377a44664726313f10542103f349b98a9c7ca69676c0a079379"),
    ("family basechange --algebra sl2 --kind constant --exponent 3", 0, "e78edc54a5f32377a44664726313f10542103f349b98a9c7ca69676c0a079379"),
    ("family basechange --algebra sl2 --kind scaled --exponent 2", 0, "058b9d6eb54e54fb18fc1da315dcc906aed544aca83b07cc336460f26a8d2808"),
    ("family basechange --algebra sl2 --kind scaled --exponent 3", 0, "a225aecd31522544c4bed33693200d5b224d628de0f7ab094249e51f7334b826"),
    ("family basechange --algebra sl2 --kind contraction --exponent 2", 0, "9bb7ba0c86d596145ef2e9706d5ccca35b022c6710aaeb4a4c40ffdd7264fbec"),
    ("family basechange --algebra sl2 --kind contraction --exponent 3", 0, "a4697ca193d0e83449340a4ce4f7b1ebac276a28bda7fec32ec164f2167975ce"),
    ("family basechange --algebra sl2 --kind deformation --exponent 2", 0, "2f977ca22ff4f520f699c80661c4b9c15b288d4f0aa74dc3ee629d4882579cf4"),
    ("family basechange --algebra sl2 --kind deformation --exponent 3", 0, "b38e1d44089e81d64bee01c27ed705ce95e41d9c05020df1592d6373a73d492f"),
    ("family basechange --algebra gl2 --kind constant --exponent 2", 0, "90c61170be6181749a2287417e91bd2dcf189877c77fd1abecc8a8ba3604d2cb"),
    ("family basechange --algebra gl2 --kind constant --exponent 3", 0, "90c61170be6181749a2287417e91bd2dcf189877c77fd1abecc8a8ba3604d2cb"),
    ("family basechange --algebra gl2 --kind scaled --exponent 2", 0, "8bfd2c587040360750f1d8c6d0bf917fdbef5111882f6f914c0cea2aacc03e0a"),
    ("family basechange --algebra gl2 --kind scaled --exponent 3", 0, "62bbb036c066694536d93dbcfc5d87e4a3c8e8d80a1772ba2bbc219e684e73fb"),
    ("family basechange --algebra gl2 --kind contraction --exponent 2", 0, "b80f144c2df5453cc594d2dc9748c2d08ba68f1ebee8107fb7c8c1e5fad51e40"),
    ("family basechange --algebra gl2 --kind contraction --exponent 3", 0, "7ef92479396591ec30175e14f30278e08c62cc583e026384a9d467e12071c4ef"),
    ("family basechange --algebra gl2 --kind deformation --exponent 2", 0, "afdd2909197415f44b302468f07f2692cf35689535b7b69e7ccdbe510a047745"),
    ("family basechange --algebra gl2 --kind deformation --exponent 3", 0, "5f7b7e2f226680c4dab5041cf91aaa320afb860b1a48e6571759c95f1d3afa45"),
    ("grassmann realform --pq 2,2 --at 1", 0, "077b2d1c0701969a5e640a9af2be03c786a848af62e47fd1606015828c8de463"),
    ("grassmann realform --pq 2,2 --at -1", 0, "741a62eea1de9954697d029521d58590b5e1782e1eac67fb4e5fd477486cbadc"),
    ("grassmann realform --pq 2,2 --det-one --at 1", 0, "960cdb6a8697b32277f0ae08dced198a17250e6d2aa396ab6d8a9f688df4fcb1"),
    ("grassmann realform --pq 2,2 --det-one --at -1", 0, "995003efcf5b5b59563e75631236334397fee750d5f03a9d703cb0e1c3c7bc5d"),
    ("grassmann realform --pq 3,1 --at 1", 0, "5aa95ddcc5b02a52fc4812416070ce2a38a979b9983c430784eb1a041be4362c"),
    ("grassmann realform --pq 3,1 --at -1", 0, "fe7f3a6f1415e989812ca1e74c77f0f03e8b6bd10222229aceb1f17628975c93"),
    ("grassmann realform --pq 3,1 --det-one --at 1", 0, "b20a6127fc84025842fcbfc2f1ab28c29692b483bf3b8fb2e5e144a13f9f760c"),
    ("grassmann realform --pq 3,1 --det-one --at -1", 0, "70f269bbb24574b39a124605fdd5dd05be7658b31c2d732f708a811835ce9037"),
    ("grassmann realform --pq 1,3 --at 1", 0, "533972dd427f2bd98dc665a058c3b753cb8a4ca5cc3640538433441f533ed015"),
    ("grassmann realform --pq 1,3 --at -1", 0, "184492043606ce8b3cd9f9eb6c1847532bd1d5296e63d2d637477846ee7ccb60"),
    ("grassmann realform --pq 1,3 --det-one --at 1", 0, "7924dbff64beca17a5e2bf1bba402ae30f15b6c4420cf5bfff24730be82cf3de"),
    ("grassmann realform --pq 1,3 --det-one --at -1", 0, "a3dc8165efce1cafa18ecd8563fc53e9d8fbdb46b3721c32f28601bfa7c3d3d0"),
    ("verify --profile quick", 0, "db974e9a7cfeef60fcbe11ffdbdfe5daa3dd012d65408f273e33fcd593f97b25"),
    ("verify --profile full", 0, "e8e44d46c0c7ade169c3577b58eef7186438c526ae609b0712188c8f2e26c6e3"),
)


class TestPairOutputBytes:
    @pytest.mark.parametrize("argv, code, digest", PAIR_OUTPUT_CORPUS, ids=[r[0] for r in PAIR_OUTPUT_CORPUS])
    def test_stdout_and_exit_code_unchanged(self, argv, code, digest):
        got_code, out = _outcome(argv.split())
        assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _request_error(capsys, *argv):
    """The request exits 2 with exactly one JSON line naming a request error."""
    code, out = invoke(capsys, *argv)
    lines = out.splitlines()
    assert code == 2 and len(lines) == 1
    assert json.loads(lines[0])["error"] == "request"


def _flat_even(pivot=0, overrides=(), down="B"):
    """The even document with Casimir 0,0,1, flat degrees and the unit A
    above the pivot, ``down`` below it."""
    return {
        "weights": {"kind": "even", "param": 0},
        "degree_rule": {"anchor": 0, "anchor_deg": 0, "slope_up": 0, "slope_down": 0, "overrides": []},
        "transitions": {"pivot": pivot, "up": {"unit": "A", "value": "1"}, "down": {"unit": down, "value": "1"},
                        "overrides": list(overrides)},
        "casimir": ["0", "0", "1"],
    }


#: Documents that differ from ``_flat_even()`` beyond the window -10..-2: in
#: the pivot, and in an override at 40 (4 A_40 B_40 = 1 - 1680 z = q_40).
ISO_BEYOND_WINDOW = {
    "pivot": _flat_even(pivot=100),
    "override": _flat_even(overrides=[{"n": 40, "A": {"0": "1/4", "1": "-420"}, "B": {"0": "1"}}]),
}


class TestRequestContract:
    @pytest.mark.parametrize("action", ["validate", "fiber"])
    @pytest.mark.parametrize("scalar", ["1/0", "2/0*i"])
    def test_zero_denominator_in_a_document_is_a_request_error(self, module_file, tmp_path, action, scalar):
        with open(module_file) as fh:
            doc = json.load(fh)
        doc["casimir"][0] = scalar
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        at = ["--at", "1"] if action == "fiber" else []
        code, out = _outcome(["module", action, "--module", str(path), *at])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "request"

    @pytest.mark.parametrize("action", ["validate", "twist", "locus", "iso"])
    @pytest.mark.parametrize("scalar", ["1e5000", "1e-5000", "2+1e5000*i"])
    def test_oversized_scalar_in_a_document_is_a_request_error(self, module_file, tmp_path, action, scalar):
        """A scalar with more digits than ``str`` writes back would make
        ``twist`` and ``locus`` fail on output; it is refused on load."""
        with open(module_file) as fh:
            doc = json.load(fh)
        doc["casimir"][0] = scalar
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        other = ["--other", module_file] if action == "iso" else []
        code, out = _outcome(["module", action, "--module", str(path), *other])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "request"

    @pytest.mark.parametrize("where", ["stdin", "file", "other"])
    def test_deeply_nested_json_is_a_request_error(self, module_file, tmp_path, monkeypatch, where):
        text = "[" * 100000 + "]" * 100000
        path = tmp_path / "deep.json"
        path.write_text(text)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        argv = {"stdin": ["module", "validate", "--module", "-"],
                "file": ["module", "locus", "--module", str(path)],
                "other": ["module", "iso", "--module", module_file, "--other", str(path)]}[where]
        code, out = _outcome(argv)
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "request"
        assert text not in cli._documents

    def test_result_over_the_digit_limit_is_a_request_error(self, module_file, tmp_path):
        """A 4300-digit denominator loads and validates, but the locus prints
        c1/4, whose denominator has one digit more than ``str`` may write."""
        with open(module_file) as fh:
            doc = json.load(fh)
        doc["casimir"][0] = "1/" + "9" * 4300
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        assert _outcome(["module", "validate", "--module", str(path)])[0] == 0
        code, out = _outcome(["module", "locus", "--module", str(path), "--window", "-4..4"])
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == {
            "error": "request",
            "message": "an exact result has more than 4300 digits",
        }

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["module", "-h"], ["module", "fiber", "--help"], ["classify", "--he"]],
        ids=["top", "module", "module-fiber", "abbreviated"],
    )
    def test_help_goes_to_stderr(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["help"].startswith("hcfam")
        assert err.getvalue().startswith("usage: hcfam")

    @pytest.mark.parametrize(
        "argv",
        [
            ["grassmann", "limit", "--pq", "0,1"],
            ["grassmann", "subalg", "--pq", "2,0", "--det-one"],
            ["grassmann", "pencil", "--pq", "-1,2"],
            ["grassmann", "realform", "--pq", "1,1", "--det-one", "--at", "1/2*i"],
            ["grassmann", "realform", "--pq", "1,1", "--at", "1+i"],
            ["grassmann", "realform", "--pq", "1,1"],
            ["family", "fiber", "--kind", "scaled", "--power", "0"],
            ["family", "build", "--kind", "scaled", "--power", "-2"],
            ["classify", "probe", "--weights", "even", "--trials", "-1"],
            ["classify", "probe", "--weights", "even", "--trials", "0"],
        ],
        ids=["limit-p0", "subalg-q0", "pencil-negative", "realform-imaginary",
             "realform-complex", "realform-no-point", "fiber-power0", "build-negative-power",
             "probe-negative-trials", "probe-zero-trials"],
    )
    def test_bad_arguments(self, capsys, argv):
        _request_error(capsys, *argv)

    def test_realform_names_the_missing_point(self, capsys):
        code, out = invoke(capsys, "grassmann", "realform", "--pq", "2,1")
        assert code == 2 and json.loads(out) == {
            "error": "request",
            "message": "realform needs --at: a real point or inf",
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: [],
            lambda doc: "module",
            lambda doc: {**doc, "casimir": doc["casimir"][:2]},
            lambda doc: {**doc, "degree_rule": {**doc["degree_rule"], "anchor": "0"}},
            lambda doc: {**doc, "transitions": {**doc["transitions"], "pivot": 0.5}},
            lambda doc: {**doc, "degree_rule": []},
            lambda doc: {**doc, "casimir": 7},
            lambda doc: {**doc, "casimir": "".join(doc["casimir"])},
            lambda doc: {**doc, "casimir": {"1": "1", "2": "2", "3": "3"}},
        ],
        ids=["list", "string", "two-casimir", "string-anchor", "float-pivot",
             "list-degree-rule", "scalar-casimir", "string-casimir", "object-casimir"],
    )
    @pytest.mark.parametrize("action", ["validate", "locus", "twist"])
    def test_malformed_module_document(self, capsys, module_file, tmp_path, mutate, action):
        with open(module_file) as fh:
            doc = json.load(fh)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(doc)))
        _request_error(capsys, "module", action, "--module", str(bad))

    def test_empty_window(self, capsys, module_file):
        _request_error(capsys, "module", "validate", "--module", module_file, "--window", "5..-5")
        _request_error(capsys, "classify", "construct", "--weights", "even", "--window", "3..1")

    def test_single_weight_window_is_accepted(self, capsys, module_file):
        code, out = invoke(capsys, "module", "validate", "--module", module_file, "--window", "0..0")
        assert code in (0, 1) and "error" not in json.loads(out)

    @pytest.mark.parametrize("window", ["-10..-2", "-24..24", "-200..200"])
    @pytest.mark.parametrize("pair, n", [("pivot", 2), ("override", 40)])
    def test_iso_reads_beyond_the_window(self, tmp_path, pair, n, window):
        """Two even documents (Casimir 0,0,1, flat degrees, the unit A up and
        B down) that differ at n: in the pivot (0 or 100), or in an override
        at 40.  Every window finds them non-isomorphic at n."""
        paths = []
        for name, doc in (("first", _flat_even()), ("second", ISO_BEYOND_WINDOW[pair])):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        for a, b in (paths, paths[::-1]):
            code, out = _outcome(["module", "iso", "--module", str(a), "--other", str(b), "--window", window])
            doc = json.loads(out)
            assert code == 1 and doc["isomorphic"] is False and doc["obstruction"] == f"A_{n} is not a scalar multiple"
            lo, hi = (int(x) for x in window.split(".."))
            assert all(lo <= int(m) <= hi and abs(int(m)) <= n for m in doc["scalars"])


    def test_iso_without_other_names_the_flag(self, capsys, module_file):
        code, out = invoke(capsys, "module", "iso", "--module", module_file)
        assert code == 2 and json.loads(out) == {
            "error": "request",
            "message": "module iso needs --other, the module to compare with",
        }

    @pytest.mark.parametrize("weights, n", [("even", 1), ("lowest:3", -5)])
    def test_degree_override_at_an_absent_weight(self, capsys, tmp_path, weights, n):
        """A degree override at an n outside the weight set is a violation at
        n, as an override at an absent transition is."""
        code, out = invoke(capsys, "classify", "construct", "--weights", weights, "--class", "III",
                           "--casimir", "0,0,1" if weights == "even" else "0,3,0")
        assert code == 0
        doc = json.loads(out)
        doc["degree_rule"]["overrides"] = [[n, 7]]
        path = tmp_path / "absent.json"
        path.write_text(json.dumps(doc))
        code, report = invoke_json(capsys, "module", "validate", "--module", str(path))
        assert code == 1 and report == {
            "ok": False,
            "violations": [{"where": str(n), "message": "degree override at an absent weight"}],
        }
        code, out = invoke_json(capsys, "module", "fiber", "--module", str(path), "--at", "1")
        assert code == 3 and out["error"] == "NotValidated"


class TestDocumentMemo:
    """Each distinct document text is parsed once per process, by content:
    a rewritten file is read anew, and a malformed text is never kept."""

    def test_a_rewritten_file_is_read_anew(self, capsys, module_file):
        with open(module_file) as fh:
            good = fh.read()
        doc = json.loads(good)
        doc["transitions"]["overrides"] = [{"n": 2, "A": {"0": "2"}, "B": {"0": "1"}}]  # 4 A_2 B_2 != q_2
        codes = []
        for text in (good, json.dumps(doc), good):
            with open(module_file, "w") as fh:
                fh.write(text)
            codes.append(invoke(capsys, "module", "validate", "--module", module_file)[0])
        assert codes == [0, 1, 0]

    def test_at_most_eight_documents_are_kept(self, capsys, module_file, tmp_path):
        """The oldest text goes first."""
        with open(module_file) as fh:
            doc = json.load(fh)
        cli._documents.clear()
        texts = []
        for d in range(20):
            path = tmp_path / f"twist{d}.json"
            texts.append(json.dumps({**doc, "degree_rule": {**doc["degree_rule"], "anchor_deg": d}}))
            path.write_text(texts[-1])
            assert invoke(capsys, "module", "validate", "--module", str(path))[0] == 0
        assert list(cli._documents) == texts[12:]

    def test_a_malformed_document_is_never_kept(self, capsys, module_file, tmp_path):
        with open(module_file) as fh:
            doc = json.load(fh)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "transitions": {**doc["transitions"], "pivot": 0.5}}))
        cli._documents.clear()
        outs = [invoke(capsys, "module", "validate", "--module", str(bad)) for _ in range(3)]
        assert outs == [(2, json.dumps({
            "error": "request",
            "message": f"cannot load module from {str(bad)!r}: weights, degrees and indices must be integers",
        }, separators=(",", ":")) + "\n")] * 3
        assert len(cli._documents) == 0

    def test_printed_documents_are_read_back_from_the_memo(self, module_file, tmp_path, monkeypatch):
        """``swap | iso --other -``, ``twist | validate --module -`` and
        ``construct | validate --module -`` in one process answer as with the
        memo cleared before every request, and validate each distinct
        document once: the printed text, newline included, is kept with the
        module that proved it valid."""
        from hcfam import hcmod

        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(_flat_even()))
        pipelines = [
            (["module", "swap", "--module", str(flat), "--indices", "0,2"],
             ["module", "iso", "--module", str(flat), "--other", "-"]),
            (["module", "swap", "--module", str(flat), "--indices", "0"],
             ["module", "iso", "--module", str(flat), "--other", "-"]),
            (["module", "twist", "--module", module_file, "--degree", "-2"],
             ["module", "validate", "--module", "-", "--window", "-4..4"]),
            (["classify", "construct", "--weights", "lowest:2", "--class", "I:2", "--casimir", "0,0,0"],
             ["module", "validate", "--module", "-"]),
        ]
        validated = []
        real = hcmod.validate

        def counting(module, window=hcmod.DEFAULT_WINDOW):
            if hcmod._VALID not in vars(module):
                validated.append(json.dumps(module.to_json(), sort_keys=True))
            return real(module, window)

        for owner in (hcmod, cli, classify):
            monkeypatch.setattr(owner, "validate", counting)

        def outcomes(cold):
            cli._documents.clear()
            out = []
            for first, second in pipelines:
                for argv in (first, second):
                    if cold:
                        cli._documents.clear()
                    monkeypatch.setattr(sys, "stdin", io.StringIO(out[-1][1] if argv is second else ""))
                    out.append(_outcome(argv))
            return out

        cold = outcomes(cold=True)
        assert [code for code, _ in cold] == [0, 1, 0, 0, 0, 0, 0, 0]
        validated.clear()
        assert outcomes(cold=False) == cold
        assert len(validated) == len(set(validated)) == 3  # flat, the module file and the constructed module


class TestWindowOnlyLists:
    """The verdict of a request is a function of its documents; the window
    only bounds what it lists."""

    @pytest.fixture()
    def flat_file(self, tmp_path):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(_flat_even(down="A")))  # anchor and pivot 0, the unit A on both tails
        return str(path)

    def test_validate_on_a_window_without_the_anchor_and_pivot(self, flat_file):
        assert _outcome(["module", "validate", "--module", flat_file, "--window", "10..20"]) == (
            0, '{"ok":true,"violations":[]}\n')

    def test_construct_with_the_extremal_weight_beyond_the_window(self):
        code, out = _outcome(["classify", "construct", "--weights", "even", "--class", "I:40", "--casimir", "0,1/3,1"])
        assert code == 0 and json.loads(out)["transitions"]["pivot"] == 40

    def test_swap_beyond_the_window(self, flat_file):
        code, out = _outcome(["module", "swap", "--module", flat_file, "--indices", "40"])
        assert code == 0 and [o["n"] for o in json.loads(out)["transitions"]["overrides"]] == [40]

    @pytest.mark.parametrize("argv", [
        ["classify", "construct", "--weights", "even", "--class", "I:40", "--casimir", "0,1/3,1"],
        ["module", "twist", "--module", "@flat", "--degree", "3"],
        ["module", "swap", "--module", "@flat", "--indices", "40,-2"],
    ], ids=["construct", "twist", "swap"])
    def test_window_is_accepted_and_changes_nothing(self, flat_file, argv):
        argv = [flat_file if a == "@flat" else a for a in argv]
        outcomes = {_outcome([*argv, "--window", w]) for w in ("-6..6", "10..20", "40..40", HUGE_WINDOW)}
        assert outcomes == {_outcome(argv)} and next(iter(outcomes))[0] == 0

    @pytest.mark.parametrize("argv, code", [
        (["validate"], 0),
        (["fiber", "--at", "1/3"], 0),
        (["fiber", "--at", "0"], 0),
        (["fiber", "--at", "inf"], 1),
        (["iso", "--other", "@far"], 0),
        (["twist", "--degree", "2"], 0),
        (["swap", "--indices", f"{10**20},-{10**20}"], 0),
    ], ids=["validate", "fiber", "fiber-0", "fiber-inf", "iso", "twist", "swap"])
    def test_data_at_ten_to_the_twenty_is_read_as_runs(self, tmp_path, argv, code):
        """Overrides and degree overrides at +-10^20: each answer reads runs
        between them, so it comes without walking the weights between."""
        far = 10**20
        doc = _flat_even(down="A")
        doc["degree_rule"]["overrides"] = [[-far, 0], [far, 0]]
        doc["transitions"]["overrides"] = [
            {"n": n, "A": {"0": "2"}, "B": {"0": "1/8", "1": str(Fraction(-n * (n + 2), 8))}} for n in (-far, far)]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "@far" else a for a in argv]
        start = time.perf_counter()
        got, out = _outcome(["module", argv[0], "--module", str(path), *argv[1:]])
        assert time.perf_counter() - start < 1
        assert got == code and "error" not in json.loads(out)


HUGE_WINDOW = "-99999999999999999999..99999999999999999999"


class TestWindowLimit:
    """Requests that read the window as runs take any window; those that may
    list one entry per transition refuse one of more than MAX_LISTED."""

    @pytest.mark.parametrize("argv, code", [
        (["module", "validate"], 0),
        (["module", "twist", "--degree", "2"], 0),
        (["module", "swap", "--indices", "2"], 3),
        (["module", "fiber", "--at", "3"], 2),
        (["module", "locus"], 2),
        (["module", "iso", "--other", "@module"], 2),
    ])
    def test_huge_window(self, capsys, module_file, argv, code):
        argv = [module_file if a == "@module" else a for a in argv]
        got, out = invoke(capsys, *argv, "--module", module_file, "--window", HUGE_WINDOW)
        assert got == code and len(out.splitlines()) == 1
        if code == 2:
            assert json.loads(out)["error"] == "request"

    def test_huge_window_classify(self, capsys):
        common = ["--weights", "odd", "--class", "I:1", "--casimir", "1,2,3", "--window", HUGE_WINDOW]
        code, doc = invoke_json(capsys, "classify", "construct", *common)
        assert code == 0 and doc["transitions"]["pivot"] == 1
        code, doc = invoke_json(capsys, "classify", "probe", *common)
        assert code == 2 and doc["error"] == "request"

    def test_limit_counts_transitions_and_violations(self, capsys, monkeypatch, module_file, tmp_path):
        monkeypatch.setattr(cli, "MAX_LISTED", 4)
        for window, code in (("-4..4", 2), ("-4..2", 1), ("-3..5", 1)):  # 5, 4 and 4 transitions
            got, doc = invoke_json(capsys, "module", "fiber", "--module", module_file, "--at", "1/8", "--window", window)
            assert got == code and (code == 2) is ("error" in doc), window
        # Slope 2 breaks each transition from the anchor at 0 up twice: the
        # step and the bound of the unit B; beyond the window the upper tail
        # reports both once.
        with open(module_file) as fh:
            doc = json.load(fh)
        doc["degree_rule"]["slope_up"] = 2
        steep = tmp_path / "steep.json"
        steep.write_text(json.dumps(doc))
        code, doc = invoke_json(capsys, "module", "validate", "--module", str(steep), "--window", "-6..0")
        assert code == 1 and [v["where"] for v in doc["violations"]] == ["0", "0", "tail-up", "tail-up"]
        code, doc = invoke_json(capsys, "module", "validate", "--module", str(steep), "--window", "-6..2")
        assert code == 2 and doc["error"] == "request"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["module", "bogus", "--module", "doc.json"],
            ["module", "validate"],
            ["module", "twist", "--module", "doc.json", "--degree", "1.5"],
            ["grassmann", "nonsense"],
            ["nosuchcommand"],
            [],
        ],
        ids=["unknown-action", "missing-module", "non-integer-degree", "unknown-grassmann-action",
             "unknown-subcommand", "empty"],
    )
    def test_usage_error_is_one_request_line(self, capsys, argv):
        _request_error(capsys, *argv)

    def test_usage_text_stays_on_stderr(self, capsys):
        assert run(["module", "validate"]) == 2
        captured = capsys.readouterr()
        assert "usage:" in captured.err and "usage:" not in captured.out


class TestSubalgAt:
    def test_checks_the_fiber_at_t(self, capsys, monkeypatch):
        from hcfam.grassfam import GrassmannPencil, pencil_basis

        seen = []
        real = grassfam.verify_subalgebra
        monkeypatch.setattr(grassfam, "verify_subalgebra", lambda basis: seen.append(basis) or real(basis))
        code, doc = invoke_json(capsys, "grassmann", "subalg", "--pq", "2,1", "--det-one", "--at", "-3/2")
        assert code == 0 and doc == {"subalgebra": True}
        assert seen == [pencil_basis(GrassmannPencil(2, 1, det_one=True), GaussianRational(Fraction(-3, 2)))]
        code, doc = invoke_json(capsys, "grassmann", "subalg", "--pq", "2,1", "--det-one")
        assert code == 0 and seen[1] == pencil_basis(GrassmannPencil(2, 1, det_one=True))

    def test_fiber_witness_comes_from_the_fiber(self, capsys, monkeypatch):
        # A fiber that is not bracket-closed: [(E01, E01), (E10, E10)] = (H, H)
        # lies outside its span, so the verdict must come from this basis.
        o = GaussianRational(1)

        def broken(pencil, t=None):
            assert t == GaussianRational(2)
            return [{(0, 0, 1): o, (1, 0, 1): o}, {(0, 1, 0): o, (1, 1, 0): o}]

        monkeypatch.setattr(grassfam, "pencil_basis", broken)
        code, doc = invoke_json(capsys, "grassmann", "subalg", "--pq", "1,1", "--at", "2")
        h = [["1", "0"], ["0", "-1"]]  # the bracket (H, H) meets no pivot column of the span
        assert code == 1 and doc == {"subalgebra": False, "witness": [0, 1], "residual": {"first": h, "second": h}}

    @pytest.mark.parametrize("at", ["inf", "infinity", "1/0", "x", "2+"])
    def test_infinite_or_malformed_t_is_request_error(self, capsys, at):
        _request_error(capsys, "grassmann", "subalg", "--pq", "1,1", "--at", at)


def _outcome(argv):
    """(exit code, stdout) of one in-process request, stderr discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue()


class TestParserReuse:
    def test_one_parser_answers_like_a_fresh_parser_per_request(self, module_file, tmp_path, monkeypatch):
        twisted = tmp_path / "twisted.json"
        twisted.write_text(_outcome(["module", "twist", "--module", module_file, "--degree", "1"])[1])
        requests = [
            ["module", "iso", "--module", module_file, "--other", str(twisted)],
            ["module", "validate", "--module", module_file],
            ["module", "iso", "--module", module_file],
            ["module", "validate", "--module", module_file, "--window", "-4..4"],
            ["module", "twist", "--module", module_file, "--degree", "x"],
            ["module", "twist", "--module", module_file],
            ["grassmann", "bogus"],
            ["grassmann", "subalg", "--pq", "2,1", "--at", "-2"],
            ["grassmann", "subalg", "--pq", "2,1"],
            ["family", "fiber", "--kind", "contraction", "--at", "inf"],
            ["family", "fiber", "--kind", "deformation"],
            ["classify", "admissible", "--weights", "even", "--casimir", "0,0,1"],
            ["classify", "admissible", "--weights", "lowest:1"],
        ]
        builds = []
        real_build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
        fresh = []
        for argv in requests:
            cli._parser.cache_clear()
            fresh.append(_outcome(argv))
        cli._parser.cache_clear()
        builds.clear()
        reused = [_outcome(argv) for argv in requests]
        assert len(builds) == 1
        assert reused == fresh
        assert [code for code, _ in reused] == [1, 0, 2, 0, 2, 0, 2, 0, 0, 0, 0, 0, 1]


def _fresh_process(script: str, *args: str):
    """Run ``script`` in a new interpreter with warnings on (``-X dev``) and
    this checkout's ``hcfam`` on the path; returns (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(hcfam.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", script, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


#: One request per ``module`` action, flags after the action.
_MODULE_ACTIONS = [["validate"], ["fiber", "--at", "1"], ["locus"], ["iso", "--other", "@doc"],
                   ["twist", "--degree", "2"], ["swap", "--indices", "0,2"]]

_MODULE_REQUESTS = """
import contextlib, io, json, sys
from hcfam import cli

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "hcfam")

outcomes = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outcomes.append([cli.run(argv), out.getvalue()])
    if argv[0] == "module":
        after_module = loaded()
print(json.dumps({"outcomes": outcomes, "module": after_module, "classify": loaded()}))
"""

_FIRST_REQUEST = """
import sys
from hcfam import cli

sys.exit(cli.run(sys.argv[1:]))
"""


_LOADED_BY_ONE_REQUEST = """
import contextlib, io, json, sys
from hcfam import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(name for name in sys.modules if name.partition(".")[0] == "hcfam")]))
"""


class TestLayerLoading:
    def test_module_validate_imports_exactly_its_layers(self, tmp_path):
        """One ``module validate`` request in a fresh process imports
        ``cli``, ``hcmod`` and ``scalars`` of ``hcfam`` and nothing else: no
        ``linalg``, ``liefam``, ``grassfam``, ``sl2fam``, ``classify`` or
        ``acceptance``, whose import its start-up would otherwise pay."""
        from hcfam.hcmod import DegreeProfile, HCModuleFamily, TailRule, TransitionData, WeightSet, casimir_triple

        rules = TransitionData(0, TailRule("A"), TailRule("A"))
        module = HCModuleFamily(WeightSet("even"), DegreeProfile(0, 0, 0, 0), rules, casimir_triple(0, 0, 1))
        doc = tmp_path / "module.json"
        doc.write_text(json.dumps(module.to_json()))
        code, out, err = _fresh_process(_LOADED_BY_ONE_REQUEST, "module", "validate", "--module", str(doc))
        assert (code, err) == (0, "")
        answer, loaded = json.loads(out)
        assert answer == 0
        assert loaded == ["hcfam", "hcfam.cli", "hcfam.hcmod", "hcfam.scalars"]

    def test_module_requests_load_only_scalars_and_hcmod(self, tmp_path):
        """Every ``module`` action in a fresh process loads ``scalars`` and
        ``hcmod`` only, answers as in this process, closes what it opens
        (``-X dev`` warns on stderr otherwise), and one ``classify``
        request adds ``classify`` alone."""
        from hcfam.hcmod import DegreeProfile, HCModuleFamily, TailRule, TransitionData, WeightSet, casimir_triple

        rules = TransitionData(0, TailRule("A"), TailRule("A"))
        module = HCModuleFamily(WeightSet("even"), DegreeProfile(0, 0, 0, 0), rules, casimir_triple(0, 0, 1))
        doc = tmp_path / "module.json"
        doc.write_text(json.dumps(module.to_json()))
        requests = [["module", action, "--module", str(doc), *[str(doc) if a == "@doc" else a for a in flags]]
                    for action, *flags in _MODULE_ACTIONS]
        requests.append(["classify", "construct", "--weights", "odd", "--casimir", "1,2,3"])
        code, out, err = _fresh_process(_MODULE_REQUESTS, json.dumps(requests))
        assert (code, err) == (0, "")
        got = json.loads(out)
        assert [tuple(o) for o in got["outcomes"]] == [_outcome(argv) for argv in requests]
        assert [c for c, _ in got["outcomes"]] == [0] * 7
        assert got["module"] == ["hcfam", "hcfam.cli", "hcfam.hcmod", "hcfam.scalars"]
        assert set(got["classify"]) - set(got["module"]) == {"hcfam.classify"}

    def test_domain_errors_are_the_ten_exit_3_errors(self):
        for info in pkgutil.iter_modules(hcfam.__path__):
            __import__(f"hcfam.{info.name}")
        found, todo = set(), [DomainError]
        while todo:
            for sub in todo.pop().__subclasses__():
                found.add(sub.__name__)
                todo.append(sub)
        assert found == {
            "InadmissibleCasimir", "IncompatibleClass", "NotValidated", "DegreeBoundViolated", "WeightNotPresent",
            "RankDropAtLimit", "NoIsomorphismFound", "NotALieAlgebra", "PoleAtPoint", "UnsplitQuadratic",
        }

    def test_domain_error_of_a_layer_loaded_on_demand_exits_3(self):
        code, out, err = _fresh_process(_FIRST_REQUEST, "classify", "construct", "--weights", "finite:2",
                                        "--casimir", "0,0,1")
        assert (code, err) == (3, "")
        assert json.loads(out)["error"] == "InadmissibleCasimir"


# -- fuzzing the request contract ----------------------------------------------

# Well-formed values of each flag, then malformed ones (drawn less often).
_FLAG_VALUES = {
    "--algebra": (["sl2", "gl2"], ["so3"]),
    "--kind": (["constant", "scaled", "contraction", "deformation"], ["x"]),
    "--power": (["1", "2"], ["-1", "0", "x"]),
    "--at": (["0", "1", "-1", "1/2", "-2/3", "2+i", "i", "inf"], ["1/0", "x", ""]),
    "--exponent": (["1", "2"], ["0", "z"]),
    "--preset": (["pullback-deformation", "p-scaling-embedding", "identity-contraction-deformation"], ["x"]),
    "--module": (["@doc"], ["/no/such/file.json", "@missing"]),
    "--other": (["@doc", "@other"], ["/no/such/file.json"]),
    "--window": (["-4..4", "0..0", "-2..3", "-6..6", "-99999999999999999999..99999999999999999999",
                  "3..99999999999999999999"], ["5..-5", "x", "1..2..3"]),
    "--degree": (["-1", "0", "2"], ["1.5"]),
    "--indices": (["0", "0,2", "-2,2"], ["", "a"]),
    "--weights": (["even", "odd", "lowest:1", "highest:-1", "finite:2"], ["banana", "lowest:x"]),
    "--class": (["I:1", "II:1", "III", "IV"], ["V", "I:x"]),
    "--casimir": (["0,0,1", "1,2,3", "0,0,0", "1,-2,1/4"], ["1/0,0,1", "1,2", "a,b,c"]),
    "--trials": (["1", "2"], ["-1", "0"]),
    "--seed": (["0", "3"], ["x"]),
    "--pq": (["1,1", "1,2", "2,1"], ["0,1", "2", "a,b"]),
    "--boundary": (["0", "inf", "1"], ["x"]),
    "--det-one": ([None], [None]),
}

# Actions and flags of each subcommand.  ``verify`` prints one line per
# criterion before its JSON line, so it is outside the one-line contract and
# not fuzzed here.
_REQUIRED = {"module": "--module", "classify": "--weights"}
_COMMANDS = {
    "family": (["build", "jacobi", "fiber", "basechange", "morphcheck"],
               ["--algebra", "--kind", "--power", "--at", "--exponent", "--preset"]),
    "module": (["validate", "fiber", "locus", "iso", "twist", "swap"],
               ["--other", "--window", "--at", "--degree", "--indices"]),
    "classify": (["admissible", "construct", "report", "probe"],
                 ["--class", "--casimir", "--window", "--trials", "--seed"]),
    "grassmann": (["pencil", "limit", "subalg", "closure", "compare", "realform"],
                  ["--pq", "--det-one", "--boundary", "--at"]),
}

_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["0", "1", "1/0", "x", "B"]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["kind", "unit", "n"]), inner, max_size=2)),
    max_leaves=4,
)


@functools.lru_cache(maxsize=None)
def _base_document() -> dict:
    code, out = _outcome(["classify", "construct", "--weights", "odd", "--class", "I:1", "--casimir", "1,2,3",
                          "--window", "-6..6"])
    assert code == 0
    return json.loads(out)


@st.composite
def _documents(draw):
    """A valid module document, or one with a field replaced or removed."""
    doc = json.loads(json.dumps(_base_document()))
    if draw(st.booleans()):
        return doc
    section = draw(st.sampled_from(sorted(doc)))
    target = doc
    if isinstance(doc[section], dict) and draw(st.booleans()):
        target, section = doc[section], draw(st.sampled_from(sorted(doc[section])))
    if draw(st.booleans()):
        del target[section]
    else:
        target[section] = draw(_json_values)
    if draw(st.integers(0, 7)) == 0 and isinstance(doc.get("casimir"), list) and doc["casimir"]:
        doc["casimir"][draw(st.integers(0, len(doc["casimir"]) - 1))] = draw(st.sampled_from(["1/0", "2/0*i", "1e5000"]))
    if draw(st.integers(0, 7)) == 0 and "casimir" in doc:  # each iterates like a list of three
        doc["casimir"] = draw(st.sampled_from(["123", {"1": "1", "2": "2", "3": "3"}]))
    return draw(st.sampled_from([doc, doc, doc, [doc], "module"]))


@st.composite
def _requests(draw):
    """Mostly well-formed argv for one subcommand; now and then a foreign
    subcommand, action or flag, or a stray token."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    actions, flags = _COMMANDS[command]
    if draw(st.integers(0, 7)) == 0:
        command = draw(st.sampled_from([*_COMMANDS, "bogus"]))
    if draw(st.integers(0, 7)) == 0:
        actions, flags = ["x", *(a for acts, _ in _COMMANDS.values() for a in acts)], sorted(_FLAG_VALUES)
    argv = [command, draw(st.sampled_from(actions))]
    chosen = draw(st.lists(st.sampled_from(flags), max_size=5, unique=True))
    if command in _REQUIRED and draw(st.integers(0, 7)):
        chosen.insert(0, _REQUIRED[command])
    for flag in chosen:
        good, bad = _FLAG_VALUES[flag]
        value = draw(st.sampled_from(bad if draw(st.integers(0, 5)) == 0 else good))
        argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 7)) == 0:
        junk = draw(st.text(alphabet="abc0123456789.,:/", min_size=1, max_size=5))
        argv.insert(draw(st.integers(0, len(argv))), junk)
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help", "--he"])))
    return argv, draw(_documents()), draw(_documents())


def _with_documents(argv, doc, other, tmp):
    """argv with @doc and @other replaced by files in tmp holding doc and other."""
    paths = {"@doc": os.path.join(tmp, "doc.json"), "@other": os.path.join(tmp, "other.json")}
    for name, content in (("@doc", doc), ("@other", other)):
        with open(paths[name], "w") as fh:
            json.dump(content, fh)
    return [paths.get(a, a) for a in argv]


class TestRequestFuzz:
    @given(_requests())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_and_one_json_line(self, request_case):
        with tempfile.TemporaryDirectory() as tmp:
            code, out = _outcome(_with_documents(*request_case, tmp))
        assert code in (0, 1, 2, 3)
        lines = out.splitlines()
        assert len(lines) == 1 and out.endswith("\n")
        json.loads(lines[0])


def _merge_dash_values_by_index(argv):
    """``cli._merge_dash_values`` as an index walk, the form it had before."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] in cli._DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


@contextlib.contextmanager
def _through_the_top_parser():
    """Every request parsed by the top parser, which hands what follows the
    subcommand to the subcommand's parser: the parse before requests went to
    the subcommand's parser directly."""
    with mock.patch.object(cli, "_parse", lambda argv: cli._parser().parse_args(argv)), \
            mock.patch.object(cli, "_merge_dash_values", _merge_dash_values_by_index):
        yield


def _malformed_forms(doc):
    """One request of each malformed form the fuzzer draws: no or an unknown
    subcommand, an unknown or foreign action, a foreign flag, a missing
    required flag, a flag without its value or with a bad one, a stray token,
    and -h, --help or --he in front, after the subcommand or at the end."""
    m = ["module", "validate", "--module", doc]
    return [
        [], ["bogus"], ["bogus", "validate"], ["-x"], ["-h"], ["--help"], ["--he"], ["-h", "module"], ["module"],
        ["module", "x", "--module", doc], ["module", "build", "--module", doc], [*m, "--pq", "1,1"],
        ["module", "validate"], ["classify", "admissible"], [*m, "--window"], [*m, "--window", "5..-5"],
        [*m, "--window", "-6..6", "--at"], [*m, "--at", "-1"], [*m, "--at", "1/0"], [*m, "--window", "--at", "-1"],
        ["module", "twist", "--module", doc, "--degree", "1.5"], [*m, "abc"], ["abc", *m], ["module", "abc", *m[1:]],
        [*m, "-h"], [*m, "--he"], ["module", "--help"], ["classify", "--he"], ["module", "-h", "validate"],
        ["grassmann", "limit", "--pq", "0,1", "--help"], ["grassmann", "subalg", "--det-one", "x"],
        ["verify", "--profile", "x"], ["verify", "extra"], ["family", "fiber", "--kind"], [*m, "--", "x"],
        ["module", "validate", f"--module={doc}", "--windo", "-6..6"], [*m, "--module", doc, "-1"],
    ]


class TestDirectDispatch:
    """A request that names a subcommand goes to that subcommand's parser
    alone; every request answers as through the top parser."""

    def test_corpus_requests_answer_alike(self, tmp_path):
        from test_module_output import _requests as module_corpus

        argvs = [argv.split() for argv, _, _ in PAIR_OUTPUT_CORPUS] + [argv for _, argv in module_corpus(str(tmp_path))]
        direct = [_outcome(argv) for argv in argvs]
        with _through_the_top_parser():
            assert [_outcome(argv) for argv in argvs] == direct

    def test_malformed_requests_answer_alike(self, module_file):
        forms = _malformed_forms(module_file)
        direct = [_outcome(argv) for argv in forms]
        with _through_the_top_parser():
            assert [_outcome(argv) for argv in forms] == direct
        assert {code for code, _ in direct} == {0, 2}

    @given(_requests())
    @settings(max_examples=100, deadline=None)
    def test_fuzzed_requests_answer_alike(self, request_case):
        with tempfile.TemporaryDirectory() as tmp:
            argv = _with_documents(*request_case, tmp)
            direct = _outcome(argv)
            with _through_the_top_parser():
                assert _outcome(argv) == direct

    def test_leftover_arguments_name_the_program(self, module_file):
        code, out = _outcome(["module", "validate", "--module", module_file, "abc", "--bogus"])
        assert code == 2 and json.loads(out)["message"] == "hcfam: unrecognized arguments: abc --bogus"
