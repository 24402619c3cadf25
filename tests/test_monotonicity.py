import json
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasieq.monotonicity as monotonicity
from quasieq import generator
from quasieq.errors import DimensionError, InputError
from quasieq.generator import GeneratorConfig, generate_instances
from quasieq.linalg import frobenius_norm, is_positive_definite
from quasieq.monotonicity import (
    DEFAULT_TOL,
    check_paramonotone,
    compute_a_hat,
    paramonotonicity_report,
    screen,
)
from quasieq.oracles import AffineFractionalInstance, affine_vi_instance
from quasieq.rng import UniformStream
from quasieq.sets import BoxSet


def _inst(A, A1, b1, c, d, n=2):
    box = BoxSet.uniform(n, 1.0, 3.0)
    return AffineFractionalInstance(
        A=A, b=np.zeros(n), A1=A1, b1=b1, c=c, d=d, box=box
    )


def _numpy_certificate(a_hat, tol=monotonicity.DEFAULT_TOL):
    """(verdict, min eigenvalue of S, rank S, rank A_hat) from numpy's
    LAPACK eigvalsh and svd, decided with the same rule: S PSD within
    tol ||A_hat||_F and rank S = rank A_hat, both ranks cut at
    tol sigma_max(A_hat)."""
    sym = 0.5 * (a_hat + a_hat.T)
    min_eig = np.linalg.eigvalsh(sym)[0]
    sv_sym, sv = (np.linalg.svd(m, compute_uv=False) for m in (sym, a_hat))
    ranks = [int(np.count_nonzero(s > tol * sv[0])) for s in (sv_sym, sv)]
    slack = tol * np.linalg.norm(a_hat)
    return bool(min_eig >= -slack) and ranks[0] == ranks[1], min_eig, *ranks


def _assert_agrees_with_numpy(report):
    verdict, min_eig, *ranks = _numpy_certificate(report.a_hat)
    assert (report.verdict, report.rank_sym, report.rank_a_hat) == (verdict, *ranks)
    assert abs(report.min_eigenvalue - min_eig) <= report.tol


# (A_hat, rank S, rank A_hat, verdict)
REPORT_CASES = pytest.mark.parametrize(
    "matrix, rank_sym, rank_a_hat, verdict",
    [
        ([[0.0, 0.0], [0.0, 1.0]], 1, 1, True),
        # S = 0 is PSD, but ker S is the whole plane while A_hat is invertible
        ([[0.0, 1.0], [-1.0, 0.0]], 0, 2, False),
        # S = diag(1, 0) is PSD with rank 1 < rank A_hat = 2
        ([[1.0, 1.0], [-1.0, 0.0]], 1, 2, False),
        # negative definite at any scale: the slack has no floor at 1
        ([[-1e-9, 0.0], [0.0, -1e-9]], 2, 2, False),
        ([[-1e-200, 0.0], [0.0, -1e-200]], 2, 2, False),
    ],
    ids=["psd-diagonal", "rotation", "psd-sym-part-of-lower-rank",
         "negative-definite-1e-9", "negative-definite-1e-200"],
)


def _from_a_hat(a_hat):
    """An instance whose A_hat is a_hat: A1 = I, b1 = c = 0, d = 1."""
    n = len(a_hat)
    return _inst(a_hat, np.eye(n), np.zeros(n), np.zeros(n), 1.0, n=n)


def _shifted_pd_one_by_one(A, A1, b1, c, d, k):
    """Per candidate, written one matrix at a time from compute_a_hat:
    S + k t I positive definite, t = tol max(1, ||A_hat||_F).  k = 2 is
    the negation of the screen's rule-out, k = -2 its accept test."""
    got = []
    for i in range(len(d)):
        a_hat = compute_a_hat(SimpleNamespace(A=A[i], A1=A1[i], b1=b1[i], c=c[i], d=d[i]))
        shift = k * DEFAULT_TOL * max(1.0, frobenius_norm(a_hat))
        got.append(is_positive_definite(0.5 * (a_hat + a_hat.T) + shift * np.eye(len(a_hat))))
    return np.array(got, dtype=bool)


def _screened(inst) -> bool:
    """The stacked screen's rule-out on one instance's fields."""
    return bool(screen(inst.A, inst.A1, inst.b1, inst.c, inst.d)[0])


@pytest.fixture
def identity_case():
    return _inst(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2), 1.0)


@pytest.fixture
def rank_one_case():
    e1 = np.array([1.0, 0.0])
    return _inst(np.eye(2), np.eye(2), e1, e1, 1.0)


@pytest.fixture
def negated_case():
    return _inst(np.eye(2), -np.eye(2), np.zeros(2), np.zeros(2), 1.0)


class TestComputeAHat:
    def test_identity_case(self, identity_case):
        np.testing.assert_array_equal(compute_a_hat(identity_case), np.eye(2))

    def test_rank_one_update(self, rank_one_case):
        np.testing.assert_allclose(
            compute_a_hat(rank_one_case), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_scalar_case(self):
        inst = _inst([[2.0]], [[3.0]], [4.0], [1.0], 5.0, n=1)
        np.testing.assert_array_equal(compute_a_hat(inst), [[22.0]])

    def test_linear_in_A(self, rng):
        for inst in generate_instances(GeneratorConfig(n=4, count=5, seed=8)):
            doubled = AffineFractionalInstance(
                A=2.0 * inst.A, b=inst.b, A1=inst.A1, b1=inst.b1, c=inst.c,
                d=inst.d, box=inst.box,
            )
            np.testing.assert_allclose(
                compute_a_hat(doubled), 2.0 * compute_a_hat(inst), atol=1e-12
            )


class TestCheckParamonotone:
    def test_identity_is_paramonotone(self, identity_case):
        report = check_paramonotone(identity_case)
        assert report.verdict
        assert report.min_eigenvalue == pytest.approx(1.0)
        assert report.rank_sym == 2
        assert report.rank_a_hat == 2

    def test_rank_deficient_psd_is_paramonotone(self, rank_one_case):
        report = check_paramonotone(rank_one_case)
        assert report.verdict
        assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert report.rank_sym == 1
        assert report.rank_a_hat == 1

    def test_negative_definite_is_not(self, negated_case):
        report = check_paramonotone(negated_case)
        assert not report.verdict
        assert report.min_eigenvalue == pytest.approx(-1.0)

    def test_symmetric_part_exactly_symmetric(self):
        for inst in generate_instances(GeneratorConfig(n=5, count=5, seed=9)):
            report = check_paramonotone(inst)
            np.testing.assert_array_equal(report.a_hat_sym, report.a_hat_sym.T)
            np.testing.assert_allclose(
                report.a_hat_sym, 0.5 * (report.a_hat + report.a_hat.T), atol=1e-15
            )

    def test_verdict_stable_across_tolerance_decade(self, identity_case, negated_case):
        # min eigenvalues sit at +-1, far beyond 10x the one slack, so a
        # tolerance a decade either way could not flip either verdict
        for inst, verdict in ((identity_case, True), (negated_case, False)):
            report = check_paramonotone(inst)
            assert report.verdict is verdict
            assert abs(report.min_eigenvalue) > 10.0 * report.tol
        # a larger tol would change what the verdict means: at tol = 10
        # the slack 10 sqrt(2) passed F(x) = -x, whose S = -I, as PSD
        minus_identity = affine_vi_instance(-np.eye(2), np.ones(2), BoxSet.uniform(2, 1.0, 3.0))
        assert check_paramonotone(minus_identity).verdict is False

    def test_rejects_bad_tol(self, identity_case):
        # the tolerance is fixed at DEFAULT_TOL: no value, good or bad, is taken
        for tol in (1e-8, 0.0, np.inf, np.nan, True, "1e-8"):
            with pytest.raises(TypeError):
                check_paramonotone(identity_case, tol=tol)
            with pytest.raises(TypeError):
                paramonotonicity_report(np.eye(2), tol=tol)

    def test_agrees_with_numpy_on_generated_instances(self):
        for inst in generate_instances(GeneratorConfig(n=3, count=300, seed=12345)):
            report = check_paramonotone(inst)
            verdict, _, *ranks = _numpy_certificate(compute_a_hat(inst))
            assert (report.verdict, report.rank_sym, report.rank_a_hat) == (
                verdict, *ranks)

    @pytest.mark.parametrize("n, seed", [(20, 12345), (50, 601)])
    def test_agrees_with_numpy_at_certificate_sizes(self, n, seed):
        inst = generate_instances(GeneratorConfig(n=n, count=1, seed=seed))[0]
        _assert_agrees_with_numpy(check_paramonotone(inst))

    @pytest.mark.parametrize("psd_rank, verdict", [(24, True), (7, False)],
                             ids=["definite", "rank-7"])
    def test_psd_plus_skew_at_certificate_size(self, rng, psd_rank, verdict):
        # A_hat = B B' + K with K skew has S = B B'; at rank 7 S is PSD
        # but rank S = 7 < 24 = rank A_hat
        n = 24
        b = rng.normal(size=(n, psd_rank))
        raw = rng.normal(size=(n, n))
        a_hat = b @ b.T + (raw - raw.T)
        inst = _inst(a_hat, np.eye(n), np.zeros(n), np.zeros(n), 1.0, n=n)
        report = check_paramonotone(inst)
        assert report.min_eigenvalue >= -report.tol  # S is PSD at either rank
        assert report.verdict is verdict
        assert (report.rank_sym, report.rank_a_hat) == (psd_rank, n)
        _assert_agrees_with_numpy(report)

    def test_verdict_agrees_with_sampled_quadratic_forms(self, rng):
        # PSD of the symmetric part means v'Sv >= 0 for every direction;
        # sample many unit vectors and compare against the verdict's PSD leg
        for inst in generate_instances(GeneratorConfig(n=4, count=10, seed=10)):
            report = check_paramonotone(inst)
            v = rng.normal(size=(2000, 4))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            quads = np.einsum("ij,jk,ik->i", v, report.a_hat_sym, v)
            sampled_psd = bool(np.all(quads >= -1e-8))
            # report.tol is the absolute slack that the verdict applied
            eig_psd = report.min_eigenvalue >= -report.tol
            assert sampled_psd == eig_psd


def _seeded_matrices(per_kind=20):
    """n = 1-7: general, low-rank PSD plus skew, and PSD matrices."""
    gen = np.random.default_rng(5)
    for n in range(1, 8):
        for _ in range(per_kind):
            raw = gen.normal(size=(n, n))
            low = gen.normal(size=(n, gen.integers(0, n + 1)))
            yield raw
            yield low @ low.T + (raw - raw.T)
            yield raw @ raw.T


class TestScaleInvariance:
    """The slack and both rank cutoffs are relative to A_hat, so a verdict
    does not depend on its scale."""

    @pytest.mark.parametrize("s", [1e-200, 1.0, 1e200])
    def test_skew_up_to_rounding_is_not_paramonotone(self, s):
        # S is rounding noise of O(u ||A_hat||), below the one rank cutoff
        # tol sigma_max(A_hat), while A_hat is invertible
        gen = np.random.default_rng(3)
        raw = gen.normal(size=(4, 4))
        q, _ = np.linalg.qr(gen.normal(size=(4, 4)))
        report = paramonotonicity_report(s * (q @ (raw - raw.T) @ q.T))
        assert (report.rank_sym, report.rank_a_hat, report.verdict) == (0, 4, False)

    def test_tiny_non_monotone_vi(self):
        # F(x) = -1e-9 x + (1, 1) is not monotone on [1, 3]^2
        inst = affine_vi_instance(-1e-9 * np.eye(2), np.ones(2), BoxSet.uniform(2, 1.0, 3.0))
        assert check_paramonotone(inst).verdict is False

    def test_zero_a_hat_is_paramonotone(self):
        report = paramonotonicity_report(np.zeros((3, 3)))
        assert (report.verdict, report.tol, report.rank_sym, report.rank_a_hat) == (True, 0.0, 0, 0)

    def test_verdict_invariant_under_powers_of_two(self):
        verdicts = Counter()
        for a_hat in _seeded_matrices():
            got = {paramonotonicity_report(2.0**k * a_hat).verdict for k in (-60, -20, 0, 20, 60)}
            assert len(got) == 1
            verdicts[got.pop()] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0


class TestReportConstruction:
    @REPORT_CASES
    def test_report_from_matrix(self, matrix, rank_sym, rank_a_hat, verdict):
        report = paramonotonicity_report(np.array(matrix))
        assert report.rank_sym == rank_sym
        assert report.rank_a_hat == rank_a_hat
        assert report.verdict is verdict

    @pytest.mark.parametrize("matrix", [np.ones((2, 3)), np.ones(3), np.zeros((0, 0))],
                             ids=["2x3", "1-D", "0x0"])
    def test_rejects_a_hat_that_is_not_square(self, matrix):
        with pytest.raises(DimensionError, match="a_hat"):
            paramonotonicity_report(matrix)

    def test_python_types(self, identity_case):
        # a numpy slack would make min_eigenvalue >= -slack, and so the verdict, a numpy bool
        for report in (check_paramonotone(identity_case), paramonotonicity_report([[2.0]])):
            assert type(report.tol) is float
            assert type(report.verdict) is bool

    def test_entries_near_the_float_limit(self):
        # A_hat + A_hat' overflows; A_hat/2 + A_hat'/2 does not
        report = paramonotonicity_report([[1.5e308]])
        assert report.verdict is True
        assert report.min_eigenvalue == 1.5e308
        assert report.tol == pytest.approx(1.5e300, rel=1e-15)
        assert _screened(_from_a_hat([[1.5e308]])) is False
        # S = -1e308 I is not PSD, but a slack of inf would let it pass
        with np.errstate(over="ignore"), pytest.raises(InputError, match="float range"):
            paramonotonicity_report([[-1e308, 1e308], [-1e308, -1e308]])

    def test_rejects_zero_dimensional_instance(self):
        empty = AffineFractionalInstance(A=np.zeros((0, 0)), b=[], A1=np.zeros((0, 0)),
                                         b1=[], c=[], d=1.0, box=BoxSet([], []))
        with pytest.raises(DimensionError, match="a_hat"):
            check_paramonotone(empty)

    def test_two_decompositions_per_report(self, monkeypatch):
        # rank S comes from |eig(S)|, so S itself is decomposed only once
        calls = Counter()
        for name in ("symmetric_eigenvalues", "singular_values"):
            original = getattr(monotonicity, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(monotonicity, name, counted)
        for inst in generate_instances(GeneratorConfig(n=4, count=3, seed=11)):
            calls.clear()
            check_paramonotone(inst)
            assert calls == {"symmetric_eigenvalues": 1, "singular_values": 1}


class TestScreen:
    """The screen may only rule out what the report rejects."""

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.sampled_from([-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 3.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=100)
    def test_never_rejects_what_the_report_accepts(self, n, seed, k, scale):
        # A_hat = S + K with K skew and lambda_min(S) = k slack.  S and K
        # are orthogonal in the Frobenius inner product, so ||A_hat||_F,
        # and with it the slack, follows from K and the other eigenvalues.
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.normal(size=(n, n)))
        rest = scale * gen.uniform(0.5, 2.0, size=n - 1)
        raw = scale * gen.normal(size=(n, n))
        skew = raw - raw.T
        slack = DEFAULT_TOL * max(1.0, math.sqrt(np.sum(rest**2) + np.sum(skew**2)))
        a_hat = q @ np.diag([k * slack, *rest]) @ q.T + skew
        screened = _screened(_from_a_hat(a_hat))
        assert not (screened and paramonotonicity_report(a_hat).verdict)
        # S + 2 slack I has lambda_min = (k + 2) slack
        assert screened is (k < -2.0)

    @REPORT_CASES
    def test_report_construction_matrices_pass(self, matrix, rank_sym, rank_a_hat, verdict):
        # rotation and psd-sym-part-of-lower-rank are rejected by the ranks
        # alone; the tiny negative-definite ones lie inside the screen's
        # floor, so the report's PSD leg rejects them
        assert _screened(_from_a_hat(np.array(matrix))) is False
        assert paramonotonicity_report(np.array(matrix)).verdict is verdict

    def test_negated_identity_is_screened_out(self, negated_case, identity_case):
        assert _screened(negated_case) is True
        assert _screened(identity_case) is False
        tiny = _from_a_hat(-1e-3 * np.eye(2))
        assert _screened(tiny) is True
        assert check_paramonotone(tiny).verdict is False

    @pytest.mark.parametrize("n, seed", [(1, 5), (2, 7), (3, 12345)])
    def test_stack_agrees_with_the_matrix_by_matrix_screen(self, n, seed):
        # generator candidates, one stack, against the screen written one
        # matrix at a time from compute_a_hat and the report's slack
        count = 600
        block = UniformStream(seed).uniforms(count * (2 * n * n + 3 * n + 1)).reshape(count, -1)
        A, _, A1, b1, c, d = generator._fields(block, n)
        got = screen(A, A1, b1, c, d)[0]
        assert got.shape == (count,) and 0 < got.sum() < count
        np.testing.assert_array_equal(got, ~_shifted_pd_one_by_one(A, A1, b1, c, d, 2.0))

    def test_verdicts_on_a_fixed_stack_keep_their_pin(self):
        # the first 2,336 n = 3 candidates of the seed-12345 stream, eight
        # of the generator's first blocks, screened as one stack; the pin
        # was written before the stream's refills changed shape
        pin = json.loads((Path(__file__).parent / "data" / "screen_verdicts.json").read_text())
        n, count = pin["n"], pin["count"]
        block = UniformStream(pin["seed"]).uniforms(count * (2 * n * n + 3 * n + 1))
        A, _, A1, b1, c, d = generator._fields(block.reshape(count, -1), n)
        got = "".join("1" if out else "0" for out in screen(A, A1, b1, c, d)[0])
        assert got == "".join(pin["screened_out"])


def _screen_one(inst) -> tuple[bool, bool]:
    """(ruled out, certified) of one instance, as a stack of one."""
    out, sure = screen(*(np.asarray(f)[None] for f in (inst.A, inst.A1, inst.b1, inst.c, inst.d)))
    return bool(out[0]), bool(sure[0])


def _pinned_stack(name):
    """The pin in tests/data/<name>.json and the fields of its stack."""
    pin = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    n, count = pin["n"], pin["count"]
    block = UniformStream(pin["seed"]).uniforms(count * (2 * n * n + 3 * n + 1))
    return pin, generator._fields(block.reshape(count, -1), n)


class TestAccept:
    """A candidate is certified only where the report accepts it."""

    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.5, 2.5, 3.0, 10.0]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=100)
    def test_never_certifies_what_the_report_rejects(self, n, seed, k, scale):
        # the construction of TestScreen::test_never_rejects_what_the_report_accepts:
        # A_hat = S + K with K skew and lambda_min(S) = k slack
        gen = np.random.default_rng(seed)
        q, _ = np.linalg.qr(gen.normal(size=(n, n)))
        rest = scale * gen.uniform(0.5, 2.0, size=n - 1)
        raw = scale * gen.normal(size=(n, n))
        skew = raw - raw.T
        slack = DEFAULT_TOL * max(1.0, math.sqrt(np.sum(rest**2) + np.sum(skew**2)))
        a_hat = q @ np.diag([k * slack, *rest]) @ q.T + skew
        out, sure = _screen_one(_from_a_hat(a_hat))
        assert not (sure and not paramonotonicity_report(a_hat).verdict)
        assert not (sure and out)
        # S - 2 slack I has lambda_min = (k - 2) slack
        assert sure is (k > 2.0)

    def test_band_case_is_neither_ruled_out_nor_certified(self):
        # S = diag(1, 0) is PSD, so S + 2 t I is positive definite and
        # S - 2 t I is not; the report rejects on the ranks (1 < 2)
        band = _from_a_hat(np.array([[1.0, 1.0], [-1.0, 0.0]]))
        assert _screen_one(band) == (False, False)
        assert check_paramonotone(band).verdict is False

    def test_identity_is_certified_and_its_negation_ruled_out(self, identity_case, negated_case):
        assert _screen_one(identity_case) == (False, True)
        assert _screen_one(negated_case) == (True, False)
        # positive definite, but inside 2 t of singular: left to the report
        tiny = _from_a_hat(1e-9 * np.eye(2))
        assert _screen_one(tiny) == (False, False)
        assert check_paramonotone(tiny).verdict is True

    @pytest.mark.parametrize("n, seed", [(1, 5), (2, 7), (3, 12345)])
    def test_stack_agrees_with_the_matrix_by_matrix_accept_test(self, n, seed):
        count = 600
        block = UniformStream(seed).uniforms(count * (2 * n * n + 3 * n + 1)).reshape(count, -1)
        A, _, A1, b1, c, d = generator._fields(block, n)
        out, sure = screen(A, A1, b1, c, d)
        np.testing.assert_array_equal(out, ~_shifted_pd_one_by_one(A, A1, b1, c, d, 2.0))
        np.testing.assert_array_equal(sure, _shifted_pd_one_by_one(A, A1, b1, c, d, -2.0))
        assert 0 < sure.sum() < count

    def test_verdicts_on_a_fixed_stack_keep_their_pin(self):
        # the stack of tests/data/screen_verdicts.json; the pin holds
        # is_positive_definite(S - 2 t I) of every candidate, written
        # before the generator used the accept test
        pin, (A, _, A1, b1, c, d) = _pinned_stack("certified_verdicts")
        got = "".join("1" if sure else "0" for sure in screen(A, A1, b1, c, d)[1])
        assert got == "".join(pin["certified"])

    def test_every_certified_candidate_of_the_pinned_stack_passes_the_report(self):
        _, (A, _, A1, b1, c, d) = _pinned_stack("certified_verdicts")
        sure = screen(A, A1, b1, c, d)[1]
        assert sure.sum() == 21
        for i in np.flatnonzero(sure):
            inst = SimpleNamespace(A=A[i], A1=A1[i], b1=b1[i], c=c[i], d=d[i])
            assert paramonotonicity_report(compute_a_hat(inst)).verdict is True
