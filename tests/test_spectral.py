import gc
import json
import math
import weakref

import numpy as np
import pytest

from lapmult import (
    Field,
    ReversibleGenerator,
    WeightedSpace,
    constant_field,
    decompose,
    heat_operator,
    lp_norm,
    operator_matrix,
    random_reversible_generator,
    spectral_apply,
    spectral_measure,
    weighted_inner,
)

from lapmult import cli
from lapmult.spectral import GENERATOR_TOL, SpectralDecomposition
from lapmult.suites import step_instance_family

from conftest import random_field


def reference_decompose(generator):
    """decompose as it was before the memo: a fresh eigensolve on every call."""
    w = generator.space.weights
    s = np.sqrt(w)
    sym = generator.entries * s[:, None] / s[None, :]
    sym = 0.5 * (sym + sym.T)
    try:
        lam, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("symmetric eigensolver failed to converge") from exc
    floor = GENERATOR_TOL * max(1.0, float(np.abs(generator.entries).max()))
    if lam[0] < -floor:
        raise ValueError(f"generator has an eigenvalue {lam[0]:.3e} below -{floor:.3e}")
    lam = np.where(lam < 0.0, 0.0, lam)
    return SpectralDecomposition(generator.space, lam, v / s[:, None])


def assert_same_bytes(dec, ref):
    assert dec.space is ref.space
    assert dec.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert dec.eigenfields.tobytes() == ref.eigenfields.tobytes()


class TestDecompose:
    def test_zero_generator(self):
        space = WeightedSpace([0.8, 1.2])
        dec = decompose(ReversibleGenerator(space, np.zeros((2, 2))))
        assert np.abs(dec.eigenvalues).max() == 0.0

    def test_two_state_hand_diagonalization(self, two_state):
        space, gen, a = two_state
        dec = decompose(gen)
        assert dec.eigenvalues == pytest.approx([0.0, 2 * a], abs=1e-12)
        # eigenfields proportional to (1,1) and (1,-1); compare projectors, not bases
        u0, u1 = dec.eigenfields[:, 0], dec.eigenfields[:, 1]
        assert abs(u0[0] - u0[1]) < 1e-10
        assert abs(u1[0] + u1[1]) < 1e-10

    def test_reconstruction_completeness(self):
        for seed in range(5):
            _, gen = random_reversible_generator(seed, 9)
            dec = decompose(gen)
            rebuilt = operator_matrix(dec, lambda lam: lam).real
            assert np.abs(rebuilt - gen.entries).max() < 1e-9

    def test_operator_from_values_at_the_eigenvalues(self):
        _, gen = random_reversible_generator(3, 6)
        dec = decompose(gen)

        def phi(lam):
            return complex(np.exp(-lam), lam)

        values = [phi(lam) for lam in dec.eigenvalues.tolist()]
        assert operator_matrix(dec, values).tobytes() == operator_matrix(dec, phi).tobytes()
        with pytest.raises(ValueError, match="one value of phi per eigenvalue"):
            operator_matrix(dec, values[:1])

    def test_weighted_orthonormality(self):
        space, gen = random_reversible_generator(7, 8)
        dec = decompose(gen)
        gram = dec.eigenfields.T @ (space.weights[:, None] * dec.eigenfields)
        assert np.abs(gram - np.eye(space.n)).max() < 1e-10

    def test_eigen_equation_per_entry(self):
        space, gen = random_reversible_generator(11, 10)
        dec = decompose(gen)
        residual = gen.entries @ dec.eigenfields - dec.eigenfields * dec.eigenvalues[None, :]
        assert np.abs(residual).max() < 1e-9

    def test_zero_eigenvalue_with_constant_eigenfield(self):
        space, gen = random_reversible_generator(23, 6)
        dec = decompose(gen)
        assert dec.eigenvalues[0] <= 1e-12
        # conservation: the lambda=0 projector fixes constants
        projector = operator_matrix(dec, lambda lam: 1.0 if lam < 1e-12 else 0.0).real
        ones = np.ones(space.n)
        assert np.abs(projector @ ones - ones).max() < 1e-10

    def test_nonnegative_spectrum_enforced(self):
        space, gen = random_reversible_generator(3, 5)
        dec = decompose(gen)
        assert dec.eigenvalues.min() >= 0.0


class TestDecomposeReuse:
    def test_repeat_call_returns_the_same_object(self):
        _, gen = random_reversible_generator(31, 7)
        first = decompose(gen)
        assert decompose(gen) is first
        heat_operator(gen, 0.5)
        assert decompose(gen) is first

    def test_equal_generator_gets_its_own_decomposition(self):
        space, gen = random_reversible_generator(32, 6)
        twin = ReversibleGenerator(WeightedSpace(space.weights.copy()), gen.entries.copy())
        first = decompose(gen)
        second = decompose(twin)
        assert second is not first
        assert second.space is twin.space
        assert_same_bytes(second, reference_decompose(twin))
        assert second.eigenvalues.tobytes() == first.eigenvalues.tobytes()
        assert second.eigenfields.tobytes() == first.eigenfields.tobytes()

    def test_bytes_match_a_fresh_eigensolve_over_interleaved_generators(self):
        gens = [gen for gen, _, _ in step_instance_family(5, 5, max_n=12)]
        order = [0, 0, 1, 0, 2, 2, 1, 3, 4, 3, 3, 0, 4]
        for idx in order:
            assert_same_bytes(decompose(gens[idx]), reference_decompose(gens[idx]))

    def test_interleaved_generators_keep_their_decompositions(self, monkeypatch):
        _, a = random_reversible_generator(37, 6)
        _, b = random_reversible_generator(38, 5)
        first = decompose(a)
        decompose(b)
        eigh = np.linalg.eigh
        calls = []

        def counted(sym):
            calls.append(sym.shape)
            return eigh(sym)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert decompose(a) is first
        assert calls == []

    def test_failed_eigensolve_raises_on_every_call(self, monkeypatch):
        _, gen = random_reversible_generator(33, 5)
        _, other = random_reversible_generator(34, 5)
        decompose(other)

        def broken(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="failed to converge"):
                decompose(gen)
        monkeypatch.undo()
        assert_same_bytes(decompose(gen), reference_decompose(gen))

    def test_memo_releases_earlier_results(self):
        _, gen = random_reversible_generator(35, 8)
        dec_ref = weakref.ref(decompose(gen))
        gen_ref = weakref.ref(gen)
        gc.collect()
        assert dec_ref() is not None
        decompose(random_reversible_generator(36, 4)[1])
        del gen
        gc.collect()
        assert dec_ref() is None
        assert gen_ref() is None


class TestSpectralApply:
    def test_identity_function(self):
        space, gen = random_reversible_generator(2, 6)
        dec = decompose(gen)
        f = random_field(space, 0)
        out = spectral_apply(dec, lambda lam: 1.0, f)
        assert np.abs(out.values - f.values).max() < 1e-11

    def test_two_state_exponential(self, two_state):
        space, gen, a = two_state
        dec = decompose(gen)
        f = Field(space, [1.0, -1.0])
        t = 0.4
        out = spectral_apply(dec, lambda lam: math.exp(-t * lam), f)
        assert np.abs(out.values - math.exp(-2 * a * t) * f.values).max() < 1e-12

    def test_zero_function(self):
        space, gen = random_reversible_generator(4, 5)
        f = random_field(space, 1)
        out = spectral_apply(decompose(gen), lambda lam: 0.0, f)
        assert np.abs(out.values).max() == 0.0

    def test_nonfinite_phi_rejected(self):
        space, gen = random_reversible_generator(4, 5)
        f = random_field(space, 1)
        with pytest.raises(ValueError):
            spectral_apply(decompose(gen), lambda lam: math.inf, f)

    def test_linearity(self):
        space, gen = random_reversible_generator(6, 7)
        dec = decompose(gen)
        f = random_field(space, 2)
        g = random_field(space, 3)
        phi = lambda lam: 1.0 / (1.0 + lam)
        lhs = spectral_apply(dec, phi, 2.0 * f + (1 - 1j) * g)
        rhs = 2.0 * spectral_apply(dec, phi, f) + (1 - 1j) * spectral_apply(dec, phi, g)
        assert np.abs(lhs.values - rhs.values).max() < 1e-12

    def test_multiplicativity(self):
        space, gen = random_reversible_generator(9, 8)
        dec = decompose(gen)
        f = random_field(space, 4)
        phi = lambda lam: math.exp(-0.3 * lam)
        psi = lambda lam: 1.0 / (1.0 + lam)
        joint = spectral_apply(dec, lambda lam: phi(lam) * psi(lam), f)
        composed = spectral_apply(dec, phi, spectral_apply(dec, psi, f))
        assert np.abs(joint.values - composed.values).max() < 1e-10

    def test_semigroup_consistency(self):
        space, gen = random_reversible_generator(10, 7)
        dec = decompose(gen)
        f = random_field(space, 5)
        for t in (0.0, 0.1, 1.0, 10.0):
            via_calculus = spectral_apply(dec, lambda lam: math.exp(-t * lam), f)
            via_kernel = heat_operator(gen, t).entries @ f.values
            assert np.abs(via_calculus.values - via_kernel).max() < 1e-10


    def test_phi_receives_each_eigenvalue_as_a_python_float(self):
        space, gen = random_reversible_generator(11, 9)
        dec = decompose(gen)
        seen = []
        spectral_apply(dec, lambda lam: seen.append(lam) or 1.0, random_field(space, 6))
        assert all(type(lam) is float for lam in seen)
        assert [lam.hex() for lam in seen] == [float(lam).hex() for lam in dec.eigenvalues]


class TestSpectralMeasure:
    def test_eigenfield_gives_unit_mass(self):
        space, gen = random_reversible_generator(12, 6)
        dec = decompose(gen)
        u0 = dec.eigenfield(0)
        masses = spectral_measure(dec, u0, u0)
        assert masses[0][1] == pytest.approx(1.0, abs=1e-10)
        assert sum(abs(m) for _, m in masses[1:]) < 1e-10

    def test_orthogonal_fields_masses_sum_to_zero(self, two_state):
        space, gen, _ = two_state
        dec = decompose(gen)
        f = Field(space, [1.0, -1.0])
        g = Field(space, [1.0, 1.0])
        total = sum(m for _, m in spectral_measure(dec, f, g))
        assert abs(total) < 1e-12

    def test_total_variation_bound(self):
        space, gen = random_reversible_generator(14, 9)
        dec = decompose(gen)
        for seed in range(100):
            f = random_field(space, seed)
            g = random_field(space, 500 + seed)
            tv = sum(abs(m) for _, m in spectral_measure(dec, f, g))
            assert tv <= lp_norm(f, 2.0) * lp_norm(g, 2.0) + 1e-10

    def test_laplace_transform_matches_heat_pairing(self):
        space, gen = random_reversible_generator(15, 7)
        dec = decompose(gen)
        for t in (0.1, 1.0):
            kernel = heat_operator(gen, t).entries
            for seed in range(20):
                f = random_field(space, seed)
                g = random_field(space, 300 + seed)
                series = sum(m * math.exp(-t * lam) for lam, m in spectral_measure(dec, f, g))
                pairing = weighted_inner(Field(space, kernel @ f.values), g)
                assert series == pytest.approx(pairing, abs=1e-10)

    def test_parseval(self):
        space, gen = random_reversible_generator(16, 8)
        dec = decompose(gen)
        for seed in range(20):
            f = random_field(space, seed)
            total = sum(m.real for _, m in spectral_measure(dec, f, f))
            assert total == pytest.approx(lp_norm(f, 2.0) ** 2, rel=1e-10)


class TestEigenCertificate:
    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1.0, 1e100, 1e250])
    @pytest.mark.parametrize("n", [1, 2, 16, 160])
    def test_real_decompositions_pass_at_every_scale(self, scale, n):
        _, gen = random_reversible_generator(3, n, conductance_scale=scale)
        assert_same_bytes(decompose(gen), reference_decompose(gen))

    def test_a_detailed_balance_defect_within_roundoff_runs(self, tmp_path):
        # w_0 A_01 - w_1 A_10 = -1e-11: the generator accepts it, and eigh sees only the symmetrized part
        chain = {"weights": [1, 1], "generator": [[1, -1], [-0.99999999999, 0.99999999999]]}
        payload = {"schema": "lapmult-config-1", "suites": [{"check": "markov_conditions", "chain": chain}]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert json.loads((tmp_path / "out" / "report.json").read_text())["overall_pass"] is True

    @pytest.mark.parametrize("factor", [1.01, 1.0 + 1e-8])
    def test_scaled_eigenvalues_fail_the_residual(self, monkeypatch, factor):
        # a consistent fault: every spectral route would agree with the generator factor * A
        _, gen = random_reversible_generator(39, 6)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (factor * eigh(a)[0], eigh(a)[1]))
        with pytest.raises(RuntimeError, match=r"eigendecomposition certificate failed: the residual"):
            decompose(gen)

    def test_scaled_eigenfields_fail_the_orthonormality(self, monkeypatch):
        _, gen = random_reversible_generator(40, 6)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (eigh(a)[0], (1.0 + 1e-8) * eigh(a)[1]))
        with pytest.raises(RuntimeError, match=r"certificate failed: the weighted orthonormality defect"):
            decompose(gen)

    def test_a_clamped_zero_mode_may_miss_by_the_roundoff_allowance(self, monkeypatch):
        _, gen = random_reversible_generator(41, 6)
        shift = 0.5 * GENERATOR_TOL * max(1.0, float(np.abs(gen.entries).max()))
        eigh = np.linalg.eigh

        def negative_zero_mode(a):
            lam, v = eigh(a)
            return lam - shift * (np.arange(lam.size) == 0), v

        monkeypatch.setattr(np.linalg, "eigh", negative_zero_mode)
        dec = decompose(gen)
        assert dec.eigenvalues[0] == 0.0

    @pytest.mark.parametrize("factor", [1.01, 1.0 + 1e-8])
    def test_paper_suite_fails_on_a_faulty_eigensolver(self, monkeypatch, tmp_path, factor):
        # without the certificate every suite of the preset passes under this fault
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (factor * eigh(a)[0], eigh(a)[1]))
        with pytest.raises(RuntimeError, match="eigendecomposition certificate failed"):
            cli.main(["run", "paper-suite", "--out", str(tmp_path)])
        assert list(tmp_path.iterdir()) == []
