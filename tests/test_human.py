import warnings
from dataclasses import replace

import numpy as np
import pytest

from hatalloc.human import (
    ApproximationSchedule,
    HumanResponseModel,
    attitude_preset,
    effective_parameters,
    logistic,
    respond,
    response_jacobian,
    softplus,
)


def affine_model(attitude=1.0, base=(2.0,), gains=None):
    gains = gains if gains is not None else {"a1": np.array([[1.0]])}
    return HumanResponseModel(
        human_id="k1",
        neighbor_ids=tuple(sorted(gains)),
        gains=gains,
        base=np.array(base),
        attitude=attitude,
    )


def softplus_model(attitude=1.0, beta=10.0, base=(-5.0,), gains=None):
    gains = gains if gains is not None else {"a1": np.array([[0.0]])}
    return HumanResponseModel(
        human_id="k1",
        neighbor_ids=tuple(sorted(gains)),
        gains=gains,
        base=np.array(base),
        attitude=attitude,
        family="softplus_affine",
        sharpness=beta,
    )


class TestRespond:
    def test_zero_attitude_returns_base(self):
        model = affine_model(attitude=0.0)
        for x in ([0.0], [3.0], [-7.5]):
            np.testing.assert_array_equal(
                respond(model, {"a1": np.array(x)}), [2.0]
            )

    def test_risk_seeking_reduces_workload(self):
        model = affine_model(attitude=-1.0)
        np.testing.assert_allclose(respond(model, {"a1": np.array([0.5])}), [1.5])

    def test_softplus_output_strictly_positive(self):
        model = softplus_model()
        y = respond(model, {"a1": np.array([0.0])})
        expected = np.log1p(np.exp(-50.0)) / 10.0
        np.testing.assert_allclose(y, [expected])
        assert y[0] > 0.0

    def test_missing_neighbor_errors(self):
        model = affine_model()
        with pytest.raises(ValueError, match="missing state"):
            respond(model, {})

    def test_unexpected_neighbor_errors(self):
        model = affine_model()
        with pytest.raises(ValueError, match="unexpected"):
            respond(model, {"a1": np.zeros(1), "zz": np.zeros(1)})

    def test_affine_midpoint_linearity(self):
        rng = np.random.default_rng(0)
        model = affine_model(
            attitude=0.7,
            base=(0.5, -1.0),
            gains={"a1": rng.normal(size=(2, 3)), "a2": rng.normal(size=(2, 2))},
        )
        for _ in range(25):
            u = {"a1": rng.normal(size=3), "a2": rng.normal(size=2)}
            v = {"a1": rng.normal(size=3), "a2": rng.normal(size=2)}
            mid = {j: (u[j] + v[j]) / 2 for j in u}
            lhs = respond(model, mid)
            rhs = (respond(model, u) + respond(model, v)) / 2
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestJacobian:
    def test_affine_jacobian_is_scaled_gain(self):
        gain = np.array([[1.0, 2.0], [0.5, 0.25]])
        model = affine_model(attitude=1.0, base=(0.0, 0.0), gains={"a1": gain})
        jac = response_jacobian(model, {"a1": np.zeros(2)})
        np.testing.assert_array_equal(jac["a1"], gain)

    def test_zero_attitude_zero_jacobian(self):
        model = affine_model(attitude=0.0)
        jac = response_jacobian(model, {"a1": np.array([4.0])})
        np.testing.assert_array_equal(jac["a1"], [[0.0]])

    @pytest.mark.parametrize("model", [affine_model(), softplus_model()],
                             ids=["affine", "softplus_affine"])
    @pytest.mark.parametrize("func", [respond, response_jacobian])
    def test_both_maps_check_the_neighbor_set(self, model, func):
        """`respond` and `response_jacobian` refuse a missing and an extra
        neighbor state alike, whatever the family."""
        with pytest.raises(ValueError, match="missing state for neighbor 'a1'"):
            func(model, {})
        with pytest.raises(ValueError, match=r"unexpected neighbor states \['zz'\]"):
            func(model, {"a1": np.zeros(1), "zz": np.zeros(1)})

    @pytest.mark.parametrize("family", ["affine", "softplus_affine"])
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(42)
        gains = {"a1": rng.uniform(0, 1, (2, 3)), "a2": rng.uniform(0, 1, (2, 2))}
        kwargs = dict(
            human_id="k1", neighbor_ids=("a1", "a2"), gains=gains,
            base=rng.normal(size=2), attitude=-0.6,
        )
        if family == "softplus_affine":
            kwargs.update(family=family, sharpness=4.0)
        model = HumanResponseModel(**kwargs)
        step = 1e-6
        for _ in range(50):
            x = {"a1": rng.normal(size=3), "a2": rng.normal(size=2)}
            jac = response_jacobian(model, x)
            for j, dim in (("a1", 3), ("a2", 2)):
                for col in range(dim):
                    bump = {k: v.copy() for k, v in x.items()}
                    bump[j][col] += step
                    drop = {k: v.copy() for k, v in x.items()}
                    drop[j][col] -= step
                    numeric = (respond(model, bump) - respond(model, drop)) / (2 * step)
                    denom = np.maximum(1.0, np.abs(jac[j][:, col]))
                    err = np.max(np.abs(jac[j][:, col] - numeric) / denom)
                    assert err <= 1e-5


# |beta u| from 0 to 800, with the thresholds where exp(|beta u|) overflows
# (709.78) and exp(-|beta u|) underflows to zero (745.13) on both sides.
MAGNITUDES = np.concatenate([np.linspace(0.0, 800.0, 1601),
                             [709.78, 709.79, 745.13, 745.14]])


class TestActivations:
    @pytest.mark.parametrize("beta", [0.5, 6.0, 10.0, 80.0])
    def test_each_branch_exactly_and_without_warnings(self, beta):
        u = np.concatenate([-MAGNITUDES, MAGNITUDES]) / beta
        with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
            warnings.simplefilter("error")
            sig, soft = logistic(u, beta), softplus(u, beta)
        bu = beta * u
        assert np.abs(bu).max() >= 800.0
        assert np.isfinite(sig).all() and np.isfinite(soft).all()
        assert ((sig >= 0.0) & (sig <= 1.0)).all()
        # Each branch's formula, evaluated on its own entries only.
        pos = ~(bu < 0)
        e = np.exp(bu[~pos])
        want_sig, want_soft = np.empty_like(bu), np.empty_like(bu)
        want_sig[pos] = 1.0 / (1.0 + np.exp(-bu[pos]))
        want_sig[~pos] = e / (1.0 + e)
        want_soft[pos] = (bu[pos] + np.log1p(np.exp(-bu[pos]))) / beta
        want_soft[~pos] = np.log1p(e) / beta
        assert sig.tobytes() == want_sig.tobytes()
        assert soft.tobytes() == want_soft.tobytes()

    def test_per_row_sharpness_matches_each_scalar(self):
        rng = np.random.default_rng(0)
        u, beta = rng.normal(scale=50.0, size=40), rng.uniform(0.5, 80.0, size=40)
        for f in (logistic, softplus):
            rows = np.array([f(u[i:i + 1], beta[i])[0] for i in range(u.size)])
            assert f(u, beta).tobytes() == rows.tobytes()


class TestAttitude:
    def test_presets(self):
        assert attitude_preset("risk_seeking", 1.0) == -1.0
        assert attitude_preset("risk_averse", 0.5) == 0.5

    def test_magnitude_out_of_range(self):
        with pytest.raises(ValueError):
            attitude_preset("risk_seeking", 0.0)
        with pytest.raises(ValueError):
            attitude_preset("risk_averse", 1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            attitude_preset("indifferent", 0.5)

    @pytest.mark.parametrize("family", ["affine", "softplus_affine"])
    def test_monotone_direction_with_nonnegative_gains(self, family):
        rng = np.random.default_rng(17)
        gains = {"a1": rng.uniform(0.1, 1.0, (2, 2))}
        for kind, sign in (("risk_seeking", -1), ("risk_averse", +1)):
            kwargs = dict(
                human_id="k1", neighbor_ids=("a1",), gains=gains,
                base=np.array([1.0, 2.0]),
                attitude=attitude_preset(kind, 0.8),
            )
            if family == "softplus_affine":
                kwargs.update(family=family, sharpness=3.0)
            model = HumanResponseModel(**kwargs)
            for _ in range(20):
                x = rng.uniform(0, 1, 2)
                bigger = x + rng.uniform(0, 1, 2)
                lo = respond(model, {"a1": x})
                hi = respond(model, {"a1": bigger})
                if sign < 0:
                    assert np.all(hi <= lo + 1e-12)
                else:
                    assert np.all(hi >= lo - 1e-12)


class TestSchedule:
    def schedule(self):
        return ApproximationSchedule(
            gain_deltas={"a1": np.array([[0.5]])},
            base_delta=np.array([-0.25]),
            settle_time=5.0,
        )

    def test_exact_after_settle_time(self):
        model = affine_model()
        sched = self.schedule()
        for t in (5.0, 5.0 + 1e-12, 100.0):
            gains, base = effective_parameters(model, t, sched)
            np.testing.assert_array_equal(gains["a1"], model.gains["a1"])
            np.testing.assert_array_equal(base, model.base)

    def test_full_perturbation_at_zero(self):
        model = affine_model()
        gains, base = effective_parameters(model, 0.0, self.schedule())
        np.testing.assert_allclose(gains["a1"], [[1.5]])
        np.testing.assert_allclose(base, [1.75])

    def test_parameters_continuous_in_time(self):
        model = affine_model()
        sched = self.schedule()
        times = np.linspace(0.0, 6.0, 400)
        values = [respond(model, {"a1": np.array([1.0])}, t, sched)[0] for t in times]
        jumps = np.abs(np.diff(values))
        assert np.max(jumps) <= 0.02  # ~Lipschitz * dt, no discontinuity

    def test_negative_settle_time_rejected(self):
        with pytest.raises(ValueError):
            ApproximationSchedule({}, np.zeros(1), -1.0)


class TestValidation:
    def test_gain_shape_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            HumanResponseModel(
                human_id="k1", neighbor_ids=("a1",),
                gains={"a1": np.zeros((3, 2))}, base=np.zeros(2), attitude=0.5,
            )

    def test_gain_keys_must_match_neighbors(self):
        with pytest.raises(ValueError, match="neighbor"):
            HumanResponseModel(
                human_id="k1", neighbor_ids=("a1", "a2"),
                gains={"a1": np.zeros((1, 1))}, base=np.zeros(1), attitude=0.5,
            )

    def test_attitude_range(self):
        with pytest.raises(ValueError, match="attitude"):
            affine_model(attitude=1.5)

    def test_softplus_needs_positive_sharpness(self):
        with pytest.raises(ValueError, match="sharpness"):
            softplus_model(beta=0.0)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_every_family_needs_finite_sharpness(self, beta):
        """An affine model does not read its sharpness, but a saved document
        carries it, so it is finite too; a negative one is allowed."""
        with pytest.raises(ValueError, match=r"model 'k1': sharpness must be finite"):
            replace(affine_model(), sharpness=beta)
        assert replace(affine_model(), sharpness=-2.0).sharpness == -2.0
