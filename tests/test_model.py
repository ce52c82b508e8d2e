import itertools
import re

import numpy as np
import pytest

from voimc import (
    DecisionModel,
    FactoredSampler,
    GaussianLinearModel,
    PayoffEvaluationError,
    PriorSampler,
    RngStream,
    make_gaussian_model,
)

from voimc.model import _columns

from support import TIE_CONFIG


@pytest.fixture()
def tie_model():
    model, prior, factored = make_gaussian_model(TIE_CONFIG, (1, 2))
    return model, prior, factored


def payoff_row(model, x) -> list:
    """All decision payoffs at one point, in decision order."""
    return model.payoff_matrix(np.asarray(x, dtype=float)[None, :])[0].tolist()


class TestPayoffVector:
    def test_zero_input(self, tie_model):
        model, _, _ = tie_model
        assert payoff_row(model, np.zeros(5)) == [0.0, 0.0]

    def test_linear_sum(self, tie_model):
        model, _, _ = tie_model
        assert payoff_row(model, np.ones(5)) == [5.0, 0.0]

    def test_affine_intercept(self):
        cfg = GaussianLinearModel(2.0, (1.0,) * 5, (0.0,) * 5, (1.0,) * 5)
        model, _, _ = make_gaussian_model(cfg, (1,))
        assert payoff_row(model, [-1, 0, 0, 0, 0]) == [1.0, 0.0]

    def test_wrong_length_rejected(self, tie_model):
        model, _, _ = tie_model
        with pytest.raises(ValueError):
            model.payoff_matrix(np.zeros((1, 4)))

    def test_non_finite_payoff_names_decision(self):
        model = DecisionModel(
            decisions=("good", "bad"),
            payoff=lambda xs: np.column_stack(
                (np.zeros(len(xs)), np.full(len(xs), np.nan))
            ),
            dimension=2,
        )
        with pytest.raises(PayoffEvaluationError, match="'bad'"):
            payoff_row(model, [1.0, 2.0])


class TestDecisionModelValidation:
    def test_empty_decisions_rejected(self):
        with pytest.raises(ValueError):
            DecisionModel(decisions=(), payoff=lambda xs: xs, dimension=1)

    def test_duplicate_decisions_rejected(self):
        with pytest.raises(ValueError):
            DecisionModel(decisions=("a", "a"), payoff=lambda xs: xs, dimension=1)

    def test_batch_shape_checked(self):
        model = DecisionModel(
            decisions=("a",),
            payoff=lambda xs: np.zeros((xs.shape[0], 3)),
            dimension=2,
        )
        with pytest.raises(ValueError):
            model.payoff_matrix(np.zeros((4, 2)))


# one builder per class that declares a dimension, taking only that dimension
_BUILDERS = {
    "DecisionModel": lambda d: DecisionModel(("a",), lambda xs: xs[:, :1], d),
    "PriorSampler": lambda d: PriorSampler(d, lambda _rng, size: np.zeros((size, 1))),
    "FactoredSampler": lambda d: FactoredSampler(
        d, (), lambda _rng, size: np.zeros((size, 0)),
        lambda x1, _rng, size: np.zeros((len(x1) * size, 1)),
    ),
}


class TestDimensionValidation:
    @pytest.mark.parametrize("dimension", [2.5, 2.0, 0, -1, True, "3"], ids=repr)
    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
    def test_bad_dimension_refused_at_construction(self, build, dimension):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            build(dimension)

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS.keys())
    def test_integer_dimensions_accepted(self, build):
        assert build(1).dimension == 1
        assert build(np.int64(3)).dimension == 3


class TestSamplers:
    def test_reproducibility(self, tie_model):
        _, prior, factored = tie_model
        a = prior.draw(RngStream(5, (1,)).generator(), 100)
        b = prior.draw(RngStream(5, (1,)).generator(), 100)
        assert np.array_equal(a, b)
        xa = factored.draw_marginal(RngStream(5, (2,)).generator(), 10)
        xb = factored.draw_marginal(RngStream(5, (2,)).generator(), 10)
        assert np.array_equal(xa, xb)

    @pytest.mark.parametrize("size", [-1, 2.5, True, "2"], ids=repr)
    def test_bad_size_refused(self, tie_model, size):
        # refused, not truncated by int()
        _, prior, factored = tie_model
        gen = RngStream(5).generator()
        with pytest.raises(ValueError, match="size must be a non-negative integer"):
            prior.draw(gen, size)
        with pytest.raises(ValueError, match="size must be a non-negative integer"):
            factored.draw_marginal(gen, size)
        with pytest.raises(ValueError, match="size must be a non-negative integer"):
            factored.draw_conditional(np.zeros((1, 2)), gen, size)
        assert prior.draw(gen, np.int64(2)).shape == (2, 5)

    def test_distinct_streams_distinct_samples(self, tie_model):
        _, prior, _ = tie_model
        a = prior.draw(RngStream(5, (1,)).generator(), 100)
        b = prior.draw(RngStream(5, (2,)).generator(), 100)
        assert not np.array_equal(a, b)

    def test_factorization_reproduces_joint_moments(self):
        # marginal-then-conditional composition must match the prior's
        # per-coordinate moments within 4 standard errors at 1e5 draws
        cfg = GaussianLinearModel(
            intercept=0.5,
            weights=(1.0, -2.0, 0.5, 1.5, 3.0),
            means=(0.0, 1.0, -1.0, 2.0, 0.25),
            stds=(1.0, 0.5, 2.0, 0.75, 1.25),
        )
        _, _, factored = make_gaussian_model(cfg, (2, 4))
        n = 100_000
        gen = RngStream(77).generator()
        revealed = factored.draw_marginal(gen, n)
        hidden = np.vstack(
            [factored.draw_conditional(revealed[:1], gen, n // 2)]
            + [factored.draw_conditional(revealed[1:2], gen, n - n // 2)]
        )
        full = np.empty((n, 5))
        full[:, [1, 3]] = revealed
        full[:, [0, 2, 4]] = hidden
        mu = np.asarray(cfg.means)
        sd = np.asarray(cfg.stds)
        se_mean = sd / np.sqrt(n)
        assert (np.abs(full.mean(axis=0) - mu) < 4 * se_mean).all()
        # variance of s^2 for normal data is 2 sigma^4 / (n-1)
        se_var = sd**2 * np.sqrt(2.0 / (n - 1))
        assert (np.abs(full.var(axis=0, ddof=1) - sd**2) < 4 * se_var).all()

    def test_columns_match_setdiff1d(self):
        # every ordered revealed subset up to dimension 6, the full and the
        # empty one included, against numpy's set difference as the reference
        for dimension in range(1, 7):
            for size in range(dimension + 1):
                for revealed in itertools.permutations(range(1, dimension + 1), size):
                    r_idx, h_idx = _columns(dimension, revealed)
                    reference = np.setdiff1d(
                        np.arange(dimension, dtype=np.intp),
                        np.asarray([ix - 1 for ix in revealed], dtype=np.intp),
                    )
                    assert r_idx.tolist() == [ix - 1 for ix in revealed]
                    assert r_idx.dtype == h_idx.dtype == reference.dtype
                    assert np.array_equal(h_idx, reference), (dimension, revealed)

    def test_combine_places_blocks(self, tie_model):
        _, _, factored = tie_model
        out = factored.combine(np.array([[10.0, 20.0]]), np.array([[1.0, 2.0, 3.0]]))
        assert out.tolist() == [[10.0, 20.0, 1.0, 2.0, 3.0]]

    def test_combine_follows_declared_order(self):
        # column k of a revealed block is coordinate revealed[k]; the hidden
        # columns are the other coordinates in increasing order
        factored = FactoredSampler(
            dimension=3,
            revealed=(3, 1),
            marginal_fn=lambda _rng, size: np.tile([30.0, 10.0], (size, 1)),
            conditional_fn=lambda x1, _rng, size: np.full((len(x1) * size, 1), 20.0),
        )
        assert factored.revealed == (3, 1)
        revealed = factored.draw_marginal(RngStream(0).generator(), 1)
        hidden = factored.draw_conditional(revealed, RngStream(1).generator(), 2)
        out = factored.combine(revealed, hidden)
        assert out.tolist() == [[10.0, 20.0, 30.0]] * 2

    @pytest.mark.parametrize(
        "revealed, hidden",
        [
            ((3, 2), (7, 3)),  # 7 hidden rows do not split over 3 revealed rows
            ((2, 2), (3, 3)),
            ((0, 2), (3, 3)),  # hidden rows for no revealed row
            ((2, 2), (4, 2)),  # too few hidden columns
            ((2, 2), (4, 4)),
            ((2, 3), (4, 3)),  # too many revealed columns
            ((2,), (4, 3)),
            ((2, 2), (12,)),
        ],
        ids=str,
    )
    def test_combine_refuses_mismatched_blocks(self, tie_model, revealed, hidden):
        _, _, factored = tie_model
        message = (
            f"cannot combine a revealed block of shape {revealed} with hidden "
            f"rows of shape {hidden}; expected (n, 2) and (n*k, 3)"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            factored.combine(np.zeros(revealed), np.zeros(hidden))

    @pytest.mark.parametrize(
        "revealed", [(0,), (4,), (2, 2), (1.5,), (True,)], ids=repr
    )
    def test_factored_sampler_refuses_bad_revealed(self, revealed):
        with pytest.raises(ValueError, match="revealed coordinates must"):
            FactoredSampler(
                dimension=3,
                revealed=revealed,
                marginal_fn=lambda _rng, size: np.zeros((size, 1)),
                conditional_fn=lambda x1, _rng, size: np.zeros((len(x1) * size, 2)),
            )

    def test_block_of_revealed_rows(self, tie_model):
        # an (n, n_revealed) block gets `size` hidden rows per revealed row,
        # grouped by revealed row, and `combine` pairs them up in that order
        _, _, factored = tie_model
        revealed = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
        gen = RngStream(4).generator()
        hidden = factored.draw_conditional(revealed, gen, 2)
        assert hidden.shape == (6, 3)
        # the Gaussian conditional ignores the revealed values: one draw of
        # six rows from the same stream
        alone = factored.draw_conditional(revealed[:1], RngStream(4).generator(), 6)
        assert np.array_equal(hidden, alone)
        full = factored.combine(revealed, hidden)
        assert np.array_equal(full[:, :2], np.repeat(revealed, 2, axis=0))
        assert np.array_equal(full[:, 2:], hidden)
        with pytest.raises(ValueError):
            factored.combine(revealed, hidden[:5])
        with pytest.raises(ValueError):
            factored.draw_conditional(revealed[0], gen, 2)
        # a block of no revealed rows has no hidden rows and combines to none
        none = factored.draw_marginal(gen, 0)
        assert none.shape == (0, 2)
        hidden = factored.draw_conditional(none, gen, 3)
        assert hidden.shape == (0, 3)
        assert factored.combine(none, hidden).shape == (0, 5)

    def test_empty_revealed_block(self):
        _, _, factored = make_gaussian_model(TIE_CONFIG, ())
        gen = RngStream(3).generator()
        revealed = factored.draw_marginal(gen, 4)
        assert revealed.shape == (4, 0)
        hidden = factored.draw_conditional(np.zeros((1, 0)), gen, 4)
        assert hidden.shape == (4, 5)
        assert factored.combine(np.zeros((1, 0)), hidden).shape == (4, 5)

    def test_full_revealed_block(self):
        _, _, factored = make_gaussian_model(TIE_CONFIG, range(1, 6))
        gen = RngStream(3).generator()
        revealed = factored.draw_marginal(gen, 1)
        hidden = factored.draw_conditional(revealed, gen, 3)
        assert hidden.shape == (3, 0)
        combined = factored.combine(revealed, hidden)
        assert np.array_equal(combined, np.tile(revealed, (3, 1)))

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            make_gaussian_model(TIE_CONFIG, (0, 1))
        with pytest.raises(ValueError):
            make_gaussian_model(TIE_CONFIG, (1, 6))
        with pytest.raises(ValueError):
            make_gaussian_model(TIE_CONFIG, (2, 2))
        # entries are refused, not truncated by int()
        with pytest.raises(ValueError, match="1.5"):
            make_gaussian_model(TIE_CONFIG, (1.5, 2))
        with pytest.raises(ValueError, match="True"):
            make_gaussian_model(TIE_CONFIG, (True, 2))
