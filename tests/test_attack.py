import numpy as np
import pytest

from fedleak import attack
from fedleak.attack import (
    ToyImage,
    ToyModel,
    attack_experiment,
    invert_gradient,
    make_blob_dataset,
    ssim,
    toy_gradient,
)
from fedleak.cli import EXIT_OK, main
from fedleak.leakage import cell_topology
from fedleak.protocol import Mode


def random_model(seed, classes=4, pixels=64, scale=0.3):
    rng = np.random.default_rng(seed)
    return ToyModel(
        w=scale * rng.standard_normal((classes, pixels)),
        b=0.1 * rng.standard_normal(classes),
    )


def cross_entropy(model, img):
    z = model.w @ img.flat + model.b
    p = np.exp(z - z.max())
    p /= p.sum()
    return -np.log(p[img.label])


def finite_difference_gradient(model, img, h=1e-5):
    """Central differences over every model parameter."""
    grad = np.zeros(model.dim)
    idx = 0
    for c in range(model.w.shape[0]):
        for q in range(model.w.shape[1]):
            wp, wm = model.w.copy(), model.w.copy()
            wp[c, q] += h
            wm[c, q] -= h
            grad[idx] = (
                cross_entropy(ToyModel(w=wp, b=model.b), img)
                - cross_entropy(ToyModel(w=wm, b=model.b), img)
            ) / (2 * h)
            idx += 1
    for c in range(model.b.shape[0]):
        bp, bm = model.b.copy(), model.b.copy()
        bp[c] += h
        bm[c] -= h
        grad[idx] = (
            cross_entropy(ToyModel(w=model.w, b=bp), img)
            - cross_entropy(ToyModel(w=model.w, b=bm), img)
        ) / (2 * h)
        idx += 1
    return grad


def exact_input_from_gradient(observed, model):
    """Closed-form input recovery from a single-sample gradient.

    Each row of dW equals (p - e_y)_c * x, so dividing the row with the
    largest bias-gradient magnitude by that entry returns x exactly."""
    cut = model.w.size
    dw, db = observed[:cut].reshape(model.w.shape), observed[cut:]
    c = int(np.argmax(np.abs(db)))
    return dw[c] / db[c]


class TestToyTypes:
    def test_pixels_must_be_in_unit_range(self):
        with pytest.raises(ValueError, match="0, 1"):
            ToyImage(pixels=np.full((2, 2), 1.5), label=0)

    def test_model_shape_validation(self):
        with pytest.raises(ValueError):
            ToyModel(w=np.zeros((3, 4)), b=np.zeros(2))

    def test_blob_dataset_properties(self):
        images = make_blob_dataset(10, seed=0)
        assert [im.label for im in images] == [0, 1, 2, 3] * 2 + [0, 1]
        for im in images:
            assert im.pixels.shape == (8, 8)
            assert 0.0 <= im.pixels.min() and im.pixels.max() <= 1.0

    def test_blob_dataset_deterministic(self):
        a = make_blob_dataset(5, seed=3)
        b = make_blob_dataset(5, seed=3)
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a, b))


class TestToyGradient:
    def test_saturated_correct_prediction_has_zero_gradient(self):
        img = make_blob_dataset(1, seed=1)[0]
        # huge bias on the true class saturates the softmax
        b = np.full(4, -50.0)
        b[img.label] = 50.0
        model = ToyModel(w=np.zeros((4, 64)), b=b)
        assert np.abs(toy_gradient(model, img)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_finite_differences(self, seed):
        model = random_model(seed)
        img = make_blob_dataset(1, seed=seed)[0]
        analytic = toy_gradient(model, img)
        numeric = finite_difference_gradient(model, img)
        assert np.abs(analytic - numeric).max() < 1e-6

    def test_bias_gradient_sums_to_zero(self):
        model = random_model(5)
        img = make_blob_dataset(1, seed=5)[0]
        db = toy_gradient(model, img)[-4:]
        assert abs(db.sum()) < 1e-12

    def test_closed_form_recovery_is_exact(self):
        model = random_model(7, scale=0.02)
        img = make_blob_dataset(1, seed=7)[0]
        recovered = exact_input_from_gradient(toy_gradient(model, img), model)
        assert np.abs(recovered - img.flat).max() < 1e-8


class TestInvertGradient:
    def test_exact_gradient_reconstructs_well(self):
        model = random_model(0, scale=0.02)
        img = make_blob_dataset(1, seed=0)[0]
        recon = invert_gradient(
            toy_gradient(model, img), model, label=img.label, seed=1
        )
        assert ssim(recon, img) > 0.8

    def test_averaged_gradient_reconstructs_worse(self):
        model = random_model(0, scale=0.02)
        images = make_blob_dataset(10, seed=4)
        grads = np.stack([toy_gradient(model, im) for im in images])
        target = images[3]
        exact = invert_gradient(grads[3], model, label=target.label, seed=2)
        blurred = invert_gradient(
            grads.mean(axis=0), model, label=target.label, seed=2
        )
        assert ssim(exact, target) > ssim(blurred, target)

    def test_zero_observation_returns_uninformative_dummy(self):
        model = random_model(1, scale=0.02)
        img = make_blob_dataset(1, seed=2)[0]
        recon = invert_gradient(np.zeros(model.dim), model, label=img.label, seed=3)
        init = np.random.default_rng(3).uniform(0.0, 1.0, 64).reshape(8, 8)
        assert np.array_equal(recon.pixels, init)

    def test_deterministic_per_seed(self):
        model = random_model(2, scale=0.02)
        img = make_blob_dataset(1, seed=6)[0]
        obs = toy_gradient(model, img)
        a = invert_gradient(obs, model, label=img.label, seed=9)
        b = invert_gradient(obs, model, label=img.label, seed=9)
        assert np.array_equal(a.pixels, b.pixels)


def reference_descent(observed, model, label, iters, seed, lr=0.1):
    """The one-target descent loop that the batch replaced, kept as the
    reference: gemv products, the dense gradient g and a break on a zero
    gradient. g is built from a times a power of two, which leaves the
    cosine and the step's signs as they are, so that a nonzero a whose
    |g| would underflow still descends. Yields the dummy before the first
    step and after each step it takes."""
    x = np.random.default_rng(seed).uniform(0.0, 1.0, model.n_pixels)
    yield x
    obs_norm = np.linalg.norm(observed)
    if obs_norm == 0.0:
        return
    obs_hat = observed / obs_norm
    cut = model.w.size
    for it in range(iters):
        step = lr * (0.1 ** ((it >= iters // 2) + (it >= 3 * iters // 4)))
        z = model.w @ x + model.b
        p = np.exp(z - z.max())
        p /= p.sum()
        a = p.copy()
        a[label] -= 1.0
        a_scaled = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
        g = np.concatenate([np.outer(a_scaled, x).ravel(), a_scaled])
        g_norm = np.linalg.norm(g)
        if g_norm == 0.0:
            return
        g_hat = g / g_norm
        v = -(obs_hat - (g_hat @ obs_hat) * g_hat) / g_norm
        v_w = v[:cut].reshape(model.w.shape)
        u = v_w @ x + v[cut:]
        grad_x = model.w.T @ (p * u - p * (p @ u)) + v_w.T @ a
        x = np.clip(x - step * np.sign(grad_x), 0.0, 1.0)
        yield x


def reference_inversion(observed, model, label, iters, seed, lr=0.1):
    """The reference loop's final dummy."""
    *_, x = reference_descent(observed, model, label, iters, seed, lr)
    return x


def steps_taken(observed, model, label, iters, seed):
    """How many steps the reference loop takes before it stops."""
    return sum(1 for _ in reference_descent(observed, model, label, iters, seed)) - 1


def dummy(seed, pixels=64):
    """The starting image invert_gradient draws for one row's seed."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, pixels)


def saturating_model():
    """A model that a row labelled 3 can saturate, and the gradients of
    make_blob_dataset(8, seed=4) under it.

    Class 3 reads pixel 0 with a huge weight: a dummy whose pixel 0
    exceeds 0.75 predicts class 3 with probability exactly 1, so a row
    labelled 3 there has a zero gradient."""
    model = random_model(0, scale=0.02)
    w, b = model.w.copy(), model.b.copy()
    w[3, 0], b[3] = 4000.0, -2000.0
    model = ToyModel(w=w, b=b)
    images = make_blob_dataset(8, seed=4)
    return model, np.stack([toy_gradient(model, im) for im in images])


class TestInvertGradientBatch:
    """A stack of observations descends as one batch; each row behaves
    as if inverted alone."""

    @pytest.fixture(scope="class")
    def batch(self):
        model, grads = saturating_model()
        saturated_seed = next(s for s in range(100, 200) if dummy(s)[0] > 0.75)
        observed = np.stack(
            [
                grads[0],  # exact gradient, label 0
                grads[[1, 2, 5, 6]].mean(axis=0),  # averaged gradient, label 1
                np.zeros(model.dim),  # zero observation
                grads[3],  # saturated from the start, label 3
            ]
        )
        labels = [0, 1, 2, 3]
        seeds = [11, 12, 13, saturated_seed]
        recons = invert_gradient(observed, model, labels, iters=200, seed=seeds)
        return model, observed, labels, seeds, recons

    def test_saturated_row_starts_with_zero_gradient(self, batch):
        model, _, _, seeds, _ = batch
        start = ToyImage(pixels=dummy(seeds[3]).reshape(8, 8), label=3)
        assert not np.any(toy_gradient(model, start))

    @pytest.fixture(scope="class")
    def shared_seed_batch(self, batch):
        # every row repeats one SeedSequence object, so its dummy is drawn once
        model, observed, labels, _, _ = batch
        seeds = [np.random.SeedSequence(7)] * len(labels)
        recons = invert_gradient(observed, model, labels, iters=200, seed=seeds)
        return model, observed, labels, seeds, recons

    @pytest.mark.parametrize("fixture", ["batch", "shared_seed_batch"])
    def test_each_row_equals_its_batch_of_one(self, request, fixture):
        model, observed, labels, seeds, recons = request.getfixturevalue(fixture)
        assert len(recons) == len(labels)
        # the zero observation shows the dummy its row started from
        assert np.array_equal(recons[2].pixels.ravel(), dummy(seeds[2]))
        for row, recon in enumerate(recons):
            alone = invert_gradient(
                observed[row], model, labels[row], iters=200, seed=seeds[row]
            )
            assert recon.label == labels[row]
            assert np.array_equal(recon.pixels, alone.pixels), row

    def test_each_row_equals_the_one_target_loop(self, batch):
        # x moves by exactly +-step, so the batch's different rounding of
        # the products shows only if a gradient sign flips; none does here
        model, observed, labels, seeds, recons = batch
        for row, recon in enumerate(recons):
            expected = reference_inversion(observed[row], model, labels[row], 200, seeds[row])
            assert np.array_equal(recon.pixels.ravel(), expected), row

    @pytest.mark.parametrize("iters", [201, 202, 203, 1001])
    def test_early_phase_ends_equal_the_one_target_loop(self, batch, iters):
        # with the 200 steps above, the phase lengths (100, 50, 50) to
        # (101, 51, 51) and (500, 250, 251) put the phase ends at every
        # residue mod 4, so each pick of the state a phase ends on is hit
        model, observed, labels, seeds, _ = batch
        recons = invert_gradient(observed, model, labels, iters=iters, seed=seeds)
        for row, recon in enumerate(recons):
            expected = reference_inversion(observed[row], model, labels[row], iters, seeds[row])
            assert np.array_equal(recon.pixels.ravel(), expected), (iters, row)

    def test_row_order_does_not_matter(self, batch):
        model, observed, labels, seeds, recons = batch
        backwards = invert_gradient(
            observed[::-1], model, labels[::-1], iters=200, seed=seeds[::-1]
        )
        for recon, other in zip(recons, backwards[::-1]):
            assert np.array_equal(recon.pixels, other.pixels)

    def test_zero_and_saturated_rows_keep_their_dummies(self, batch):
        *_, seeds, recons = batch
        for row in (2, 3):
            assert np.array_equal(recons[row].pixels.ravel(), dummy(seeds[row]))

    def test_other_rows_go_on(self, batch):
        *_, seeds, recons = batch
        for row in (0, 1):
            assert not np.array_equal(recons[row].pixels.ravel(), dummy(seeds[row]))

    def test_non_finite_cosine_raises(self, batch):
        model, observed, labels, seeds, _ = batch
        bad = observed.copy()
        bad[1, 0] = np.nan
        with pytest.raises(RuntimeError, match=r"diverged at iteration 0: .* \(row 1\)"):
            invert_gradient(bad, model, labels, iters=5, seed=seeds)

    def test_non_finite_cosine_names_the_row_in_observed(self, batch):
        # the zero observation before it leaves the descent at once, so
        # the bad row runs as the first running row but is row 1 here
        model, observed, labels, seeds, _ = batch
        bad = observed[[2, 0]].copy()
        bad[1, 0] = np.nan
        with pytest.raises(RuntimeError, match=r"\(row 1\)"):
            invert_gradient(bad, model, [labels[2], labels[0]], iters=5, seed=[seeds[2], seeds[0]])

    @pytest.mark.parametrize(
        "label, zero_row", [(4, False), (-1, False), (7, True)], ids=["4", "-1", "7-zero-row"]
    )
    def test_label_out_of_range_rejected_before_descent(self, monkeypatch, label, zero_row):
        # a zero observation never descends, but its label is checked too
        model = random_model(1, scale=0.02)
        observed = np.ones((2, model.dim))
        if zero_row:
            observed[1] = 0.0

        def no_descent(z):
            raise AssertionError("the descent started")

        monkeypatch.setattr(attack, "_softmax", no_descent)
        with pytest.raises(ValueError, match=f"label {label} of row 1 out of range for 4 classes"):
            invert_gradient(observed, model, [0, label], iters=5, seed=[0, 1])

    def test_one_label_and_seed_per_row(self, batch):
        model, observed, labels, seeds, _ = batch
        with pytest.raises(ValueError, match="one label and one seed per observed row"):
            invert_gradient(observed, model, labels[:3], iters=5, seed=seeds)

    @pytest.mark.parametrize(
        "iters, lr",
        [(0, 0.1), (-5, 0.1), (10, 0.0), (10, -0.1), (10, float("nan")), (10, float("inf"))],
    )
    def test_bad_iters_or_lr_rejected(self, iters, lr):
        model = random_model(1, scale=0.02)
        with pytest.raises(ValueError, match="iters must be >= 1|lr must be finite"):
            invert_gradient(np.ones(model.dim), model, 0, iters=iters, lr=lr)

    def test_non_square_image_rejected(self):
        model = random_model(1, pixels=60, scale=0.02)
        with pytest.raises(ValueError, match="model has 60 pixels, not a square image"):
            invert_gradient(np.ones(model.dim), model, 0, iters=5)


class TestSaturationMidDescent:
    """A row that saturates after some steps leaves the batch then, and
    the rows after it go on as if it had never been there."""

    ITERS = 200

    @pytest.fixture(scope="class")
    def batch(self):
        model, grads = saturating_model()
        # a dummy labelled 3 matched against an image of class 3 pushes
        # pixel 0 up until the prediction saturates
        saturating_seed = next(
            s for s in range(100, 200)
            if 0 < steps_taken(grads[7], model, 3, self.ITERS, s) < self.ITERS // 2
        )
        observed = np.stack([grads[0], grads[7], grads[1], grads[[1, 2, 5, 6]].mean(axis=0)])
        labels = [0, 3, 1, 1]
        seeds = [11, saturating_seed, 12, 13]
        recons = invert_gradient(observed, model, labels, iters=self.ITERS, seed=seeds)
        return model, observed, labels, seeds, recons

    def test_row_saturates_mid_descent(self, batch):
        model, observed, labels, seeds, recons = batch
        start = ToyImage(pixels=dummy(seeds[1]).reshape(8, 8), label=3)
        assert np.any(toy_gradient(model, start))
        # on its way, a step has a nonzero gradient whose norm underflows
        # to 0; the row goes on from there, and stops only where its
        # gradient is exactly 0
        path = reference_descent(observed[1], model, 3, self.ITERS, seeds[1])
        grads = [toy_gradient(model, ToyImage(x.reshape(8, 8), 3)) for x in path]
        assert any(np.any(g) and np.linalg.norm(g) == 0.0 for g in grads[:-1])
        assert not np.any(toy_gradient(model, recons[1]))
        assert not np.array_equal(recons[1].pixels, start.pixels)

    def test_each_row_equals_its_batch_of_one_and_the_reference(self, batch):
        model, observed, labels, seeds, recons = batch
        for row, recon in enumerate(recons):
            alone = invert_gradient(
                observed[row], model, labels[row], iters=self.ITERS, seed=seeds[row]
            )
            expected = reference_inversion(
                observed[row], model, labels[row], self.ITERS, seeds[row]
            )
            assert np.array_equal(recon.pixels, alone.pixels), row
            assert np.array_equal(recon.pixels.ravel(), expected), row

    def test_rows_after_it_are_unaffected(self, batch):
        model, observed, labels, seeds, recons = batch
        rest = [0, 2, 3]
        without = invert_gradient(
            observed[rest], model, [labels[r] for r in rest], iters=self.ITERS,
            seed=[seeds[r] for r in rest],
        )
        for row, recon in zip(rest, without):
            assert np.array_equal(recons[row].pixels, recon.pixels), row


class TestWorkloadBatch:
    """The benchmark's attack batch (n=6, corrupt node 0, every mode at
    densities 0.4, 0.8 and 1.0) matches the one-target loop."""

    def run_batch(self, tmp_path, monkeypatch, seed, iters):
        """The workload's one invert_gradient call at this seed and
        iteration count, and the descent steps it ran (one _softmax call
        per step)."""
        calls = []
        steps = []
        real = attack.invert_gradient
        real_softmax = attack._softmax

        def counting_softmax(z):
            steps.append(1)
            return real_softmax(z)

        def spy(observed, model, label, **kwargs):
            monkeypatch.setattr(attack, "_softmax", counting_softmax)
            recons = real(observed, model, label, **kwargs)
            monkeypatch.setattr(attack, "_softmax", real_softmax)
            calls.append((observed, model, label, kwargs["seed"], recons))
            return recons

        monkeypatch.setattr(attack, "invert_gradient", spy)
        argv = ["attack", "--seed", str(seed), "--modes", "cfl,cfl_sa,dfl,dfl_sa", "--n", "6",
                "--densities", "0.4,0.8,1.0", "--iters", str(iters), "--corrupt", "0",
                "--seeds", "1", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        ((observed, model, labels, seeds, recons),) = calls
        assert len(recons) == 40
        return observed, model, labels, seeds, recons, len(steps)

    def test_every_row_equals_the_one_target_loop(self, tmp_path, monkeypatch):
        observed, model, labels, seeds, recons, _ = self.run_batch(tmp_path, monkeypatch, 0, 300)
        for row, recon in enumerate(recons):
            expected = reference_inversion(observed[row], model, labels[row], 300, seeds[row])
            assert np.array_equal(recon.pixels.ravel(), expected), row

    def test_period_four_batch_ends_its_phases_early_and_exactly(self, tmp_path, monkeypatch):
        # at seed 9 some rows repeat only every four steps; the batch
        # still runs under 150 of its 1000 steps, and every row ends
        # where the loop that runs every step ends
        observed, model, labels, seeds, recons, steps = self.run_batch(
            tmp_path, monkeypatch, 9, 1000
        )
        assert steps <= 150
        for row, recon in enumerate(recons):
            expected = reference_inversion(observed[row], model, labels[row], 1000, seeds[row])
            assert np.array_equal(recon.pixels.ravel(), expected), row


def scalar_ssim(a, b):
    """The one-image SSIM on numpy scalars, whose ``**`` squares through
    C pow: the reference for ssim's last bits."""
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(ddof=1), b.var(ddof=1)
    cov = float(((a - mu_a) * (b - mu_b)).sum() / (a.size - 1))
    return float(
        ((2.0 * mu_a * mu_b + 1e-4) * (2.0 * cov + 9e-4))
        / ((mu_a**2 + mu_b**2 + 1e-4) * (var_a + var_b + 9e-4))
    )


class TestSsim:
    # at seed 174 a mean's square by C pow differs in the last bit from
    # its square by multiplication, which an array's ** takes
    @pytest.mark.parametrize("seed", [0, 1, 2, 174])
    def test_stack_equals_each_pair_bit_for_bit(self, seed):
        # pixels in [-0.5, 1.5]; row 0 pairs a constant image, row 1 an
        # identical pair
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-0.5, 1.5, (2, 12, 8, 8))
        a[0] = rng.uniform()
        b[1] = a[1]
        values = ssim(a, b)
        assert values.shape == (12,)
        assert values[1] == pytest.approx(1.0, abs=1e-12)
        for row in range(12):
            alone = ssim(a[row], b[row])
            assert type(alone) is float
            assert values[row] == alone == scalar_ssim(a[row], b[row]), row

    def test_identical_images_score_one(self):
        img = make_blob_dataset(1, seed=0)[0]
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        a, b = make_blob_dataset(2, seed=1)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_two_by_two_hand_evaluation(self):
        # independent scalar evaluation of the formula on a fixed grid
        a = np.array([[0.2, 0.4], [0.6, 0.8]])
        b = 1.0 - a
        mu = 0.5
        var = ((0.3) ** 2 + (0.1) ** 2 + (0.1) ** 2 + (0.3) ** 2) / 3.0
        cov = -var
        c1, c2 = 1e-4, 9e-4
        expected = ((2 * mu * mu + c1) * (2 * cov + c2)) / (
            (mu * mu + mu * mu + c1) * (var + var + c2)
        )
        assert ssim(a, b) == pytest.approx(expected, abs=1e-12)
        assert ssim(a, b) < 0.0  # inverted mid-contrast image anti-correlates

    def test_constant_image_bounded_away_from_one(self):
        img = make_blob_dataset(1, seed=3)[0]
        flat = np.full((8, 8), 0.5)
        assert ssim(img, flat) < 0.5

    @pytest.mark.parametrize(
        "shape_a, shape_b, message",
        [((2, 2), (3, 3), "shapes differ"), ((2, 8, 8), (3, 8, 8), "shapes differ"),
         ((64,), (64,), "need images or"), ((1, 2, 8, 8), (1, 2, 8, 8), "need images or")],
        ids=["images", "stacks", "1-d", "4-d"],
    )
    def test_shape_mismatch_rejected(self, shape_a, shape_b, message):
        with pytest.raises(ValueError, match=message):
            ssim(np.zeros(shape_a), np.zeros(shape_b))


def quick_attack(mode, density, seed=0, n=10, iters=120):
    graph, weights = cell_topology(seed, n, density)
    view = (mode, graph, weights) if mode.decentralized else (mode, None, None)
    (result,) = attack_experiment([view], n=n, seed=seed, iters=iters)
    return result


class TestAttackExperiment:
    def test_every_honest_node_gets_a_target(self):
        result = quick_attack(Mode.DFL, 0.4)
        assert [t.node for t in result.targets] == list(range(1, 10))
        assert all(-1.0 <= t.ssim <= 1.0 for t in result.targets)

    def test_neighbor_flags_follow_graph(self):
        graph, _ = cell_topology(0, 10, 0.4)
        result = quick_attack(Mode.DFL, 0.4)
        nbrs = set(int(j) for j in graph.neighbors(0))
        for t in result.targets:
            assert t.is_neighbor == (t.node in nbrs)

    def test_centralized_modes_have_no_neighbor_flag(self):
        result = quick_attack(Mode.CFL, 0.4)
        assert all(t.is_neighbor is None for t in result.targets)

    def test_deterministic_per_seed(self):
        a = quick_attack(Mode.DFL_SA, 0.4, seed=5)
        b = quick_attack(Mode.DFL_SA, 0.4, seed=5)
        assert a.average_ssim == b.average_ssim
        assert all(
            np.array_equal(x.image.pixels, y.image.pixels)
            for x, y in zip(a.targets, b.targets)
        )

    def test_complete_graph_dfl_equals_cfl_exactly(self):
        # same observed gradients and same per-target dummy seeds
        cfl = quick_attack(Mode.CFL, 1.0)
        dfl = quick_attack(Mode.DFL, 1.0)
        assert cfl.average_ssim == dfl.average_ssim

    def test_complete_graph_dfl_sa_equals_cfl_sa_exactly(self):
        cfl_sa = quick_attack(Mode.CFL_SA, 1.0)
        dfl_sa = quick_attack(Mode.DFL_SA, 1.0)
        assert cfl_sa.average_ssim == dfl_sa.average_ssim

    def test_exact_gradients_beat_aggregates_on_average(self):
        gaps = []
        for seed in range(3):
            cfl = quick_attack(Mode.CFL, 0.4, seed=seed)
            cfl_sa = quick_attack(Mode.CFL_SA, 0.4, seed=seed)
            gaps.append(cfl.average_ssim - cfl_sa.average_ssim)
        assert np.mean(gaps) > 0.05

    def test_multi_view_equals_views_run_alone(self):
        graph, weights = cell_topology(4, 7, 0.5)
        views = [
            (Mode.CFL, None, None),
            (Mode.DFL, graph, weights),
            (Mode.CFL_SA, None, None),
            (Mode.DFL_SA, graph, weights),
        ]
        kwargs = dict(n=7, seed=4, corrupt_node=2, iters=120)
        together = attack_experiment(views, **kwargs)
        assert len(together) == len(views)
        for view, result in zip(views, together):
            (alone,) = attack_experiment([view], **kwargs)
            assert result.mode is view[0]
            assert result.average_ssim == alone.average_ssim
            for t, u in zip(result.targets, alone.targets, strict=True):
                assert (t.node, t.is_neighbor, t.ssim) == (u.node, u.is_neighbor, u.ssim)
                assert np.array_equal(t.image.pixels, u.image.pixels)

    def test_each_target_scores_its_own_image(self, monkeypatch):
        datasets = []

        def recorded(count, seed):
            datasets.append(make_blob_dataset(count, seed))
            return datasets[-1]

        monkeypatch.setattr(attack, "make_blob_dataset", recorded)
        graph, weights = cell_topology(1, 6, 0.6)
        views = [(Mode.CFL_SA, None, None), (Mode.DFL, graph, weights)]
        results = attack_experiment(views, n=6, seed=1, iters=60)
        (images,) = datasets
        for result in results:
            for t in result.targets:
                assert type(t.ssim) is float
                assert t.ssim == ssim(t.image, images[t.node]), (result.mode, t.node)

    def test_topology_required_for_decentralized(self):
        with pytest.raises(ValueError, match="requires a graph"):
            attack_experiment([(Mode.DFL, None, None)], n=10, seed=0)

    def test_minimum_network_size(self):
        with pytest.raises(ValueError, match="n >= 3"):
            attack_experiment([(Mode.CFL, None, None)], n=2, seed=0)


class TestOneRoundView:
    """The attack runs on what the adversary receives in one round."""

    N, SEED, CORRUPT = 8, 3, 1

    @pytest.fixture(scope="class")
    def run(self):
        """One run of every mode, with the gradients and observations
        that attack_experiment built."""
        graph, weights = cell_topology(self.SEED, self.N, 0.4)
        views = [
            (Mode.CFL_SA, None, None),
            (Mode.DFL, graph, weights),
            (Mode.DFL_SA, graph, weights),
        ]
        seen = {}
        with pytest.MonkeyPatch.context() as mp:
            real_gradient, real_invert = attack.toy_gradient, attack.invert_gradient

            def gradient_spy(model, img):
                grad = real_gradient(model, img)
                seen.setdefault("grads", []).append(grad)
                return grad

            def invert_spy(observed, *args, **kwargs):
                seen["observed"] = observed
                return real_invert(observed, *args, **kwargs)

            mp.setattr(attack, "toy_gradient", gradient_spy)
            mp.setattr(attack, "invert_gradient", invert_spy)
            results = attack_experiment(
                views, n=self.N, seed=self.SEED, corrupt_node=self.CORRUPT, iters=60
            )
        grads = np.stack(seen["grads"])
        rows = self.N - 1
        observed = {
            mode: seen["observed"][idx * rows:(idx + 1) * rows]
            for idx, (mode, _, _) in enumerate(views)
        }
        return graph, weights, grads, observed, dict(zip((v[0] for v in views), results))

    @pytest.mark.parametrize("mode", [Mode.DFL, Mode.DFL_SA])
    def test_non_neighbor_returns_its_dummy(self, run, mode):
        graph, _, _, _, results = run
        far = [t for t in results[mode].targets if not t.is_neighbor]
        assert far  # the graph leaves some node out of the corrupt node's view
        for t in far:
            start = dummy(np.random.SeedSequence(entropy=(self.SEED, t.node)))
            assert np.array_equal(t.image.pixels.ravel(), start), t.node
            assert not graph.adjacency[self.CORRUPT, t.node]

    @pytest.mark.parametrize("mode", [Mode.CFL_SA, Mode.DFL_SA])
    def test_sa_observation_is_the_aggregate_without_own_gradient(self, run, mode):
        _, weights, grads, observed, _ = run
        k = self.CORRUPT
        a = np.ones(self.N) if mode is Mode.CFL_SA else weights.row(k)
        reduced = a @ grads - a[k] * grads[k]
        nodes = [i for i in range(self.N) if i != k]
        for i, obs in zip(nodes, observed[mode]):
            if a[i] == 0.0:
                assert not np.any(obs)
                continue
            scale = (obs @ reduced) / (reduced @ reduced)
            assert scale > 0.0
            np.testing.assert_allclose(obs, scale * reduced, rtol=1e-12, atol=1e-15)
            # the aggregate that still holds g_k is not what is attacked
            full = a @ grads
            assert np.abs(obs / np.linalg.norm(obs) - full / np.linalg.norm(full)).max() > 1e-3

    def test_dfl_neighbor_observation_is_its_gradient(self, run):
        graph, _, grads, observed, _ = run
        nodes = [i for i in range(self.N) if i != self.CORRUPT]
        for i, obs in zip(nodes, observed[Mode.DFL]):
            expected = grads[i] if graph.adjacency[self.CORRUPT, i] else np.zeros_like(obs)
            assert np.array_equal(obs, expected), i
