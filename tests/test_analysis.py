"""Trajectory analysis, theorem harness reports, and CSV export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grapemix import (
    IngestError,
    ReportError,
    Trajectory,
    TrajectoryRecord,
    convergence_report,
    export_trajectory,
    import_trajectory,
    render_trajectory,
    task_variance,
    variance_monotonicity_check,
    variance_series,
)
from grapemix.analysis import VECTOR_COLUMNS


def make_record(step, losses, alpha=None, z=None, lr=0.1, evals=(0, 0, 0)):
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    k = 2
    return TrajectoryRecord(
        step=step,
        losses=losses,
        alpha=np.full(k, 1.0 / k) if alpha is None else np.asarray(alpha, float),
        z=np.full(n, 1.0 / n) if z is None else np.asarray(z, float),
        task_scores=np.zeros(n),
        domain_scores=np.zeros(k),
        lr=lr,
        train_grad_evals=evals[0],
        task_grad_evals=evals[1],
        domain_grad_evals=evals[2],
    )


def make_trajectory(losses_by_step, **kw):
    first = np.asarray(losses_by_step[0][1])
    traj = Trajectory(("d0", "d1"), tuple(f"t{i}" for i in range(first.size)))
    for step, losses in losses_by_step:
        traj.append(make_record(step, losses, **kw))
    return traj


class TestTaskVariance:
    def test_constant_vector(self):
        assert task_variance([3.3, 3.3, 3.3]) == pytest.approx(0.0, abs=1e-30)

    def test_two_point(self):
        assert task_variance([1.0, 3.0]) == pytest.approx(1.0)

    def test_population_normalization(self):
        # divide by N, not N-1
        assert task_variance([0.0, 2.0, 4.0]) == pytest.approx(8.0 / 3.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            losses = rng.uniform(0, 5, size=4)
            c = rng.uniform(0.1, 10)
            assert task_variance(c * losses) == pytest.approx(c * c * task_variance(losses), rel=1e-10)

    def test_single_task(self):
        assert task_variance([2.0]) == 0.0


class TestVarianceSeries:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), count=st.integers(1, 60))
    def test_bitwise_equal_to_per_record_variance(self, data, n, count):
        # bounded so that no square overflows
        row = st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=count, max_size=count))
        traj = make_trajectory(list(enumerate(rows)))
        want = np.array([task_variance(r.losses) for r in traj.records])
        assert variance_series(traj).tobytes() == want.tobytes()

    def test_empty_trajectory_gives_empty_series(self):
        assert variance_series(Trajectory(("d0",), ("t0", "t1"))).shape == (0,)


class TestVarianceCheck:
    def test_constant_losses(self):
        traj = make_trajectory([(t, [1.0, 2.0]) for t in range(0, 50, 5)])
        check = variance_monotonicity_check(traj, burn_in_fraction=0.2)
        assert check.found and check.t0 == 0 and check.max_increase == 0.0

    def test_detects_late_increase(self):
        losses = [(0, [1.0, 3.0]), (10, [1.0, 2.0]), (20, [1.0, 1.5]), (30, [1.0, 2.5])]
        check = variance_monotonicity_check(make_trajectory(losses), burn_in_fraction=0.2)
        assert not check.found
        assert check.max_increase > 1e-12

    def test_burn_in_excuses_early_increase(self):
        losses = [(0, [1.0, 1.1]), (1, [1.0, 3.0]), (50, [1.0, 2.0]), (100, [1.0, 1.5])]
        check = variance_monotonicity_check(make_trajectory(losses), burn_in_fraction=0.2)
        assert check.found and check.t0 == 1

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(("d0",), ("t0",))
        with pytest.raises(ReportError):
            variance_monotonicity_check(traj, 0.2)


class TestConvergenceReport:
    def test_matches_brute_force_on_hand_log(self):
        rng = np.random.default_rng(1)
        rows = [(t, rng.uniform(0.5, 2.0, size=3)) for t in range(10)]
        traj = make_trajectory(rows)
        true_opt = 0.4
        report = convergence_report(traj, true_opt, epsilon=0.35)
        # spreadsheet-style recomputation
        for i in range(len(rows)):
            running = min(max(l) for _, l in rows[: i + 1]) - true_opt
            assert report.running_min[i] == pytest.approx(running, abs=1e-12)
        hits = [t for i, (t, _) in enumerate(rows) if report.running_min[i] <= 0.35]
        assert report.first_step_within_epsilon == (hits[0] if hits else None)

    def test_running_min_nonincreasing(self):
        rng = np.random.default_rng(2)
        traj = make_trajectory([(t, rng.uniform(0.1, 4.0, size=2)) for t in range(40)])
        report = convergence_report(traj, 0.0)
        assert np.all(np.diff(report.running_min) <= 0.0)

    def test_already_at_optimum(self):
        traj = make_trajectory([(t, [0.7, 0.7]) for t in range(5)])
        report = convergence_report(traj, 0.7)
        np.testing.assert_allclose(report.running_min, np.zeros(5), atol=1e-15)
        assert report.first_step_within_epsilon == 0

    def test_first_step_within_epsilon(self):
        losses = [(0, [2.0, 1.0]), (5, [1.4, 1.0]), (10, [1.05, 1.0]), (15, [1.01, 1.0])]
        report = convergence_report(make_trajectory(losses), 1.0, epsilon=0.1)
        assert report.first_step_within_epsilon == 10

    def test_rate_fit_recovers_power_law(self):
        steps = np.arange(1, 201)
        traj = make_trajectory([(int(t), [1.0 + 5.0 / t, 1.0]) for t in steps])
        report = convergence_report(traj, 1.0)
        assert report.fit_slope == pytest.approx(-1.0, abs=0.05)

    def test_bad_losses_rejected(self):
        traj = make_trajectory([(0, [1.0, np.nan])])
        with pytest.raises(ReportError, match="record at step 0 lacks usable task losses"):
            convergence_report(traj, 0.0)
        # the first non-finite record is named
        traj = make_trajectory([(0, [1.0, 2.0]), (5, [1.0, 1.5]), (10, [np.inf, 1.0]), (15, [np.nan, 1.0])])
        with pytest.raises(ReportError, match="record at step 10 lacks usable task losses"):
            convergence_report(traj, 0.0)


class TestTrajectoryInvariants:
    def test_steps_strictly_increase(self):
        traj = make_trajectory([(0, [1.0]), (5, [1.0])])
        with pytest.raises(ValueError):
            traj.append(make_record(5, [1.0]))

    def test_simplex_fields_validated(self):
        traj = Trajectory(("d0", "d1"), ("t0",))
        with pytest.raises(ValueError):
            traj.append(make_record(0, [1.0], alpha=[0.7, 0.7]))
        with pytest.raises(ValueError):
            traj.append(make_record(0, [1.0], alpha=[-0.2, 1.2]))

    def test_lengths_validated(self):
        traj = Trajectory(("d0", "d1"), ("t0", "t1"))
        with pytest.raises(ValueError):
            traj.append(make_record(0, [1.0]))


class TestExportImport:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = [(t, rng.uniform(0.1, 3.0, size=2)) for t in range(0, 70, 7)]
        traj = make_trajectory(rows, evals=(7, 3, 4))
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        back = import_trajectory(path)
        assert back.task_labels == traj.task_labels
        assert back.domain_labels == traj.domain_labels
        np.testing.assert_array_equal(back.losses, traj.losses)
        np.testing.assert_array_equal(back.alphas, traj.alphas)
        np.testing.assert_array_equal(back.zs, traj.zs)
        assert [r.lr for r in back.records] == [r.lr for r in traj.records]
        assert [r.grad_evals for r in back.records] == [r.grad_evals for r in traj.records]
        # and re-exporting reproduces the file byte for byte
        path2 = tmp_path / "traj2.csv"
        export_trajectory(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_trajectory_is_header_only(self, tmp_path):
        traj = Trajectory(("d0",), ("t0", "t1"))
        path = tmp_path / "empty.csv"
        export_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        back = import_trajectory(path)
        assert len(back) == 0

    def test_column_count_formula(self, tmp_path):
        n, k = 3, 4
        traj = Trajectory(tuple(f"d{i}" for i in range(k)), tuple(f"t{i}" for i in range(n)))
        traj.append(
            TrajectoryRecord(
                step=0, losses=np.ones(n), alpha=np.full(k, 1 / k), z=np.full(n, 1 / n),
                task_scores=np.zeros(n), domain_scores=np.zeros(k), lr=0.1,
                train_grad_evals=0, task_grad_evals=0, domain_grad_evals=0,
            )
        )
        path = tmp_path / "cols.csv"
        export_trajectory(traj, path)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + n + k + n + n + k + 2
        assert header[0] == "step" and header[-2] == "lr" and header[-1] == "grad_evals"

    def test_import_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n")
        with pytest.raises(IngestError):
            import_trajectory(path)

    def test_import_rejects_short_rows(self, tmp_path):
        traj = make_trajectory([(0, [1.0, 2.0])])
        path = tmp_path / "trunc.csv"
        export_trajectory(traj, path)
        text = path.read_text().splitlines()
        path.write_text("\n".join([text[0], "1,2,3"]) + "\n")
        with pytest.raises(IngestError) as excinfo:
            import_trajectory(path)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "column,value,message",
        [("alpha.d0", "0.9", "record field alpha is not a valid simplex vector"),
         ("alpha.d0", "nan", "record field alpha is not a valid simplex vector"),
         ("z.t1", "nan", "record field z is not a valid simplex vector"),
         ("step", "0", "steps must strictly increase")],
        ids=["alpha-not-simplex", "alpha-nan", "z-nan", "step-not-increasing"],
    )
    def test_import_names_the_line_of_a_rejected_record(self, tmp_path, column, value, message):
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0]), (5, [1.0, 2.0])]), path)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[lines[0].split(",").index(column)] = value
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=f"line 3: {message}") as excinfo:
            import_trajectory(path)
        assert excinfo.value.line == 3

    def test_import_names_physical_lines_after_blank_lines(self, tmp_path):
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0])]), path)
        header, row = path.read_text().splitlines()
        # the repeated row sits on physical line 5, after two blank lines
        path.write_text("\n".join([header, row, "", "", row]) + "\n")
        with pytest.raises(IngestError, match="line 5: steps must strictly increase") as excinfo:
            import_trajectory(path)
        assert excinfo.value.line == 5

    def test_import_rejects_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0])]), path)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(IngestError, match="not UTF-8"):
            import_trajectory(path)

    def test_shortest_roundtrip_floats(self, tmp_path):
        # value with no short decimal form survives exactly
        value = 0.1 + 0.2  # 0.30000000000000004
        traj = make_trajectory([(0, [value, 1 / 3])], lr=value)
        path = tmp_path / "f.csv"
        export_trajectory(traj, path)
        back = import_trajectory(path)
        assert back.records[0].losses[0] == value
        assert back.records[0].losses[1] == 1 / 3
        assert back.records[0].lr == value


# Floats whose text form is hardest to round-trip: signed zero, the
# smallest subnormal, the largest double and 17-significant-digit values.
EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 0.30000000000000004, 1.2345678901234567e-7])
ANY_FLOAT = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
SIMPLEX_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(1e-3, 1.0))


@st.composite
def trajectories(draw):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    traj = Trajectory(tuple(f"d{i}" for i in range(k)), tuple(f"t{i}" for i in range(n)))

    def vector(size, elements):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    def simplex(size):
        raw = vector(size, SIMPLEX_ENTRY)
        if raw.sum() <= 0.0:
            raw[0] = 1.0
        return raw / raw.sum()

    step = 0
    for _ in range(draw(st.integers(0, 4))):
        step += draw(st.integers(1, 10**6))
        traj.append(
            TrajectoryRecord(
                step=step, losses=vector(n, ANY_FLOAT), alpha=simplex(k), z=simplex(n),
                task_scores=vector(n, ANY_FLOAT), domain_scores=vector(k, ANY_FLOAT), lr=draw(ANY_FLOAT),
                train_grad_evals=draw(st.integers(0, 10**9)), task_grad_evals=draw(st.integers(0, 10**9)),
                domain_grad_evals=draw(st.integers(0, 10**9)),
            )
        )
    return traj


class TestCsvRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(traj=trajectories())
    def test_import_reproduces_every_field(self, tmp_path_factory, traj):
        path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
        text = render_trajectory(traj)
        path.write_text(text, encoding="utf-8")
        back = import_trajectory(path)
        assert (back.domain_labels, back.task_labels) == (traj.domain_labels, traj.task_labels)
        assert len(back) == len(traj)
        for before, after in zip(traj.records, back.records):
            assert (after.step, after.grad_evals) == (before.step, before.grad_evals)
            # bitwise, so that -0.0 and 0.0 differ
            assert np.float64(after.lr).tobytes() == np.float64(before.lr).tobytes()
            for name, _, _ in VECTOR_COLUMNS:
                assert getattr(after, name).tobytes() == getattr(before, name).tobytes()
        assert render_trajectory(back) == text
