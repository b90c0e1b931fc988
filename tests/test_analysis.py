"""Trajectory analysis, theorem harness reports, and CSV export."""

import builtins
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grapemix import (
    DimensionError,
    IngestError,
    MixtureStore,
    QuadraticTaskFamily,
    ReweightConfig,
    ReportError,
    SimplexWeights,
    Trajectory,
    convergence_report,
    export_trajectory,
    import_trajectory,
    render_trajectory,
    train_run,
    variance_monotonicity_check,
    variance_series,
)
from grapemix import analysis, simplex
from grapemix.analysis import FIELDS, FIRST_ROWS, VECTOR_COLUMNS


def make_record(step, losses, alpha=None, z=None, lr=0.1, evals=(0, 0, 0)):
    """The fields of one record, as ``Trajectory.append`` takes them."""
    losses = np.asarray(losses, dtype=np.float64)
    n = losses.size
    k = 2
    return dict(
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
        traj.append(**make_record(step, losses, **kw))
    return traj


def one_record_variance(losses) -> float:
    """``variance_series`` of a trajectory holding one record with these task losses."""
    (variance,) = variance_series(make_trajectory([(0, losses)]))
    return float(variance)


class TestVarianceSeries:
    def test_constant_vector(self):
        assert one_record_variance([3.3, 3.3, 3.3]) == pytest.approx(0.0, abs=1e-30)

    def test_two_point(self):
        assert one_record_variance([1.0, 3.0]) == pytest.approx(1.0)

    def test_population_normalization(self):
        # divide by N, not N-1
        assert one_record_variance([0.0, 2.0, 4.0]) == pytest.approx(8.0 / 3.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            losses = rng.uniform(0, 5, size=4)
            c = rng.uniform(0.1, 10)
            assert one_record_variance(c * losses) == pytest.approx(c * c * one_record_variance(losses), rel=1e-10)

    def test_single_task(self):
        assert one_record_variance([2.0]) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), count=st.integers(1, 60))
    def test_bitwise_equal_to_per_record_variance(self, data, n, count):
        # bounded so that no square overflows
        row = st.lists(st.floats(-1e150, 1e150), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=count, max_size=count))
        traj = make_trajectory(list(enumerate(rows)))
        want = np.array([np.var(r.losses) for r in traj.records])
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
            traj.append(**make_record(5, [1.0]))

    def test_simplex_fields_validated(self):
        traj = Trajectory(("d0", "d1"), ("t0",))
        with pytest.raises(ValueError):
            traj.append(**make_record(0, [1.0], alpha=[0.7, 0.7]))
        with pytest.raises(ValueError):
            traj.append(**make_record(0, [1.0], alpha=[-0.2, 1.2]))

    def test_lengths_validated(self):
        traj = Trajectory(("d0", "d1"), ("t0", "t1"))
        with pytest.raises(ValueError):
            traj.append(**make_record(0, [1.0]))

    def test_a_record_with_several_faults_reports_the_first_rule_it_breaks(self):
        # the rules in order: step, lengths, alpha, z, then the int64 columns
        traj = make_trajectory([(5, [1.0, 2.0])])
        bad_z = [0.5, np.nan]
        cases = [
            (make_record(5, [1.0], alpha=[0.9, 0.9], z=bad_z), "steps must strictly increase, got 5 after 5"),
            (make_record(6, [1.0], alpha=[0.9, 0.9], z=bad_z), "record field losses has wrong length"),
            (make_record(6, [1.0, 2.0], alpha=[0.9, 0.9], z=bad_z), "record field alpha is not a valid simplex vector"),
            (make_record(2**63, [1.0, 2.0], z=bad_z), "record field z is not a valid simplex vector"),
            (make_record(2**63, [1.0, 2.0]), "Python int too large to convert to C long"),
            (make_record(6, [1.0, 2.0], evals=(2**63, 0, 0)), "Python int too large to convert to C long"),
        ]
        for record, message in cases:
            with pytest.raises((ValueError, OverflowError), match=re.escape(message)):
                traj.append(**record)
        assert len(traj) == 1


def _writable(array) -> bool:
    try:
        array[...] = array
    except ValueError:
        return False
    return True


class TestColumns:
    """The columns across several doublings (a trajectory starts with FIRST_ROWS rows)."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), k=st.integers(1, 4), count=st.integers(0, 8 * FIRST_ROWS + 3),
           seed=st.integers(0, 2**32 - 1), wrapped=st.booleans())
    def test_columns_hold_what_was_appended(self, n, k, count, seed, wrapped):
        rng = np.random.default_rng(seed)
        traj = Trajectory(tuple(f"d{i}" for i in range(k)), tuple(f"t{i}" for i in range(n)))
        rows, handed_out = [], []
        step = 0
        for i in range(count):
            step += int(rng.integers(1, 1000))
            alpha, z = (rng.dirichlet(np.ones(m)) for m in (k, n))
            row = dict(step=step, losses=rng.normal(size=n), alpha=alpha, z=z, task_scores=rng.normal(size=n),
                       domain_scores=rng.normal(size=k), lr=float(rng.random()),
                       train_grad_evals=i, task_grad_evals=2 * i, domain_grad_evals=3 * i)
            rows.append(row)
            if wrapped:  # weights, which the trajectory takes without judging them again
                row = dict(row, alpha=SimplexWeights(alpha, traj.domain_labels), z=SimplexWeights(z, traj.task_labels))
            traj.append(**row)
            if i % 7 == 0:  # kept across the growths that follow
                handed_out.append([(a, a.copy()) for a in (traj.steps, traj.losses, traj.alphas, traj.zs)])

        assert len(traj) == len(traj.records) == count
        for name, column in (("step", traj.steps), ("losses", traj.losses), ("alpha", traj.alphas), ("z", traj.zs)):
            want = np.array([r[name] for r in rows]).reshape(column.shape)
            assert column.shape[0] == count and column.tobytes() == want.tobytes()
            assert not _writable(column)
        for row, record in zip(rows, traj.records):
            for name, value in row.items():
                assert np.asarray(getattr(record, name)).tobytes() == np.asarray(value).tobytes(), name
            for name in ("losses", "alpha", "z", "task_scores", "domain_scores"):
                assert not _writable(getattr(record, name))
            assert type(record.step) is int and type(record.lr) is float
        if count:
            last = rows[-1]
            assert traj.records[-1].step == last["step"]
            assert traj.final_counters == (last["train_grad_evals"], last["task_grad_evals"], last["domain_grad_evals"])
            assert [r.step for r in traj.records[-3:]] == [r["step"] for r in rows[-3:]]
        for arrays in handed_out:
            for array, values in arrays:
                assert array.tobytes() == values.tobytes()

    def test_records_compare_by_identity(self):
        traj = make_trajectory([(0, [1.0, 2.0]), (1, [1.0, 2.0])])
        first, second = traj[0], traj[1]
        assert first == first and first != second and first != traj[0]
        assert len({first, second}) == 2

    def test_append_rejects_and_leaves_the_trajectory_unchanged(self):
        traj = make_trajectory([(t, [1.0, 2.0]) for t in range(0, 3 * FIRST_ROWS, 3)])
        before = render_trajectory(traj)
        bad = {
            "alpha off the simplex": make_record(1000, [1.0, 2.0], alpha=[0.7, 0.7]),
            "z off the simplex": make_record(1000, [1.0, 2.0], z=[0.5, np.nan]),
            "wrong length": make_record(1000, [1.0, 2.0, 3.0]),
            "wrong alpha length": make_record(1000, [1.0, 2.0], alpha=[1.0]),
            "repeated step": make_record(traj.records[-1].step, [1.0, 2.0]),
            "earlier step": make_record(1, [1.0, 2.0]),
        }
        for case, record in bad.items():
            with pytest.raises(ValueError):
                traj.append(**record)
            assert render_trajectory(traj) == before, case
        with pytest.raises(IndexError):
            traj.records[len(traj)]


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

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\u2028b", "a\ud800b"],
                             ids=["comma", "lf", "cr", "u2028", "surrogate"])
    def test_labels_the_csv_cannot_carry_are_rejected(self, label):
        # the header's fields are split at commas and its lines at every line break, and the
        # file is UTF-8, which cannot encode a lone surrogate
        for sides in [((label,), ("t0",)), (("d0",), ("t0", label))]:
            with pytest.raises(DimensionError, match=re.escape(repr(label))):
                Trajectory(*sides)
        family = QuadraticTaskFamily(np.ones((1, 2)), np.zeros((1, 2)))
        store = MixtureStore({label: family.domain_dataset([1.0])}, {"t0": family.task_dataset(0)})
        calls = []
        family._loss = family._grad = lambda *args: calls.append(args)
        with pytest.raises(DimensionError, match=re.escape(repr(label))):
            train_run(ReweightConfig(total_steps=3), family, store, seed=0)
        assert not calls  # rejected before the first step

    def test_labels_the_csv_can_carry_round_trip(self, tmp_path):
        traj = Trajectory(("d.0", ""), ('t "0"', " t1 ", "tä"))
        traj.append(**make_record(0, [1.0, 2.0, 3.0]))
        export_trajectory(traj, tmp_path / "traj.csv")
        back = import_trajectory(tmp_path / "traj.csv")
        assert (back.domain_labels, back.task_labels) == (traj.domain_labels, traj.task_labels)

    def test_a_repeated_label_is_rejected(self, tmp_path):
        for sides in [(("d0", "d0"), ("t0",)), (("d0",), ("t0", "t1", "t0"))]:
            with pytest.raises(DimensionError, match="label 'd0' .* repeated|label 't0' .* repeated"):
                Trajectory(*sides)
        # a hand-edited header that names one domain twice
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0])]), path)
        path.write_text(path.read_text().replace(".d1,", ".d0,"))
        with pytest.raises(IngestError, match="line 1: label 'd0' .* repeated") as excinfo:
            import_trajectory(path)
        assert excinfo.value.line == 1

    def test_import_accepts_steps_across_the_whole_int64_range(self, tmp_path):
        # consecutive steps whose difference does not fit in an int64
        steps = [-(2**63), -1, 2**62, 2**63 - 1]
        traj = make_trajectory([(step, [1.0, 2.0]) for step in steps])
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        assert import_trajectory(path).steps.tolist() == steps

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
        traj.append(step=0, losses=np.ones(n), alpha=np.full(k, 1 / k), z=np.full(n, 1 / n),
                    task_scores=np.zeros(n), domain_scores=np.zeros(k), lr=0.1,
                    train_grad_evals=0, task_grad_evals=0, domain_grad_evals=0)
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

    @pytest.mark.parametrize("field,value", [("alpha", "-1e308"), ("alpha", "1e308"), ("z", "-1e308")])
    def test_import_rejects_an_overflowing_weight_row_without_a_warning(self, tmp_path, field, value):
        # every entry of the row is huge, so its plain sum overflows; tier-1 turns numpy
        # RuntimeWarnings into errors, so a warning would escape here instead of IngestError
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0]), (5, [1.0, 2.0])]), path)
        lines = path.read_text().splitlines()
        header, parts = lines[0].split(","), lines[2].split(",")
        for i, name in enumerate(header):
            if name.startswith(f"{field}."):
                parts[i] = value
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=f"line 3: record field {field} is not a valid simplex vector"):
            import_trajectory(path)

    def test_import_names_physical_lines_after_blank_lines(self, tmp_path):
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0])]), path)
        header, row = path.read_text().splitlines()
        # the repeated row sits on physical line 5, after two blank lines
        path.write_text("\n".join([header, row, "", "", row]) + "\n")
        with pytest.raises(IngestError, match="line 5: steps must strictly increase") as excinfo:
            import_trajectory(path)
        assert excinfo.value.line == 5

    @pytest.mark.parametrize("column", ["step", "grad_evals"])
    def test_import_rejects_an_integer_past_int64(self, tmp_path, column):
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(0, [1.0, 2.0])]), path)
        header, row = path.read_text().splitlines()
        parts = row.split(",")
        parts[header.split(",").index(column)] = str(2**63)
        path.write_text("\n".join([header, ",".join(parts)]) + "\n")
        with pytest.raises(IngestError) as excinfo:
            import_trajectory(path)
        assert excinfo.value.line == 2

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
            step=step, losses=vector(n, ANY_FLOAT), alpha=simplex(k), z=simplex(n),
            task_scores=vector(n, ANY_FLOAT), domain_scores=vector(k, ANY_FLOAT), lr=draw(ANY_FLOAT),
            train_grad_evals=draw(st.integers(0, 10**9)), task_grad_evals=draw(st.integers(0, 10**9)),
            domain_grad_evals=draw(st.integers(0, 10**9)),
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


def row_by_row_import(path) -> Trajectory:
    """The importer as it was before it parsed and judged the rows in bulk, kept as the oracle of
    ``import_trajectory``: every row parsed on its own and added by its own ``Trajectory.append``."""
    text = Path(path).read_text(encoding="utf-8")
    rows = ((lineno, line.split(",")) for lineno, line in enumerate(text.splitlines(), start=1) if line)
    _, columns = next(rows)
    labels = {side: [c[len(prefix) + 1 :] for c in columns if c.startswith(prefix + ".")]
              for _, prefix, side in reversed(VECTOR_COLUMNS)}
    trajectory = Trajectory(**labels)
    bounds = np.cumsum([0, *(len(getattr(trajectory, side)) for _, _, side in VECTOR_COLUMNS)]).tolist()
    for lineno, parts in rows:
        if len(parts) != len(columns):
            raise IngestError(f"expected {len(columns)} fields, got {len(parts)}", lineno)
        try:
            row = np.array([float(p) for p in parts[1:-1]])
            vectors = [row[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            trajectory.append(int(parts[0]), *vectors, float(row[-1]), int(parts[-1]), 0, 0)
        except (ValueError, OverflowError) as exc:
            raise IngestError(str(exc), lineno) from exc
    return trajectory


def outcome(importer, path):
    """What ``importer`` makes of ``path``: the line and text of its IngestError, or every column's bytes."""
    try:
        trajectory = importer(path)
    except IngestError as exc:
        return exc.line, str(exc)
    return (trajectory.domain_labels, trajectory.task_labels,
            [(trajectory._column(name).dtype, trajectory._column(name).tobytes()) for name in FIELDS])


@st.composite
def exported_lines(draw):
    """The lines of an exported trajectory CSV, header first: 1-3 domains and tasks, 1-5 records
    whose steps may span the whole int64 range."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    traj = Trajectory(tuple(f"d{i}" for i in range(k)), tuple(f"t{i}" for i in range(n)))
    steps = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5, unique=True))
    for i, step in enumerate(sorted(steps)):
        traj.append(step=step, losses=rng.normal(size=n), alpha=rng.dirichlet(np.ones(k)), z=rng.dirichlet(np.ones(n)),
                    task_scores=rng.normal(size=n), domain_scores=rng.normal(size=k), lr=float(rng.random()),
                    train_grad_evals=i, task_grad_evals=2 * i, domain_grad_evals=3 * i)
    return render_trajectory(traj).splitlines()


FAULTS = ("non-number", "off-simplex", "step-order", "past-int64", "field-count", "blank-lines")


def corrupt(draw, lines: list[str], fault: str) -> None:
    """Put ``fault`` into one line after the header of ``lines``, most often the first, so that
    faults meet on one line."""
    j = draw(st.one_of(st.just(1), st.integers(1, len(lines) - 1)))
    parts = lines[j].split(",")
    header = lines[0].split(",")
    if fault == "non-number":
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(["x", "", "1.5", "1e", "--1", "0x10", "nan"]))
    elif fault == "off-simplex":  # one or two weights, maybe one of each side
        weights = [i for i, c in enumerate(header) if c.startswith(("alpha.", "z.")) and i < len(parts)]
        for i in draw(st.lists(st.sampled_from(weights), min_size=1, max_size=2)) if weights else ():
            parts[i] = draw(st.sampled_from(["nan", "inf", "0.9", "-0.25", "2", "1e308"]))
    elif fault == "step-order":  # the step of another line: repeated, earlier or later
        parts[0] = lines[draw(st.integers(1, len(lines) - 1))].split(",")[0]
    elif fault == "past-int64":
        parts[draw(st.sampled_from([0, len(parts) - 1]))] = str(draw(st.sampled_from([2**63, -(2**63) - 1, 2**64])))
    elif fault == "field-count":
        if draw(st.booleans()):
            parts.pop(draw(st.integers(0, len(parts) - 1)))
        else:
            parts.insert(draw(st.integers(0, len(parts))), "0")
    else:  # blank lines move the physical line numbers of every row after them
        lines[j:j] = [""] * draw(st.integers(1, 2))
        return
    lines[j] = ",".join(parts)


class TestBulkImport:
    """``import_trajectory`` parses every row, judges them together and adds them in one block, and
    rejects a file at the line, and with the message, that appending row by row would reject."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), lines=exported_lines(), faults=st.lists(st.sampled_from(FAULTS), max_size=3))
    def test_agrees_with_appending_row_by_row(self, tmp_path_factory, data, lines, faults):
        for fault in faults:
            corrupt(data.draw, lines, fault)
        path = tmp_path_factory.getbasetemp() / "corrupted.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert outcome(import_trajectory, path) == outcome(row_by_row_import, path)

    def test_an_uncorrupted_file_gives_the_row_by_row_columns(self, tmp_path):
        path = tmp_path / "traj.csv"
        rng = np.random.default_rng(5)
        export_trajectory(make_trajectory([(t, rng.uniform(0.1, 3.0, size=3)) for t in range(0, 700, 7)]), path)
        want = outcome(row_by_row_import, path)
        assert len(want) == 3 and outcome(import_trajectory, path) == want

    def test_appends_after_an_import_grow_the_columns(self, tmp_path):
        rows = [(t, [float(t), 1.0]) for t in range(3 * FIRST_ROWS)]
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory(rows), path)
        back = import_trajectory(path)
        handed_out = [(a, a.copy()) for a in (back.steps, back.losses, back.alphas, back.zs)]
        capacity = len(back._columns["step"])
        more = [(t, [float(t), 2.0]) for t in range(len(rows), 2 * capacity + 1)]
        for step, losses in more:
            back.append(**make_record(step, losses))
        assert len(back._columns["step"]) > capacity  # at least one doubling
        for array, values in handed_out:
            assert array.tobytes() == values.tobytes()
        assert render_trajectory(back) == render_trajectory(make_trajectory(rows + more))

    def test_imported_columns_share_no_memory_with_the_parse_block(self, tmp_path, monkeypatch):
        path = tmp_path / "traj.csv"
        export_trajectory(make_trajectory([(t, [float(t), 1.0]) for t in range(3 * FIRST_ROWS)]), path)
        made = []

        def recorded_empty(*args, **kwargs):
            made.append(empty(*args, **kwargs))
            return made[-1]

        empty = np.empty
        monkeypatch.setattr(np, "empty", recorded_empty)
        back = import_trajectory(path)
        monkeypatch.undo()
        columns = list(back._columns.values())
        assert made
        for i, column in enumerate(columns):
            assert not any(np.may_share_memory(column, other) for other in made + columns[i + 1 :])

    def test_the_cost_of_judging_does_not_grow_with_the_rows(self, tmp_path, monkeypatch):
        # one call of the simplex rule per judged field, however many rows the file holds
        paths = {}
        for rows in (3, 300):
            paths[rows] = tmp_path / f"{rows}.csv"
            export_trajectory(make_trajectory([(t, [1.0, 2.0]) for t in range(rows)]), paths[rows])
        rule, calls = simplex.simplex_rows, []

        def counted(values):
            calls.append(np.shape(values))
            return rule(values)

        monkeypatch.setattr(simplex, "simplex_rows", counted)
        monkeypatch.setattr(analysis, "simplex_rows", counted)
        monkeypatch.setattr(Trajectory, "append", lambda *args, **kwargs: pytest.fail("a row was appended"))
        counts = {}
        for rows, path in paths.items():
            calls.clear()
            assert len(import_trajectory(path)) == rows
            counts[rows] = len(calls)
        assert counts[3] == counts[300] == 2  # alpha and z


BLOCK = analysis._BLOCK_ROWS


def block_trajectory(rows: int, domains: int = 2, tasks: int = 3, seed: int = 0) -> Trajectory:
    """``rows`` records of random values, added as one block.  The task and domain counters are
    zero, so the CSV, which keeps only their total, restores every column."""
    rng = np.random.default_rng(seed)
    traj = Trajectory(tuple(f"d{i}" for i in range(domains)), tuple(f"t{i}" for i in range(tasks)))
    widths = {"losses": tasks, "alpha": domains, "z": tasks, "task_scores": tasks, "domain_scores": domains}
    block = {name: rng.normal(size=(rows, width)) for name, width in widths.items()}
    block.update(step=np.arange(rows, dtype=np.int64) * 3 - 7, alpha=rng.dirichlet(np.ones(domains), rows),
                 z=rng.dirichlet(np.ones(tasks), rows), lr=rng.random(rows), train_grad_evals=np.arange(rows) * 5,
                 task_grad_evals=0, domain_grad_evals=0)
    assert traj._extend(block) is None
    return traj


class FileSpy:
    """A file opened by the analysis module, with each ``read``'s size or ``write``'s text logged,
    and ``fail`` raised in place of write number ``fail_at`` (counted from 1)."""

    def __init__(self, file, log, fail=None, fail_at=None):
        self.file, self.log, self.fail, self.fail_at = file, log, fail, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def read(self, size=-1):
        data = self.file.read(size)
        self.log.append(len(data))
        return data

    def write(self, text):
        self.log.append(text)
        if len(self.log) == self.fail_at:
            raise self.fail
        return self.file.write(text)


@pytest.fixture
def two_row_blocks(monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK_ROWS", 2)


# The properties below run their inner tests again under a given of their own: hypothesis
# rejects one given test called from two classes.


@pytest.mark.usefixtures("two_row_blocks")
class TestCsvRoundTripPropertyInTwoRowBlocks:
    """The round trip again in blocks of two rows, so that the drawn trajectories cross block ends."""

    test_import_reproduces_every_field = settings(max_examples=150, deadline=None)(
        given(traj=trajectories())(TestCsvRoundTripProperty.test_import_reproduces_every_field.hypothesis.inner_test))


@pytest.mark.usefixtures("two_row_blocks")
class TestBulkImportInTwoRowBlocks(TestBulkImport):
    """Row-by-row agreement again in blocks of two rows, so that the drawn files cross block ends."""

    test_agrees_with_appending_row_by_row = settings(max_examples=300, deadline=None)(
        given(data=st.data(), lines=exported_lines(), faults=st.lists(st.sampled_from(FAULTS), max_size=3))(
            TestBulkImport.test_agrees_with_appending_row_by_row.hypothesis.inner_test))
    # judging runs once per weight field and block: test_judging_runs_once_per_block counts it
    test_the_cost_of_judging_does_not_grow_with_the_rows = None


class TestBlocks:
    """Export writes, and import reads and adds, ``_BLOCK_ROWS`` records at a time; no byte and no
    column depends on where a block ends."""

    @pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_block_ends_change_no_byte_and_no_column(self, tmp_path, rows):
        traj = block_trajectory(rows)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        # the text written record by record, from each record on its own
        lines = [",".join(analysis._header(traj))]
        lines += [",".join([str(r.step), *(repr(float(v)) for name, _, _ in VECTOR_COLUMNS for v in getattr(r, name)),
                            repr(r.lr), str(r.grad_evals)]) for r in traj]
        assert path.read_bytes() == render_trajectory(traj).encode() == ("\n".join(lines) + "\n").encode()
        assert outcome(import_trajectory, path) == outcome(lambda _: traj, path)

    def test_a_fault_in_a_later_block_is_named_at_its_line(self, tmp_path):
        path = tmp_path / "traj.csv"
        export_trajectory(block_trajectory(2 * BLOCK + 1), path)
        lines = path.read_text().splitlines()
        for j in (BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1):  # the last row of a block, the first of the next, the last
            corrupted = [*lines]
            corrupted[j] = lines[j - 1]  # a repeated step
            path.write_text("\n".join(corrupted) + "\n")
            assert outcome(import_trajectory, path) == outcome(row_by_row_import, path) == (
                j + 1, f"line {j + 1}: steps must strictly increase, got {lines[j - 1].split(',')[0]} after "
                       f"{lines[j - 1].split(',')[0]}")

    @pytest.mark.usefixtures("two_row_blocks")
    def test_judging_runs_once_per_block(self, tmp_path, monkeypatch):
        path = tmp_path / "traj.csv"
        export_trajectory(block_trajectory(5), path)
        rule, calls = simplex.simplex_rows, []
        monkeypatch.setattr(analysis, "simplex_rows", lambda values: calls.append(np.shape(values)) or rule(values))
        assert len(import_trajectory(path)) == 5
        assert calls == [(2, 2), (2, 3), (2, 2), (2, 3), (1, 2), (1, 3)]  # alpha and z of each block


LINE_BREAKS = {"crlf": "\r\n", "cr": "\r", "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "nel": "\x85", "ls": "\u2028"}
BAD_UTF8 = {"ff": b"\xff", "cut-short": b"\xe2\x82", "surrogate": b"\xed\xa0\x80", "continuation": b"\x80"}


def utf8_fault(data: bytes) -> str:
    """The message of the IngestError for ``data`` as decoding its whole text gives it."""
    with pytest.raises(UnicodeDecodeError) as excinfo:
        data.decode("utf-8")
    return f"trajectory file is not UTF-8 text: {excinfo.value}"


class TestStreamedText:
    """The importer decodes and splits the file a chunk at a time, as decoding and splitting its
    whole text would: the same lines, the same line numbers and the same UTF-8 verdict."""

    @pytest.mark.parametrize("read_bytes", [1, 7, 1 << 16])
    @pytest.mark.parametrize("brk", LINE_BREAKS.values(), ids=LINE_BREAKS.keys())
    def test_line_breaks_split_as_the_whole_text_splits(self, tmp_path, monkeypatch, brk, read_bytes):
        monkeypatch.setattr(analysis, "_READ_BYTES", read_bytes)
        lines = render_trajectory(block_trajectory(4, domains=1, tasks=1)).splitlines()
        cut = [*lines]
        cut[2] = lines[2][:9] + brk + lines[2][9:]  # a break inside a row
        texts = {"between rows": brk.join(lines) + brk, "and blank lines": (2 * brk).join(lines),
                 "mixed with newlines": "\n".join(lines[:2]) + brk + "\n".join(lines[2:]),
                 "inside a row": brk.join(cut) + brk, "at the end, unended": brk.join(lines)}
        path = tmp_path / "traj.csv"
        for text in texts.values():
            path.write_text(text, encoding="utf-8", newline="")
            assert outcome(import_trajectory, path) == outcome(row_by_row_import, path)
        path.write_text(texts["between rows"], encoding="utf-8", newline="")
        assert len(import_trajectory(path)) == 4

    @pytest.mark.parametrize("read_bytes", [64, 1 << 16])
    @pytest.mark.parametrize("bad", BAD_UTF8.values(), ids=BAD_UTF8.keys())
    @pytest.mark.parametrize("fault", ["field-count", "step-order", "past-int64", "header"])
    def test_text_that_is_not_utf8_anywhere_is_the_fault_reported(self, tmp_path, monkeypatch, fault, bad, read_bytes):
        # a row or header fault on one of the first three lines, and bytes that are not UTF-8 on the
        # last line, beyond the first chunk read: the UTF-8 fault is reported, as when the whole
        # file was decoded first
        monkeypatch.setattr(analysis, "_READ_BYTES", read_bytes)
        lines = render_trajectory(block_trajectory(2 * BLOCK + 1)).splitlines()
        if fault == "field-count":
            lines[1] += ",0"
        elif fault == "step-order":
            lines[2] = lines[1]
        elif fault == "past-int64":
            lines[1] = str(2**63) + lines[1][lines[1].index(","):]
        else:
            lines[0] = lines[0].replace("d1", "d0")
        data = "\n".join(lines).encode() + bad + (b"" if bad == b"\xe2\x82" else b"\n")
        path = tmp_path / "traj.csv"
        path.write_bytes(data)
        with pytest.raises(IngestError) as excinfo:
            import_trajectory(path)
        assert (excinfo.value.line, str(excinfo.value)) == (None, utf8_fault(data))
        path.write_bytes(data.replace(bad, b""))  # and without them, the row or header fault itself
        line = {"field-count": 2, "step-order": 3, "past-int64": 2, "header": 1}[fault]
        assert outcome(import_trajectory, path)[0] == line

    @pytest.mark.parametrize("read_bytes", [1, 2, 3, 5, 1 << 16])
    def test_utf8_faults_name_their_byte_position_in_the_whole_file(self, tmp_path, monkeypatch, read_bytes):
        monkeypatch.setattr(analysis, "_READ_BYTES", read_bytes)
        text = render_trajectory(Trajectory(("dä", "d€"), ("t\U0001f600",))).encode()
        path = tmp_path / "traj.csv"
        for bad in BAD_UTF8.values():
            for at in range(0, len(text) + 1, 3):
                data = text[:at] + bad + text[at:]
                path.write_bytes(data)
                with pytest.raises(IngestError) as excinfo:
                    import_trajectory(path)
                assert (excinfo.value.line, str(excinfo.value)) == (None, utf8_fault(data))

    def test_a_clean_file_is_read_once(self, tmp_path, monkeypatch):
        path = tmp_path / "traj.csv"
        export_trajectory(block_trajectory(2 * BLOCK + 1), path)
        reads = []
        monkeypatch.setattr(analysis, "open", lambda *args, **kwargs: FileSpy(builtins.open(*args, **kwargs), reads),
                            raising=False)
        import_trajectory(path)
        assert len(reads) > 2 and sum(reads) == path.stat().st_size  # chunk after chunk, each byte once


class TestAtomicExport:
    """The CSV goes to a new file beside the target, which replaces the target once it is whole."""

    @pytest.mark.usefixtures("two_row_blocks")
    @pytest.mark.parametrize("fail", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["disk-full", "interrupt"])
    @pytest.mark.parametrize("before", [None, b"step\nthe previous file\n"], ids=["absent", "present"])
    def test_a_failed_export_leaves_the_target_as_it_was(self, tmp_path, monkeypatch, fail, before):
        target = tmp_path / "traj.csv"
        if before is not None:
            target.write_bytes(before)
        writes = []
        monkeypatch.setattr(analysis, "open", lambda *args, **kwargs: FileSpy(builtins.open(*args, **kwargs), writes,
                                                                               fail, fail_at=3), raising=False)
        with pytest.raises(type(fail)):
            export_trajectory(block_trajectory(5), target)
        assert len(writes) == 3  # the header, the first block, and the second block, whose write failed
        assert list(tmp_path.iterdir()) == ([] if before is None else [target])
        assert before is None or target.read_bytes() == before

    def test_an_export_replaces_the_target_with_the_usual_permissions(self, tmp_path):
        target, plain = tmp_path / "traj.csv", tmp_path / "plain.csv"
        target.write_bytes(b"old\n")
        plain.write_text("")
        export_trajectory(block_trajectory(3), target)
        assert target.read_text() == render_trajectory(block_trajectory(3))
        assert sorted(tmp_path.iterdir()) == [plain, target]
        assert target.stat().st_mode == plain.stat().st_mode


class TestStreamedMemory:
    def test_export_and_import_hold_a_block_beside_the_columns(self, tmp_path):
        # 20,000 records: a 2 MB CSV, 1.6 MB of columns as imported; at the parent, which held
        # the whole text, export peaked at 13 MB and import at 8.8 MB
        traj = block_trajectory(20_000, domains=1, tasks=1)
        path = tmp_path / "traj.csv"
        tracemalloc.start()
        try:
            export_trajectory(traj, path)
            export_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            back = import_trajectory(path)
            import_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        columns = sum(back._column(name).nbytes for name in FIELDS)
        assert export_peak < 2_000_000
        # the columns double while they grow, so old and new columns are alive together for a moment
        assert import_peak < 3 * columns
