import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualdep import _parallel, inference, mle, model, simulate
from dualdep.exceptions import (
    BootstrapError, DualdepError, EvaluationError, InfeasibleConstraintsError,
    InformationMatrixError, ValidationError,
)
from dualdep.inference import (
    BootstrapResult,
    bootstrap,
    confidence_interval,
    draw_replicate_tables,
    se_from_hessian,
    uncertainty_report,
)
from dualdep.mle import FitOptions, FitResult, fit
from dualdep.model import ModelParams
from dualdep.simulate import GeneratorConfig, _draw_survey, _scenario_config
from dualdep.tables import CellCounts, SurveyData

from conftest import survey_of
from oracles import fd_hessian, reference_moment_point, triples


@pytest.fixture(scope="module")
def q1_fit():
    from conftest import make_survey

    data = make_survey("Q1")
    return data, fit(data)


def drawn_survey(table_a, table_b):
    """The survey of two drawn stratum tables, or None where either stratum
    has x11 = 0 (``inference._drawn_counts``)."""
    counts = inference._drawn_counts(table_a, table_b)
    return None if counts is None else survey_of(counts)


def test_hessian_se_reference_magnitudes(q1_fit):
    data, result = q1_fit
    ses = se_from_hessian(result, data)
    assert ses.se["alpha"] == pytest.approx(0.0053, rel=0.5)
    assert ses.se["p1"] == pytest.approx(0.0077, rel=0.5)
    assert ses.flagged == ()
    assert all(math.isfinite(v) and v > 0 for v in ses.se.values())


def test_hessian_se_total_additivity(q1_fit):
    data, result = q1_fit
    ses = se_from_hessian(result, data)
    assert ses.se_total**2 == pytest.approx(ses.se["N_A"] ** 2 + ses.se["N_B"] ** 2, rel=1e-12)


def test_hessian_se_close_to_finite_differences(q1_fit):
    data, result = q1_fit
    ses = se_from_hessian(result, data)
    info = -fd_hessian(result.params, data, rel=1e-5)
    cov = np.linalg.inv(info)
    for idx, name in enumerate(("N_A", "N_B", "alpha", "p1", "p2A", "p2B")):
        assert ses.se[name] == pytest.approx(math.sqrt(cov[idx, idx]), rel=0.01)


def test_hessian_se_requires_convergence(q1_fit):
    data, result = q1_fit
    import dataclasses

    broken = dataclasses.replace(result, converged=False)
    with pytest.raises(ValidationError, match="converge"):
        se_from_hessian(broken, data)


def test_hessian_se_flags_bound_parameters(q1_fit):
    data, result = q1_fit
    import dataclasses

    pinned = dataclasses.replace(result, active_constraints=frozenset({"p2B"}))
    ses = se_from_hessian(pinned, data)
    assert ses.flagged == ("p2B",)
    assert math.isnan(ses.se["p2B"])
    assert math.isfinite(ses.se["alpha"])


def test_hessian_se_simulated_sanity():
    config = GeneratorConfig(
        n_a=50_000, n_b=20_000, alpha=0.05, p1_a=0.15, p1_b=0.15,
        p2_a=0.05, p2_b=0.15, replicates=1, seed=3,
    )
    survey = survey_of(_draw_survey(config, _parallel.stream(3, 0))[0])
    result = fit(survey)
    ses = se_from_hessian(result, survey)
    assert all(math.isfinite(v) and v > 0 for v in ses.se.values())


def reference_hessian_se(params, active, data):
    """``se_from_hessian`` one fit at a time, through the public one-point
    Hessian: its HessianSE, or the package error it raises."""
    try:
        hess = model.hessian(params, data)
    except DualdepError as exc:
        return exc
    free = [i for i, name in enumerate(model.PARAM_NAMES) if name not in active]
    if not free:
        return InformationMatrixError("every parameter is on a constraint bound")
    info = -hess[np.ix_(free, free)]
    if not np.isfinite(info).all():
        return InformationMatrixError("non-finite")
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        return InformationMatrixError("singular or indefinite")
    cov = np.linalg.inv(info)
    se = {name: float("nan") for name in model.PARAM_NAMES}
    for pos, i in enumerate(free):
        se[model.PARAM_NAMES[i]] = math.sqrt(cov[pos, pos])
    var_total = se["N_A"] ** 2 + se["N_B"] ** 2
    return inference.HessianSE(se=se, se_total=math.sqrt(var_total) if math.isfinite(var_total)
                               else float("nan"),
                               flagged=tuple(n for n in model.PARAM_NAMES if n in active),
                               free=tuple(model.PARAM_NAMES[i] for i in free), covariance=cov)


def test_hessian_ses_in_one_pass_give_each_fit_its_own_bits(q1_fit):
    data, result = q1_fit
    corner = SurveyData(CellCounts(201, 4162, 4390), CellCounts(406, 2574, 3265))
    corner_fit = fit(corner)
    x0a = float(data.stratum_a.total)
    fits = [
        (result.params, frozenset(), data),
        (result.params, frozenset({"p2B"}), data),
        (corner_fit.params, corner_fit.active_constraints, corner),
        (result.params, frozenset(model.PARAM_NAMES), data),  # nothing free
        (replace(result.params, n_a=x0a - 1.0), frozenset(), data),  # N_A below x0A
        (replace(result.params, n_a=x0a), frozenset(), data),  # log 0: infinite information
        (ModelParams(20000.0, 10000.0, 0.5, 0.5, 0.5, 0.5), frozenset(), data),  # indefinite
        (corner_fit.params, frozenset(), corner),  # on bounds, none flagged
        (result.params, frozenset({"p2B"}), data),
    ]
    # the screen takes each fit as its row: the parameters and the mask of
    # those on an active bound, in PARAM_NAMES order
    got = inference._hessian_ses([
        (params.as_tuple(), tuple(name in active for name in model.PARAM_NAMES),
         triples(survey)) for params, active, survey in fits])
    assert len(got) == len(fits)
    kinds = []
    for outcome, fitted in zip(got, fits):
        want = reference_hessian_se(*fitted)
        assert type(outcome) is type(want)
        if isinstance(want, DualdepError):
            kinds.append(type(want).__name__)
            if isinstance(want, EvaluationError):
                assert str(outcome) == str(want)
            continue
        kinds.append("se")
        assert repr((outcome.se, outcome.se_total)) == repr((want.se, want.se_total))
        assert (outcome.flagged, outcome.free) == (want.flagged, want.free)
        assert outcome.covariance.tobytes() == want.covariance.tobytes()
    # the corner's maximum is on bounds: unflagged, its information is not
    # definite, while the other fits of its free set pass
    assert kinds == ["se", "se", "se", "InformationMatrixError", "EvaluationError",
                     "InformationMatrixError", "InformationMatrixError",
                     "InformationMatrixError", "se"]
    # se_from_hessian is the one-fit pass, also where its fit's name set of
    # active bounds is not empty: the corner's N_B and p2B are on bounds
    assert corner_fit.active_constraints == {"N_B", "p2B"}
    for one, outcome in ((se_from_hessian(result, data), got[0]),
                         (se_from_hessian(corner_fit, corner), got[2])):
        assert repr((one.se, one.se_total)) == repr((outcome.se, outcome.se_total))
        assert (one.flagged, one.free) == (outcome.flagged, outcome.free)
        assert one.covariance.tobytes() == outcome.covariance.tobytes()
    assert inference._hessian_ses([]) == []


def test_bootstrap_deterministic(q1_fit):
    data, result = q1_fit
    a = bootstrap(data, result, n_replicates=2, seed=11)
    b = bootstrap(data, result, n_replicates=2, seed=11)
    for name in a.estimates:
        assert np.array_equal(a.estimates[name], b.estimates[name])
    c = bootstrap(data, result, n_replicates=2, seed=12)
    assert not np.array_equal(a.estimates["N_total"], c.estimates["N_total"])


def test_bootstrap_thread_invariance(q1_fit):
    data, result = q1_fit
    serial = bootstrap(data, result, n_replicates=6, seed=5, threads=1)
    parallel = bootstrap(data, result, n_replicates=6, seed=5, threads=2)
    for name in serial.estimates:
        assert np.array_equal(serial.estimates[name], parallel.estimates[name])


def test_bootstrap_block_size_and_thread_invariance(q1_fit, monkeypatch):
    # every draw sent to the solver: one block in this process against six
    # blocks of one grid refit over two workers
    data, result = q1_fit
    solver_only(monkeypatch)
    whole = bootstrap(data, result, n_replicates=6, seed=5, threads=1)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 2)
    split = bootstrap(data, result, n_replicates=6, seed=5, threads=2)
    for name in whole.estimates:
        assert np.array_equal(whole.estimates[name], split.estimates[name])


def dispatched(monkeypatch):
    """Spy on ``_parallel.run_indexed``: the list it returns gains, per call,
    the number of tasks and the threads asked for."""
    real, calls = _parallel.run_indexed, []

    def spy(worker, tasks, threads):
        calls.append((len(tasks), threads))
        return real(worker, tasks, threads)

    monkeypatch.setattr(_parallel, "run_indexed", spy)
    return calls


def test_a_certified_bootstrap_starts_no_process_pool(q1_fit, monkeypatch):
    # every Q1 draw is certified in this process, so no table reaches the
    # solver and nothing is dispatched, whatever --threads asks for
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(_parallel, "cpus", lambda: 2)
    calls = dispatched(monkeypatch)
    data, result = q1_fit
    boot = bootstrap(data, result, n_replicates=400, seed=1, threads=2)
    assert boot.n_failed == 0 and calls == []


def test_declined_draws_give_the_same_rows_on_two_workers(tiny, monkeypatch):
    # the tiny table declines most draws and fails some replicates; its
    # declined draws fill several blocks of three grid refits (a budget of 40
    # columns) over two workers, and every row and failure keeps the
    # bits of the serial run in one block
    parent = fit(tiny)
    serial = inference._bootstrap_rows(range(100), 2, tiny, parent)
    calls = dispatched(monkeypatch)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 40)
    pooled = inference._bootstrap_rows(range(100), 2, tiny, parent, threads=2)
    assert pooled == serial
    assert any(row is None for _, row, _ in serial)
    assert any(tasks >= 2 and threads == 2 for tasks, threads in calls)


def solver_only(monkeypatch):
    """Make ``mle._moment_point`` decline every drawn table, so that each one
    a bootstrap draws reaches the solver
    (``mle._fits``), as no draw of a Q1 parent does otherwise."""
    monkeypatch.setattr(mle, "_moment_point", lambda *args: None)


def columns_per_call(monkeypatch):
    """Spy on ``mle._fits``, the bootstrap's solver entry: the list it
    returns gains, per call, the solver columns of that call."""
    real, calls = mle._fits, []

    def spy(tables, options):
        calls.append(len(tables) * options.n_starts)
        return real(tables, options)

    monkeypatch.setattr(mle, "_fits", spy)
    return calls


def test_a_bootstrap_split_into_blocks_gives_the_bits_of_one_block(q1_fit, monkeypatch):
    # 40 grid refits in blocks of at most seven: 6, 7, 7, 6, 7 and 7 tables
    data, result = q1_fit
    solver_only(monkeypatch)
    whole = bootstrap(data, result, n_replicates=40, seed=5)
    calls = columns_per_call(monkeypatch)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 7 * 12)
    split = bootstrap(data, result, n_replicates=40, seed=5)
    assert sorted(calls) == [6 * 12, 6 * 12, 7 * 12, 7 * 12, 7 * 12, 7 * 12]
    for name in whole.estimates:
        assert np.array_equal(whole.estimates[name], split.estimates[name])


@pytest.mark.parametrize("table", [
    ((201, 4162, 4390), (406, 2574, 3265)),  # corner: the parent sits on the N_B and p2B bounds
    ((2, 3, 4), (1, 2, 3)),  # tiny: the certificate declines most draws
], ids=["corner", "tiny"])
def test_no_refit_batch_exceeds_the_column_budget(table, monkeypatch):
    data = SurveyData(CellCounts(*table[0]), CellCounts(*table[1]))
    parent = fit(data)
    whole = bootstrap(data, parent, n_replicates=100, seed=1)
    calls = columns_per_call(monkeypatch)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 60)
    split = bootstrap(data, parent, n_replicates=100, seed=1)
    # batches of several tables: a budget of 60 holds five 12-start fits
    assert max(calls) == 60
    assert whole.failures == split.failures
    for name in whole.estimates:
        assert np.array_equal(whole.estimates[name], split.estimates[name])


@settings(max_examples=8, deadline=None)
@given(quarter=st.sampled_from(["Q1", "Q2", "Q3", "Q4"]), seed=st.integers(0, 2**63))
def test_bootstrap_prefix_does_not_depend_on_B(quarter, seed):
    from conftest import make_survey

    data = make_survey(quarter)
    result = fit(data)
    short = bootstrap(data, result, n_replicates=10, seed=seed)
    long = bootstrap(data, result, n_replicates=40, seed=seed)
    assert short.n_failed == long.n_failed == 0
    for name in short.estimates:
        assert np.array_equal(short.estimates[name], long.estimates[name][:10])


def test_bootstrap_retries_a_package_error_and_reports_its_reason(q1_fit, monkeypatch):
    data, result = q1_fit
    solver_only(monkeypatch)
    real = mle._fits
    calls = []

    def first_table_fails(tables, options):
        calls.append(len(tables))
        fits = real(tables, options)
        fits.rows[0] = (None, (False,) * 6,
                        EvaluationError("p11A", "probability 0.0 with count coefficient 3.0"))
        return fits

    monkeypatch.setattr(mle, "_fits", first_table_fails)
    monkeypatch.setattr(_parallel, "BLOCK_COLUMNS", 30 * 12)  # one block: replicate 0 comes first
    boot = bootstrap(data, result, n_replicates=30, seed=4)
    # replicate 0 fails every attempt and is counted with its reason; the
    # other 29 are untouched by its failures
    assert calls == [30] + [1] * 10
    assert boot.failures == ((0, "cannot evaluate log-likelihood term 'p11A': "
                                 "probability 0.0 with count coefficient 3.0"),)
    monkeypatch.setattr(mle, "_fits", real)
    clean = bootstrap(data, result, n_replicates=30, seed=4)
    for name in boot.estimates:
        assert np.array_equal(boot.estimates[name], clean.estimates[name][1:])


MIXED = SurveyData(CellCounts(200, 35, 3807), CellCounts(105, 3326, 2527))  # fit in full mode


def test_a_refit_passes_only_the_tables_the_certificate_declines_to_the_solver(monkeypatch):
    # of the mixed table's 50 first draws at seed 5, the certificate (its
    # reference on each table's solver set-up) declines two; they alone
    # reach the solver, in one batch of grid refits, and every other row is
    # its moment point
    parent = fit(MIXED, FitOptions(mode="full"))
    drawn = [drawn_survey(*draw_replicate_tables(MIXED, parent, _parallel.stream(5, k)))
             for k in range(50)]
    points = [reference_moment_point(survey, "full") for survey in drawn]
    declined = [triples(survey) for survey, point in zip(drawn, points) if point is None]
    assert len(declined) == 2
    real, calls = mle._fits, []

    def spy(tables, options):
        calls.append([tuple(map(tuple, table)) for table in tables])
        return real(tables, options)

    monkeypatch.setattr(mle, "_fits", spy)
    rows = inference._bootstrap_rows(range(50), 5, MIXED, parent)
    assert calls == [declined]
    for (_, row, reason), point in zip(rows, points):
        if point is not None:
            assert (row, reason) == (inference.quantities(ModelParams(*point)), "")


def test_a_certified_draw_is_never_a_survey_and_a_declined_one_is_set_up_once(q1_fit,
                                                                            monkeypatch):
    # a drawn table stays its counts from the draw to its fit: the bootstrap
    # and the studies build no CellCounts and no SurveyData; no Q1 draw is
    # declined, so its bootstrap makes no solver set-up either; the corner
    # table's parent sits on bounds, and study 2's draws at p1B = 0.01 have
    # empty reduced boxes, so each table the certificate declines is set up
    # once per pass of the pipeline
    counted = {"_setup": 0, "counts": 0, "survey": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return real(*args, **kwargs)
        return wrapper

    setup = mle._setup
    monkeypatch.setattr(mle, "_setup", counting("_setup", setup))
    monkeypatch.setattr(CellCounts, "__post_init__", counting("counts", CellCounts.__post_init__))
    monkeypatch.setattr(SurveyData, "__post_init__",
                        counting("survey", SurveyData.__post_init__))
    data, parent = q1_fit
    rows = inference._bootstrap_rows(range(100), 7, data, parent)
    assert all(row is not None for _, row, _ in rows)
    assert counted == {"_setup": 0, "counts": 0, "survey": 0}

    corner = SurveyData(CellCounts(201, 4162, 4390), CellCounts(406, 2574, 3265))
    parent = fit(corner)
    assert parent.active_constraints  # so every solver refit is one grid refit
    drawn = [drawn_survey(*draw_replicate_tables(corner, parent, _parallel.stream(7, k)))
             for k in range(60)]
    assert all(survey is not None for survey in drawn)
    declined = sum(reference_moment_point(survey, "reduced") is None for survey in drawn)
    assert 0 < declined < 60
    counted.update(_setup=0, counts=0, survey=0)
    rows = inference._bootstrap_rows(range(60), 7, corner, parent)
    assert all(row is not None for _, row, _ in rows)  # each first attempt refits
    assert counted == {"_setup": declined, "counts": 0, "survey": 0}

    config = _scenario_config(1, 0.01, replicates=20, seed=9)
    tables = [_draw_survey(config, _parallel.stream(config.seed, k))[0] for k in range(20)]
    reduced = [t for t in tables if mle._moment_point(*t, "reduced") is None]
    infeasible = []
    for table in reduced:
        try:
            setup(*table, "reduced")
        except InfeasibleConstraintsError:
            infeasible.append(table)
    full = [t for t in infeasible if mle._moment_point(*t, "full") is None]
    assert reduced and full  # both passes reach the solver
    counted.update(_setup=0, counts=0, survey=0)
    records = simulate._run_replicates([(config, range(20))], None, 1)
    assert sum(record.fallback for record in records) > 0
    assert counted == {"_setup": len(reduced) + len(full), "counts": 0, "survey": 0}


def test_bootstrap_propagates_programming_errors(q1_fit, monkeypatch):
    data, result = q1_fit
    solver_only(monkeypatch)

    def broken(tables, options):
        raise TypeError("bug in the fitting code")

    monkeypatch.setattr(mle, "_fits", broken)
    with pytest.raises(TypeError, match="bug in the fitting code"):
        bootstrap(data, result, n_replicates=3, seed=4)


def test_bootstrap_propagates_programming_errors_of_the_grid_pass(q1_fit, monkeypatch):
    # every grid refit of the first attempt fails with a package error, so a
    # second attempt's grid refits run, and their programming error propagates
    data, result = q1_fit
    solver_only(monkeypatch)
    calls = []

    def broken(tables, options):
        calls.append(len(tables))
        if len(calls) > 1:
            raise TypeError("bug in the fitting code")
        n = len(tables)
        return mle._Fits([(None, (False,) * 6, EvaluationError("p11A", "probability 0.0"))] * n,
                         [], [], None)

    monkeypatch.setattr(mle, "_fits", broken)
    with pytest.raises(TypeError, match="bug in the fitting code"):
        bootstrap(data, result, n_replicates=3, seed=4)
    assert calls == [3, 3]


def test_bootstrap_zero_x11_draw_costs_an_attempt_on_the_replicates_stream(tiny):
    # each replicate draws from its own stream for up to 11 attempts; a draw
    # with x11 = 0 in a stratum uses up an attempt, a refit error another,
    # and the next attempt continues the same stream; a table the
    # certificate fits takes its closed-form row
    result = fit(tiny)
    indices = list(range(50))
    expected, zeros, draws = [], 0, 0
    for index in indices:
        rng = _parallel.stream(1, index)
        values, reason = None, ""
        for _ in range(11):
            table_a, table_b = draw_replicate_tables(tiny, result, rng)
            draws += 1
            if table_a[0] < 1 or table_b[0] < 1:
                zeros += 1
                reason = "drawn x11 was zero"
                continue
            survey = SurveyData(CellCounts(*map(int, table_a[:3])),
                                CellCounts(*map(int, table_b[:3])))
            (refit,) = mle.fit_many([survey], result.options)
            row = certified_row(survey, result.options)
            if row is not None:
                values, reason = row, ""
                break
            if isinstance(refit, DualdepError):
                reason = str(refit)
                continue
            assert refit.converged  # every refit that runs on this table converges
            p = refit.params
            values, reason = (p.n_a, p.n_b, p.total, p.alpha, p.p1, p.p2a, p.p2b), ""
            break
        expected.append((index, values, reason))
    assert (zeros, draws) == (72, 167)
    got = inference._bootstrap_rows(indices, 1, tiny, result)
    assert got == expected
    assert [row[2] for row in got if row[1] is None][-1] == "drawn x11 was zero"
    with pytest.raises(BootstrapError, match="3 of 50 bootstrap replicates failed"):
        bootstrap(tiny, result, n_replicates=50, seed=1)


def test_the_bootstrap_never_falls_back_to_full_mode(tiny, monkeypatch):
    # replicates 22 and 35 of the tiny table at seed 1 draw, on their last
    # attempt, tables whose reduced box is empty; unlike a study's draw, such
    # a refit fails with the InfeasibleConstraintsError's text, and every
    # solver refit keeps the parent's reduced mode
    result = fit(tiny)
    real, modes = mle._fits, []

    def spy(tables, options):
        modes.append(options.mode)
        return real(tables, options)

    monkeypatch.setattr(mle, "_fits", spy)
    rows = inference._bootstrap_rows(range(50), 1, tiny, result)
    failed = {index: reason for index, row, reason in rows if row is None}
    assert failed.keys() == {22, 35, 37}
    for index in (22, 35):
        assert failed[index].startswith("no N_B value keeps N_A and N_B strictly inside")
    assert modes and set(modes) == {"reduced"}


def test_an_attempt_that_draws_no_table_makes_no_refit(tiny, monkeypatch):
    # replicate 0 of the tiny table at seed 1 draws x11 = 0 on attempts 1, 2
    # and 5; attempts 3 and 4 draw tables the certificate declines and whose
    # box has no room, and attempt 6 one the solver fits; the attempts that
    # draw no table refit nothing, so there are three grid refits
    result = fit(tiny)
    calls = columns_per_call(monkeypatch)
    ((_, row, reason),) = inference._bootstrap_rows([0], 1, tiny, result)
    assert row is not None and reason == ""
    assert calls == [12, 12, 12]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       keys=st.lists(st.one_of(st.integers(0, 2**32),
                               st.builds(lambda grid, rep: (grid << 32) | rep,
                                         st.integers(0, 40), st.integers(0, 2**32 - 1))),
                     min_size=2, max_size=4, unique=True),
       attempt=st.integers(1, 3))
def test_the_block_stream_draws_what_a_fresh_stream_draws(q1_fit, seed, keys, attempt):
    # keys include study 2's (grid << 32) | rep; the bootstrap's one generator
    # gives each key the draws of a fresh stream, on a first attempt and on
    # a later one that continues the key's stream after other keys drew
    data, parent = q1_fit
    rates = inference._replicate_rates(data, parent)
    streams = _parallel.Streams(seed)

    def drawn(rng):
        return [table.tolist() for table in draw_replicate_tables(data, parent, rng, rates)]

    def fresh(key, attempt):
        rng = _parallel.stream(seed, key)
        return [drawn(rng) for _ in range(attempt + 1)][-1]

    for key in keys:
        assert drawn(inference._replicate_stream(streams, key, 0, rates)) == fresh(key, 0)
    for key in reversed(keys):
        assert drawn(inference._replicate_stream(streams, key, attempt, rates)) == fresh(key, attempt)


# The gradient tolerance of the reference fit a certified row is checked
# against. The default 1e-8 is absolute, and on a tiny table's draws, whose
# likelihood is flat, it leaves the 12-start fit up to 4e-8 relative from the
# maximum; at 1e-11 every checked draw lies within 1e-9 of its point.
REFERENCE_TOLERANCE = 1e-11


def certified_row(survey, options):
    """The bootstrap row of a drawn table that ``mle._moment_point`` fits in
    closed form, or None where it declines the table. A certified row lies
    within 1e-9 relative of ``fit_many``'s 12-start fit of the table (run to
    ``REFERENCE_TOLERANCE``), and that fit's log-likelihood does not exceed
    the point's beyond the tie band."""
    point = mle._moment_point(*triples(survey), options.mode)
    if point is None:
        return None
    params = ModelParams(*point)
    row = inference.quantities(params)
    (grid,) = mle.fit_many([survey], replace(options, gradient_tolerance=REFERENCE_TOLERANCE))
    assert row == pytest.approx(inference.quantities(grid.params), rel=1e-9, abs=0.0), survey
    ll = model.log_likelihood(params, survey)
    assert grid.log_likelihood <= ll + mle._tie_band(grid.log_likelihood, ll), survey
    return row


def one_table_at_a_time(indices, seed, data, parent):
    """The ``_bootstrap_rows`` of replicates ``indices`` as FitResults
    give them: each replicate's tables drawn on a fresh stream, attempt by
    attempt, and refit alone with ``mle.fit_many``, its row
    ``inference.quantities`` of the refit, or the closed-form row where the
    certificate fits the table (``certified_row``)."""
    out = []
    for index in indices:
        rng, row, reason = _parallel.stream(seed, index), None, ""
        for _ in range(11):
            survey = drawn_survey(*draw_replicate_tables(data, parent, rng))
            if survey is None:
                reason = "drawn x11 was zero"
                continue
            (refit,) = mle.fit_many([survey], parent.options)
            row = certified_row(survey, parent.options)
            if row is not None:
                reason = ""
                break
            if isinstance(refit, DualdepError):
                reason = str(refit)
                continue
            row, reason = inference.quantities(refit.params), ""
            break
        out.append((index, row, reason))
    return out


@pytest.mark.parametrize("table, count", [
    *(((q, None), 40) for q in ("Q1", "Q2", "Q3", "Q4")),
    (((2, 3, 4), (1, 2, 3)), 60),  # tiny: zero-x11 redraws and declined draws
    (((201, 4162, 4390), (406, 2574, 3265)), 25),  # corner: the parent is on bounds
], ids=["Q1", "Q2", "Q3", "Q4", "tiny", "corner"])
def test_the_array_read_out_gives_the_rows_of_the_fit_results(table, count):
    # every bootstrap row, read out of the block's arrays, has the bits of
    # inference.quantities of fit_many's FitResult for the same drawn table
    # fitted alone, or of the closed form where the certificate fits it, and
    # the same failures; a row does not depend on which other tables share
    # its block
    from conftest import make_survey

    a, b = table
    data = make_survey(a) if b is None else SurveyData(CellCounts(*a), CellCounts(*b))
    parent = fit(data)
    rows = inference._bootstrap_rows(range(count), 3, data, parent)
    assert rows == one_table_at_a_time(range(count), 3, data, parent)
    assert sum(row is not None for _, row, _ in rows) >= count * 0.8
    every_third = list(range(count))[1::3]
    assert inference._bootstrap_rows(every_third, 3, data, parent) == rows[1::3]


def _row(refit):
    p = refit.params
    return (p.n_a, p.n_b, p.total, p.alpha, p.p1, p.p2a, p.p2b)


def _first_attempts(data, parent, seed, count):
    """Per replicate 0..count-1 of a one-block bootstrap: its drawn table,
    the grid refit of that table, and its bootstrap row, for the replicates
    whose first draw has x11 >= 1 and whose grid refit converged (their
    bootstrap rows come from the first attempt)."""
    surveys = {}
    for index in range(count):
        survey = drawn_survey(
            *draw_replicate_tables(data, parent, _parallel.stream(seed, index)))
        if survey is not None:
            surveys[index] = survey
    grid = dict(zip(surveys, mle.fit_many(list(surveys.values()), parent.options)))
    rows = inference._bootstrap_rows(range(count), seed, data, parent)
    return [(surveys[index], grid[index], row) for index, row, _ in rows
            if index in grid and not isinstance(grid[index], DualdepError)
            and grid[index].converged]


def assert_grid_bits(data, parent, seed, count):
    # each row has the bits of the grid refit, or of the closed form where
    # the certificate fits the table
    compared = _first_attempts(data, parent, seed, count)
    assert len(compared) == count
    for survey, grid, row in compared:
        certified = certified_row(survey, parent.options)
        assert row == (_row(grid) if certified is None else certified)
    return compared


def test_a_parent_on_a_bound_refits_from_the_grid():
    # the corner table's maximum sits on the N_B and p2B bounds
    data = SurveyData(CellCounts(201, 4162, 4390), CellCounts(406, 2574, 3265))
    parent = fit(data)
    assert {"N_B", "p2B"} <= parent.active_constraints
    assert_grid_bits(data, parent, 3, 25)


def test_a_multi_maximum_parent_refits_from_the_grid():
    # a study-2 draw whose full-mode maximum, on the N_B and p2B bounds, only
    # four of the twelve grid starts reach
    config = _scenario_config(2, 0.05, replicates=10, seed=11)
    data = survey_of(_draw_survey(config, _parallel.stream(config.seed, 1))[0])
    parent = fit(data, FitOptions(mode="full"))
    assert {"N_B", "p2B"} <= parent.active_constraints
    assert_grid_bits(data, parent, 3, 25)


def test_bootstrap_requires_positive_B(q1_fit):
    data, result = q1_fit
    with pytest.raises(ValidationError, match="B must be >= 1"):
        bootstrap(data, result, n_replicates=0)


def test_bootstrap_small_run_sane(q1_fit):
    data, result = q1_fit
    boot = bootstrap(data, result, n_replicates=40, seed=20180331)
    assert boot.n_failed == 0
    assert boot.n_used == 40
    assert boot.mean["N_total"] == pytest.approx(result.params.total, rel=0.05)
    assert boot.se["N_total"] > 0
    # exact definition: population-style second moment over replicates
    vec = boot.estimates["N_A"]
    assert boot.se["N_A"] == pytest.approx(
        math.sqrt(np.mean((vec - vec.mean()) ** 2)), rel=1e-12
    )


def test_degenerate_fit_replicates_observed_cells_only():
    data = SurveyData(CellCounts(6, 4, 5), CellCounts(8, 3, 4))
    params = ModelParams(
        n_a=data.stratum_a.total, n_b=data.stratum_b.total,
        alpha=0.1, p1=0.5, p2a=0.5, p2b=0.5,
    )
    degenerate = FitResult(
        params=params, log_likelihood=0.0, converged=True, iterations=0,
        active_constraints=frozenset({"N_A", "N_B"}), n_hat_total=params.total,
        mode="reduced", options=FitOptions(), size_ratio_gap=0.0, p2_identity_gap=0.0,
    )
    rng = np.random.default_rng(0)
    for _ in range(50):
        table_a, table_b = draw_replicate_tables(data, degenerate, rng)
        assert table_a[3] == 0 and table_b[3] == 0
        assert table_a.sum() == data.stratum_a.total
        assert table_b.sum() == data.stratum_b.total


def test_confidence_interval_zero_variance_collapses():
    assert confidence_interval(150.0, 100.0, 0.0) == (150.0, 150.0)


def test_confidence_interval_ordering():
    rng = np.random.default_rng(17)
    for _ in range(300):
        x0 = rng.uniform(10, 1000)
        n_hat = x0 + rng.uniform(1e-6, 1e5)
        sigma2 = rng.uniform(0, 1e8)
        lo, hi = confidence_interval(n_hat, x0, sigma2)
        assert x0 <= lo <= n_hat <= hi
        if sigma2 > 0:
            assert lo < n_hat < hi


def test_confidence_interval_errors():
    with pytest.raises(ValidationError):
        confidence_interval(100.0, 100.0, 1.0)
    with pytest.raises(ValidationError):
        confidence_interval(90.0, 100.0, 1.0)
    with pytest.raises(ValidationError):
        confidence_interval(150.0, 100.0, -1.0)
    with pytest.raises(ValidationError):
        confidence_interval(100.0, 50.0, float("nan"))
    with pytest.raises(ValidationError):
        confidence_interval(150.0, 100.0, 1.0, level=1.0)


def test_confidence_interval_level_quantiles():
    narrow = confidence_interval(150.0, 100.0, 400.0, level=0.90)
    default = confidence_interval(150.0, 100.0, 400.0, level=0.95)
    wide = confidence_interval(150.0, 100.0, 400.0, level=0.99)
    assert narrow[1] - narrow[0] < default[1] - default[0] < wide[1] - wide[0]


def test_uncertainty_report_both_methods(q1_fit):
    data, result = q1_fit
    report = uncertainty_report(
        data, result, methods=("hessian", "bootstrap"), n_replicates=25, seed=1,
    )
    assert report.se_hessian is not None and report.se_bootstrap is not None
    assert report.n_replicates == 25
    assert report.n_failed_replicates == 0
    for method in ("hessian", "bootstrap"):
        intervals = report.ci[method]
        for name in ("N_A", "N_B", "N_total"):
            lo, hi = intervals[name]
            assert lo < hi
    # hessian intervals center on the MLE, bootstrap ones on the bootstrap mean
    lo, hi = report.ci["hessian"]["N_total"]
    assert lo < result.params.total < hi


def test_uncertainty_report_rejects_unknown_method(q1_fit):
    data, result = q1_fit
    with pytest.raises(ValidationError, match="unknown uncertainty method"):
        uncertainty_report(data, result, methods=("jackknife",))
