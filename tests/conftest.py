import pytest
from hypothesis import strategies as st

from dualdep._parallel import stream
from dualdep.simulate import GeneratorConfig, _draw_survey
from dualdep.tables import CellCounts, SurveyData

# Quarterly dual-list counts (stratum A = small & medium entities, B = large),
# each triple is (x11, x10, x01).
QUARTER_COUNTS = {
    "Q1": ((100, 8900, 3641), (534, 2584, 3780)),
    "Q2": ((129, 8571, 3543), (582, 2705, 3608)),
    "Q3": ((107, 8199, 3116), (552, 2657, 3506)),
    "Q4": ((76, 4019, 2795), (303, 1528, 3202)),
}


def survey_of(table) -> SurveyData:
    """The SurveyData of a table as the package computes with it: an (a, b)
    pair of the strata's (x11, x10, x01) counts, e.g. a study draw."""
    a, b = table
    return SurveyData(CellCounts(*a), CellCounts(*b))


def make_survey(quarter: str) -> SurveyData:
    (a, b) = QUARTER_COUNTS[quarter]
    return SurveyData(CellCounts(*a), CellCounts(*b), "Small & medium", "Large")


@pytest.fixture
def q1() -> SurveyData:
    return make_survey("Q1")


@pytest.fixture
def tiny() -> SurveyData:
    return SurveyData(CellCounts(2, 3, 4), CellCounts(1, 2, 3))


@st.composite
def drawn_tables(draw):
    """A table drawn from the model at random interior parameters; about
    nine in ten such tables fit to an interior maximum."""
    p1 = draw(st.floats(0.05, 0.4))
    config = GeneratorConfig(
        n_a=draw(st.integers(2000, 80000)), n_b=draw(st.integers(1000, 40000)),
        alpha=draw(st.floats(0.02, 0.2)), p1_a=p1, p1_b=p1,
        p2_a=draw(st.floats(0.01, 0.3)), p2_b=draw(st.floats(0.01, 0.3)), replicates=1,
    )
    return survey_of(_draw_survey(config, stream(draw(st.integers(0, 2**32)), 0))[0])
