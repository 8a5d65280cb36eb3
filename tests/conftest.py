import re
import sys

import numpy as np
import pytest

from efimov_lab import expressions, gallery
from efimov_lab.connection import SurfaceConnectionData


@pytest.fixture(scope="session")
def euclid():
    return gallery.euclidean3()


@pytest.fixture(scope="session")
def saddle_data():
    case = gallery.build_example("saddle")
    return case.data


@pytest.fixture(scope="session")
def sphere2_data():
    case = gallery.build_example("sphere2")
    return case.data


@pytest.fixture(scope="session")
def clifford_data():
    case = gallery.build_example("clifford_torus")
    return case.data


@pytest.fixture(scope="session")
def slice_data():
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
    return case.data


@pytest.fixture(scope="session")
def slice_data_half():
    case = gallery.build_example("hyperbolic_slice", **{"lambda": 0.5})
    return case.data


@pytest.fixture(scope="session")
def abstract_sphere():
    return gallery.abstract_sphere()


@pytest.fixture(scope="session")
def abstract_plane():
    return gallery.abstract_plane()


@pytest.fixture(scope="session")
def hyperbolic_abstract():
    return gallery.hyperbolic_deformed(0.0)


@pytest.fixture
def leaf_stores(monkeypatch):
    """The tree stores that generated expression leaves execute from now on,
    as (entry index, shape of the rows read), one per executed store line:
    the source of each function that ``expressions`` builds from now on is
    kept, and its lines are traced as they run.  A store line writes one
    tree to its index and its symmetric copies; the index is the first."""
    sources, stores = {}, []
    compiled = expressions._compiled

    def kept(source):
        code = compiled(source)
        for function in code.co_consts:
            if getattr(function, "co_name", None) == "_f":
                sources[function] = source.splitlines()
        return code

    def trace(frame, event, arg):
        lines = sources.get(frame.f_code)
        if lines is None:
            return None
        rows = frame.f_locals.get("_rows")

        def line(frame, event, arg):
            if event == "line":
                for target in re.findall(r"_out\d+\[(_c\d+)\]", lines[frame.f_lineno - 1])[:1]:
                    stores.append((frame.f_globals[target][1:], rows.shape))
            return line
        return line

    monkeypatch.setattr(expressions, "_compiled", kept)
    previous = sys.gettrace()
    sys.settrace(trace)
    yield stores
    sys.settrace(previous)
