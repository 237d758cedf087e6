"""Counting the one-row route of ``rk4_integrate``.

A field that ``grey_rhs`` builds for one parameter set carries ``row``, its
twin on Python floats, which ``rk4_integrate`` and the rate read-off take for
a one-row state.  A row-alone check holds only if that route ran, so the
checks count the twin's calls.
"""

from contextlib import contextmanager

import pytest

from greymatch import ode


def counted(row, calls):
    """``row`` that appends each state it is called on to ``calls``."""
    def twin(t, y):
        calls.append(y)
        return row(t, y)

    return twin


@contextmanager
def count_row_calls():
    """Within the block, every field ``ode.grey_rhs`` builds for one set counts
    its twin's calls in the yielded list."""
    calls = []
    build = ode.grey_rhs

    def grey_rhs(spec, params):
        field = build(spec, params)
        if hasattr(field, "row"):
            field.row = counted(field.row, calls)
        return field

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ode, "grey_rhs", grey_rhs)
        yield calls
