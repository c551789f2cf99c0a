import dataclasses

import pytest

import distdet.verify


@pytest.fixture
def flipped_closed_form(monkeypatch):
    """A fault in the closed form, injected from outside: det_cof_closed as
    distdet.verify calls it returns its determinant with the sign flipped."""
    original = distdet.verify.det_cof_closed

    def flipped(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, det=-result.det)

    monkeypatch.setattr(distdet.verify, "det_cof_closed", flipped)
