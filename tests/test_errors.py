import pickle

import pytest

from saddlebos import errors
from saddlebos.errors import SaddleBosError


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


ERRORS = [SaddleBosError, *subclasses(SaddleBosError)]

# constructor arguments for the classes that format their own message
ARGS = {
    errors.MissingMarkerError: ("LASI",),
    errors.BadHeaderError: (["time", "LASI_x"],),
    errors.BadRowError: (5, "LASI_x", "unparseable value"),
    errors.NonMonotonicTimeError: (5,),
}


@pytest.mark.parametrize("cls", ERRORS, ids=[cls.__name__ for cls in ERRORS])
def test_error_survives_pickling(cls):
    exc = cls(*ARGS.get(cls, ("some message",)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(exc, protocol))
        assert type(copy) is cls
        assert str(copy) == str(exc)
        assert copy.args == exc.args
        assert vars(copy) == vars(exc)


def test_every_error_class_is_covered():
    # a new class that formats its own message needs its own arguments above
    own_init = {cls for cls in ERRORS if "__init__" in vars(cls)}
    assert own_init == set(ARGS)


def test_header_error_keeps_a_given_message():
    exc = errors.BadHeaderError([], "header does not match the expected column order")
    copy = pickle.loads(pickle.dumps(exc))
    assert str(copy) == str(exc) and copy.missing == ()
