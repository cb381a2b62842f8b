import inspect

import mbsdej


def test_public_callables_take_no_var_keyword():
    # a **kwargs parameter forwards options nothing checks or documents
    offenders = []
    for name in mbsdej.__all__:
        obj = getattr(mbsdej, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:   # exception classes with the builtin constructor
            continue
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            offenders.append(name)
    assert offenders == []
