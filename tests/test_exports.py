import types

import sinkbond


def test_all_names_exactly_the_imported_public_names():
    # importing the package also binds its submodules; those are not exports
    imported = {
        name
        for name, value in vars(sinkbond).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(sinkbond.__all__) == len(set(sinkbond.__all__))
    assert set(sinkbond.__all__) == imported
    for name in sinkbond.__all__:
        assert getattr(sinkbond, name) is not None
