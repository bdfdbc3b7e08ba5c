"""The package's public names are the ones its modules declare."""

import peqfdn
from peqfdn import digitize, errors, evaluate, fdn, optimize, peq, prototypes, targets

MODULES = (digitize, errors, evaluate, fdn, optimize, peq, prototypes, targets)


def test_package_exports_the_union_of_its_module_lists():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    assert peqfdn.__all__ == sorted(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(peqfdn, name) is getattr(module, name), name
