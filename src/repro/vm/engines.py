"""Canonical registry of VM execution engines.

Every consumer of the engine axis -- the :class:`VirtualMachine`
constructor, CLI argument builders, the campaign instance model and
the differential-fuzzing matrix -- derives its choices and its default
from this module, so adding an engine is a one-line change here plus
the engine implementation itself.

All engines are bound by the same contract: field-for-field identical
:class:`~repro.vm.stats.RuntimeStats` on every program, enforced by
``tests/vm/test_engine_differential.py`` and the fuzz oracle.
"""

_TIERS = {
    "compiled": "closure-compiled tier",
    "interp": "reference tree-walking interpreter (slow)",
    "codegen": "generated-Python-source tier (fastest)",
}

#: Selectable engines; the order implies nothing about speed.
ENGINES = tuple(_TIERS)

#: The engine every caller gets when it names none (VM, driver, CLI
#: ``--engine``, experiment payloads, campaign instances).
DEFAULT_ENGINE = "compiled"

#: One-line help per engine, used by CLI ``--engine`` builders.
ENGINE_DESCRIPTIONS = {
    name: desc + (" (default)" if name == DEFAULT_ENGINE else "")
    for name, desc in _TIERS.items()
}
