"""The paper's core contribution: MarkoViews, MVDBs, translation, query engine.

Everything lives in the submodules — :mod:`repro.core.engine`,
:mod:`repro.core.mvdb`, :mod:`repro.core.markoview`,
:mod:`repro.core.translate` and :mod:`repro.core.pending`; client code
reaches the same objects through the facade (:func:`repro.connect`,
:class:`repro.MVDB`, :class:`repro.MarkoView`).
"""

# ``translate`` (the function) shadows the submodule of the same name on
# this package; importing it here, while the submodule loads, keeps
# ``from repro.core import translate`` returning the function.
from repro.core.translate import translate

__all__ = ["translate"]
