"""The eight TailBench applications (Table I of the paper), plus the
vsearch extension — sharded IVF vector search, the suite's ninth app.

Every application implements :class:`~repro.apps.base.Application` and
is registered here by name, so experiment drivers can instantiate the
whole suite by name::

    from repro.apps import create_app
    app = create_app("xapian")
    app.setup()

Factories accept keyword overrides for dataset sizes etc.; defaults are
sized for interactive use on a laptop.

Importing this package loads none of the nine apps. ``_BUILTIN_APPS``
maps each registry name to its subpackage and class; ``create_app(name)``
imports only that subpackage (and, for the numpy-backed apps, numpy),
``app_names()`` lists all nine without importing any, and the class
names (``XapianApp`` ...) resolve on first attribute access.
"""

from importlib import import_module

from .base import (
    Application,
    Client,
    ShardedApp,
    app_names,
    create_app,
    register_app,
)

#: registry name -> (subpackage, application class)
_BUILTIN_APPS = {
    "xapian": ("xapian", "XapianApp"),
    "masstree": ("masstree", "MasstreeApp"),
    "moses": ("moses", "MosesApp"),
    "sphinx": ("sphinx", "SphinxApp"),
    "img-dnn": ("img_dnn", "ImgDnnApp"),
    "specjbb": ("specjbb", "SpecJbbApp"),
    "silo": ("silo", "SiloApp"),
    "shore": ("shore", "ShoreApp"),
    "vsearch": ("vsearch", "VsearchApp"),
}
_CLASS_MODULES = {cls: module for module, cls in _BUILTIN_APPS.values()}


def __getattr__(name):
    module = _CLASS_MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def _factory(module: str, cls: str):
    def build(**kwargs):
        return getattr(import_module(f"{__name__}.{module}"), cls)(**kwargs)

    return build


for _name, (_module, _cls) in _BUILTIN_APPS.items():
    register_app(_name, _factory(_module, _cls))
del _name, _module, _cls

__all__ = [
    "Application",
    "Client",
    "ShardedApp",
    "app_names",
    "create_app",
    "register_app",
    "XapianApp",
    "MasstreeApp",
    "MosesApp",
    "SphinxApp",
    "ImgDnnApp",
    "SpecJbbApp",
    "SiloApp",
    "ShoreApp",
    "VsearchApp",
]
