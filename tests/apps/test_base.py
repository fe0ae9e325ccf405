"""Tests for the application interface and registry."""

import pytest

from repro.apps import Application, app_names, create_app, register_app
from repro.apps.base import _REGISTRY


class TestRegistry:
    def test_all_paper_apps_plus_vsearch_registered(self):
        assert app_names() == [
            "img-dnn", "masstree", "moses", "shore",
            "silo", "specjbb", "sphinx", "vsearch", "xapian",
        ]

    def test_create_app_passes_kwargs(self):
        app = create_app("masstree", n_records=123)
        assert app._n_records == 123

    def test_unknown_app_helpful_error(self):
        with pytest.raises(KeyError) as raised:
            create_app("redis")
        assert raised.value.args[0] == (
            "unknown application 'redis'; known: ['img-dnn', 'masstree', "
            "'moses', 'shore', 'silo', 'specjbb', 'sphinx', 'vsearch', 'xapian']"
        )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="'masstree' already registered"):
            register_app("masstree", lambda: None)

    def test_register_and_use_custom_app(self):
        class EchoApp(Application):
            name = "echo-test"

            def setup(self):
                pass

            def process(self, payload):
                return payload

            def make_client(self, seed=0):
                class _Client:
                    def next_request(self):
                        return "ping"

                return _Client()

        register_app("echo-test", EchoApp)
        try:
            app = create_app("echo-test")
            app.setup()
            assert app.process("x") == "x"
            assert app.make_client().next_request() == "ping"
        finally:
            _REGISTRY.pop("echo-test")

    def test_interface_is_abstract(self):
        app = Application()
        with pytest.raises(NotImplementedError):
            app.setup()
        with pytest.raises(NotImplementedError):
            app.process(None)
        with pytest.raises(NotImplementedError):
            app.make_client()

    def test_apps_have_paper_metadata(self):
        for name in app_names():
            app = create_app(name)
            assert app.name
            assert app.domain
