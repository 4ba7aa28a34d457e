"""Call-graph construction: indexing and call-edge resolution."""

from repro.analysis.flow.graph import MODULE_BODY


class TestFunctionIndex:
    def test_functions_methods_and_module_bodies(self, graph_of):
        graph = graph_of({
            "repro.core.engine": """
            def evaluate(trace):
                def inner(x):
                    return x
                return inner(trace)

            class Runner:
                def run(self, chip):
                    return evaluate(chip)
            """,
        })
        names = set(graph.functions)
        assert f"repro.core.engine.{MODULE_BODY}" in names
        assert "repro.core.engine.evaluate" in names
        assert "repro.core.engine.evaluate.inner" in names
        assert "repro.core.engine.Runner.run" in names
        info = graph.functions["repro.core.engine.Runner.run"]
        assert info.class_name == "Runner"
        assert graph.functions["repro.core.engine.evaluate"].class_name is None


class TestEdgeTiers:
    def test_direct_edge_through_from_import(self, graph_of):
        graph = graph_of({
            "repro.core.engine": """
            def evaluate(trace):
                return trace
            """,
            "repro.app": """
            from repro.core.engine import evaluate

            def main(trace):
                return evaluate(trace)
            """,
        })
        edges = graph.callees("repro.app.main")
        assert [e.callee for e in edges] == ["repro.core.engine.evaluate"]

    def test_direct_edge_through_facade_reexport(self, graph_of):
        graph = graph_of({
            "repro.core.engine": """
            def evaluate(trace):
                return trace
            """,
            "repro.__init__": """
            from repro.core.engine import evaluate
            """,
            "repro.app": """
            from repro import evaluate

            def main(trace):
                return evaluate(trace)
            """,
        })
        edges = graph.callees("repro.app.main")
        assert [e.callee for e in edges] == ["repro.core.engine.evaluate"]

    def test_self_method_call_is_direct(self, graph_of):
        graph = graph_of({
            "repro.core.engine": """
            class Runner:
                def helper(self):
                    return 1

                def run(self):
                    return self.helper()
            """,
        })
        edges = graph.callees("repro.core.engine.Runner.run")
        assert [e.callee for e in edges] == ["repro.core.engine.Runner.helper"]

    def test_relative_import_resolution(self, graph_of):
        graph = graph_of({
            "repro.engine.worker": """
            def init_worker():
                return None
            """,
            "repro.engine.parallel": """
            from .worker import init_worker

            def start():
                return init_worker()
            """,
        })
        edges = graph.callees("repro.engine.parallel.start")
        assert [e.callee for e in edges] == ["repro.engine.worker.init_worker"]
