"""The documented public API: README quickstart and package exports."""


import repro


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The exact flow shown in README.md must work."""
        from repro import PowerLog, check_source, get_program
        from repro.graphs import load_dataset

        report = check_source(
            """
            sssp(X, d) :- X = 0, d = 0.
            sssp(Y, min[dy]) :- sssp(X, dx), edge(X, Y, dxy), dy = dx + dxy.
            """,
            name="sssp",
        )
        assert report.mra_satisfiable
        assert "MRA sat. = yes" in report.summary()

        system = PowerLog()
        result = system.run(get_program("sssp"), load_dataset("livej"))
        assert len(result.values) > 0
        assert result.simulated_seconds > 0


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        import repro.aggregates
        import repro.bench
        import repro.checker
        import repro.datalog
        import repro.distributed
        import repro.engine
        import repro.expr
        import repro.graphs
        import repro.programs
        import repro.reference
        import repro.systems

    def test_public_items_documented(self):
        """Every public callable/class exported at top level has a docstring."""
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_module_docstrings(self):
        import importlib
        import pkgutil

        package = repro
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"


class TestBenchmarkNames:
    """The end-to-end benchmark (``benchmarks/e2e``) imports names from
    ``repro`` and wraps methods and functions for its layer table; a
    deletion or rename that breaks one of them breaks the benchmark.
    (The kernel methods it wraps on ``KERNELS[backend]`` are held in
    ``test_runtime_kernels.py``.)"""

    @staticmethod
    def _trees():
        import ast
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
        paths = sorted(root.glob("*.py"))
        assert paths
        return [(path.name, ast.parse(path.read_text())) for path in paths]

    @staticmethod
    def _resolve(module: str, name: str):
        import importlib

        package = importlib.import_module(module)
        if not hasattr(package, name):
            importlib.import_module(f"{module}.{name}")
        return getattr(package, name)

    def _imports(self, tree) -> dict:
        """``name -> object`` of every ``from repro... import name``;
        every ``import repro...`` must import."""
        import ast
        import importlib

        names = {}
        for node in ast.walk(tree):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "repro":
                for alias in node.names:
                    names[alias.asname or alias.name] = self._resolve(module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        importlib.import_module(alias.name)
        return names

    def test_imported_names_resolve(self):
        imported = {}
        for _, tree in self._trees():
            imported.update(self._imports(tree))
        assert {"MutableGraphView", "compare_results", "serving_graph"} <= set(imported)

    def test_wrapped_names_resolve(self):
        import ast
        import inspect

        import repro

        wrapped = 0
        for filename, tree in self._trees():
            imported = self._imports(tree)
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("wrap_method", "wrap_function")
                    and node.args
                ):
                    continue
                target = node.args[0]
                if node.func.attr == "wrap_method":
                    if isinstance(target, ast.Name) and target.id in imported:
                        attr = ast.literal_eval(node.args[1])
                        inspect.getattr_static(imported[target.id], attr)
                        wrapped += 1
                    continue
                # wrap_function(repro.a.b.fn, ...): each step must resolve
                chain = []
                while isinstance(target, ast.Attribute):
                    chain.append(target.attr)
                    target = target.value
                assert isinstance(target, ast.Name) and target.id == "repro", filename
                obj, module = repro, "repro"
                for part in reversed(chain):
                    if inspect.ismodule(obj):
                        obj = self._resolve(module, part)
                    else:
                        obj = getattr(obj, part)
                    module = f"{module}.{part}"
                assert callable(obj), (filename, module)
                wrapped += 1
        assert wrapped >= 15
