"""Every import is used in its own scope and every private helper in the
package modules is used, every public function has a caller outside the
tests, every dataclass field is read, every name a module lists in
`__all__` exists, no failure is swallowed and scipy is reached only through
scipy.linalg and scipy.sparse (stdlib-only lints, plus one run of each
pipeline in a fresh process)."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dcnls"


def _module_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return ()


def _own_imports(scope):
    """The import statements of `scope` outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_imports(path):
    # a name counts as used only in the scope its import binds it in: the
    # whole module for a top-level import, the function (with the functions
    # nested in it) for an import inside one
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = set(_module_all(tree))
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        where = getattr(scope, "name", "<module>")
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        if scope is tree:
            used |= exported
        for node in _own_imports(scope):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {where} {name}")
    return sorted(unused)


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []


def test_no_dead_private_helpers():
    modules = sorted(SRC.glob("*.py"))
    helpers = {}
    referenced = set()
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                helpers[node.name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert helpers
    dead = sorted(f"{where} {name}" for name, where in helpers.items()
                  if name not in referenced)
    assert dead == []


def test_no_dead_private_constants():
    constants = {}
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if (isinstance(name, ast.Name) and name.id.startswith("_")
                                and not name.id.startswith("__")):
                            constants[name.id] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    assert constants
    dead = sorted(f"{where} {name}" for name, where in constants.items()
                  if name not in loaded)
    assert dead == []


def test_public_functions_have_callers_outside_tests():
    # a public function that only the tests reach is surface nothing uses
    public, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        public.update({node.name: f"{path.name}:{node.lineno}" for node in tree.body
                       if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")})
    for path in sorted(p for d in (SRC, ROOT / "demos", ROOT / "perfbench") for p in d.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    assert public
    unused = sorted(f"{where} {name}" for name, where in public.items() if name not in referenced)
    assert unused == []


def _is_dataclass(node):
    """Whether `node` is a class decorated `@dataclass` or `@dataclass(...)`."""
    if not isinstance(node, ast.ClassDef):
        return False
    targets = [dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list]
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def test_dataclass_fields_are_read():
    # a field that no code loads is a result nothing reads; the scope is that
    # of the public-function lint above.  Reads are matched by attribute name
    # alone, so a field passes if any object's attribute of that name is read:
    # `Trajectory.mu`, which nothing read, passed on the reads of `gs.mu`
    fields, loaded = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in filter(_is_dataclass, tree.body):
            fields.update({f"{cls.name}.{node.target.id}": f"{path.name}:{node.lineno}"
                           for node in cls.body if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)})
    for path in sorted(p for d in (SRC, ROOT / "demos", ROOT / "perfbench")
                       for p in d.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    assert fields
    unread = sorted(f"{where} {name}" for name, where in fields.items()
                    if name.split(".")[1] not in loaded)
    assert unread == []


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_public_names_resolve():
    undefined = []
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = _defined_names(tree)
        undefined += [f"{path.name} {name}" for name in _module_all(tree) if name not in defined]
    assert undefined == []


def _passes(call, index, name):
    """Whether `call` supplies the parameter at positional `index` or named `name`."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    ):
        return True
    return (index is not None and len(call.args) > index) or any(
        k.arg == name for k in call.keywords
    )


def test_private_defaults_take_two_values():
    # a default that every call passes, or that no call passes, is a constant
    helpers, calls = {}, {}
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                helpers[node.name] = node.args
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in helpers):
                calls.setdefault(node.func.id, []).append(node)
    assert calls
    single = []
    for name, sites in sorted(calls.items()):
        args = helpers[name]
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for index, arg in defaulted:
            passed = [_passes(call, index, arg) for call in sites]
            if all(passed) or not any(passed):
                single.append(f"{name}({arg})")
    assert single == []


def test_no_swallowed_exceptions():
    # an except clause whose body is only `pass` hides a failure
    swallowed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        swallowed += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.ExceptHandler)
                      and all(isinstance(stmt, ast.Pass) for stmt in node.body)]
    assert swallowed == []


def _scoped_calls(tree, name):
    """Dotted scopes ("Class.method", "function" or "<module>") of every call of `name`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def test_local_factorisations_have_one_home():
    # band factors of a I + b ((-Delta)_l + V) live in RadialGrid.band_solver
    # and the dense Cholesky and LU helpers beside it; the bordered solve is
    # the one sparse LU, and no scipy.linalg factor wrapper is called
    lapack, splu, band_lu, wrapped = [], [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.startswith("scipy.linalg.lapack") for name in names):
                lapack.append(path.name)
        splu += [f"{path.name} {scope}" for scope in _scoped_calls(tree, "splu")]
        band_lu += [f"{path.name} {scope} {name}"
                    for name in ("dgbtrf", "dgbtrs", "zgbtrf", "zgbtrs")
                    for scope in _scoped_calls(tree, name)]
        wrapped += [f"{path.name} {scope} {name}"
                    for name in ("cho_factor", "cho_solve", "lu_factor", "lu_solve")
                    for scope in _scoped_calls(tree, name)]
    assert lapack == ["grid.py"]
    assert splu == ["linop.py ChannelOperator.solve"]
    assert band_lu == [f"grid.py RadialGrid.band_solver {name}"
                       for name in ("dgbtrf", "dgbtrs", "zgbtrf", "zgbtrs")]
    assert wrapped == []


def _scipy_subpackage(name):
    """"scipy.<sub>" of a dotted module name under scipy ("scipy" itself for a
    bare import), None for a name outside scipy."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "scipy" else None


def test_scipy_is_reached_through_linalg_and_sparse_alone():
    # the rest of scipy (special, interpolate, integrate, and what they pull
    # in) costs every process start-up time and memory that no run needs
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = [f"scipy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            stray += [f"{path.name}:{node.lineno} {name}" for name in names
                      if _scipy_subpackage(name) not in (None, "scipy.linalg", "scipy.sparse")]
    assert stray == []


_FOOTPRINT = """
import sys

import dcnls.cli
from dcnls.dynamics import evolve, make_initial_data, modulation_extract
from dcnls.grid import build_grid
from dcnls.groundstate import solve_classical_Q, solve_Q_mu
from dcnls.profile import build_hierarchy

grid = build_grid(256, 40.0, "tanh")
solve_classical_Q(grid)
gs = solve_Q_mu(0.02, grid)
ps = build_hierarchy(gs)
u0 = make_initial_data("minimal_mass_profile", gs=gs, ps=ps, b0=0.25, mass_factor=1.0005)
traj = evolve(u0, gs.mu, dt=1e-3, t_final=0.05, record_every=10)
modulation_extract(traj, gs, ps)
code = dcnls.cli.run_command(["groundstate", "--grid-n", "256", "--out", sys.argv[1]])
print(code, *sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}))
"""


def test_pipelines_load_no_other_scipy_subpackage(tmp_path):
    # a ground state, its continuation, the hierarchy, a short evolution with
    # its modulation, and one CLI command, all at n = 256 in a fresh process
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()     # the CLI prints first
    assert code == "0"
    assert {"linalg", "sparse"} <= set(loaded)
    assert set(loaded).isdisjoint({"integrate", "interpolate", "special", "optimize",
                                   "spatial", "fft"})
