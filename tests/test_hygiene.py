"""Repository hygiene: no bytecode, cache or result artefacts tracked.

CI enforces the same rule with a `git ls-files` guard; this test keeps
the check in the local tier-1 loop so an accidental `git add -A` of
__pycache__ directories is caught before a push.
"""

import ast
import fnmatch
import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

FORBIDDEN_PATTERNS = (
    "*.pyc",
    "*.pyo",
    "*/__pycache__/*",
    "__pycache__/*",
    "*/.pytest_cache/*",
    "*/.hypothesis/*",
    ".coverage",
    "coverage.xml",
)


def tracked_files():
    if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    out = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_no_bytecode_or_cache_artifacts_tracked():
    offenders = [
        path
        for path in tracked_files()
        for pattern in FORBIDDEN_PATTERNS
        if fnmatch.fnmatch(path, pattern)
    ]
    assert offenders == [], f"cache/bytecode artefacts tracked: {offenders}"


def test_gitignore_covers_test_tooling_artifacts():
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    for required in ("__pycache__/", "*.pyc", ".hypothesis/", ".coverage"):
        assert required in ignored, f".gitignore is missing {required!r}"


def test_manifest_excludes_bytecode_from_sdists():
    manifest = (REPO_ROOT / "MANIFEST.in").read_text()
    assert "global-exclude *.py[cod]" in manifest
    assert "prune" in manifest and "__pycache__" in manifest


def test_no_stray_trace_files_tracked():
    """The golden fixtures are the only .jsonl files that may be tracked;
    trace output from local runs must never land in the repository."""
    offenders = [
        path
        for path in tracked_files()
        if path.endswith(".jsonl") and not path.startswith("tests/golden/")
    ]
    assert offenders == [], f"stray trace files tracked: {offenders}"


def test_gitignore_covers_trace_output():
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    for required in ("*.trace.jsonl", "*.jsonl.tmp-*"):
        assert required in ignored, f".gitignore is missing {required!r}"


def test_manifest_ships_goldens_but_not_trace_output():
    manifest = (REPO_ROOT / "MANIFEST.in").read_text()
    assert "recursive-include tests/golden *.jsonl" in manifest
    assert "global-exclude *.trace.jsonl" in manifest
    assert "global-exclude *.jsonl.tmp-*" in manifest


RESULT_ARTIFACT_PATTERNS = (
    "results*.txt",
    "*/results*.txt",
    "*.runstore/*",
)


def test_no_result_artifacts_tracked():
    """Experiment output (results tables, run stores) must never be
    committed; the tracked BENCH_*.json perf baselines are the one
    deliberate exception and do not match these patterns."""
    offenders = [
        path
        for path in tracked_files()
        for pattern in RESULT_ARTIFACT_PATTERNS
        if fnmatch.fnmatch(path, pattern)
    ]
    assert offenders == [], f"result artefacts tracked: {offenders}"


def test_gitignore_covers_result_artifacts():
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    for required in ("results*.txt", "*.runstore/"):
        assert required in ignored, f".gitignore is missing {required!r}"


def _pyproject_version() -> str:
    text = (REPO_ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
    assert match, "pyproject.toml has no project version"
    return match.group(1)


def _changelog_latest_release() -> str:
    text = (REPO_ROOT / "CHANGELOG.md").read_text()
    match = re.search(r"^## ([0-9]+(?:\.[0-9]+)*)", text, flags=re.MULTILINE)
    assert match, "CHANGELOG.md has no release heading"
    return match.group(1)


def test_pyproject_version_matches_changelog():
    """The released version is written in exactly two places; they must
    agree or the sdist will claim a version with no release notes."""
    assert _pyproject_version() == _changelog_latest_release()


#: The command-line edges: the only modules under ``src/repro`` that may
#: read the process environment.  Everything else takes its settings
#: from the run context (``repro.context``).
ENVIRONMENT_READERS = ("experiments/runner.py", "store/cli.py")
_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path):
    """Line numbers where ``path`` touches ``os.environ``/``os.getenv``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if {alias.name for alias in node.names} & _ENVIRONMENT_NAMES:
                yield node.lineno


def test_only_cli_edges_read_the_environment():
    package = REPO_ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(package).as_posix()}:{line}"
        for path in sorted(package.rglob("*.py"))
        if path.relative_to(package).as_posix() not in ENVIRONMENT_READERS
        for line in _environment_reads(path)
    ]
    assert offenders == [], (
        "only the command-line edges may read the environment; pass "
        f"settings through repro.context instead: {offenders}"
    )


def test_no_egg_info_tracked():
    """``*.egg-info`` is build output of an editable install; a tracked
    copy goes stale as modules are added and nothing reads it."""
    offenders = [path for path in tracked_files() if ".egg-info" in path]
    assert offenders == [], f"egg-info build artefacts tracked: {offenders}"
    ignored = (REPO_ROOT / ".gitignore").read_text().splitlines()
    assert "*.egg-info/" in ignored, ".gitignore is missing '*.egg-info/'"


#: The one module that writes the engine's observation slots.
PROBE_BUS = "sim/bus.py"
_ENGINE_SLOTS = {"trace_pre", "trace_post", "profile"}
#: Methods and callbacks observers once patched onto live instances;
#: observers subscribe to the probe bus instead.
_PATCHED_NAMES = {
    "swap_with_parent",
    "promote_to_grandparent",
    "_apply_episode",
    "record",
    "overhead_callback",
}


def _created_names(function) -> set:
    """Local names ``function`` binds to the result of a call (objects it
    created itself, e.g. ``protocol = factory(ctx)``)."""
    names = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
    return names


def _hook_patches(path: Path, may_write_slots: bool):
    """``line: target`` for every engine-slot write and every patch of a
    method or callback on an object the enclosing function did not
    create."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = set()
    for scope in scopes:
        created = {"self"} | _created_names(scope)
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setattr":
                args = node.args
                if (
                    len(args) >= 2
                    and isinstance(args[1], ast.Constant)
                    and args[1].value in _ENGINE_SLOTS | _PATCHED_NAMES
                    and not may_write_slots
                ):
                    found.add(f"{node.lineno}: setattr(..., {args[1].value!r})")
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if target.attr in _ENGINE_SLOTS and not may_write_slots:
                    found.add(f"{node.lineno}: .{target.attr}")
                elif target.attr in _PATCHED_NAMES and not (
                    isinstance(target.value, ast.Name)
                    and target.value.id in created
                ):
                    found.add(f"{node.lineno}: .{target.attr}")
    return sorted(found)


def test_observers_subscribe_instead_of_patching_hooks():
    """Only the probe bus writes ``trace_pre``/``trace_post``/``profile``,
    and no module reassigns a tree switch, the episode pricing, the
    message ledger's ``record`` or a protocol's ``overhead_callback`` on
    an object it did not create: observers subscribe to the bus."""
    package = REPO_ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(package).as_posix()}:{patch}"
        for path in sorted(package.rglob("*.py"))
        for patch in _hook_patches(
            path, may_write_slots=path.relative_to(package).as_posix() == PROBE_BUS
        )
    ]
    assert offenders == [], (
        "observers must subscribe to the probe bus (repro.sim.bus) instead "
        f"of writing engine hooks or patching methods: {offenders}"
    )
