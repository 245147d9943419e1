"""Tests for :mod:`repro.analysis` — the project-specific lint engine.

Each rule gets a fixture triple: a snippet it must flag (with the rule
id and line asserted), a clean snippet it must pass, and the flagged
snippet again with a ``# repro: noqa[RULE]`` suppression on the hit
line.  On top of that the repo itself must lint clean — ``repro lint
src/`` is part of CI, so a regression here is a regression there.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import all_rules, render_json, render_text, run_lint
from repro.analysis.sources import parse_noqa

ROOT = Path(__file__).parent.parent

# ----------------------------------------------------------------------
# Rule fixtures: code -> (bad source, expected hit line, clean source)
# ----------------------------------------------------------------------
RULE_FIXTURES = {
    "R001": (
        textwrap.dedent(
            """\
            def corrupt(index, path):
                index.add_left(1, "v", path)
            """
        ),
        2,
        textwrap.dedent(
            """\
            def read(index):
                return index.count_left(1, 2)
            """
        ),
    ),
    "R002": (
        textwrap.dedent(
            """\
            def peek(cpe):
                return cpe._dist_s
            """
        ),
        2,
        textwrap.dedent(
            """\
            class Box:
                def __init__(self):
                    self._value = 1

                def value(self):
                    return self._value
            """
        ),
    ),
    "R003": (
        textwrap.dedent(
            """\
            import time


            async def pause():
                time.sleep(1)
            """
        ),
        5,
        textwrap.dedent(
            """\
            import asyncio
            import time


            def pause():
                time.sleep(1)


            async def apause():
                await asyncio.sleep(1)
            """
        ),
    ),
    "R004": (
        textwrap.dedent(
            """\
            def order(xs):
                return list({x for x in xs})
            """
        ),
        2,
        textwrap.dedent(
            """\
            def order(xs):
                return sorted({x for x in xs})
            """
        ),
    ),
    "R005": (
        textwrap.dedent(
            """\
            def collect(item, acc=[]):
                acc.append(item)
                return acc
            """
        ),
        1,
        textwrap.dedent(
            """\
            def collect(item, acc=None):
                if acc is None:
                    acc = []
                acc.append(item)
                return acc
            """
        ),
    ),
    "R006": (
        "def helper():\n    return 1\n",
        1,
        'def helper():\n    return 1\n\n\n__all__ = ["helper"]\n',
    ),
    "R013": (
        textwrap.dedent(
            """\
            def leak(graph, uid, vid):
                graph._out_ids[uid].append(vid)
            """
        ),
        2,
        textwrap.dedent(
            """\
            def read(graph, u, v):
                graph.add_edge(u, v)
                return list(graph.out_neighbors(u))
            """
        ),
    ),
}


def lint_source(tmp_path, source, select=None, name="mod.py"):
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return run_lint([str(target)], select=select)


def suppress_line(source, line, rule):
    """Append ``# repro: noqa[rule]`` to the given 1-based line."""
    lines = source.splitlines()
    lines[line - 1] += f"  # repro: noqa[{rule}]"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_flags_bad_fixture(rule, tmp_path):
    bad, line, _ = RULE_FIXTURES[rule]
    report = lint_source(tmp_path, bad, select=[rule])
    hits = report.for_rule(rule)
    assert hits, f"{rule} missed its fixture"
    assert hits[0].rule == rule
    assert hits[0].line == line
    assert hits[0].path.endswith("mod.py")


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_passes_clean_fixture(rule, tmp_path):
    _, _, clean = RULE_FIXTURES[rule]
    report = lint_source(tmp_path, clean, select=[rule])
    assert report.findings == (), render_text(report)


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_respects_noqa(rule, tmp_path):
    bad, line, _ = RULE_FIXTURES[rule]
    report = lint_source(tmp_path, suppress_line(bad, line, rule),
                         select=[rule])
    assert report.findings == (), render_text(report)


def test_bare_noqa_suppresses_every_rule(tmp_path):
    bad, line, _ = RULE_FIXTURES["R005"]
    lines = bad.splitlines()
    lines[line - 1] += "  # repro: noqa"
    report = lint_source(tmp_path, "\n".join(lines) + "\n", select=["R005"])
    assert report.findings == ()


def test_noqa_on_other_line_does_not_suppress(tmp_path):
    bad, line, _ = RULE_FIXTURES["R005"]
    report = lint_source(
        tmp_path, "# repro: noqa[R005]\n" + bad, select=["R005"]
    )
    assert report.for_rule("R005")


# ----------------------------------------------------------------------
# Rule-specific edge cases
# ----------------------------------------------------------------------
def test_r001_allows_the_maintenance_layer(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    bad, _, _ = RULE_FIXTURES["R001"]
    (pkg / "maintenance.py").write_text(bad, encoding="utf-8")
    report = run_lint([str(pkg / "maintenance.py")], select=["R001"])
    assert report.findings == (), "maintenance layer may mutate the index"


def test_r013_allows_the_owning_modules(tmp_path):
    bad, _, _ = RULE_FIXTURES["R013"]
    target = _scoped_module(tmp_path, "repro/graph", "digraph.py", bad)
    report = run_lint([str(target)], select=["R013"])
    assert report.findings == (), "the graph may write its own id plane"


_MASK_MAP_WRITES = textwrap.dedent(
    """\
    def poke(index, path):
        index.left.masks()[path] = 0
        index.right.masks().clear()
        index.left._masks[path] = 0
        index.right._masks = {}
        return index.left.masks().get(path)
    """
)


def test_r013_flags_mask_map_writes(tmp_path):
    report = lint_source(tmp_path, _MASK_MAP_WRITES, select=["R013"])
    lines = [f.line for f in report.for_rule("R013")]
    assert lines == [2, 3, 4, 5]  # the read on line 6 is fine


def test_r013_allows_mask_map_writes_by_the_index(tmp_path):
    target = _scoped_module(
        tmp_path, "repro/core", "index.py", _MASK_MAP_WRITES
    )
    report = run_lint([str(target)], select=["R013"])
    assert report.findings == (), "the index owns its mask map"


def test_r001_flags_bulk_level_writes(tmp_path):
    source = textwrap.dedent(
        """\
        def stuff(index, paths, masks):
            index.left.add_level(2, paths, masks, -1)
            index.right.add(7, (7, 9), 3)
        """
    )
    report = lint_source(tmp_path, source, select=["R001"])
    assert [f.line for f in report.for_rule("R001")] == [2, 3]
    target = _scoped_module(tmp_path, "repro/core", "construction.py", source)
    report = run_lint([str(target)], select=["R001"])
    assert report.findings == (), "construction owns the bulk write"


def _scoped_module(tmp_path, dotted_dir, filename, source):
    """Write ``source`` as a module inside a tmp package tree."""
    pkg = tmp_path
    for part in dotted_dir.split("/"):
        pkg = pkg / part
        pkg.mkdir(exist_ok=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
    target = pkg / filename
    target.write_text(source, encoding="utf-8")
    return target


_R007_BAD = textwrap.dedent(
    """\
    def handle(op):
        print("handling", op)
    """
)


def test_r007_flags_print_in_service_layer(tmp_path):
    target = _scoped_module(tmp_path, "repro/service", "engine.py", _R007_BAD)
    report = run_lint([str(target)], select=["R007"])
    hits = report.for_rule("R007")
    assert hits and hits[0].line == 2
    assert "repro.obs.events" in hits[0].message


def test_r007_flags_logging_import_in_core_layer(tmp_path):
    source = "import logging\n\nlog = logging.getLogger(__name__)\n"
    target = _scoped_module(tmp_path, "repro/core", "maintenance.py", source)
    report = run_lint([str(target)], select=["R007"])
    hits = report.for_rule("R007")
    assert hits and hits[0].line == 1

    source = "from logging import getLogger\n"
    target = _scoped_module(tmp_path, "repro/core", "other.py", source)
    report = run_lint([str(target)], select=["R007"])
    assert report.for_rule("R007")


def test_r007_flags_print_in_core_layer(tmp_path):
    target = _scoped_module(tmp_path, "repro/core", "maintenance.py", _R007_BAD)
    report = run_lint([str(target)], select=["R007"])
    hits = report.for_rule("R007")
    assert hits and hits[0].line == 2
    assert "repro.obs.events" in hits[0].message


def test_r007_ignores_modules_outside_the_scoped_layers(tmp_path):
    for dotted in (
        "repro/cli_helpers", "repro/experiments", "repro/parallel", "other"
    ):
        target = _scoped_module(tmp_path, dotted, "mod.py", _R007_BAD)
        report = run_lint([str(target)], select=["R007"])
        assert report.findings == (), f"{dotted} should be out of scope"


def test_r007_respects_noqa(tmp_path):
    source = suppress_line(_R007_BAD, 2, "R007")
    target = _scoped_module(tmp_path, "repro/service", "engine.py", source)
    report = run_lint([str(target)], select=["R007"])
    assert report.findings == ()


def test_r002_allows_same_class_private_access(tmp_path):
    source = textwrap.dedent(
        """\
        class Pair:
            def __init__(self):
                self._left = 0

            def __eq__(self, other):
                return self._left == other._left
        """
    )
    report = lint_source(tmp_path, source, select=["R002"])
    assert report.findings == ()


def test_r003_nested_sync_def_shields_its_body(tmp_path):
    source = textwrap.dedent(
        """\
        import time


        async def outer():
            def worker():
                time.sleep(1)
            return worker
        """
    )
    report = lint_source(tmp_path, source, select=["R003"])
    assert report.findings == ()


def test_r004_ignores_sorted_set(tmp_path):
    report = lint_source(
        tmp_path, "order = sorted({3, 1, 2})\n__all__ = ['order']\n"
    )
    assert report.findings == ()


def test_r006_flags_unbound_and_private_exports(tmp_path):
    source = '__all__ = ["missing", "_hidden"]\n_hidden = 1\n'
    report = lint_source(tmp_path, source, select=["R006"])
    messages = [f.message for f in report.findings]
    assert any("missing" in m for m in messages)
    assert any("_hidden" in m for m in messages)


def test_r006_exempts_private_modules(tmp_path):
    report = lint_source(
        tmp_path, "def helper():\n    return 1\n",
        select=["R006"], name="_internal.py",
    )
    assert report.findings == ()


# ----------------------------------------------------------------------
# Whole-program rules (R008-R012): fixture triples over package trees
# ----------------------------------------------------------------------
_R009_CONSTRUCTION = textwrap.dedent(
    """\
    def build_index(graph, s, t, k, forced_plan=None, dist_s=None):
        return object()


    __all__ = ["build_index"]
    """
)

_R011_DOCS = textwrap.dedent(
    """\
    # API

    Ops: `query` (`s`, `t`, `k`) and `watch` (`s`, `t`).  Any request
    may carry a `corr_id` string.
    """
)

_R012_DOCS = textwrap.dedent(
    """\
    # Observability

    | metric | kind |
    |---|---|
    | `service.requests.<op>` | counter |
    | `service.cache.hits` / `misses` | counter |
    """
)

#: code -> {"bad": files, "hit": (relpath, line), "clean": files}
PROGRAM_FIXTURES = {
    "R008": {
        "bad": {
            "repro/core/work.py": textwrap.dedent(
                """\
                import time


                def stamp():
                    return time.time()
                """
            ),
        },
        "hit": ("repro/core/work.py", 5),
        "clean": {
            "repro/core/work.py": textwrap.dedent(
                """\
                import random
                import time


                def stamp():
                    return time.perf_counter()


                def draw(seed):
                    return random.Random(seed).random()
                """
            ),
        },
    },
    "R009": {
        "bad": {
            "repro/core/construction.py": _R009_CONSTRUCTION,
            "repro/service/warm.py": textwrap.dedent(
                """\
                from repro.core.construction import build_index


                def make_master(graph, hub, k):
                    return object()


                def drive(graph, pairs, k):
                    master = make_master(graph, 7, k)
                    return [
                        build_index(graph, s, t, k, dist_s=master)
                        for s, t in pairs
                    ]
                """
            ),
        },
        "hit": ("repro/service/warm.py", 11),
        "clean": {
            "repro/core/construction.py": _R009_CONSTRUCTION,
            "repro/service/warm.py": textwrap.dedent(
                """\
                from repro.core.construction import build_index


                def make_master(graph, hub, k):
                    return object()


                def drive(graph, pairs, k, use_s):
                    master = make_master(graph, 7, k)
                    return [
                        build_index(
                            graph, s, t, k,
                            dist_s=master.clone() if use_s else None,
                        )
                        for s, t in pairs
                    ]
                """
            ),
        },
    },
    "R010": {
        "bad": {
            "repro/service/state.py": textwrap.dedent(
                """\
                import asyncio


                class Tracker:
                    def __init__(self):
                        self._count = 0
                        self._lock = asyncio.Lock()

                    async def admit(self):
                        self._count += 1

                    async def release(self):
                        async with self._lock:
                            self._count -= 1
                """
            ),
        },
        "hit": ("repro/service/state.py", 10),
        "clean": {
            "repro/service/state.py": textwrap.dedent(
                """\
                import asyncio


                class Tracker:
                    def __init__(self):
                        self._count = 0
                        self._lock = asyncio.Lock()

                    async def admit(self):
                        async with self._lock:
                            self._count += 1

                    async def release(self):
                        async with self._lock:
                            self._count -= 1
                """
            ),
        },
    },
    "R011": {
        "bad": {
            "repro/service/protocol.py": 'OPS = ("query", "watch")\n',
            "repro/service/engine.py": textwrap.dedent(
                """\
                class Engine:
                    def op_query(self, s, t, k):
                        return {}
                """
            ),
        },
        "hit": ("repro/service/protocol.py", 1),
        "clean": {
            "repro/service/protocol.py": 'OPS = ("query", "watch")\n',
            "repro/service/engine.py": textwrap.dedent(
                """\
                class Engine:
                    def op_query(self, s, t, k):
                        return {}

                    def op_watch(self, s, t):
                        return {}
                """
            ),
        },
    },
    "R012": {
        "bad": {
            "pyproject.toml": "[project]\nname = 'fixture'\n",
            "docs/OBSERVABILITY.md": _R012_DOCS,
            "repro/service/metrics.py": textwrap.dedent(
                """\
                from repro import obs


                def work(op):
                    obs.incr("service.cache.hitz")
                """
            ),
        },
        "hit": ("repro/service/metrics.py", 5),
        "clean": {
            "pyproject.toml": "[project]\nname = 'fixture'\n",
            "docs/OBSERVABILITY.md": _R012_DOCS,
            "repro/service/metrics.py": textwrap.dedent(
                """\
                from repro import obs


                def work(op):
                    obs.incr("service.cache.hits")
                    obs.incr(f"service.requests.{op}")
                """
            ),
        },
    },
}


def _write_tree(tmp_path, files):
    """Write a fixture tree, adding __init__.py along .py package paths."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        if relpath.endswith(".py"):
            current = target.parent
            while current != tmp_path:
                init = current / "__init__.py"
                if not init.exists():
                    init.write_text("", encoding="utf-8")
                current = current.parent
        target.write_text(source, encoding="utf-8")


def lint_tree(tmp_path, files, select=None):
    _write_tree(tmp_path, files)
    return run_lint([str(tmp_path)], select=select)


@pytest.mark.parametrize("rule", sorted(PROGRAM_FIXTURES))
def test_program_rule_flags_bad_fixture(rule, tmp_path):
    fixture = PROGRAM_FIXTURES[rule]
    report = lint_tree(tmp_path, fixture["bad"], select=[rule])
    hits = report.for_rule(rule)
    relpath, line = fixture["hit"]
    assert hits, f"{rule} missed its fixture"
    assert any(
        hit.path.endswith(relpath.replace("/", str(Path("/"))))
        and hit.line == line
        for hit in hits
    ), render_text(report)


@pytest.mark.parametrize("rule", sorted(PROGRAM_FIXTURES))
def test_program_rule_passes_clean_fixture(rule, tmp_path):
    fixture = PROGRAM_FIXTURES[rule]
    report = lint_tree(tmp_path, fixture["clean"], select=[rule])
    assert report.findings == (), render_text(report)


@pytest.mark.parametrize("rule", sorted(PROGRAM_FIXTURES))
def test_program_rule_respects_noqa(rule, tmp_path):
    fixture = PROGRAM_FIXTURES[rule]
    relpath, line = fixture["hit"]
    files = dict(fixture["bad"])
    files[relpath] = suppress_line(files[relpath], line, rule)
    report = lint_tree(tmp_path, files, select=[rule])
    assert report.for_rule(rule) == [], render_text(report)


def test_r008_flags_source_reached_through_call_graph(tmp_path):
    files = {
        "repro/util.py": textwrap.dedent(
            """\
            import uuid


            def tag():
                return str(uuid.uuid4())
            """
        ),
        "repro/core/uses.py": textwrap.dedent(
            """\
            from repro.util import tag


            def go():
                return tag()
            """
        ),
    }
    report = lint_tree(tmp_path, files, select=["R008"])
    hits = report.for_rule("R008")
    assert len(hits) == 1 and hits[0].path.endswith("util.py")
    assert "reachable from" in hits[0].message


def test_r008_ignores_unreached_out_of_scope_code(tmp_path):
    files = {
        "repro/util.py": (
            "import uuid\n\n\ndef tag():\n    return str(uuid.uuid4())\n"
        ),
    }
    report = lint_tree(tmp_path, files, select=["R008"])
    assert report.findings == ()


def test_r009_direct_shared_master_flagged(tmp_path):
    files = {
        "repro/core/construction.py": _R009_CONSTRUCTION,
        "repro/service/direct.py": textwrap.dedent(
            """\
            from repro.core.construction import build_index


            def run(graph, master, k):
                first = build_index(graph, 0, 1, k, dist_s=master.clone())
                second = build_index(graph, 2, 3, k, dist_s=master)
                return first, second
            """
        ),
    }
    report = lint_tree(tmp_path, files, select=["R009"])
    hits = report.for_rule("R009")
    # ``master`` is a parameter with no visible callers, so only the
    # call-graph walk decides; the raw second call still must resolve
    # through drive-free classification: the clone() call is fresh.
    assert all(hit.line != 5 for hit in hits)


def test_r010_sync_only_writers_not_flagged(tmp_path):
    files = {
        "repro/service/state.py": textwrap.dedent(
            """\
            class Plain:
                def __init__(self):
                    self._n = 0

                def bump(self):
                    self._n += 1

                def reset(self):
                    self._n = 0
            """
        ),
    }
    report = lint_tree(tmp_path, files, select=["R010"])
    assert report.findings == ()


def test_r011_client_call_to_undeclared_op(tmp_path):
    files = {
        "repro/service/protocol.py": 'OPS = ("query",)\n',
        "repro/service/engine.py": (
            "class Engine:\n    def op_query(self, s, t, k):\n"
            "        return {}\n"
        ),
        "repro/service/client.py": textwrap.dedent(
            """\
            class ServiceClient:
                def call(self, op, **fields):
                    return {}

                def oops(self):
                    return self.call("undeclared")
            """
        ),
    }
    report = lint_tree(tmp_path, files, select=["R011"])
    hits = report.for_rule("R011")
    assert len(hits) == 1 and hits[0].path.endswith("client.py")
    assert "undeclared" in hits[0].message


def test_r011_checks_api_doc_when_root_present(tmp_path):
    files = dict(PROGRAM_FIXTURES["R011"]["clean"])
    files["pyproject.toml"] = "[project]\nname = 'fixture'\n"
    files["docs/API.md"] = _R011_DOCS.replace(
        "`watch` (`s`, `t`)", "`wach`"
    )
    report = lint_tree(tmp_path, files, select=["R011"])
    messages = [hit.message for hit in report.for_rule("R011")]
    assert any("'watch'" in m and "missing from" in m for m in messages)
    assert any("'wach'" in m and "promises" in m for m in messages)


def test_r012_event_constant_resolution(tmp_path):
    files = {
        "pyproject.toml": "[project]\nname = 'fixture'\n",
        "docs/OBSERVABILITY.md": (
            "| kind | emitted by |\n|---|---|\n| `query.started` | engine |\n"
        ),
        "repro/obs/events.py": (
            'QUERY_STARTED = "query.started"\n'
            'BOGUS = "query.bogus"\n\n\n'
            "def emit(kind, **fields):\n    pass\n"
        ),
        "repro/service/emitting.py": textwrap.dedent(
            """\
            from repro.obs import events


            def work():
                events.emit(events.QUERY_STARTED, op="query")
                events.emit(events.BOGUS, op="query")
            """
        ),
    }
    report = lint_tree(tmp_path, files, select=["R012"])
    hits = report.for_rule("R012")
    assert len(hits) == 1 and hits[0].line == 6
    assert "query.bogus" in hits[0].message


def test_r012_placeholder_and_fstring_names(tmp_path):
    files = dict(PROGRAM_FIXTURES["R012"]["clean"])
    report = lint_tree(tmp_path, files, select=["R012"])
    assert report.findings == (), render_text(report)


# ----------------------------------------------------------------------
# W001: stale suppressions
# ----------------------------------------------------------------------
def test_w001_flags_stale_noqa(tmp_path):
    source = 'VALUE = 1  # repro: noqa[R005]\n\n__all__ = ["VALUE"]\n'
    report = lint_source(tmp_path, source)
    hits = report.for_rule("W001")
    assert len(hits) == 1 and hits[0].line == 1
    assert "unused suppression: R005" in hits[0].message


def test_w001_spares_used_noqa(tmp_path):
    bad, line, _ = RULE_FIXTURES["R005"]
    source = suppress_line(bad, line, "R005") + '\n__all__ = ["collect"]\n'
    report = lint_source(tmp_path, source)
    assert report.for_rule("W001") == [], render_text(report)
    assert report.for_rule("R005") == []


def test_w001_flags_unknown_rule_code(tmp_path):
    source = 'VALUE = 1  # repro: noqa[R999]\n\n__all__ = ["VALUE"]\n'
    report = lint_source(tmp_path, source)
    hits = report.for_rule("W001")
    assert len(hits) == 1
    assert "unknown rule 'R999'" in hits[0].message


def test_w001_silent_when_not_selected(tmp_path):
    source = 'VALUE = 1  # repro: noqa[R005]\n\n__all__ = ["VALUE"]\n'
    report = lint_source(tmp_path, source, select=["R005"])
    assert report.findings == ()


def test_w001_itself_suppressible(tmp_path):
    source = (
        'VALUE = 1  # repro: noqa[R005, W001]\n\n__all__ = ["VALUE"]\n'
    )
    report = lint_source(tmp_path, source)
    assert report.findings == (), render_text(report)


def test_noqa_in_docstring_does_not_suppress_or_trip_w001():
    noqa = parse_noqa(
        '"""Docs mention # repro: noqa[R001] without suppressing."""\n'
        "x = 1  # repro: noqa[R001]\n"
    )
    assert 1 not in noqa
    assert noqa[2] == frozenset({"R001"})


# ----------------------------------------------------------------------
# Engine / reporter plumbing
# ----------------------------------------------------------------------
def test_syntax_error_reported_as_e001(tmp_path):
    report = lint_source(tmp_path, "def broken(:\n")
    assert [f.rule for f in report.findings] == ["E001"]


def test_unknown_rule_rejected(tmp_path):
    with pytest.raises(ValueError):
        lint_source(tmp_path, "x = 1\n", select=["R999"])


def test_json_reporter_round_trips(tmp_path):
    bad, _, _ = RULE_FIXTURES["R005"]
    report = lint_source(tmp_path, bad, select=["R005"])
    payload = json.loads(render_json(report))
    assert payload["ok"] is False
    assert payload["files_scanned"] == 1
    assert payload["rules"] == ["R005"]
    assert payload["findings"][0]["rule"] == "R005"


def test_parse_noqa_formats():
    noqa = parse_noqa(
        "x = 1  # repro: noqa\n"
        "y = 2  # repro: noqa[R001, R002]\n"
        "z = 3  # ordinary comment\n"
    )
    assert noqa[1] == frozenset({"*"})
    assert noqa[2] == frozenset({"R001", "R002"})
    assert 3 not in noqa


def test_every_rule_has_code_name_description():
    rules = all_rules()
    codes = [rule.code for rule in rules]
    assert codes == sorted(codes) and len(set(codes)) == len(codes)
    for rule in rules:
        assert re.fullmatch(r"[RW]\d{3}", rule.code), rule.code
        assert rule.name and rule.description
        assert rule.phase in ("module", "program", "post")


# ----------------------------------------------------------------------
# The repo itself must lint clean (this is the CI gate)
# ----------------------------------------------------------------------
def test_repo_src_lints_clean():
    report = run_lint([str(ROOT / "src")])
    assert report.findings == (), render_text(report)
    assert report.files_scanned > 50


def test_repo_lints_clean_over_full_surface():
    """The CI gate: src/ benchmarks/ examples/ have no finding."""
    report = run_lint(
        [str(ROOT / "src"), str(ROOT / "benchmarks"), str(ROOT / "examples")]
    )
    assert report.findings == (), "\n".join(f.render() for f in report.findings)


def test_cli_lint_exits_zero_on_src(capsys):
    from repro.cli import main

    assert main(["lint", str(ROOT / "src")]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text(RULE_FIXTURES["R005"][0], encoding="utf-8")
    assert main(["lint", "--select", "R005", str(bad)]) == 1
    assert main(["lint", "--select", "bogus", str(bad)]) == 2
    assert main(["lint", str(tmp_path / "missing.py")]) == 2
    capsys.readouterr()

    assert main(["lint", "--format", "json", "--select", "R005",
                 str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "R005"
