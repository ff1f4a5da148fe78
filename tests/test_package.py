"""The package's public names and the counters a run reports."""

from __future__ import annotations

import subprocess
import sys

import pytest

import helpers
import vlgmatch
from vlgmatch.bitvec import BitPlan
from vlgmatch.gapgraph import GraphBuilder
from vlgmatch.matcher import MatcherState
from vlgmatch.pattern import parse_pattern
from vlgmatch.reporter import report_chunked, report_on_the_fly


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from vlgmatch import *", namespace)
    for name in vlgmatch.__all__:
        value = getattr(vlgmatch, name)
        assert value is namespace[name]
        assert value.__module__.startswith("vlgmatch.")
        assert name in dir(vlgmatch)
    assert set(namespace) - {"__builtins__"} == set(vlgmatch.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vlgmatch.no_such_name
    with pytest.raises(ImportError):
        exec("from vlgmatch import no_such_name", {})
    assert not hasattr(vlgmatch, "no_such_name")


def test_bare_import_loads_no_submodule():
    probe = ("import sys; import vlgmatch; "
             "print(*sorted(name for name in sys.modules if 'vlgmatch' in name))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=helpers.module_cli_env(), timeout=60)
    assert (result.stdout, result.stderr) == ("vlgmatch\n", "")


def test_counters_keep_what_the_trace_reads():
    """``perfbench/tracing.py`` reads these attributes off each counter."""
    pattern = parse_pattern(helpers.EXAMPLE_PATTERN)
    text = helpers.EXAMPLE_TEXT
    state = MatcherState(pattern)
    ends = state.scan(text)
    builder = GraphBuilder(pattern)
    pattern.automaton.stream(text, builder.feed)
    pruned = report_on_the_fly(pattern, text, lambda combo: None)
    chunked = report_chunked(pattern, text, lambda combo: None)
    mc = state.counters
    assert (mc.occurrences, mc.reported) == (sum(mc.layer_occurrences), len(ends))
    assert mc.appended >= 0 and mc.purged >= 0
    assert len(mc.peak_ranges) == pattern.num_subpatterns - 1
    gc = builder.counters
    assert gc.nodes_created > 0 and gc.nodes_purged == 0
    assert len(gc.peak_dual_ranges) == pattern.num_subpatterns - 1
    assert pruned.nodes_purged >= 0 and pruned.peak_live_nodes > 0
    assert (chunked.chunks, chunked.peak_graphs) == (1, 1)
    assert chunked.emitted == BitPlan(pattern).count(text).beta
