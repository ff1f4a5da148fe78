"""Streaming matcher for patterns with variable-length gaps.

A pattern is a sequence of literal strings separated by gaps with lower
and upper length bounds, e.g. ``A.{6,7}CC.{2,6}GT``.  The package scans a
text once, decides which positions end a match, and can enumerate the
exact occurrence combinations behind every match in output-proportional
time with bounded working memory.

The public names are imported from their modules on first use (PEP 562),
so ``import vlgmatch`` loads no submodule.
"""

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "matcher": "find_endpoints MatcherState",
    "pattern": "parse_pattern VlgPattern GapBounds PatternSyntaxError",
    "reporter": "report_on_the_fly report_chunked "
                "expand_combinations count_combinations",
    "automaton": "build_automaton",
    "gapgraph": "build_implicit_gap_graph GraphBuilder",
}.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
