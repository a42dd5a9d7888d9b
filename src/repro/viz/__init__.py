"""Self-contained HTML rendering of report payloads (``report --html``).

The package is layered so every stage is golden-testable:

``viewmodel``
    :func:`build_viewmodel` — the pure payload → viewmodel transform.
    Deterministic bytes for a given payload; no environment leaks.
``charts``
    SVG builders (flame tree, heatmap grids, histogram bars) over
    viewmodel substructures. Pure string functions.
``template``
    :func:`render_html` — assembles the one self-contained page with
    ``string.Template``: inline CSS/JS, no external fetches.
``dashboard``
    The daemon's live view (``memgaze serve --dashboard``): a small
    asyncio HTTP endpoint that polls the query protocol and renders
    through the *same* template path, so a live rendering of a
    quiesced session is byte-identical to the offline one.
``validate``
    Stdlib ``html.parser`` checker (balanced tags, no external URLs)
    shared by tests and CI: ``python -m repro.viz.validate FILE``.
"""

from repro._lazy import attach

# name -> defining module, imported on first access (PEP 562)
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.viz.template": ["render_html", "render_viewmodel"],
        "repro.viz.viewmodel": ["VIEWMODEL_SCHEMA", "build_viewmodel", "viewmodel_json"],
    },
)
