"""The public surface's options: every parameter with a default, by name.

A callable in ``normgeom.__all__`` that gains, loses or changes a
defaulted parameter fails this test until the table below says so.
"""

import inspect

import normgeom

#: Each public callable with defaulted parameters, as "name=default";
#: every other public callable has none.
OPTIONS = {
    "SmoothnessVerdict": ("gradient=None", "witness_direction=None", "right_deriv=None",
                          "left_deriv=None", "violation=0.0"),
    "as_vector": ("dim=None",),
    "fd_gradient": ("step=None",),
    "classify_point": ("tol=1e-06", "seed=0"),
    "product_norm_constants": ("samples=10000", "seed=0"),
    "tangent_frame": ("seed=0",),
    "build_chart": ("domain_radius=None", "seed=0"),
    "projection_continuity_probe": ("deltas=None", "decades=3", "seed=0"),
    "equivalence_roundtrip": ("sample_radius=None", "seed=0", "gradient_tol=None"),
    "AnalysisRequest": ("tolerances=<factory>", "seed=0"),
    "run_cli": ("argv=None",),
}


def _options(obj) -> tuple[str, ...]:
    try:
        parameters = inspect.signature(obj).parameters.values()
    except ValueError:  # an exception class without its own __init__
        return ()
    return tuple(f"{p.name}={p.default!r}" for p in parameters if p.default is not p.empty)


def test_every_public_option_is_listed():
    callables = {name: getattr(normgeom, name) for name in normgeom.__all__}
    callables = {name: obj for name, obj in callables.items()
                 if inspect.isclass(obj) or inspect.isfunction(obj)}
    found = {name: _options(obj) for name, obj in callables.items()}
    assert {name: options for name, options in found.items() if options} == OPTIONS
