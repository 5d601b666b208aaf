from benchmarks.suite.boundaries import BOUNDARIES, Tracing


def test_every_boundary_resolves_on_the_current_source():
    unresolved = []
    for boundary in BOUNDARIES:
        try:
            boundary.resolve()
        except (ImportError, AttributeError, TypeError) as exc:
            unresolved.append(f"{boundary.label}: {exc}")
    assert unresolved == []
    assert Tracing().missing == []


def test_install_wraps_and_uninstall_restores_the_originals():
    tracing = Tracing()
    originals = [
        (owner, attribute, vars(owner)[attribute])
        for boundary in BOUNDARIES
        for owner, attribute in [boundary.resolve()]
    ]
    with tracing:
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
            assert getattr(vars(owner)[attribute], "__wrapped__") is original
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original


def test_a_boundary_that_moved_is_listed_not_raised():
    from benchmarks.suite import boundaries

    gone = boundaries.Boundary("core.simple", "repro.kernel.core.simple",
                               "SimpleCoreOperator.no_such_method")
    saved = list(boundaries.BOUNDARIES)
    boundaries.BOUNDARIES.append(gone)
    try:
        tracing = Tracing()
    finally:
        boundaries.BOUNDARIES[:] = saved
    assert len(tracing.missing) == 1
    assert "no_such_method" in tracing.missing[0]
    assert tracing.missing_spans == {"core.simple"}
