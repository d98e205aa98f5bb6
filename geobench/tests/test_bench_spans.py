import spans


def _span(start, end, parent=None):
    return {"name": "x", "start": start, "end": end, "parent": parent, "run_id": "r"}


def test_self_time_subtracts_children_once_and_clips_them():
    recorded = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, parent=0),
        _span(2.0, 5.0, parent=0),  # overlaps its sibling: [1, 5] is covered once
        _span(8.0, 12.0, parent=0),  # only [8, 10] lies inside the parent
        _span(2.5, 3.0, parent=2),  # a grandchild does not count against the root
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 2.5, 4.0, 0.5]


def test_tracer_nests_and_aggregates():
    tracer = spans.Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner") as inner:
            inner["items"] = 3
        tracer.call("inner", lambda: None)
    names = [(s["name"], s["parent"], s["run_id"]) for s in tracer.spans]
    assert names == [("outer", None, "run-1"), ("inner", 0, "run-1"), ("inner", 0, "run-1")]
    agg = spans.aggregate(tracer.spans)
    assert agg["inner"]["calls"] == 2 and agg["inner"]["items"] == 3
    outer = tracer.spans[0]
    assert abs(agg["outer"]["self_s"] + agg["inner"]["wall_s"]
               - (outer["end"] - outer["start"])) < 1e-9


def test_disabled_tracer_records_nothing():
    tracer = spans.Tracer("", enabled=False)
    with tracer.span("outer") as span:
        span["items"] = 1
    assert tracer.call("f", lambda x: x + 1, 1) == 2
    assert tracer.spans == []
