import numpy as np
import pytest

from clfrd.datasets import Dataset, builtin, load_csv, load_json

# frozen facts about the embedded data, cross-totalled by table row
EXPECTED = {
    "students": dict(n=48, minimum=4.0, maximum=86.0, total=1243.0),
    "appliances": dict(n=36, minimum=0.011, maximum=13.403, total=99.245),
    "devices": dict(n=50, minimum=0.1, maximum=86.0, total=2284.3),
}


@pytest.mark.parametrize("name,facts", sorted(EXPECTED.items()))
def test_builtin_frozen_facts(name, facts):
    ds = builtin(name)
    assert len(ds) == facts["n"]
    assert ds.values.min() == pytest.approx(facts["minimum"], rel=1e-12)
    assert ds.values.max() == pytest.approx(facts["maximum"], rel=1e-12)
    assert ds.values.sum() == pytest.approx(facts["total"], rel=1e-12)


def test_appliances_scaling():
    scaled = builtin("appliances")
    raw = builtin("appliances", raw=True)
    assert raw.values.max() == 13403.0
    np.testing.assert_allclose(scaled.values * 1000.0, raw.values, rtol=1e-15)


def test_devices_keeps_ties_and_near_zero():
    ds = builtin("devices")
    assert np.sum(ds.values == 1.0) == 5
    assert ds.values.min() == 0.1


def test_unknown_name():
    with pytest.raises(KeyError):
        builtin("nosuch")


def test_zero_values_rejected():
    with pytest.raises(ValueError):
        Dataset("bad", np.array([1.0, 0.0]))


class TestLoadCsv:
    def test_simple(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.5\n2.5\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.values, [1.5, 2.5])

    def test_negative_value_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\n-1\n2.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p)

    def test_non_numeric_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0\nbogus\n")
        with pytest.raises(ValueError, match="row 2"):
            load_csv(p)

    def test_header_skipped_and_first_column_read(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("lifetime,id\n3.5,1\n4.5,2\n")
        ds = load_csv(p)
        np.testing.assert_array_equal(ds.values, [3.5, 4.5])

    def test_empty(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_round_trip_builtin(self, tmp_path):
        ds = builtin("students")
        p = tmp_path / "students.csv"
        p.write_text("\n".join(repr(float(v)) for v in ds.values) + "\n")
        again = load_csv(p)
        np.testing.assert_array_equal(again.values, ds.values)


class TestLoadJson:
    def test_simple(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[1.5, 2.5, 3.0]")
        np.testing.assert_array_equal(load_json(p).values, [1.5, 2.5, 3.0])

    def test_rejects_nonpositive(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[1.5, -2.5]")
        with pytest.raises(ValueError, match="element 2"):
            load_json(p)

    def test_rejects_non_array(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text('{"a": 1}')
        with pytest.raises(ValueError):
            load_json(p)
