import csv
import io
import json
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from geosampler import data as data_module
from geosampler.data import (
    CostError,
    CostModel,
    DatasetError,
    _mentions,
    _points_dtype,
    build_dataset,
    cluster_cost,
    datasets_equal,
    expected_counts,
    load_dataset,
    save_dataset,
    set_cost,
    write_csv,
    write_json,
)
from geosampler.experiments import dataset_content_hash
from geosampler.groups import admin_groups
from geosampler.synth import SynthConfig, generate

from conftest import assert_states_equal, dense_groups, state_from_ids, toy_dataset


def write_hand_bundle(root):
    """A 4-point, 2-cluster, d=3 bundle written directly to disk."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "meta.json").write_text(json.dumps({
        "feature_dim": 3,
        "n_points": 4,
        "n_clusters": 2,
        "n_strata": 1,
        "split_seed": 0,
        "test_fraction": 0.0,
        "features_file": "features.csv",
        "strata": [
            {"stratum_id": "s0", "cluster_ids": ["c0", "c1"], "in_initial": False}
        ],
    }))
    (root / "points.csv").write_text(
        "point_id,x,y,label,cluster_id,stratum_id\n"
        "p0,0.0,0.0,1.5,c0,s0\n"
        "p1,1.0,0.0,2.5,c0,s0\n"
        "p2,0.0,1.0,NA,c1,s0\n"
        "p3,1.0,1.0,0.5,c1,s0\n"
    )
    (root / "features.csv").write_text(
        "point_id,f0,f1,f2\n"
        "p0,0.1,0.2,0.3\n"
        "p1,1.1,1.2,1.3\n"
        "p2,2.1,2.2,2.3\n"
        "p3,3.1,3.2,3.3\n"
    )


def ref_load_dataset(path):
    """The csv-module bundle loader that ``load_dataset`` replaced, kept as the
    parsing reference for valid bundles (its validation is left out)."""
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    with (root / "points.csv").open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        pids, xs, ys, label_text, point_cluster, _ = list(zip(*reader))
    coords = np.column_stack((np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)))
    labels = np.array(label_text, dtype=str)
    labels = np.where(labels == "NA", "nan", labels).astype(np.float64)
    cluster_stratum = {
        cid: entry["stratum_id"] for entry in meta["strata"] for cid in entry["cluster_ids"]
    }
    if meta["features_file"] == "features.csv":
        with (root / "features.csv").open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            feat_rows = {r[0]: r[1:] for r in reader}
        features = np.array([[float(v) for v in feat_rows[pid]] for pid in pids], dtype=np.float64)
    else:
        blob = (root / "features.bin").read_bytes()
        nrows, dim, width = struct.unpack("<III", blob[4:16])
        # width 8 is float64; 0, of files written before the width, float32
        dtype = {8: "<f8", 0: "<f4"}[width]
        features = np.frombuffer(blob, dtype=dtype, offset=16).reshape(nrows, dim)
        features = features.astype(np.float64)
    return build_dataset(
        point_ids=pids,
        coords=coords,
        features=features,
        labels=labels,
        point_cluster=point_cluster,
        cluster_stratum=cluster_stratum,
        split_seed=int(meta.get("split_seed", 0)),
        test_fraction=float(meta.get("test_fraction", 0.2)),
    )


def assert_same_bits(a, b):
    """datasets_equal, with coords and features also equal bit for bit."""
    assert datasets_equal(a, b)
    for name in ("coords", "features"):
        assert np.array_equal(getattr(a, name).view(np.int64), getattr(b, name).view(np.int64))


# ids the bundle CSV dialect must carry through quoting unchanged
ODD_IDS = ("p#1", "p,2", 'p"3', " p4", "p\u00e95")


def write_csv_bundle(root, newline, feature_order):
    """A 5-point, 2-cluster, d=2 bundle with ODD_IDS as point ids, written
    with the csv module using ``newline`` line endings; features.csv lists
    the points in ``feature_order``. The second point's label is NA."""
    root.mkdir(parents=True, exist_ok=True)
    clusters = ["c,0", 'c"1']
    (root / "meta.json").write_text(json.dumps({
        "feature_dim": 2,
        "n_clusters": 2,
        "split_seed": 5,
        "test_fraction": 0.25,
        "features_file": "features.csv",
        "strata": [{"stratum_id": "s#0", "cluster_ids": clusters, "in_initial": True}],
    }), encoding="utf-8")
    with (root / "points.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator=newline)
        w.writerow(["point_id", "x", "y", "label", "cluster_id", "stratum_id"])
        for i, pid in enumerate(ODD_IDS):
            label = "NA" if i == 1 else repr(0.1 * i - 0.35)
            w.writerow([pid, repr(i / 3), repr(-i / 7), label, clusters[i % 2], "s#0"])
    with (root / "features.csv").open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator=newline)
        w.writerow(["point_id", "f0", "f1"])
        for i in feature_order:
            w.writerow([ODD_IDS[i], repr(1 / (i + 3)), repr(1e-300 * (i - 2))])


class TestBundleIO:
    def test_hand_written_bundle_round_trip(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        ds = load_dataset(tmp_path / "bundle")
        assert ds.n_points == 4
        assert ds.n_clusters == 2
        assert ds.feature_dim == 3
        assert np.isnan(ds.labels[ds.point_index["p2"]])
        assert ds.labels[ds.point_index["p0"]] == 1.5
        assert ds.cluster("c0").point_ids == ("p0", "p1")

    def test_legacy_in_initial_flags_are_ignored(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        meta_path = tmp_path / "bundle" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["strata"][0]["in_initial"] = True
        meta_path.write_text(json.dumps(meta))
        ds = load_dataset(tmp_path / "bundle")
        save_dataset(ds, tmp_path / "saved")
        saved = json.loads((tmp_path / "saved" / "meta.json").read_text())
        assert saved["strata"] == [{"stratum_id": "s0", "cluster_ids": ["c0", "c1"]}]
        assert datasets_equal(load_dataset(tmp_path / "saved"), ds)

    def test_dangling_cluster_reference_names_offender(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        points = (tmp_path / "bundle" / "points.csv").read_text()
        (tmp_path / "bundle" / "points.csv").write_text(points.replace("c1", "c9", 1))
        with pytest.raises(DatasetError, match="c9"):
            load_dataset(tmp_path / "bundle")

    @pytest.mark.parametrize("name, old, new, match", [
        ("points.csv", "c1,s0", "c1,s1", "c1.*mismatch"),
        ("meta.json", '"in_initial": false}',
         '"in_initial": false}, {"stratum_id": "s1", "cluster_ids": ["c1"]}',
         "c1.*two strata"),
        ("points.csv", "p3,1.0,1.0,0.5,c1,s0\n", "p3,1.0,1.0,0.5,c1,s0\np4,0.0\n",
         "6 fields"),
        ("points.csv", "p1,1.0,0.0,2.5,c0,s0", "p1,1.0,0.0,2.5,c0,s0,7.25",
         "points.csv line 3 has 7 fields; rows must have 6 fields"),
        ("features.csv", "p1,1.1,1.2,1.3", "p1,1.1,1.2,1.3,7.25",
         "features.csv line 3 has 5 fields; rows must have 4 fields"),
        ("features.csv", "p1,1.1,1.2,1.3", "p1,1.1,1.2",
         "features.csv line 3 has 3 fields; rows must have 4 fields"),
        ("points.csv", "p2,0.0,1.0", "p2,abc,1.0", "points.csv line 4: .*'abc'"),
        ("points.csv", "1.0,0.5,c1", "1.0,xyz,c1", "points.csv line 5: .*'xyz'"),
        ("features.csv", "p3,3.1", "p3,abc", "features.csv line 5: .*'abc'"),
    ], ids=["stratum-mismatch", "cluster-in-two-strata", "short-row", "points-extra-field",
            "features-extra-value", "features-short-row", "points-non-numeric", "label-non-numeric",
            "features-non-numeric"])
    def test_inconsistent_cluster_table_rejected(self, tmp_path, name, old, new, match):
        write_hand_bundle(tmp_path / "bundle")
        path = tmp_path / "bundle" / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(DatasetError, match=match):
            load_dataset(tmp_path / "bundle")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("features_format", ["csv", "bin"])
    def test_loader_matches_csv_reference_on_synth(self, tmp_path, seed, features_format):
        cfg = SynthConfig(strata_grid=(3, 2), clusters_per_stratum=4, points_per_cluster=(3, 9),
                          feature_dim=1 + seed, seed=seed)
        ds, _ = generate(cfg)
        save_dataset(ds, tmp_path / "b", features_format=features_format)
        assert_same_bits(load_dataset(tmp_path / "b"), ref_load_dataset(tmp_path / "b"))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("feature_order", [range(5), (3, 0, 4, 2, 1)],
                             ids=["in-order", "shuffled"])
    def test_loader_matches_csv_reference_on_odd_ids(self, tmp_path, newline, feature_order):
        write_csv_bundle(tmp_path / "b", newline, feature_order)
        ds = load_dataset(tmp_path / "b")
        assert_same_bits(ds, ref_load_dataset(tmp_path / "b"))
        assert set(ds.point_ids) == set(ODD_IDS)
        assert ds.cluster_ids == ("c\"1", "c,0") and ds.stratum_ids == ("s#0",)
        assert np.isnan(ds.labels[ds.point_index["p,2"]])
        assert ds.features[ds.point_index["p\u00e95"]].tolist() == [1 / 7, 1e-300 * 2]

    @pytest.mark.parametrize("texts,first_id", [
        (["0.5", " 2.5 ", "inf", "-NaN", "-7.25e3", "\t3", "1e-310"], "p0"),
        (["0.5", " 2.5 ", "inf", "-NaN", "\uff11\uff12", "1_000", "1e-310"], "p0"),
        (["0.5", " 2.5 ", "inf", "-NaN", "\uff11\uff12", "NA", "1e-310"], "p0"),
        (["0.5", " 2.5 ", "inf", "-NaN", "-7.25e3", "\t3", "1e-310"], "pNA"),
    ], ids=["numpy-floats", "python-floats", "with-na", "na-in-an-id"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_labels_convert_like_python_float(self, tmp_path, newline, texts, first_id):
        # numpy's float parser reads the first set; a label only float()
        # reads fails that pass, and a file with NA anywhere (a label, or
        # only an id) skips it: both are read by the per-label converter.
        # Either way each label converts as float() converts it, NA to nan,
        # and a label float() rejects names its own line, also below a
        # quoted id that spans two lines
        ids = [f"p{i}" for i in range(len(texts))]
        ids[0], ids[1] = first_id, "p\n1"
        write_csv_bundle(tmp_path / "b", newline, range(5))
        meta = json.loads((tmp_path / "b" / "meta.json").read_text())
        meta["strata"][0]["cluster_ids"] = ["c0"]
        meta["n_clusters"] = 1
        (tmp_path / "b" / "meta.json").write_text(json.dumps(meta))

        def write(labels):
            for name, header, rows in (
                ("points.csv", ["point_id", "x", "y", "label", "cluster_id", "stratum_id"],
                 [[pid, "0.5", "1.5", label, "c0", "s#0"] for pid, label in zip(ids, labels)]),
                ("features.csv", ["point_id", "f0", "f1"], [[pid, "1.0", "2.0"] for pid in ids]),
            ):
                with (tmp_path / "b" / name).open("w", newline="", encoding="utf-8") as fh:
                    w = csv.writer(fh, lineterminator=newline)
                    w.writerow(header)
                    w.writerows(rows)

        write(texts)
        ds = load_dataset(tmp_path / "b")
        expect = [float("nan" if t == "NA" else t) for t in texts]
        got = ds.labels[ds.point_indices(ids)]
        assert got.tobytes() == np.array(expect).tobytes()
        # the header is line 1 and the second row takes lines 3-4
        for row, line in ((0, 2), (1, 4), (5, 8)):
            bad = list(texts)
            bad[row] = "1.0x"
            write(bad)
            with pytest.raises(DatasetError, match=f"^points.csv line {line}: .*'1.0x'"):
                load_dataset(tmp_path / "b")

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_na_search_spans_block_boundaries(self, tmp_path, monkeypatch, block):
        # the search reads the file a block at a time; an NA split across two
        # blocks is found, and N or A alone is not an NA
        monkeypatch.setattr(data_module, "_SCAN_BLOCK_BYTES", block)
        path = tmp_path / "points.csv"
        for text in (b"", b"N", b"A", b"AN", b"N,A", b"x,NaN,nan", b"NA", b"p,1,NA",
                     b"p,NA,1", b"NAN", b"1234NA", b"abcdefNA,1", b"NNNA", b"N" * 9 + b"A"):
            path.write_bytes(text)
            assert _mentions(path, b"NA") == (b"NA" in text), text

    def test_header_only_tables_load_without_a_warning(self, tmp_path, recwarn):
        write_hand_bundle(tmp_path / "bundle")
        for name in ("points.csv", "features.csv"):
            path = tmp_path / "bundle" / name
            path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(tmp_path / "bundle")
        assert not recwarn.list

    def test_repeated_feature_row_rejected(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        path = tmp_path / "bundle" / "features.csv"
        path.write_text(path.read_text() + "p2,2.1,2.2,2.3\n")
        with pytest.raises(DatasetError, match="duplicate point id 'p2' in features.csv"):
            load_dataset(tmp_path / "bundle")

    def test_duplicate_point_id_rejected(self):
        with pytest.raises(DatasetError, match="duplicate point id 'p0'"):
            build_dataset(
                point_ids=["p0", "p1", "p0"],
                coords=np.zeros((3, 2)),
                features=np.zeros((3, 2)),
                labels=np.zeros(3),
                point_cluster=["c0", "c0", "c0"],
                cluster_stratum={"c0": "s0"},
            )

    @pytest.mark.parametrize("field, value", [
        ("n_points", 7), ("n_points", 3), ("n_clusters", 3), ("n_strata", 99), ("n_strata", 0),
    ])
    def test_meta_count_disagreeing_with_the_tables_rejected(self, tmp_path, field, value):
        # the hand bundle holds 4 points in 2 clusters of 1 stratum
        write_hand_bundle(tmp_path / "bundle")
        load_dataset(tmp_path / "bundle")
        meta_path = tmp_path / "bundle" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta[field] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match=f"^meta.json {field} disagrees with "):
            load_dataset(tmp_path / "bundle")

    def test_missing_points_column(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        text = (tmp_path / "bundle" / "points.csv").read_text()
        (tmp_path / "bundle" / "points.csv").write_text(
            text.replace("stratum_id", "region")
        )
        with pytest.raises(DatasetError, match="stratum_id"):
            load_dataset(tmp_path / "bundle")

    def test_inconsistent_feature_dimension(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
        meta["feature_dim"] = 4
        (tmp_path / "bundle" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "bundle")

    @pytest.mark.parametrize("edit, match", [
        (lambda meta: meta.pop("feature_dim"), "meta.json missing field 'feature_dim'"),
        (lambda meta: meta["strata"][0].pop("stratum_id"), "strata entry missing field 'stratum_id'"),
    ], ids=["feature_dim", "stratum_id"])
    def test_missing_meta_field_names_it(self, tmp_path, edit, match):
        write_hand_bundle(tmp_path / "bundle")
        meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
        edit(meta)
        (tmp_path / "bundle" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match=match):
            load_dataset(tmp_path / "bundle")

    def test_test_fraction_outside_unit_interval_rejected(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        meta = json.loads((tmp_path / "bundle" / "meta.json").read_text())
        meta["test_fraction"] = 1.5
        (tmp_path / "bundle" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DatasetError, match=r"test_fraction must lie in \[0, 1\), got 1.5"):
            load_dataset(tmp_path / "bundle")

    def test_save_load_round_trip_is_identity(self, tmp_path, small_ds):
        save_dataset(small_ds, tmp_path / "out")
        again = load_dataset(tmp_path / "out")
        assert datasets_equal(small_ds, again)

    def test_round_trip_property_over_random_datasets(self, tmp_path):
        # 100 generated datasets of varying shape, csv features
        for i in range(100):
            cfg = SynthConfig(
                strata_grid=(1 + i % 3, 1 + i % 2),
                clusters_per_stratum=2 + i % 3,
                points_per_cluster=(3, 6),
                feature_dim=1 + i % 4,
                coef_dispersion=0.5 * (i % 2),
                noise=0.1,
                seed=1000 + i,
            )
            ds, _ = generate(cfg)
            out = tmp_path / f"b{i}"
            save_dataset(ds, out)
            assert datasets_equal(ds, load_dataset(out)), f"bundle {i} not identical"

    @pytest.mark.parametrize("first_id", ["a\rb", "a\r\nb", "a\nb"], ids=["cr", "crlf", "lf"])
    @pytest.mark.parametrize("label", [4.0, np.nan], ids=["number", "na"])
    @pytest.mark.parametrize("features_format", ["csv", "bin"])
    def test_line_breaks_in_ids_round_trip(self, tmp_path, first_id, label, features_format):
        # given a path, np.loadtxt opens it with universal newlines, which
        # read a quoted \r as \n; the reader opens each CSV with newline=""
        ds = build_dataset(
            point_ids=[first_id, "p1", "p2", "p3"],
            coords=np.zeros((4, 2)),
            features=np.arange(8.0).reshape(4, 2),
            labels=np.array([1.0, 2.0, 3.0, label]),
            point_cluster=["c0", "c0", "c\r1", "c\r1"],
            cluster_stratum={"c0": "s\r0", "c\r1": "s\r0"},
            test_fraction=0.0,
        )
        save_dataset(ds, tmp_path / "b", features_format=features_format)
        again = load_dataset(tmp_path / "b")
        assert again.point_ids[0] == first_id
        assert datasets_equal(ds, again)

    def test_binary_features_round_trip(self, tmp_path, small_ds):
        # the default format, float64, keeps features no float32 holds
        assert not np.array_equal(small_ds.features.astype(np.float32), small_ds.features)
        save_dataset(small_ds, tmp_path / "bin")
        again = load_dataset(tmp_path / "bin")
        assert_same_bits(small_ds, again)
        assert json.loads((tmp_path / "bin" / "meta.json").read_text())["features_file"] \
            == "features.bin"
        assert not (tmp_path / "bin" / "features.csv").exists()
        header = (tmp_path / "bin" / "features.bin").read_bytes()[:16]
        assert header == b"GSOF" + struct.pack("<III", 15, 3, 8)

    @pytest.mark.parametrize("d", [1, 4])
    def test_binary_round_trip_is_bit_for_bit(self, tmp_path, d):
        # -0.0, subnormals, the largest finite values, values float32 rounds
        # or overflows on, and infinities, each survives bit for bit
        special = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                   -1.7976931348623157e308, 0.1, 1 + 2.0 ** -52, 1e300, -1e-300, np.inf,
                   -np.inf, 3.4028235677973366e38, 1 / 3]
        n = len(special)
        features = np.resize(np.array(special), n * d).reshape(d, n).T.copy()
        ds = build_dataset(point_ids=[f"p{i:02d}" for i in range(n)], coords=np.zeros((n, 2)),
                           features=features, labels=np.arange(float(n)),
                           point_cluster=["c0"] * n, cluster_stratum={"c0": "s0"})
        save_dataset(ds, tmp_path / "bin", features_format="bin")
        assert_same_bits(load_dataset(tmp_path / "bin"), ds)
        save_dataset(ds, tmp_path / "csv", features_format="csv")
        assert_same_bits(load_dataset(tmp_path / "csv"), ds)

    def test_csv_and_bin_bundles_load_equal(self, tmp_path):
        ds, _ = generate(SynthConfig(strata_grid=(3, 2), clusters_per_stratum=4,
                                     points_per_cluster=(3, 9), feature_dim=5, seed=7))
        save_dataset(ds, tmp_path / "csv", features_format="csv")
        save_dataset(ds, tmp_path / "bin", features_format="bin")
        from_csv, from_bin = load_dataset(tmp_path / "csv"), load_dataset(tmp_path / "bin")
        assert datasets_equal(from_csv, from_bin)
        assert dataset_content_hash(from_csv) == dataset_content_hash(from_bin) \
            == dataset_content_hash(ds)

    def test_legacy_float32_file_loads_its_float32_values(self, tmp_path, small_ds):
        # a file written before the header stored the value width: width 0,
        # float32 values (test_binary_blocks_match_one_shot_copy reads one
        # in blocks)
        save_dataset(small_ds, tmp_path / "b")
        values = small_ds.features.astype("<f4")
        with (tmp_path / "b" / "features.bin").open("wb") as fh:
            fh.write(b"GSOF" + struct.pack("<III", 15, 3, 0) + values.tobytes())
        again = load_dataset(tmp_path / "b")
        assert again.features.dtype == np.float64
        assert np.array_equal(again.features.view(np.int64),
                              values.astype(np.float64).view(np.int64))
        assert_same_bits(again, ref_load_dataset(tmp_path / "b"))

    @pytest.mark.parametrize("width", [4, 16])
    def test_binary_unknown_width_rejected(self, tmp_path, small_ds, width):
        save_dataset(small_ds, tmp_path / "bin", features_format="bin")
        path = tmp_path / "bin" / "features.bin"
        blob = bytearray(path.read_bytes())
        blob[12:16] = struct.pack("<I", width)
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match=rf"features\.bin has value width {width}\b.* "
                                               r"take 376 bytes"):
            load_dataset(tmp_path / "bin")

    @pytest.mark.parametrize("features_file", [5, "../other/features.csv", "points.csv"])
    def test_features_file_outside_the_two_names_rejected(self, tmp_path, features_file):
        write_hand_bundle(tmp_path / "bundle")
        # a features table beside the bundle, which the loader must not read
        write_hand_bundle(tmp_path / "other")
        meta_path = tmp_path / "bundle" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["features_file"] = features_file
        meta_path.write_text(json.dumps(meta))
        named = re.escape(f"meta.json features_file {features_file!r}")
        with pytest.raises(DatasetError, match=named):
            load_dataset(tmp_path / "bundle")

    def test_binary_header_mismatch_rejected(self, tmp_path, small_ds):
        save_dataset(small_ds, tmp_path / "bin", features_format="bin")
        blob = bytearray((tmp_path / "bin" / "features.bin").read_bytes())
        blob[4] = (blob[4] + 1) % 255   # corrupt the row count
        (tmp_path / "bin" / "features.bin").write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="disagrees"):
            load_dataset(tmp_path / "bin")

    def test_binary_bad_magic_rejected(self, tmp_path, small_ds):
        save_dataset(small_ds, tmp_path / "bin", features_format="bin")
        blob = bytearray((tmp_path / "bin" / "features.bin").read_bytes())
        blob[:4] = b"XXXX"
        (tmp_path / "bin" / "features.bin").write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="magic"):
            load_dataset(tmp_path / "bin")

    @pytest.mark.parametrize("edit", ["truncated", "trailing"])
    def test_binary_size_mismatch_rejected(self, tmp_path, small_ds, edit):
        save_dataset(small_ds, tmp_path / "bin", features_format="bin")
        path = tmp_path / "bin" / "features.bin"
        blob = path.read_bytes()
        assert len(blob) == 16 + 8 * 15 * 3
        blob = blob[:-8] if edit == "truncated" else blob + bytes(16)
        path.write_bytes(blob)
        with pytest.raises(DatasetError, match=rf"features\.bin holds {len(blob)} bytes; "
                                               r"15 x 3 float64 .* take 376"):
            load_dataset(tmp_path / "bin")
        # a float32 file of width 0 is sized at 4 bytes a value
        blob = b"GSOF" + struct.pack("<III", 15, 3, 0) + bytes(4 * 15 * 3)
        path.write_bytes(blob[:-8] if edit == "truncated" else blob + bytes(16))
        with pytest.raises(DatasetError, match=r"features\.bin holds \d+ bytes; "
                                               r"15 x 3 float32 .* take 196"):
            load_dataset(tmp_path / "bin")
        # so is a file cut inside the header
        path.write_bytes(blob[:10])
        with pytest.raises(DatasetError, match=r"features\.bin holds 10 bytes.* take 376"):
            load_dataset(tmp_path / "bin")

    @pytest.mark.parametrize("block_bytes", [1, 4 * 3 * 4, 4 * 3 * 7 + 5],
                             ids=["one-row", "four-rows", "seven-rows"])
    def test_binary_blocks_match_one_shot_copy(self, tmp_path, monkeypatch, small_ds, block_bytes):
        # 15 rows of 3 features; points.csv rows are converted, and a float32
        # (width 0) features.bin is read, in blocks of 1 row (a block smaller
        # than a row still takes one), of 4 rows (the last block holds 3) and
        # of 7 rows (the last block holds 1). The float64 file is written and
        # read in one piece
        save_dataset(small_ds, tmp_path / "whole", features_format="bin")
        monkeypatch.setattr(data_module, "_BIN_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(data_module, "_SAVE_BLOCK_ROWS", max(1, block_bytes // 12))
        save_dataset(small_ds, tmp_path / "bin", features_format="bin")
        small_ds.features.astype("<f8").tofile(tmp_path / "one_shot")
        path = tmp_path / "bin" / "features.bin"
        blob = path.read_bytes()
        assert blob[:16] == b"GSOF" + struct.pack("<III", 15, 3, 8)
        assert blob[16:] == (tmp_path / "one_shot").read_bytes()
        for name in ("points.csv", "meta.json", "features.bin"):
            assert (tmp_path / "bin" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
        assert_same_bits(load_dataset(tmp_path / "bin"), small_ds)
        path.write_bytes(b"GSOF" + struct.pack("<III", 15, 3, 0)
                         + small_ds.features.astype("<f4").tobytes())
        again = load_dataset(tmp_path / "bin")
        assert np.array_equal(again.features, small_ds.features.astype(np.float32))

    def test_binary_save_holds_no_float32_copy_of_the_features(self, tmp_path):
        # 20,000 x 48 float64 values take 7.68 MB; the save writes them as
        # held, so it holds under a quarter of that, half a float32 copy
        n, d = 20_000, 48
        rng = np.random.default_rng(0)
        ds = build_dataset(
            point_ids=[f"p{i:05d}" for i in range(n)],
            coords=rng.normal(size=(n, 2)),
            features=rng.normal(size=(n, d)),
            labels=rng.normal(size=n),
            point_cluster=[f"c{i // 20:04d}" for i in range(n)],
            cluster_stratum={f"c{j:04d}": f"s{j % 10}" for j in range(n // 20)},
        )
        tracemalloc.start()
        try:
            save_dataset(ds, tmp_path / "bin", features_format="bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 4 / 2
        assert_same_bits(load_dataset(tmp_path / "bin"), ds)

    def test_sorted_str_ids_are_kept_and_others_stored_as_str(self):
        def build(ids):
            return build_dataset(point_ids=ids, coords=np.zeros((3, 2)), features=np.eye(3),
                                 labels=np.zeros(3), point_cluster=["c0"] * 3,
                                 cluster_stratum={"c0": "s0"})

        ids = [f"p{i}" for i in range(3)]
        ds = build(ids)
        assert all(ds.point_ids[i] is ids[i] for i in range(3))
        ds = build(ids[::-1])
        assert ds.point_ids == tuple(ids)
        assert np.array_equal(ds.features, np.eye(3)[::-1])
        # numpy strings are stored as str; so is an id numpy strings shorten
        # (they drop a trailing NUL), in numpy's form
        for given, stored in ((np.array(ids), tuple(ids)), (["a\0", "b", "c"], ("a", "b", "c"))):
            ds = build(given)
            assert ds.point_ids == stored
            assert all(type(pid) is str for pid in ds.point_ids)

    @pytest.mark.parametrize("old, new, match", [
        ("c1,s0", "c1extra,s0", "point 'p2' references cluster 'c1extra' absent"),
        ("c1,s0", "c1\0,s0", "point 'p2' references cluster 'c1\\x00' absent"),
        ("c1,s0", "c1,s0extra", "table says 's0', points.csv says 's0extra'"),
    ], ids=["longer-cluster-id", "nul-in-cluster-id", "longer-stratum-id"])
    def test_unlisted_point_ids_named_as_written(self, tmp_path, old, new, match):
        # points.csv ids are read as numpy strings one character wider than
        # the longest listed id, which would cut "c1extra" to "c1e", unless
        # the file holds a NUL, which they drop; the offender is named in full
        write_hand_bundle(tmp_path / "bundle")
        path = tmp_path / "bundle" / "points.csv"
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(DatasetError, match=re.escape(match)):
            load_dataset(tmp_path / "bundle")

    def test_points_ids_read_as_numpy_strings_when_short_and_nul_free(self, tmp_path):
        write_hand_bundle(tmp_path / "bundle")
        path = tmp_path / "bundle" / "points.csv"
        listed = [("c0", "s0"), ("c1", "s0")]
        dtype = _points_dtype(path, listed)
        assert (dtype["cluster_id"], dtype["stratum_id"]) == (np.dtype("<U3"), np.dtype("<U3"))
        longest = "c" * data_module._ID_CHARS_MAX
        assert _points_dtype(path, listed + [(longest, "s0")])["cluster_id"] == np.dtype("<U16")
        for table in ([], listed + [(longest + "c", "s0")], listed + [("c\0", "s0")],
                      [("c0", 0)]):
            assert _points_dtype(path, table)["cluster_id"] == np.dtype(object), table
        path.write_text(path.read_text().replace("p3", "p\0" "3"))
        assert _points_dtype(path, listed)["cluster_id"] == np.dtype(object)

    @pytest.mark.parametrize("width", [1, 15, 16])
    def test_cluster_ids_of_any_length_round_trip(self, tmp_path, width):
        ds = toy_dataset({str(j).rjust(width, "c"): 3 for j in range(3)},
                         {str(j).rjust(width, "c"): "s" * width for j in range(3)})
        save_dataset(ds, tmp_path / "b")
        assert_same_bits(load_dataset(tmp_path / "b"), ds)
        assert_same_bits(ref_load_dataset(tmp_path / "b"), ds)

    def test_empty_cluster_rejected(self):
        with pytest.raises(DatasetError, match="empty"):
            build_dataset(
                point_ids=["p0"],
                coords=np.zeros((1, 2)),
                features=np.zeros((1, 2)),
                labels=np.zeros(1),
                point_cluster=["c0"],
                cluster_stratum={"c0": "s0", "c1": "s0"},   # c1 has no points
            )

    def test_zero_feature_dim_rejected(self):
        with pytest.raises(DatasetError, match="dimension"):
            build_dataset(
                point_ids=["p0", "p1"],
                coords=np.zeros((2, 2)),
                features=np.zeros((2, 0)),
                labels=np.zeros(2),
                point_cluster=["c0", "c0"],
                cluster_stratum={"c0": "s0"},
            )


def csv_module_points(ds) -> bytes:
    """points.csv of ``ds`` as the csv module writes its rows, or the
    csv.Error the module raises for them."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["point_id", "x", "y", "label", "cluster_id", "stratum_id"]] + [
        [pid, x, y, "NA" if label != label else label, ds.cluster_ids[j],
         ds.stratum_ids[ds.cluster_stratum[j]]]
        for pid, (x, y), label, j in zip(ds.point_ids, ds.coords.tolist(), ds.labels.tolist(),
                                         ds.point_cluster.tolist())
    ])
    return buf.getvalue().encode("utf-8")


# ids the csv module writes as they are or quotes: empty, spaced, delimiter,
# quote, line breaks and non-ASCII
WRITER_IDS = ("", " lead", "trail ", "a,b", 'q"t', "cr\rx", "lf\nx", "crlf\r\nx",
              "\u00e9\u4e2d", ' "x", ', "\r")
# floats whose repr is long, exponent-form, signed zero or subnormal
WRITER_FLOATS = (-0.0, 5e-324, 1e16, 1e22, sys.float_info.max, -sys.float_info.max, 0.1 + 0.2)


class TestWriters:
    """The one output dialect: every JSON file the package writes goes
    through write_json, and every CSV file through write_csv, but for
    points.csv, whose columnar writer must write the csv module's bytes."""

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "new" / "dir" / "doc.json"
        write_json(path, {"b": [1, 0.1], "a": {"z": None, "y": "é"}})
        assert path.read_bytes() == (
            b'{\n  "a": {\n    "y": "\\u00e9",\n    "z": null\n  },\n'
            b'  "b": [\n    1,\n    0.1\n  ]\n}\n'
        )

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "new" / "dir" / "rows.csv"
        write_csv(path, ["id", "x", "n"],
                  iter([["pé", 0.1, 3], ["q,1", 1e-20, "NA"], ["r", 0.1 + 0.2, ""]]))
        assert path.read_bytes() == (
            "id,x,n\r\npé,0.1,3\r\n\"q,1\",1e-20,NA\r\nr,0.30000000000000004,\r\n".encode("utf-8")
        )

    @pytest.mark.parametrize("nul", [False, True], ids=["no-nul", "nul"])
    @pytest.mark.parametrize("column", ["point", "cluster", "stratum"])
    def test_points_csv_is_the_csv_modules_bytes(self, tmp_path, column, nul):
        # the odd ids in one column, the others plain; a label of NA and each
        # odd float as a coordinate and as a label. An id holding NUL, which
        # some csv module versions refuse, is added in a case of its own
        odd = WRITER_IDS + (("nul\0x",) if nul else ())
        n = len(odd)
        ids = {kind: [f"{kind[0]}{i:02d}" for i in range(n)]
               for kind in ("point", "cluster", "stratum")}
        ids[column] = list(odd)
        values = np.resize(np.array(WRITER_FLOATS), (3, n))
        labels = values[2].copy()
        labels[1] = np.nan
        ds = build_dataset(
            point_ids=ids["point"], coords=values[:2].T, features=np.ones((n, 2)),
            labels=labels, point_cluster=ids["cluster"],
            cluster_stratum=dict(zip(ids["cluster"], ids["stratum"])),
        )
        try:
            expected = csv_module_points(ds)
        except csv.Error:   # a NUL, where the csv module has no escape for it
            assert nul
            with pytest.raises(csv.Error):
                save_dataset(ds, tmp_path / "b")
            return
        save_dataset(ds, tmp_path / "b")
        assert (tmp_path / "b" / "points.csv").read_bytes() == expected

    @pytest.mark.parametrize("odd", ["p,q", 'p"q', "p\rq"])
    def test_points_csv_quotes_ids_of_a_later_block(self, tmp_path, odd):
        # the first block's point ids need no quoting, only the last row's does
        n = data_module._SAVE_BLOCK_ROWS + 3
        ids = [f"p{i:05d}" for i in range(n - 1)] + [f"p{n:05d}{odd}"]
        ds = build_dataset(
            point_ids=ids, coords=np.arange(2.0 * n).reshape(n, 2) / 7, features=np.ones((n, 1)),
            labels=np.where(np.arange(n) % 5 == 0, np.nan, np.arange(n) / 3.0),
            point_cluster=[f"c{i % 3}" for i in range(n)],
            cluster_stratum={"c0": "s0", "c1": "s,1", "c2": "s0"},
        )
        save_dataset(ds, tmp_path / "b")
        assert (tmp_path / "b" / "points.csv").read_bytes() == csv_module_points(ds)


@pytest.mark.parametrize("features_format", ["bin", "csv"])
def test_nan_features_and_coords_compare_equal(tmp_path, features_format):
    ds = toy_dataset({"c0": 3, "c1": 2}, {"c0": "s0", "c1": "s0"})
    ds.features[1, 2] = ds.coords[3, 0] = np.nan
    assert datasets_equal(ds, ds)
    save_dataset(ds, tmp_path / "b", features_format=features_format)
    assert_same_bits(load_dataset(tmp_path / "b"), ds)


def test_dataset_equality_is_identity_and_does_not_raise():
    a = toy_dataset({"c0": 3, "c1": 2}, {"c0": "s0", "c1": "s0"})
    b = toy_dataset({"c0": 3, "c1": 2}, {"c0": "s0", "c1": "s0"})
    assert datasets_equal(a, b)
    assert a == a and a != b
    assert len({a, b}) == 2


class TestPartitionInvariants:
    def test_strata_partition_clusters_and_clusters_partition_points(self, synth_ds):
        ds = synth_ds
        members = [
            [cid for cid, s in zip(ds.cluster_ids, ds.cluster_stratum) if s == sj]
            for sj in range(len(ds.stratum_ids))
        ]
        assert all(members)   # no stratum without a cluster
        seen_clusters = [cid for cids in members for cid in cids]
        assert sorted(seen_clusters) == sorted(ds.cluster_ids)
        assert len(seen_clusters) == len(set(seen_clusters))
        seen_points = [pid for cid in ds.cluster_ids for pid in ds.cluster(cid).point_ids]
        assert sorted(seen_points) == sorted(ds.point_ids)
        assert len(seen_points) == len(set(seen_points))

    def test_split_masks_disjoint_and_cover_labeled(self, synth_ds):
        ds = synth_ds
        assert not np.any(ds.train_mask & ds.test_mask)
        labeled = ~np.isnan(ds.labels)
        assert np.all(ds.train_mask[labeled] | ds.test_mask[labeled])


class TestCosts:
    def make_cm(self, **kw):
        base = dict(c1=25.0, c2=50.0, budget=500.0)
        base.update(kw)
        return CostModel(**base)

    def test_in_strata_cluster_costs_c1(self, small_ds):
        cm = self.make_cm().with_initial_strata({0})
        assert cluster_cost(cm, small_ds.cluster("ca")) == 25.0

    def test_out_of_strata_cluster_costs_c2(self, small_ds):
        cm = self.make_cm().with_initial_strata({0})
        assert cluster_cost(cm, small_ds.cluster("cc")) == 50.0

    def test_equal_costs_ignore_strata(self, small_ds):
        cm = self.make_cm(c2=25.0)   # no initial strata bound
        assert cluster_cost(cm, small_ds.cluster("ca")) == 25.0
        assert cluster_cost(cm, small_ds.cluster("cc")) == 25.0

    def test_unbound_strata_rejected(self, small_ds):
        cm = self.make_cm()
        with pytest.raises(CostError, match="initial strata"):
            cluster_cost(cm, small_ds.cluster("ca"))

    def test_override_wins(self, small_ds):
        cm = self.make_cm(per_cluster_override={"cc": 7.5}).with_initial_strata({0})
        assert cluster_cost(cm, small_ds.cluster("cc")) == 7.5
        assert cluster_cost(cm, small_ds.cluster("ca")) == 25.0

    def test_invalid_cost_models(self):
        with pytest.raises(CostError):
            CostModel(c1=50.0, c2=25.0, budget=10.0)
        with pytest.raises(CostError):
            CostModel(c1=0.0, c2=25.0, budget=10.0)
        with pytest.raises(CostError):
            CostModel(c1=1.0, c2=2.0, budget=-1.0)

    def test_nan_budget_and_override_rejected(self):
        # NaN fails every comparison, so `budget < 0` and `v <= 0` let it pass
        with pytest.raises(CostError, match="budget"):
            CostModel(c1=1.0, c2=2.0, budget=float("nan"))
        with pytest.raises(CostError, match="override for 'x'"):
            self.make_cm(per_cluster_override={"x": float("nan")})

    def test_infinite_costs_rejected_infinite_budget_allowed(self):
        # an infinite cost turns the knapsack's cost products into NaN
        with pytest.raises(CostError, match="override for 'x' must be positive and finite"):
            self.make_cm(per_cluster_override={"x": float("inf")})
        for c1, c2 in ((25.0, float("inf")), (float("inf"), float("inf"))):
            with pytest.raises(CostError, match="finite c1 and c2"):
                CostModel(c1=c1, c2=c2, budget=10.0)
        assert CostModel(c1=1.0, c2=2.0, budget=float("inf")).budget == float("inf")

    def test_stratum_id_strings_rejected(self):
        # ids would match no cluster_stratum row, so every cluster would cost c2
        with pytest.raises(CostError, match="initial_strata holds stratum rows.*'s0'"):
            self.make_cm().with_initial_strata({"s0"})
        assert self.make_cm().with_initial_strata({np.int64(1)}).initial_strata == {1}

    def test_set_cost_empty_is_zero(self, small_ds):
        cm = self.make_cm().with_initial_strata({0})
        assert set_cost(cm, small_ds, []) == 0.0

    def test_set_cost_additivity(self, small_ds):
        cm = self.make_cm().with_initial_strata({0})
        assert set_cost(cm, small_ds, small_ds.cluster_indices(["ca", "cc"])) == 75.0

    def test_set_cost_matches_brute_force_and_is_monotone(self, synth_ds):
        rng = np.random.default_rng(0)
        cm = self.make_cm().with_initial_strata({0, 1})
        ids = list(synth_ds.cluster_ids)
        for _ in range(25):
            a = [cid for cid in ids if rng.random() < 0.4]
            b = sorted(set(a) | {cid for cid in ids if rng.random() < 0.2})
            brute = sum(cluster_cost(cm, synth_ds.cluster(cid)) for cid in a)
            rows_a, rows_b = synth_ds.cluster_indices(a), synth_ds.cluster_indices(b)
            assert set_cost(cm, synth_ds, rows_a) == pytest.approx(brute, abs=1e-12)
            assert set_cost(cm, synth_ds, rows_a) <= set_cost(cm, synth_ds, rows_b) + 1e-12

    def test_set_cost_unknown_id(self, small_ds):
        cm = self.make_cm().with_initial_strata({0})
        with pytest.raises(DatasetError, match="zz"):
            set_cost(cm, small_ds, small_ds.cluster_indices(["zz"]))


class TestSampleState:
    def make_state(self, ds, **kw):
        base = dict(
            initial=("ca",),
            augment=("cb",),
            labeled={"ca": ("p0000", "p0001"), "cb": ("p0004",)},
            k=5,
            spent=25.0,
            initial_strata=frozenset({0}),
        )
        base.update(kw)
        return state_from_ids(ds, **base)

    def write_sample(self, ds, path, state, **fields):
        """Save ``state`` to ``path``, then overwrite the given JSON fields."""
        from geosampler.data import save_sample_state

        save_sample_state(ds, state, path)
        doc = json.loads(path.read_text())
        doc.update(fields)
        path.write_text(json.dumps(doc))

    def test_stratum_id_strings_rejected(self, small_ds):
        with pytest.raises(DatasetError, match="initial_strata holds stratum rows.*'s0'"):
            self.make_state(small_ds, initial_strata=frozenset({"s0"}))

    def test_overlapping_initial_and_augment_rejected(self, small_ds):
        with pytest.raises(DatasetError, match="both"):
            self.make_state(small_ds, augment=("ca",), labeled={"ca": ()})

    def test_labeled_points_for_unselected_cluster_rejected(self, small_ds, tmp_path):
        from geosampler.data import load_sample_state

        path = tmp_path / "sample.json"
        self.write_sample(
            small_ds, path, self.make_state(small_ds), labeled_points={"ca": [], "zz": ["p0000"]}
        )
        with pytest.raises(DatasetError, match="unselected"):
            load_sample_state(small_ds, path)

    def test_validate_against_dataset(self, small_ds, tmp_path):
        from geosampler.data import load_sample_state

        path = tmp_path / "sample.json"
        self.write_sample(small_ds, path, self.make_state(small_ds))
        load_sample_state(small_ds, path)
        too_many = self.make_state(small_ds, k=1, labeled={"ca": ("p0000", "p0001")})
        self.write_sample(small_ds, path, too_many)
        with pytest.raises(DatasetError, match="cap"):
            load_sample_state(small_ds, path)
        self.write_sample(
            small_ds, path, self.make_state(small_ds),
            labeled_points={"ca": ["p0000"], "cb": ["p0000"]},
        )
        with pytest.raises(DatasetError, match="wrong cluster"):
            load_sample_state(small_ds, path)

    @pytest.mark.parametrize("strata, message", [
        (["nope", "nope"], "unknown stratum id 'nope'"),
        (["s0", "nope"], "unknown stratum id 'nope'"),
        (["s0", "s0"], "stratum id 's0' listed twice in sample.json"),
    ])
    def test_unknown_or_repeated_initial_stratum_rejected(
        self, small_ds, tmp_path, strata, message
    ):
        from geosampler.data import load_sample_state

        path = tmp_path / "sample.json"
        self.write_sample(small_ds, path, self.make_state(small_ds), initial_strata=strata)
        with pytest.raises(DatasetError, match=message):
            load_sample_state(small_ds, path)

    def test_sample_state_file_round_trip(self, small_ds, tmp_path):
        from geosampler.data import load_sample_state, save_sample_state

        state = self.make_state(small_ds, lineage=("initial:pps", "augment:greedy"))
        save_sample_state(small_ds, state, tmp_path / "sample.json")
        again = load_sample_state(small_ds, tmp_path / "sample.json")
        assert_states_equal(state, again)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method", [
        "initial", "default", "greedy", "random", "optimized", "convenience", "random-points",
    ])
    def test_sampler_state_crosses_sample_json(self, synth_ds, tmp_path, method, seed):
        from dataclasses import replace

        from geosampler import samplers
        from geosampler.data import load_sample_state, save_sample_state
        from geosampler.utility import UtilitySpec

        ds, rng = synth_ds, np.random.default_rng(seed)
        cfg = samplers.SamplerConfig(n_strata=3, k=5, initial_size=30, strata_seed=seed)
        state0 = samplers.draw_initial_sample(ds, cfg, rng)
        snapshot = replace(state0)   # copies the arrays
        cm = CostModel(c1=25.0, c2=50.0, budget=100.0)
        spec = UtilitySpec(kind="group_rep", groups=admin_groups(ds))
        anchor = tuple(float(v) for v in ds.coords.mean(axis=0))
        state = {
            "initial": lambda: state0,
            "default": lambda: samplers.default_cluster_augment(ds, state0, cm, rng),
            "greedy": lambda: samplers.greedy_size_augment(ds, state0, cm, rng),
            "random": lambda: samplers.random_cluster_augment(ds, state0, cm, rng),
            "optimized": lambda: samplers.optimized_augment(ds, state0, cm, spec, rng),
            "convenience": lambda: samplers.convenience_sample(
                ds, samplers.ConvenienceConfig(anchors=(anchor,), temperature=0.5, size=25), rng
            ),
            "random-points": lambda: samplers.random_point_sample(ds, 25, rng),
        }[method]()
        assert_states_equal(snapshot, state0)
        for name in ("initial", "augment", "labeled"):
            assert not getattr(state, name).flags.writeable
            assert not getattr(state0, name).flags.writeable

        path, again_path = tmp_path / "sample.json", tmp_path / "again.json"
        save_sample_state(ds, state, path)
        again = load_sample_state(ds, path)
        assert_states_equal(state, again)
        save_sample_state(ds, again, again_path)
        assert again_path.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("field", [
        "initial_cluster_ids", "augment_cluster_ids", "labeled_points", "k", "spent",
        "initial_strata",
    ])
    def test_missing_sample_field_names_it(self, small_ds, tmp_path, field):
        from geosampler.data import load_sample_state, save_sample_state

        save_sample_state(small_ds, self.make_state(small_ds), tmp_path / "sample.json")
        doc = json.loads((tmp_path / "sample.json").read_text())
        del doc[field]
        (tmp_path / "sample.json").write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match=f"sample.json missing field '{field}'"):
            load_sample_state(small_ds, tmp_path / "sample.json")


class TestExpectedCounts:
    def test_small_cluster_fully_labeled(self):
        ds = toy_dataset({"ca": 10}, {"ca": "s0"}, seed=1)
        gm = admin_groups(ds)
        counts = expected_counts(ds, gm, k=25)
        assert counts.e[0] == 10.0
        assert dense_groups(counts)[0, 0] == 10.0

    def test_proportional_split(self):
        # one 100-point cluster, half in each of two strata-groups is not
        # possible (groups follow strata), so use two equal clusters merged
        # via a custom assignment instead
        ds = toy_dataset({"ca": 100}, {"ca": "s0"}, seed=2)
        gm = admin_groups(ds)
        # reassign half the points to a second synthetic group
        import numpy as np
        from geosampler.groups import GroupModel
        assignment = np.zeros(100, dtype=np.int64)
        assignment[50:] = 1
        gm2 = GroupModel(
            kind="admin",
            group_ids=("gA", "gB"),
            assignment=assignment,
            gamma=np.array([0.5, 0.5]),
        )
        counts = expected_counts(ds, gm2, k=10)
        assert counts.e[0] == 10.0
        assert dense_groups(counts)[0, 0] == pytest.approx(5.0, abs=1e-12)
        assert dense_groups(counts)[0, 1] == pytest.approx(5.0, abs=1e-12)

    def test_matches_monte_carlo_oracle(self):
        # random composition; oracle: mean group counts over 1e5 uniform k-subsets
        rng = np.random.default_rng(7)
        size, k, G = 23, 9, 3
        ds = toy_dataset({"ca": size}, {"ca": "s0"}, seed=3)
        from geosampler.groups import GroupModel
        assignment = rng.integers(0, G, size=size)
        gamma = np.bincount(assignment, minlength=G) / size
        gm = GroupModel(kind="admin", group_ids=("g0", "g1", "g2"),
                        assignment=assignment, gamma=gamma)
        counts = expected_counts(ds, gm, k=k)

        trials = 100_000
        acc = np.zeros(G)
        for _ in range(trials):
            pick = rng.choice(size, size=k, replace=False)
            acc += np.bincount(assignment[pick], minlength=G)
        mc = acc / trials
        assert np.all(np.abs(mc - dense_groups(counts)[0]) <= 0.05)

    def test_group_marginals_sum_to_e(self, synth_ds):
        gm = admin_groups(synth_ds)
        counts = expected_counts(synth_ds, gm, k=7)
        np.testing.assert_allclose(
            dense_groups(counts).sum(axis=1), counts.e, rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(
            counts.e, np.minimum(7, synth_ds.cluster_sizes)
        )

    def test_groupless_counts(self, small_ds):
        counts = expected_counts(small_ds, None, k=5)
        assert dense_groups(counts).shape == (3, 0)
        np.testing.assert_array_equal(counts.e, [4, 5, 5])
