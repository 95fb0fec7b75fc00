import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schurlab import serialize


def per_item_dumps(obj) -> str:
    """Reference encoder: the canonical encoder as it was, one dispatch per
    list item."""
    out = []

    def enc(o):
        if o is None:
            out.append("null")
        elif o is True:
            out.append("true")
        elif o is False:
            out.append("false")
        elif isinstance(o, str):
            out.append('"' + o.replace("\\", "\\\\").replace('"', '\\"')
                       .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t") + '"')
        elif isinstance(o, (int, np.integer)):
            out.append(str(int(o)))
        elif isinstance(o, (float, np.floating)):
            out.append(serialize.float17(o))
        elif isinstance(o, dict):
            out.append("{")
            for i, key in enumerate(sorted(o)):
                if i:
                    out.append(",")
                enc(key)
                out.append(":")
                enc(o[key])
            out.append("}")
        elif isinstance(o, (list, tuple)):
            out.append("[")
            for i, item in enumerate(o):
                if i:
                    out.append(",")
                enc(item)
            out.append("]")
        elif isinstance(o, np.ndarray):
            enc(o.tolist())
        else:
            raise TypeError(type(o).__name__)

    enc(obj)
    return "".join(out)


class TestFloat17:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_roundtrip_exact(self, x):
        assert float(serialize.float17(x)) == x or (x == 0.0 and float(serialize.float17(x)) == 0.0)

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                serialize.float17(bad)


class TestCanonicalDumps:
    def test_sorted_keys_and_compact(self):
        text = serialize.dumps_canonical({"b": 1, "a": [1.5, None, True]})
        assert text == '{"a":[1.5,null,true],"b":1}'

    def test_deterministic(self):
        payload = {"z": 0.1, "m": {"k": [3, 2.25]}, "a": "x"}
        assert serialize.dumps_canonical(payload) == serialize.dumps_canonical(
            json.loads(json.dumps(payload)))

    def test_parses_as_json(self):
        payload = {"v": [1e-300, 2.5e300, -0.0], "s": 'quote " and \n newline'}
        parsed = json.loads(serialize.dumps_canonical(payload))
        assert parsed["v"] == payload["v"]
        assert parsed["s"] == payload["s"]

    @pytest.mark.parametrize("code", range(0x20))
    def test_control_character_round_trips(self, code):
        # JSON forbids every U+0000-U+001F raw in a string, in keys as in values
        text = f"a{chr(code)}b"
        assert json.loads(serialize.dumps_canonical({text: [text]})) == {text: [text]}

    def test_short_escapes_keep_their_form(self):
        text = 'back\\slash "quote"\ttab\nnewline\rreturn'
        assert serialize.dumps_canonical(text) == per_item_dumps(text)
        assert serialize.dumps_canonical("\x0b\x1f") == '"\\u000b\\u001f"'

    def test_ndarray_support(self):
        text = serialize.dumps_canonical({"m": np.array([1.0, 2.0])})
        assert json.loads(text) == {"m": [1.0, 2.0]}

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            serialize.dumps_canonical({"z": 1j})

    @pytest.mark.parametrize("payload", [
        [-0.0, 5e-324, 1.7976931348623157e308, 1e-7, 0.1, -2.5e-300],
        [1, 2.5],
        [2.5, 1],
        [True, 1.5, False, None],
        [np.float64(0.1), 0.2, np.float64(-0.0)],
        [0.5, np.float64(1e-7)],
        (0.25, -1.0, 3e100),
        ((1.0, 2.0), [3.0, [4.0, []]], []),
        [],
        [[], [[]], ()],
        {"a": [1.0, 2.0], "b": ("x", 0.5), "c": np.array([1e-7, -0.0])},
        ["s", 1.0],
        [1e16, 9.999999999999998e16, 1e17, 1e-5, 0.0001, -0.0, 5e-324,
         1.7976931348623157e308],
    ])
    def test_float_list_fast_path_matches_per_item_encoder(self, payload):
        assert serialize.dumps_canonical(payload) == per_item_dumps(payload)

    def test_random_float_list_matches_per_item_encoder(self, rng):
        values = (rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000)).tolist()
        assert serialize.dumps_canonical(values) == per_item_dumps(values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_at_the_end_of_a_long_float_list(self, bad):
        values = [0.5] * 99999 + [bad]
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps_canonical({"v": values})

    # A float list longer than FLOAT_PIECE formats each distinct double once
    # and repeats its text; "distinct" is by bit pattern, so -0.0 and +0.0
    # keep their signs.
    DUPLICATE_HEAVY = [
        [0.1] * 1000,
        [-0.0, 0.0] * 300 + [0.0, -0.0, -0.0, 0.0],
        [5e-324, 2.2250738585072014e-308, 1e-310] * 200,
        [1e16, 9.999999999999998e16] * 250 + [1e16],
        [5e-324, 1.7976931348623157e308] * 100 + [-5e-324, -1.7976931348623157e308],
        [0.5 * (i % 7) - 1.0 for i in range(40000)],
    ]

    @pytest.mark.parametrize("piece", [None, 3])
    @pytest.mark.parametrize("payload", DUPLICATE_HEAVY)
    def test_duplicate_heavy_float_lists_match_per_item_encoder(self, payload, piece,
                                                                monkeypatch):
        # lists longer than FLOAT_PIECE take the distinct-value path; piece 3
        # sends every list there and cuts it into many text pieces
        if piece is not None:
            monkeypatch.setattr(serialize, "FLOAT_PIECE", piece)
        assert serialize.dumps_canonical(payload) == per_item_dumps(payload)
        assert serialize.dumps_canonical({"v": payload}) == per_item_dumps({"v": payload})
        # written piece by piece to a file, the same text
        fh = io.StringIO()
        serialize.dump_canonical({"v": payload}, fh)
        assert fh.getvalue() == per_item_dumps({"v": payload})

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, -0.1, 5e-324, 1e16,
                                     9.999999999999998e16, 1.7976931348623157e308]),
                    max_size=300))
    def test_pooled_float_lists_match_per_item_encoder(self, values):
        # both paths: one "%.17g" call, and distinct values in pieces of 3
        assert serialize.dumps_canonical(values) == per_item_dumps(values)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serialize, "FLOAT_PIECE", 3)
            assert serialize.dumps_canonical(values) == per_item_dumps(values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_after_many_duplicates(self, bad):
        values = [0.25] * 100000 + [bad, 0.25]
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dumps_canonical(values)

    @pytest.mark.parametrize("size", ["piece", "piece+1", "long"])
    def test_float64_array_encodes_as_its_list(self, rng, size):
        # a 1-D float64 array skips tolist() and takes the distinct-value
        # path as an array; its bytes are its list's: signed zeros,
        # subnormals and repeats included, at FLOAT_PIECE and one past it
        n = {"piece": serialize.FLOAT_PIECE, "piece+1": serialize.FLOAT_PIECE + 1,
             "long": 3 * serialize.FLOAT_PIECE + 17}[size]
        pool = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                         0.1, 1e16, 9.999999999999998e16, 1.7976931348623157e308])
        values = np.where(rng.random(n) < 0.5, rng.choice(pool, n),
                          rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
        for array in (values, values[::2]):
            want = per_item_dumps(array.tolist())
            assert serialize.dumps_canonical(array) == want
            assert serialize.dumps_canonical({"v": array}) == per_item_dumps({"v": array.tolist()})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("n", [5, 100000])
    def test_float64_array_rejects_non_finite_as_its_list(self, bad, n):
        values = np.full(n, 0.25)
        values[n // 2] = bad
        with pytest.raises(ValueError) as from_list:
            serialize.dumps_canonical(values.tolist())
        with pytest.raises(ValueError) as from_array:
            serialize.dumps_canonical(values)
        assert str(from_array.value) == str(from_list.value)
        assert "non-finite" in str(from_array.value)


class TestMatrixCodec:
    def test_roundtrip(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = serialize.matrix_from_json(serialize.matrix_to_json(a))
        assert np.array_equal(a, b)

    def test_wire_format(self):
        payload = serialize.matrix_to_json(np.eye(2))
        assert payload["dim"] == 2
        assert payload["re"] == [1.0, 0.0, 0.0, 1.0]
        assert payload["im"] == [0.0, 0.0, 0.0, 0.0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            serialize.matrix_to_json(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            serialize.matrix_to_json(np.array([[np.inf, 0], [0, 1]]))

    def test_norm_roundtrip_17_digits(self):
        # quasi-norm values survive the decimal wire format bit-exactly
        from schurlab.operators import schatten_norm
        value = schatten_norm(np.ones((2, 2)) + np.eye(2), 0.7)
        assert float(serialize.float17(value)) == value
