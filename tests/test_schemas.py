import json

import pytest

from cy_smoother.invariant_forms import CubicTensor
from cy_smoother.schemas import dump_json, parse_tensor, tensor_to_dict

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# quotes, backslashes, control characters, non-ASCII (BMP and astral) and
# lone surrogates, which the ASCII encoder escapes
TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\bé €\U0001f600\ud800'),
        st.characters(exclude_categories=()),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(TEXT, children, max_size=5),
    ),
    max_leaves=25,
)


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @given(VALUES)
    def test_matches_json_dumps(self, payload):
        assert dump_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [1.0, {"a": [1, 2.5]}, {1, 2}, {"a": {1: 2}}, {"a": 1, 2: "b"}],
        ids=["float", "nested-float", "set", "int-key", "mixed-keys"],
    )
    def test_rejects_other_types(self, payload):
        with pytest.raises(TypeError):
            dump_json(payload)


class TestTensorKeys:
    def test_digits_and_commas_in_one_tensor(self):
        t = CubicTensor(10, {(3, 2, 1): 5, (10, 1, 2): 7, (9, 9, 9): -1, (10, 10, 10): 1})
        assert tensor_to_dict(t) == {
            "rank": 10,
            "entries": {"123": 5, "999": -1, "1,2,10": 7, "10,10,10": 1},
        }
        assert parse_tensor(tensor_to_dict(t)) == t
        assert parse_tensor(json.loads(dump_json(tensor_to_dict(t)))) == t

    def test_one_index_spelt_two_ways(self):
        # digits and commas name one index, as permutations do: equal values agree
        t = parse_tensor({"rank": 3, "entries": {"123": 5, "1,2,3": 5, "3,2,1": 5}})
        assert t.entries == {(1, 2, 3): 5}
        with pytest.raises(ValueError, match=r"^\$: conflicting values for symmetric entry "
                                             r"\(1, 2, 3\)$"):
            parse_tensor({"rank": 3, "entries": {"123": 1, "1,2,3": 5}})

    @pytest.mark.parametrize("rank", [True, False, -1, 3.0, "3"])
    def test_rank_must_be_a_nonnegative_integer(self, rank):
        # bool is an int subclass, rejected like the entry values
        with pytest.raises(ValueError, match=r"^\$\.rank: rank must be a nonnegative integer"):
            parse_tensor({"rank": rank, "entries": {"111": 1}})

    @pytest.mark.parametrize(
        "raw, message",
        [
            # a c2 covector beside the tensor used to be ignored
            ({"rank": 3, "entries": {"111": 1}, "c2": [1, 2, 3]}, "unknown field 'c2'"),
            ({"rank": 3}, "missing field 'entries'"),
        ],
        ids=["unknown", "missing"],
    )
    def test_fields_are_checked(self, raw, message):
        with pytest.raises(ValueError, match=r"^\$: %s$" % message):
            parse_tensor(raw)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=14).flatmap(
        lambda n: st.dictionaries(
            st.tuples(*[st.integers(min_value=1, max_value=n)] * 3).map(lambda k: tuple(sorted(k))),
            st.integers(),
            max_size=20,
        ).map(lambda entries: CubicTensor(n, entries))
    ))
    def test_round_trip(self, t):
        assert parse_tensor(json.loads(dump_json(tensor_to_dict(t)))) == t
