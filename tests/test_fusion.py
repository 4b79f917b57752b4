import pytest

from oracles import electre_oracle, linear_oracle, normalize_oracle
from references import normalize_scores as reference_normalize, uniform_electre

from recipetext.errors import DataError
from recipetext.fusion import (
    electre_relation,
    fuse_electre,
    fuse_linear,
    normalize_scores,
)
from recipetext.rng import SplitMix64
from recipetext.scores import ScoreVector


def _vec(method, scores, rid="r"):
    return ScoreVector(rid, method, scores)


class TestNormalize:
    def test_direct_division(self):
        out = normalize_scores(_vec("m", {"a": 2.0, "b": 1.0, "c": 1.0}))
        assert out.scores == {"a": 0.5, "b": 0.25, "c": 0.25}

    def test_zero_sum_gives_uniform(self):
        out = normalize_scores(_vec("m", {"a": 0.0, "b": 0.0, "c": 0.0}))
        assert out.scores == {"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}

    def test_negative_scores_shift_then_divide(self):
        out = normalize_scores(_vec("m", {"a": -1.0, "b": 0.0, "c": 3.0}))
        assert out.scores["a"] == 0.0
        assert out.scores["b"] == pytest.approx(0.2, abs=1e-15)
        assert out.scores["c"] == pytest.approx(0.8, abs=1e-15)

    def test_sum_is_one(self):
        rng = SplitMix64(11)
        for _ in range(300):
            raw = {c: rng.uniform() * 10 - 2 for c in ("a", "b", "c", "d")}
            out = normalize_scores(_vec("m", raw))
            assert abs(sum(out.scores.values()) - 1.0) <= 1e-12

    def test_exact_invariance_under_power_of_two_scaling(self):
        rng = SplitMix64(7)
        for _ in range(200):
            raw = {c: rng.uniform() for c in ("a", "b", "c")}
            base = normalize_scores(_vec("m", raw)).scores
            for k in (0.5, 2.0, 8.0, 1024.0):
                scaled = normalize_scores(_vec("m", {c: k * v for c, v in raw.items()}))
                assert scaled.scores == base

    def test_equals_the_dict_form_in_sorted_key_order(self):
        # the list routine the hierarchy shares gives the plain dict
        # computation's every bit; keys come out sorted
        rng = SplitMix64(29)
        for i in range(300):
            classes = ("d", "b", "a", "c")[:2 + i % 3]
            raw = {c: [0.0, -0.0, rng.uniform(), rng.uniform() * 6 - 3][rng.below(4)]
                   for c in classes}
            got = normalize_scores(_vec("m", raw)).scores
            assert got == reference_normalize(_vec("m", raw)).scores
            assert list(got) == sorted(raw)

    def test_matches_oracle(self):
        rng = SplitMix64(23)
        for _ in range(200):
            raw = {c: rng.uniform() * 4 - 1 for c in ("a", "b", "c")}
            got = normalize_scores(_vec("m", raw)).scores
            want = normalize_oracle(raw)
            for c in raw:
                assert got[c] == pytest.approx(want[c], abs=1e-12)


class TestLinear:
    def test_single_method(self):
        winner, fused = fuse_linear([_vec("m", {"a": 0.2, "b": 0.8})])
        assert winner == "b"
        assert fused.scores == {"a": 0.2, "b": 0.8}

    def test_two_methods_sum(self):
        winner, fused = fuse_linear([
            _vec("m1", {"a": 0.6, "b": 0.4}),
            _vec("m2", {"a": 0.45, "b": 0.55}),
        ])
        assert fused.scores["a"] == pytest.approx(1.05, abs=1e-15)
        assert fused.scores["b"] == pytest.approx(0.95, abs=1e-15)
        assert winner == "a"

    def test_three_vectors_componentwise(self):
        rng = SplitMix64(3)
        vs = []
        for m in ("m1", "m2", "m3"):
            raw = {c: rng.uniform() for c in ("a", "b", "c")}
            vs.append(normalize_scores(_vec(m, raw)))
        _, fused = fuse_linear(vs)
        for c in ("a", "b", "c"):
            assert fused.scores[c] == pytest.approx(
                sum(v.scores[c] for v in vs), abs=1e-12)

    def test_class_set_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            fuse_linear([_vec("m1", {"a": 1.0}), _vec("m2", {"b": 1.0})])

    def test_tie_breaks_lexicographically(self):
        winner, _ = fuse_linear([_vec("m", {"b": 0.5, "a": 0.5})])
        assert winner == "a"


def _params(methods, sc, veto=0.5):
    return uniform_electre(list(methods), sc, veto)


class TestElectre:
    def test_two_of_three_below_sc07(self):
        # c dominates c' on 2 of 3 methods -> conc = 2/3 < 0.7 -> no edge
        vectors = [
            _vec("m1", {"c": 0.6, "x": 0.4}),
            _vec("m2", {"c": 0.6, "x": 0.4}),
            _vec("m3", {"c": 0.3, "x": 0.7}),
        ]
        relation = electre_relation(vectors, _params(("m1", "m2", "m3"), 0.7, 1.0))
        assert ("c", "x") not in relation.edges

    def test_full_concordance_no_veto(self):
        vectors = [
            _vec("m1", {"c": 0.55, "x": 0.45}),
            _vec("m2", {"c": 0.52, "x": 0.48}),
        ]
        relation = electre_relation(vectors, _params(("m1", "m2"), 0.7))
        assert ("c", "x") in relation.edges
        assert relation.kernel == {"c"}

    def test_veto_boundary_inclusive(self):
        # gap exactly 0.5 with veto 0.5 fires the veto
        vectors = [
            _vec("m1", {"c": 0.75, "x": 0.25}),
            _vec("m2", {"c": 0.25, "x": 0.75}),
        ]
        relation = electre_relation(vectors, _params(("m1", "m2"), 0.5, 0.5))
        assert ("c", "x") not in relation.edges
        assert ("x", "c") not in relation.edges
        assert relation.kernel == {"c", "x"}

    def test_ties_count_both_directions(self):
        vectors = [_vec("m1", {"a": 0.5, "b": 0.5})]
        relation = electre_relation(vectors, _params(("m1",), 1.0))
        assert ("a", "b") in relation.edges and ("b", "a") in relation.edges
        assert relation.kernel == set()

    def test_concordance_complement_at_least_one(self):
        rng = SplitMix64(77)
        for _ in range(200):
            methods = ["m1", "m2", "m3"]
            vectors = [normalize_scores(_vec(m, {c: rng.uniform() for c in "abc"}))
                       for m in methods]
            total = 3.0
            for c in "abc":
                for cp in "abc":
                    if c == cp:
                        continue
                    conc_cp = sum(1.0 for v in vectors if v.scores[c] >= v.scores[cp])
                    conc_pc = sum(1.0 for v in vectors if v.scores[cp] >= v.scores[c])
                    assert conc_cp / total + conc_pc / total >= 1.0 - 1e-15

    def test_singleton_kernel_decides(self):
        vectors = [
            _vec("m1", {"Dessert": 0.8, "Entree": 0.2}),
            _vec("m2", {"Dessert": 0.7, "Entree": 0.3}),
        ]
        decision, relation = fuse_electre(vectors, _params(("m1", "m2"), 0.6))
        assert relation.kernel == {"Dessert"}
        assert decision == "Dessert"

    def test_empty_kernel_falls_back_to_linear(self):
        # a three-way outranking cycle leaves every class outranked
        vectors = [
            _vec("m1", {"a": 0.5, "b": 0.3, "c": 0.2}),
            _vec("m2", {"a": 0.2, "b": 0.45, "c": 0.35}),
            _vec("m3", {"a": 0.3, "b": 0.2, "c": 0.5}),
        ]
        params = _params(("m1", "m2", "m3"), 0.6, 1.0)
        decision, relation = fuse_electre(vectors, params)
        assert relation.edges == {("a", "b"), ("b", "c"), ("c", "a")}
        assert relation.kernel == set()
        assert decision == "c"
        assert decision == linear_oracle({m.method_id: m.scores for m in vectors})

    def test_mutual_vetoes_keep_both_candidates(self):
        vectors = [
            _vec("m1", {"a": 0.9, "b": 0.1}),
            _vec("m2", {"a": 0.05, "b": 0.95}),
        ]
        params = _params(("m1", "m2"), 0.5, 0.5)
        decision, relation = fuse_electre(vectors, params)
        assert relation.edges == set()
        assert relation.kernel == {"a", "b"}
        assert decision == linear_oracle({m.method_id: m.scores for m in vectors})

    def test_oracle_equivalence_random(self):
        rng = SplitMix64(2024)
        for trial in range(400):
            n_classes = 3 + rng.below(2)
            n_methods = 3 + rng.below(2)
            classes = [f"c{i}" for i in range(n_classes)]
            methods = [f"m{i}" for i in range(n_methods)]
            vectors = [
                normalize_scores(_vec(m, {c: rng.uniform() for c in classes}))
                for m in methods
            ]
            sc = 0.5 + 0.5 * rng.uniform()
            veto = 0.2 + 0.6 * rng.uniform()
            params = _params(methods, sc, veto)
            relation = electre_relation(vectors, params)
            decision, _ = fuse_electre(vectors, params)

            table = {v.method_id: v.scores for v in vectors}
            weights = {m: 1.0 for m in methods}
            vetoes = {m: veto for m in methods}
            edges, kernel, oracle_decision = electre_oracle(table, weights, sc, vetoes)
            assert relation.edges == edges
            assert relation.kernel == kernel
            if oracle_decision is not None:
                assert decision == oracle_decision
            else:
                assert decision == linear_oracle(table)

    def test_low_sc_high_veto_every_pair_connected(self):
        rng = SplitMix64(5)
        for _ in range(100):
            classes = ["a", "b", "c"]
            methods = ["m1", "m2", "m3"]
            vectors = [
                normalize_scores(_vec(m, {c: rng.uniform() for c in classes}))
                for m in methods
            ]
            params = _params(methods, 0.0, 1.0)
            relation = electre_relation(vectors, params)
            for c in classes:
                for cp in classes:
                    if c != cp:
                        assert ("c", "x") not in relation.edges or True
                        assert (c, cp) in relation.edges or (cp, c) in relation.edges
            decision, _ = fuse_electre(vectors, params)
            if len(relation.kernel) != 1:
                winner, _ = fuse_linear(vectors)
                assert decision == winner
