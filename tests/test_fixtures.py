import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qdes import fixtures
from qdes.fixtures import (
    FixtureSearchError,
    build_af_modp,
    build_eg1,
    build_eg2,
    build_eg2_spec,
    build_egadd,
    build_spec_variant,
    dfa_bounded_zeros,
    dfa_halves_sum_tracking,
    dfa_zero_imbalance_tracking,
    eg1_prime,
    eg2_rate,
    egadd_prime,
    fact2_witness,
    first_prime_in,
    is_prime,
    minimal_dfa_size,
    residue_sweep,
)
from qdes.linalg import Projector, unitary_power
from qdes.models import Dfa, MoQfa, dfa_accepts, mm_accept_prob, mo_accept_prob, qfac_accept_prob, validate
from qdes.serialize import dumps

from helpers import ref_af_modp_worst, ref_build_af_modp, words_up_to


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_interval_selection(self):
        assert first_prime_in(8, 16) == 11
        assert eg1_prime(2) == 11
        assert egadd_prime(4) == 17
        with pytest.raises(ValueError):
            first_prime_in(24, 25)


class TestModPRotation:
    def test_certified_sweep(self):
        m = build_af_modp(11, 0.2, seed=0)
        assert validate(m) == []
        assert max(residue_sweep(m, 11)) < 0.2

    def test_multiples_accepted_exactly(self):
        m = build_af_modp(11, 0.2, seed=0)
        assert mo_accept_prob(m, ()) == 1.0
        assert abs(mo_accept_prob(m, ("0",) * 11) - 1.0) <= 1e-9

    def test_period_is_identity(self):
        m = build_af_modp(11, 0.2, seed=0)
        u = unitary_power(m.unitaries["0"], 11)
        assert np.max(np.abs(u - np.eye(m.dim))) <= 1e-9

    def test_complement_flavor(self):
        m = build_af_modp(17, 0.98, seed=0, accept_multiples=False)
        assert mo_accept_prob(m, ("0",) * 17) <= 1e-12
        assert min(residue_sweep(m, 17)) > 0.02

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            build_af_modp(12, 0.2)

    def test_unattainable_bound_raises(self):
        # At p = 5 the residue means satisfy amp(1) + amp(2) = -1/2 for any
        # multipliers, so max amp^2 >= 1/16: no search certifies 0.001.
        with pytest.raises(FixtureSearchError):
            build_af_modp(5, 0.001)

    def test_certificate_bitwise_equal_to_per_residue_loop(self):
        rng = np.random.default_rng(29)
        for p in (5, 7, 11, 13, 17, 31, 67, 131):
            for d in range(1, 12):
                for _ in range(3):
                    if d <= p - 1:
                        ks = rng.choice(np.arange(1, p), size=d, replace=False)
                    else:
                        ks = rng.integers(1, p, size=d)
                    assert fixtures._worst_residue(p, ks) == ref_af_modp_worst(p, ks)

    def test_stacked_certificate_bitwise_equal_row_by_row(self):
        rng = np.random.default_rng(31)
        for p in (2, 3, 5, 7, 11, 13, 17, 31, 41, 67):
            for d in (1, 2, 3, 7, 8, 9, 16, 17, 40, 64):
                if d <= p - 1:
                    ks = np.array([rng.choice(np.arange(1, p), size=d, replace=False) for _ in range(25)])
                else:
                    ks = rng.integers(1, p, size=(25, d))
                worst = fixtures._worst_residue(p, ks)
                assert worst.shape == (25,)
                assert [float(x) for x in worst] == [ref_af_modp_worst(p, row) for row in ks], (p, d)


AF_MODP_PRIMES = [p for p in range(2, 42) if is_prime(p)]
AF_MODP_EPS = (0.9, 0.5, 0.2, 0.05)


def af_modp_outcome(build, p, eps, accept_multiples, seed):
    """The automaton's document, or the search's failure message."""
    try:
        return dumps(build(p, eps, seed, accept_multiples))
    except FixtureSearchError as err:
        return f"FixtureSearchError: {err}"


class TestAfModpAgainstTheLoop:
    """``build_af_modp`` certifies the rest of a block count's draws in one
    expression; its automata and its failures are the one-try-at-a-time
    loop's, ``ref_build_af_modp``.

    The residue means sum to -1 over t = 1 .. p-1, so some squared mean is
    at least 1/(p-1)^2 and no multiplier set certifies an eps at or below
    it.  Those searches run every draw of every block count, so they are
    compared with fewer blocks, and one of them at the full limits.
    """

    @pytest.mark.parametrize("p", AF_MODP_PRIMES)
    def test_documents_byte_identical(self, p):
        feasible = [eps for eps in AF_MODP_EPS if eps > 1.0 / (p - 1) ** 2]
        for eps in feasible:
            for accept_multiples in (True, False):
                for seed in (0, 1):
                    got = af_modp_outcome(build_af_modp, p, eps, accept_multiples, seed)
                    assert got == af_modp_outcome(ref_build_af_modp, p, eps, accept_multiples, seed)
                    assert got.startswith("{"), (p, eps, accept_multiples, seed)

    @pytest.mark.parametrize("p", [p for p in AF_MODP_PRIMES if min(AF_MODP_EPS) <= 1.0 / (p - 1) ** 2])
    def test_failures_identical(self, p, monkeypatch):
        monkeypatch.setattr(fixtures, "AF_MODP_MAX_BLOCKS", 4)
        for eps in [eps for eps in AF_MODP_EPS if eps <= 1.0 / (p - 1) ** 2]:
            for accept_multiples in (True, False):
                for seed in (0, 1):
                    got = af_modp_outcome(build_af_modp, p, eps, accept_multiples, seed)
                    assert got == af_modp_outcome(ref_build_af_modp, p, eps, accept_multiples, seed)
                    assert got == f"FixtureSearchError: no multiplier set certified eps={eps} for p={p} within 4 blocks"

    @pytest.mark.parametrize("chunk_bytes", [1, 4096], ids=["one-try", "a-few-tries"])
    def test_documents_byte_identical_in_chunks(self, chunk_bytes, monkeypatch):
        """Certified in chunks of one try, or of as many as 4 KiB of cosines
        hold (1 to 102 tries, by p and d), the draws give the same automata."""
        monkeypatch.setattr(fixtures, "_AF_MODP_CHUNK_BYTES", chunk_bytes)
        for p in (5, 17, 41):
            for eps in [eps for eps in AF_MODP_EPS if eps > 1.0 / (p - 1) ** 2]:
                for accept_multiples in (True, False):
                    got = af_modp_outcome(build_af_modp, p, eps, accept_multiples, 1)
                    assert got == af_modp_outcome(ref_build_af_modp, p, eps, accept_multiples, 1)
                    assert got.startswith("{"), (p, eps, accept_multiples)

    def test_certificate_memory_is_bounded_by_the_chunk(self):
        """At p = 4099 and eps = 0.5 the search reaches 9 blocks, where one
        table of all 499 remaining draws would take 499 * 4098 * 9 * 8 bytes
        (140 MiB), twice over with its temporary; in chunks the peak stays
        near two chunks (64 MiB each)."""
        tracemalloc.start()
        try:
            m = build_af_modp(4099, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.dim == 18
        assert peak < 2.5 * fixtures._AF_MODP_CHUNK_BYTES < 2 * 499 * 4098 * 9 * 8

    def test_failure_at_the_full_limits(self):
        got = af_modp_outcome(build_af_modp, 3, 0.2, True, 0)
        assert got == af_modp_outcome(ref_build_af_modp, 3, 0.2, True, 0)
        assert got == "FixtureSearchError: no multiplier set certified eps=0.2 for p=3 within 64 blocks"


class TestHalvesSumFixture:
    def test_sizes(self):
        for n_param, eps in ((2, 0.95), (3, 0.3)):
            m = build_eg1(n_param, eps, seed=0)
            core = build_af_modp(eg1_prime(n_param), eps, seed=0)
            assert len(m.classical_states) == 2 * n_param + 2
            assert m.dim == core.dim
            assert validate(m) == []

    def test_value_table(self):
        m = build_eg1(2, 0.95, seed=0)
        assert abs(qfac_accept_prob(m, tuple("0110")) - 1.0) <= 1e-9
        assert abs(qfac_accept_prob(m, tuple("012120")) - 1.0) <= 1e-9
        assert qfac_accept_prob(m, tuple("0111")) < 0.95
        assert qfac_accept_prob(m, tuple("00000")) == 0.0

    def test_members_certified_below_bound(self):
        eps = 0.95
        m = build_eg1(2, eps, seed=0)
        for w in words_up_to(("0", "1"), 4):
            if len(w) != 4:
                continue
            value = qfac_accept_prob(m, w)
            halves_sum = int("".join(w[:2]), 2) + int("".join(w[2:]), 2)
            if halves_sum == 3:
                assert abs(value - 1.0) <= 1e-9
            else:
                assert value < eps

    def test_length_2n_values_match_residue_oracle(self):
        # Exponent-arithmetic oracle: on a length-2N word over {0,1} the
        # hybrid must land exactly where the bare rotation automaton
        # lands after p - 2^N + 1 + x + y steps.
        n_param, eps, p = 2, 0.95, eg1_prime(2)
        m = build_eg1(n_param, eps, seed=0)
        core = build_af_modp(p, eps, seed=0)
        for w in words_up_to(("0", "1"), 2 * n_param):
            if len(w) != 2 * n_param:
                continue
            halves_sum = int("".join(w[:n_param]), 2) + int("".join(w[n_param:]), 2)
            steps = (p - 2**n_param + 1 + halves_sum) % p
            expected = mo_accept_prob(core, ("0",) * steps)
            assert abs(qfac_accept_prob(m, w) - expected) <= 1e-12

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            build_eg1(0, 0.5)


class TestZeroImbalanceFixture:
    def test_sizes(self):
        m = build_egadd(4, 0.98, seed=0)
        assert len(m.classical_states) == 4 + 2
        assert validate(m) == []

    def test_value_table(self):
        m = build_egadd(4, 0.98, seed=0)
        assert qfac_accept_prob(m, tuple("0011")) <= 1e-12
        assert qfac_accept_prob(m, tuple("0001")) > 0.02
        assert abs(qfac_accept_prob(m, tuple("01")) - 1.0) <= 1e-12
        assert qfac_accept_prob(m, tuple("00000")) == 0.0

    def test_length_n_values_match_residue_oracle(self):
        # Net rotation count is (zeros - N/2) * N; compare against the
        # bare rotation automaton stepped that far (mod p).
        n_param, eps, p = 4, 0.98, egadd_prime(4)
        m = build_egadd(n_param, eps, seed=0)
        core = build_af_modp(p, eps, seed=0, accept_multiples=False)
        for w in words_up_to(("0", "1"), n_param):
            if len(w) != n_param:
                continue
            steps = ((w.count("0") - n_param // 2) * n_param) % p
            expected = mo_accept_prob(core, ("0",) * steps)
            assert abs(qfac_accept_prob(m, w) - expected) <= 1e-12

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            build_egadd(3, 0.5)


class TestDecayFixture:
    def test_rate_interval_endpoints(self):
        # Endpoint oracle: 1 - lambda**(1/(N+1)) and 1 - lambda**(1/N).
        lo, hi = 0.20629947401590021, 0.29289321881345243
        assert abs(eg2_rate(2, 0.5) - (lo + hi) / 2) <= 1e-15

    def test_closed_form_small_horizon(self):
        m = build_eg2(2, 0.5)
        r = eg2_rate(2, 0.5)
        for w in words_up_to(("0", "1"), 8):
            zeros = sum(1 for c in w if c == "0")
            assert abs(mm_accept_prob(m, w) - (1 - r) ** zeros) <= 1e-12

    def test_cutpoint_bracketing(self):
        for n_param, lam in ((2, 0.5), (5, 0.5), (3, 0.25)):
            r = eg2_rate(n_param, lam)
            assert (1 - r) ** n_param > lam
            assert (1 - r) ** (n_param + 1) <= lam

    def test_zero_cutpoint_rejected(self):
        with pytest.raises(ValueError):
            build_eg2(2, 0.0)

    @pytest.mark.parametrize("n_param", [0, -1])
    def test_size_below_one_rejected(self, n_param):
        for build in (build_eg2, eg2_rate):
            with pytest.raises(ValueError, match="N must be at least 1"):
                build(n_param, 0.5)

    @pytest.mark.parametrize("n_param,lam", [(3, 1e-300), (1, 1e-300), (2, 1 - 1e-16), (10 ** 9, 0.5)])
    def test_cutpoint_no_rate_separates_rejected(self, n_param, lam):
        """Where the interval's ends round together, the midpoint would break
        (1-r)^N > lambda >= (1-r)^(N+1); at N = 3 and lambda = 1e-300 it was 1."""
        for build in (build_eg2, eg2_rate):
            with pytest.raises(ValueError, match=f"no decay rate separates {n_param} zeros"):
                build(n_param, lam)

    def test_stock_rates_unchanged(self):
        """The eg2 fixtures of the tests and the benchmark (N 1-5, lambda in
        [0.3, 0.7]) keep the interval's midpoint."""
        for n_param in range(1, 6):
            for lam in np.linspace(0.3, 0.7, 41):
                lam = float(lam)
                lo, hi = 1.0 - lam ** (1.0 / (n_param + 1)), 1.0 - lam ** (1.0 / n_param)
                assert eg2_rate(n_param, lam) == 0.5 * (lo + hi)


class TestSpecVariants:
    def test_halves_sum_variant_kills_symbol(self):
        m = build_eg1(2, 0.95, seed=0)
        variant = build_spec_variant(m, "s5")
        assert qfac_accept_prob(variant, ("2",)) == 0.0
        assert abs(qfac_accept_prob(variant, tuple("0110")) - 1.0) <= 1e-9
        assert qfac_accept_prob(variant, tuple("0121")) == 0.0

    def test_imbalance_variant_kills_symbol(self):
        m = build_egadd(4, 0.98, seed=0)
        variant = build_spec_variant(m, "s5")
        assert qfac_accept_prob(variant, tuple("0012")) == 0.0

    def test_dead_state_must_reject(self):
        m = build_eg1(2, 0.95, seed=0)
        with pytest.raises(ValueError):
            build_spec_variant(m, "s0")
        with pytest.raises(ValueError):
            build_spec_variant(m, "nope")
        # s5 rejects identically, but here 0 leads out of it.
        leaky = dataclasses.replace(m, transitions={**m.transitions, ("s5", "0"): "s0"})
        with pytest.raises(ValueError, match="does not absorb"):
            build_spec_variant(leaky, "s5")
        # Retargeting the symbol that led out of it leaves it absorbing.
        assert build_spec_variant(leaky, "s5", symbol="0").transitions[("s5", "0")] == "s5"

    def test_decay_variant_kills_ones(self):
        m = build_eg2(2, 0.5)
        spec = build_eg2_spec(m)
        assert validate(spec) == []
        assert mm_accept_prob(spec, ("1",)) == 0.0
        assert mm_accept_prob(spec, tuple("01")) == 0.0
        r = eg2_rate(2, 0.5)
        assert abs(mm_accept_prob(spec, tuple("00")) - (1 - r) ** 2) <= 1e-12


class TestMinimalDfa:
    def test_counter_automaton_counts(self):
        assert minimal_dfa_size(dfa_bounded_zeros(3)) == 5

    def test_already_minimal(self):
        for n_param in (2, 5):
            d = dfa_bounded_zeros(n_param)
            assert minimal_dfa_size(d) == len(d.states)

    def test_unreachable_states_trimmed(self):
        d = Dfa(
            states=("a", "b", "junk"),
            alphabet=("x",),
            transitions={("a", "x"): "b", ("b", "x"): "a", ("junk", "x"): "junk"},
            initial="a",
            accepting=frozenset({"a"}),
        )
        assert minimal_dfa_size(d) == 2

    def test_redundant_states_merge(self):
        # Two accepting sinks are indistinguishable.
        d = Dfa(
            states=("s", "t1", "t2"),
            alphabet=("x", "y"),
            transitions={
                ("s", "x"): "t1",
                ("s", "y"): "t2",
                ("t1", "x"): "t1",
                ("t1", "y"): "t1",
                ("t2", "x"): "t2",
                ("t2", "y"): "t2",
            },
            initial="s",
            accepting=frozenset({"t1", "t2"}),
        )
        assert minimal_dfa_size(d) == 2

    def test_halves_sum_tracking_counts(self):
        # Frozen from the partition-refinement oracle; the language's
        # class count dominates 2^N.
        assert minimal_dfa_size(dfa_halves_sum_tracking(2)) == 11
        assert minimal_dfa_size(dfa_halves_sum_tracking(3)) == 24

    def test_zero_imbalance_tracking_counts(self):
        # Frozen from the oracle: N^2/4 + 3N/2 + 1 exactly at these sizes.
        assert minimal_dfa_size(dfa_zero_imbalance_tracking(4)) == 11
        assert minimal_dfa_size(dfa_zero_imbalance_tracking(6)) == 19

    def test_tracking_languages_match_predicates(self):
        d = dfa_halves_sum_tracking(2)
        for w in words_up_to(("0", "1"), 6):
            if len(w) < 4:
                expected = True
            elif len(w) == 4:
                expected = int("".join(w[:2]), 2) + int("".join(w[2:]), 2) == 3
            else:
                expected = False
            assert dfa_accepts(d, w) == expected


class TestProbabilityReturn:
    def test_identity_returns_immediately(self):
        m = MoQfa(
            alphabet=("a",),
            unitaries={"a": np.eye(2, dtype=complex)},
            initial=np.array([1.0, 0.0], dtype=complex),
            accepting=Projector(frozenset({0}), 2),
            rejecting=Projector(frozenset({1}), 2),
        )
        assert fact2_witness(m, (), "a") == 1

    def test_rational_rotation_order(self):
        theta = 2 * math.pi * 3 / 7
        u = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
            dtype=complex,
        )
        m = MoQfa(
            alphabet=("a",),
            unitaries={"a": u},
            initial=np.array([1.0, 0.0], dtype=complex),
            accepting=Projector(frozenset({0}), 2),
            rejecting=Projector(frozenset({1}), 2),
        )
        assert fact2_witness(m, (), "a", tol=1e-12) == 7

    def test_mod_p_returns_at_p_from_accepted_prefixes(self):
        m = build_af_modp(11, 0.2, seed=0)
        for prefix_len in (0, 11):
            assert fact2_witness(m, ("0",) * prefix_len, "0", tol=1e-12) == 11

    def test_mod_p_full_period_returns_for_every_prefix(self):
        # k = p restores the operator, hence the probability, from any prefix.
        m = build_af_modp(11, 0.2, seed=0)
        for prefix_len in range(11):
            s = ("0",) * prefix_len
            gap = abs(mo_accept_prob(m, s + ("0",) * 11) - mo_accept_prob(m, s))
            assert gap <= 1e-12

    def test_mod_p_mirror_return_comes_earlier(self):
        # Acceptance on 0^t is an even function of the residue, so from
        # residue t0 != 0 the probability already returns at p - 2*t0.
        m = build_af_modp(11, 0.2, seed=0)
        assert fact2_witness(m, ("0",), "0", tol=1e-12) == 9
        assert fact2_witness(m, ("0",) * 4, "0", tol=1e-12) == 3

    def test_cap_reported(self):
        theta = 2 * math.pi * 3 / 7
        u = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
            dtype=complex,
        )
        m = MoQfa(
            alphabet=("a",),
            unitaries={"a": u},
            initial=np.array([1.0, 0.0], dtype=complex),
            accepting=Projector(frozenset({0}), 2),
            rejecting=Projector(frozenset({1}), 2),
        )
        with pytest.raises(FixtureSearchError):
            fact2_witness(m, (), "a", tol=1e-12, cap=5)
