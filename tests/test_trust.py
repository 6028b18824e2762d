"""Reputation update rules and the on-chain fold.

The update functions are checked against hand-evaluated values, closed-form
fixed points, and the dual-path oracle: folding feedback incrementally must
match a from-scratch replay of the same chain, bit for bit.
"""

import pytest
from hypothesis import given, settings, strategies as hst

from ctsim.crypto import DetRng, generate_keypair, resource_address
from ctsim.fixedpoint import ONE, fp_from, to_float
from ctsim.ledger import (
    AccessToken, FeedbackData, Journal, RegisterData, build_feedback_tx,
    build_register_tx, build_token_tx, make_genesis,
)
from ctsim.trust import (
    BOOTSTRAP_TRUST, CredLabel, INITIAL_AUTH, INITIAL_CRED, INITIAL_SAT,
    SatLabel, TrustState, auth_curr_from_feedback, auth_update, bucketize,
    cred_update, fold_block, is_cred_label, overall_trust, sat_update,
)

from conftest import trust_fingerprint

fp = fp_from


def _addr(tag: str) -> bytes:
    return DetRng(17, tag.encode()).take(20)


def _state() -> TrustState:
    return TrustState(Journal())


# ---------------------------------------------------------------------------
# Buckets
# ---------------------------------------------------------------------------

def test_credibility_bucket_midpoints():
    want = {CredLabel.VERY_BAD: "0.10", CredLabel.BAD: "0.30",
            CredLabel.MEDIUM: "0.50", CredLabel.GOOD: "0.70",
            CredLabel.EXCELLENT: "0.90"}
    for label, text in want.items():
        assert bucketize(label) == fp(text)


def test_satisfaction_bucket_midpoints():
    want = {SatLabel.FULLY_DISSATISFIED: "0.10", SatLabel.DISSATISFIED: "0.325",
            SatLabel.PARTIALLY_SATISFIED: "0.525", SatLabel.SATISFIED: "0.70",
            SatLabel.FULLY_SATISFIED: "0.90"}
    for label, text in want.items():
        assert bucketize(label) == fp(text)


def test_bucket_midpoints_inside_their_ranges():
    cred_bounds = [(0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)]
    for label, (lo, hi) in zip(CredLabel, cred_bounds):
        assert lo < to_float(bucketize(label)) <= hi
    sat_bounds = [(0, 0.2), (0.2, 0.45), (0.45, 0.6), (0.6, 0.8), (0.8, 1.0)]
    for label, (lo, hi) in zip(SatLabel, sat_bounds):
        assert lo < to_float(bucketize(label)) <= hi


def test_label_scale_split():
    assert all(is_cred_label(int(l)) for l in CredLabel)
    assert not any(is_cred_label(int(l)) for l in SatLabel)


# ---------------------------------------------------------------------------
# Update rules: hand-worked values
# ---------------------------------------------------------------------------

def test_cred_update_hand_values():
    assert cred_update(fp(1), fp(1), fp("0.9")) == fp("0.95")
    # a zero-trust rater can only halve what's there
    for curr in (0, fp("0.5"), fp(1)):
        assert cred_update(fp("0.8"), 0, curr) == fp("0.4")


def test_auth_update_hand_values():
    assert auth_update(0, fp("0.9")) == fp("0.45")
    assert auth_update(fp("0.6"), fp("0.6")) == fp("0.6")   # fixed point


def test_auth_curr_is_identity():
    assert auth_curr_from_feedback(fp("0.9")) == fp("0.9")
    assert auth_curr_from_feedback(0) == 0
    assert auth_curr_from_feedback(bucketize(CredLabel.MEDIUM)) == fp("0.5")


def test_sat_update_hand_values():
    assert sat_update(fp("0.7"), fp("0.5"), fp("0.9")) == fp("0.8")
    assert sat_update(fp("0.7"), fp(1), fp("0.9")) == fp("0.9")
    assert sat_update(fp("0.7"), 0, fp("0.9")) == fp("0.7")


def test_overall_trust_hand_values():
    assert overall_trust(fp("0.6"), fp("0.8"), fp("0.5"),
                         fp("0.5")) == fp("0.7")
    assert overall_trust(fp("0.4"), fp("0.8"), fp("0.25"),
                         fp("0.75")) == fp("0.7")
    assert overall_trust(fp("0.33"), fp("0.91"), fp("0.6"), 0) == fp("0.33")


def test_fixed_point_convergence():
    # cred: c <- (T*x + c)/2 converges to T*x
    t, x = fp("0.8"), fp("0.7")
    c = INITIAL_CRED
    for _ in range(50):
        c = cred_update(c, t, x)
    assert abs(c - fp("0.56")) <= 1
    # auth: a <- (x + a)/2 converges to x
    a = INITIAL_AUTH
    for _ in range(50):
        a = auth_update(a, fp("0.9"))
    assert abs(a - fp("0.9")) <= 1
    # sat with constant credibility walks to sat_curr geometrically
    s = INITIAL_SAT
    for _ in range(50):
        s = sat_update(s, fp("0.5"), fp("0.6"))
    assert abs(s - fp("0.6")) <= 1


def test_update_closure_fuzz():
    rng = DetRng(23, b"closure")
    for _ in range(3000):
        a, b, c = (rng.randbelow(ONE + 1) for _ in range(3))
        assert 0 <= cred_update(a, b, c) <= ONE
        assert 0 <= auth_update(a, b) <= ONE
        assert 0 <= sat_update(a, b, c) <= ONE
        if b + c > 0:
            assert 0 <= overall_trust(a, ONE - a, b, c) <= ONE


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def test_aggregate_means_and_initials():
    st = _state()
    u, f1, f2, home = _addr("u"), _addr("f1"), _addr("f2"), _addr("h")
    assert st.cred_user(u) == INITIAL_CRED == ONE
    assert st.auth_score(home) == INITIAL_AUTH == 0
    assert st.sat_score(f1) == INITIAL_SAT == 0

    st.put(st.cred, st.cred_sum, (f1, u), fp(1))
    st.put(st.cred, st.cred_sum, (f2, u), fp("0.6"))
    assert st.cred_user(u) == fp("0.8")

    st.put(st.auth, st.auth_sum, (f1, home), fp("0.9"))
    st.put(st.auth, st.auth_sum, (f2, home), fp("0.5"))
    assert st.auth_score(home) == fp("0.7")

    st.put(st.sat, st.sat_sum, (home, f1), fp("0.9"))
    st.put(st.sat, st.sat_sum, (_addr("h2"), f1), fp("0.3"))
    assert st.sat_score(f1) == fp("0.6")

    # aggregates filter on the subject side, not the rater side
    assert st.cred_user(_addr("other")) == ONE
    assert st.auth_score(f1) == 0
    assert st.sat_score(home) == 0


def test_global_weights():
    st = _state()
    with pytest.raises(ValueError):
        st.global_weights()
    st.register(_addr("a"), fp(1), 0)
    assert st.global_weights() == (fp(1), 0)
    st.register(_addr("b"), 0, fp(1))
    assert st.global_weights() == (fp("0.5"), fp("0.5"))
    st.register(_addr("c"), fp("0.5"), fp("0.5"))
    assert st.global_weights() == (fp("0.5"), fp("0.5"))


def test_trust_of_uses_global_weights():
    st = _state()
    st.register(_addr("a"), fp("0.25"), fp("0.75"))
    csp = _addr("a")
    st.put(st.sat, st.sat_sum, (_addr("h"), csp), fp("0.4"))
    st.put(st.auth, st.auth_sum, (_addr("f"), csp), fp("0.8"))
    assert st.trust_of(csp) == fp("0.7")
    # rewriting a pair moves its subject's sum, not its count
    st.put(st.auth, st.auth_sum, (_addr("f"), csp), fp("0.4"))
    assert st.auth_score(csp) == fp("0.4")
    st.apply_feedback(_addr("x"), _addr("y"), _addr("u"), 9)  # unrelated
    assert st.trust_of(csp) == overall_trust(
        st.sat_score(csp), st.auth_score(csp), fp("0.25"), fp("0.75"))


def test_has_history():
    st = _state()
    csp, other = _addr("csp"), _addr("other")
    assert not st.has_history(csp)
    st.put(st.auth, st.auth_sum, (_addr("f"), csp), fp("0.5"))
    assert st.has_history(csp)
    st2 = _state()
    st2.put(st2.sat, st2.sat_sum, (_addr("h"), other), fp("0.5"))
    assert st2.has_history(other)
    assert not st2.has_history(csp)


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------

def _fb(rater, subject, user, label):
    """apply_feedback's inputs, as fold_block derives them from a tx."""
    return rater, subject, user, int(label)


def test_cred_feedback_updates_cred_and_auth_together():
    st = _state()
    home, foreign, user = _addr("H"), _addr("F"), _addr("u")
    st.register(home, fp("0.5"), fp("0.5"))
    st.register(foreign, fp("0.5"), fp("0.5"))
    st.apply_feedback(*_fb(foreign, home, user, CredLabel.GOOD))
    # trust of the rating provider starts at 0 (no history), so the
    # user's credibility halves; the home side absorbs the bucket value
    assert st.cred[(foreign, user)] == cred_update(ONE, 0, fp("0.7"))
    assert st.auth[(foreign, home)] == auth_update(0, fp("0.7"))


def test_sat_feedback_weighted_by_user_credibility():
    st = _state()
    home, foreign, user = _addr("H"), _addr("F"), _addr("u")
    st.register(home, fp("0.5"), fp("0.5"))
    st.register(foreign, fp("0.5"), fp("0.5"))
    st.apply_feedback(*_fb(home, foreign, user, SatLabel.FULLY_SATISFIED))
    # nobody rated the user yet, so credibility sits at the initial 1.0
    # and the rating lands in full
    assert st.sat[(home, foreign)] == fp("0.9")


def test_fold_order_cred_before_sat_matters():
    home, foreign, user = _addr("H"), _addr("F"), _addr("u")

    def build(order):
        st = _state()
        st.register(home, fp("0.5"), fp("0.5"))
        st.register(foreign, fp("0.5"), fp("0.5"))
        for fb in order:
            st.apply_feedback(*fb)
        return st

    cred_fb = _fb(foreign, home, user, CredLabel.VERY_BAD)
    sat_fb = _fb(home, foreign, user, SatLabel.FULLY_SATISFIED)
    a = build([cred_fb, sat_fb])
    b = build([sat_fb, cred_fb])
    assert a.sat[(home, foreign)] != b.sat[(home, foreign)]
    assert trust_fingerprint(a) != trust_fingerprint(b)


def _tables(st):
    return [list(t.items())
            for t in (st.cred, st.auth, st.sat, st.declared,
                      st.cred_sum, st.auth_sum, st.sat_sum)]


def test_undo_and_fingerprint_equality():
    def build(journal):
        st = TrustState(journal)
        st.register(_addr("a"), fp("0.6"), fp("0.4"))
        st.apply_feedback(*_fb(_addr("F"), _addr("H"), _addr("u"),
                              CredLabel.BAD))
        return st

    journal = Journal()
    st, ref = build(journal), build(Journal())
    assert trust_fingerprint(st) == trust_fingerprint(ref)
    trust_before = st.trust_of(_addr("H"))
    mark = journal.mark()
    # rewrites existing keys and adds new ones in every table
    st.apply_feedback(*_fb(_addr("F"), _addr("H"), _addr("u"),
                          CredLabel.EXCELLENT))
    st.apply_feedback(*_fb(_addr("G"), _addr("H"), _addr("v"), CredLabel.GOOD))
    st.apply_feedback(*_fb(_addr("H"), _addr("F"), _addr("u"),
                          SatLabel.SATISFIED))
    st.register(_addr("b"), fp("0.5"), fp("0.5"))
    assert trust_fingerprint(st) != trust_fingerprint(ref)
    assert st.trust_of(_addr("H")) != trust_before
    journal.undo(mark)
    assert trust_fingerprint(st) == trust_fingerprint(ref)
    assert _tables(st) == _tables(ref)                 # sums came back too
    assert st.trust_of(_addr("H")) == trust_before
    journal.undo(mark)                                 # nothing left to undo
    assert trust_fingerprint(st) == trust_fingerprint(ref)


_CSPS = [_addr(f"csp{i}") for i in range(4)]
_USERS = [_addr(f"user{i}") for i in range(3)]

_TRUST_OPS = hst.lists(hst.one_of(
    hst.tuples(hst.just("register"), hst.integers(0, 3),
               hst.sampled_from([0, ONE // 4, ONE // 2, ONE])),
    hst.tuples(hst.just("feedback"), hst.integers(0, 3), hst.integers(0, 3),
               hst.integers(0, 2), hst.integers(0, 9)),
    hst.tuples(hst.just("mark")),
    hst.tuples(hst.just("undo"), hst.integers(0, 1 << 16))), max_size=60)


def _scan_mean(table, subject, initial):
    """The reference aggregate: mean over every pair naming the subject."""
    vals = [v for (_, s), v in table.items() if s == subject]
    return sum(vals) // len(vals) if vals else initial


def _check_against_scan(st):
    for user in _USERS:
        assert st.cred_user(user) == _scan_mean(st.cred, user, INITIAL_CRED)
    w_sat, w_auth = st.global_weights()
    for csp in _CSPS:
        auth = _scan_mean(st.auth, csp, INITIAL_AUTH)
        sat = _scan_mean(st.sat, csp, INITIAL_SAT)
        assert st.auth_score(csp) == auth
        assert st.sat_score(csp) == sat
        assert st.has_history(csp) == (
            any(s == csp for _, s in st.auth) or any(s == csp for _, s in st.sat))
        assert st.trust_of(csp) == overall_trust(sat, auth, w_sat, w_auth)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_TRUST_OPS)
def test_running_means_equal_a_scan_under_register_feedback_and_undo(ops):
    journal = Journal()
    st = TrustState(journal)
    st.register(_CSPS[0], ONE // 2, ONE // 2)
    marks = [(journal.mark(), _tables(st))]
    for op in ops:
        if op[0] == "register":
            st.register(_CSPS[op[1]], op[2], ONE - op[2])
        elif op[0] == "feedback":
            _, rater, subject, user, label = op
            st.apply_feedback(*_fb(_CSPS[rater], _CSPS[subject], _USERS[user],
                                  label))
        elif op[0] == "mark":
            marks.append((journal.mark(), _tables(st)))
        else:
            # undo to an earlier mark; the marks after it are spent
            n = op[1] % len(marks)
            del marks[n + 1:]
            mark, before = marks[n]
            journal.undo(mark)
            assert _tables(st) == before
        _check_against_scan(st)


# ---------------------------------------------------------------------------
# Chain replay
# ---------------------------------------------------------------------------

def _bare_block(chain, txs):
    from ctsim.ledger import Block, BlockHeader, compute_tx_root
    txs = tuple(txs)
    header = BlockHeader(
        height=chain.height + 1, prev_block=chain.tip.h_blk,
        tx_root=compute_tx_root(txs),
        timestamp=chain.tip.header.timestamp + 300,
        generator_pub=b"\x02" * 33, prf=b"\x01" * 32,
        base_target=chain.params.base_target, sig=b"\x00" * 64)
    return Block(header, txs)


def test_replay_matches_incremental_fold():
    from ctsim.ledger import Chain

    home = generate_keypair(DetRng(71, b"H").take(32))
    foreign = generate_keypair(DetRng(71, b"F").take(32))
    user = generate_keypair(DetRng(71, b"u").take(32))
    regs = [build_register_tx(k, RegisterData(fp("0.5"), fp("0.5"),
                                              fp("0.5")))
            for k in (home, foreign)]
    genesis = make_genesis(regs, fp("0.1"))
    chain = Chain(genesis)

    token = AccessToken(user.address, home.address, foreign.address,
                        resource_address("vm"), (b"access",), 300, 3300, 1)
    token_tx = build_token_tx(home, b"profile", foreign.pub_bytes, token,
                              DetRng(72))
    fb1 = build_feedback_tx(foreign, FeedbackData(token.token_id,
                                                  int(CredLabel.GOOD)))
    fb2 = build_feedback_tx(home, FeedbackData(token.token_id,
                                               int(SatLabel.SATISFIED)))

    incremental = _state()
    fold_block(incremental, chain, genesis)
    for txs in ([token_tx], [fb1, fb2]):
        blk = _bare_block(chain, txs)
        chain.apply_block(blk)
        fold_block(incremental, chain, blk)

    replayed = _state()
    for blk in chain.blocks:
        fold_block(replayed, chain, blk)
    assert trust_fingerprint(replayed) == trust_fingerprint(incremental)
    # the rating provider had no history, so its trust was 0 at fold time
    assert incremental.cred[(foreign.address, user.address)] \
        == cred_update(ONE, 0, fp("0.7"))


def test_bootstrap_constant():
    assert BOOTSTRAP_TRUST == ONE // 2
