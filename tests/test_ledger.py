"""Transaction and block encoding, validation reasons, and file framing.

Chain.apply_block only enforces transaction-level rules, so blocks here
carry throwaway headers; every header check, linkage and tx_root
included, is consensus.validate_block's and is tested with it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ctsim import ledger
from ctsim.crypto import DetRng, ZERO_DIGEST, generate_keypair, resource_address
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import (
    AccessToken, Block, BlockHeader, Chain, FeedbackData, LedgerError,
    RegisterData, TokenData, TxKind, block_from_wire,
    build_feedback_tx, build_register_tx, build_token_tx,
    ConsensusParams, LEDGER_MAGIC, canonical_serialize, check_genesis_shape,
    compute_tx_root, genesis_params, make_genesis,
    make_transaction, parse_feedback, parse_register, parse_token_data,
    read_ledger, ser_block, ser_feedback, ser_register, ser_token,
    ser_token_data, tx_from_wire, tx_to_wire, write_ledger,
)
from ctsim.replica import replay_blocks
from ctsim.trust import TrustState, fold_block

from conftest import chain_state

HOME = generate_keypair(DetRng(601, b"home").take(32))
FOREIGN = generate_keypair(DetRng(601, b"foreign").take(32))
OUTSIDER = generate_keypair(DetRng(601, b"outsider").take(32))
USER = generate_keypair(DetRng(601, b"user").take(32))
RESOURCE = resource_address("vm-small")


def _reg(key, stake="0.5"):
    return build_register_tx(
        key, RegisterData(fp_from("0.5"), fp_from("0.5"), fp_from(stake)))


def fresh_chain() -> Chain:
    genesis = make_genesis([_reg(HOME), _reg(FOREIGN)], fp_from("0.1"))
    return Chain(genesis)


def make_token(nonce=1, resource=RESOURCE, issued=300, expires=3300,
               issuer=None, audience=None):
    return AccessToken(
        pseudonym=USER.address,
        issuer=HOME.address if issuer is None else issuer,
        audience=FOREIGN.address if audience is None else audience,
        resource=resource, privileges=(b"access",),
        issued_at=issued, expires_at=expires, nonce=nonce)


def make_token_tx(token=None):
    return build_token_tx(HOME, b"profile-bytes", FOREIGN.pub_bytes,
                          token or make_token(), DetRng(77, b"ec"))


def token_payload_tx(token, key=HOME, tail=b""):
    """A TOKEN tx signed by key, carrying token with a profile encrypted
    for FOREIGN, then tail."""
    enc = make_token_tx().data.enc_user
    return make_transaction(TxKind.TOKEN,
                            ser_token_data(TokenData(token, enc)) + tail, key)


def bare_block(chain: Chain, txs) -> Block:
    txs = tuple(txs)
    header = BlockHeader(
        height=chain.height + 1, prev_block=chain.tip.h_blk,
        tx_root=compute_tx_root(txs),
        timestamp=chain.tip.header.timestamp + 300,
        generator_pub=HOME.pub_bytes, prf=b"\x01" * 32,
        base_target=chain.params.base_target, sig=b"\x00" * 64)
    return Block(header, txs)


# ---------------------------------------------------------------------------
# Wire round trips
# ---------------------------------------------------------------------------

def test_tx_wire_round_trip_all_kinds():
    chainless = [
        _reg(HOME),
        make_token_tx(),
        build_feedback_tx(FOREIGN, FeedbackData(make_token().token_id, 3)),
    ]
    for tx in chainless:
        again = tx_from_wire(tx_to_wire(tx))
        assert again == tx
        assert again.txid == tx.txid


def test_txid_covers_everything_but_sig():
    tx = _reg(HOME)
    resigned = tx._replace(sig=b"\x11" * 64)
    assert canonical_serialize(resigned) == canonical_serialize(tx)
    for tampered in (tx._replace(kind=TxKind.FEEDBACK),
                     tx._replace(payload=tx.payload + b"\x01"),
                     tx._replace(sender_pub=OUTSIDER.pub_bytes)):
        assert canonical_serialize(tampered) != canonical_serialize(tx)


def test_token_id_is_content_addressed():
    assert make_token().token_id == make_token().token_id
    assert make_token(nonce=2).token_id != make_token().token_id
    assert len(ser_token(make_token())) > 0


def test_block_wire_round_trip():
    chain = fresh_chain()
    blk = bare_block(chain, [make_token_tx()])
    assert block_from_wire(ser_block(blk)) == blk


def test_tx_wire_rejects_trailing_and_unknown_kind():
    wire = tx_to_wire(_reg(HOME))
    with pytest.raises(LedgerError):
        tx_from_wire(wire + b"\x00")
    bad_kind = wire[:32] + b"\x09" + wire[33:]
    with pytest.raises(LedgerError):
        tx_from_wire(bad_kind)


def test_register_payload_takes_one_optional_pin_byte():
    plain = RegisterData(fp_from("0.5"), fp_from("0.4"), fp_from("0.3"))
    pinned = plain._replace(pinned=True)
    assert len(ser_register(plain)) == 24
    assert ser_register(pinned) == ser_register(plain) + b"\x01"
    for reg in (plain, pinned):
        payload = ser_register(reg)
        assert parse_register(payload) == reg
        assert ser_register(parse_register(payload)) == payload
    for tail in (b"\x00", b"\x02", b"\x01\x01", b"\x01\x00"):
        with pytest.raises(LedgerError) as err:
            parse_register(ser_register(plain) + tail)
        assert (err.value.reason, err.value.detail) \
            == ("BAD_ENCODING", "trailing registration bytes")
    with pytest.raises(LedgerError) as err:
        parse_register(ser_register(plain)[:-1])
    assert err.value.reason == "BAD_ENCODING"
    # a chain refuses the malformed payload as it would any other
    bad = make_transaction(TxKind.REGISTER, ser_register(plain) + b"\x02",
                           OUTSIDER)
    assert fresh_chain().validate_tx(bad) == "BAD_ENCODING"


def _payload_fault(tx) -> str:
    """The detail of the BAD_ENCODING that parsing tx's payload raises,
    after checking that validate_tx refuses tx as BAD_ENCODING too."""
    assert fresh_chain().validate_tx(tx) == "BAD_ENCODING"
    with pytest.raises(LedgerError) as err:
        tx.data
    assert err.value.reason == "BAD_ENCODING"
    return err.value.detail


def test_privilege_count_cap():
    token = make_token()._replace(privileges=tuple(
        b"p%d" % i for i in range(65)))
    assert _payload_fault(token_payload_tx(token)) == "privilege count"


def test_privilege_length_cap():
    at_cap = make_token()._replace(privileges=(b"p" * 4096,))
    assert fresh_chain().validate_tx(token_payload_tx(at_cap)) is None
    over = make_token()._replace(privileges=(b"p" * 4097,))
    assert _payload_fault(token_payload_tx(over)) == "privilege length"


def test_payload_length_cap():
    # a profile ciphertext that fills a TOKEN payload to the cap parses;
    # one byte more is what no ledger file carries, so validate_tx
    # refuses it as tx_from_wire does
    enc = make_token_tx().data.enc_user
    empty = ser_token_data(TokenData(make_token(), enc._replace(body=b"")))

    def sized(n):
        body = b"\x00" * (n - len(empty))
        return make_transaction(TxKind.TOKEN, ser_token_data(
            TokenData(make_token(), enc._replace(body=body))), HOME)

    at_cap = sized(ledger.MAX_PAYLOAD_LEN)
    assert len(at_cap.payload) == ledger.MAX_PAYLOAD_LEN
    assert fresh_chain().validate_tx(at_cap) is None
    over = sized(ledger.MAX_PAYLOAD_LEN + 1)
    assert _payload_fault(over) == "payload length"
    with pytest.raises(LedgerError, match="payload length"):
        tx_from_wire(tx_to_wire(over))


def test_token_payload_is_parsed_strictly():
    tx = make_token_tx()
    assert tx.data == parse_token_data(tx.payload)
    assert ser_token_data(tx.data) == tx.payload
    assert tx.data.token == make_token()
    extra = token_payload_tx(make_token(), tail=b"\x00")
    assert _payload_fault(extra) == "trailing token bytes"
    for cut in (0, len(ser_token(make_token())), len(tx.payload) - 1):
        short = make_transaction(TxKind.TOKEN, tx.payload[:cut], HOME)
        assert _payload_fault(short) == "truncated field"
    # a ciphertext length running past the payload is a truncation too
    at = len(ser_token(make_token())) + 33 + 12
    inflated = bytearray(tx.payload)
    inflated[at:at + 4] = (len(tx.payload)).to_bytes(4, "big")
    inflated_tx = make_transaction(TxKind.TOKEN, bytes(inflated), HOME)
    assert _payload_fault(inflated_tx) == "truncated field"


def test_feedback_payload_is_parsed_strictly():
    fb = FeedbackData(make_token().token_id, 3)
    assert ser_feedback(fb) == fb.token_id + b"\x03"     # 33 bytes
    assert parse_feedback(ser_feedback(fb)) == fb
    extra = make_transaction(TxKind.FEEDBACK, ser_feedback(fb) + b"\x00",
                             FOREIGN)                      # 34 bytes
    assert _payload_fault(extra) == "trailing feedback bytes"
    short = make_transaction(TxKind.FEEDBACK, ser_feedback(fb)[:-1], FOREIGN)
    assert _payload_fault(short) == "truncated field"       # 32 bytes
    # the 93-byte payload of the previous format: rater, subject, user,
    # label and token id
    previous = make_transaction(TxKind.FEEDBACK, b"".join([
        FOREIGN.address, HOME.address, USER.address, b"\x03", fb.token_id]),
        FOREIGN)
    assert _payload_fault(previous) == "trailing feedback bytes"


# ---------------------------------------------------------------------------
# Genesis
# ---------------------------------------------------------------------------

def test_genesis_shape_and_parameter_packing():
    genesis = make_genesis([_reg(HOME)], fp_from("0.2"),
                           block_interval_ms=200, slot_ms=50, k_bits=128,
                           time_cap_intervals=32)
    assert genesis.height == 0
    assert genesis.header.prev_block == ZERO_DIGEST
    assert genesis.header.timestamp == 0
    assert genesis.header.sig == b"\x00" * 64
    params = ConsensusParams(fp_from("0.2"), k_bits=128, block_interval_ms=200,
                             slot_ms=50, time_cap_intervals=32)
    assert genesis_params(genesis.header) == params
    assert check_genesis_shape(genesis) == params
    assert Chain(genesis).params == params


def _shape_reason(genesis) -> str:
    with pytest.raises(LedgerError) as err:
        check_genesis_shape(genesis)
    return err.value.reason


def test_genesis_tampering_detected():
    genesis = make_genesis([_reg(HOME)], fp_from("0.2"))
    cases = [
        (genesis._replace(header=genesis.header._replace(timestamp=5)),
         "TIMESTAMP"),
        (genesis._replace(header=genesis.header._replace(sig=b"\x01" * 64)),
         "BAD_SIGNATURE"),
        (genesis._replace(header=genesis.header._replace(prf=b"\x01" * 32)),
         "PRF_MISMATCH"),
        (genesis._replace(header=genesis.header._replace(height=1)),
         "BAD_LINK"),
        (genesis._replace(txs=()), "BAD_TX_ROOT"),
    ]
    for bad, reason in cases:
        assert _shape_reason(bad) == reason
    with pytest.raises(LedgerError):
        Chain(cases[0][0])


def _genesis_failure(txs) -> LedgerError:
    with pytest.raises(LedgerError) as caught:
        replay_blocks([make_genesis(txs, fp_from("0.2"))])
    assert caught.value.height == 0
    return caught.value


def test_replay_of_no_blocks_fails_at_height_0():
    with pytest.raises(LedgerError) as caught:
        replay_blocks([])
    got = caught.value
    assert (got.height, got.txid, got.reason) == (0, None, "BAD_ENCODING")


def test_genesis_registration_carrying_token_parts_fails_verify():
    # the rule validate_tx applies in every later block holds at height 0
    payload = ser_register(RegisterData(ONE, ONE, ONE))
    with_token = make_transaction(TxKind.REGISTER,
                                  payload + make_token_tx().payload, OUTSIDER)
    as_token = make_transaction(TxKind.REGISTER, make_token_tx().payload,
                                OUTSIDER)
    for bad in (with_token, as_token):
        err = _genesis_failure([_reg(HOME), bad])
        assert (err.txid, err.reason) == (bad.txid, "BAD_ENCODING")


def test_genesis_registrations_get_block_tx_reasons():
    empty = make_genesis([], fp_from("0.2"))
    assert _shape_reason(empty) == "BAD_ENCODING"
    twin = _reg(HOME)
    err = _genesis_failure([_reg(HOME), twin])
    assert (err.txid, err.reason) == (twin.txid, "DUPLICATE_TX")
    garbled = make_transaction(TxKind.REGISTER, b"junk", HOME)
    err = _genesis_failure([_reg(HOME), garbled])
    assert (err.txid, err.reason) == (garbled.txid, "BAD_ENCODING")
    again = _reg(HOME, stake="0.4")
    err = _genesis_failure([_reg(HOME), again])
    assert (err.txid, err.reason) == (again.txid, "DUPLICATE_CSP")
    idle = build_register_tx(OUTSIDER, RegisterData(0, 0, ONE))
    err = _genesis_failure([idle])
    assert (err.txid, err.reason) == (idle.txid, "WEIGHT_ZERO")


def test_genesis_params_reject_nonsense():
    good = make_genesis([_reg(HOME)], fp_from("0.2")).header
    assert genesis_params(good) == ConsensusParams(fp_from("0.2"))
    assert genesis_params(good._replace(generator_pub=b"\x02" * 33)) is None
    assert genesis_params(good._replace(generator_pub=b"")) is None
    for packed in ((300, 0, 64, 64), (300, 100, 64, 0)):  # zero slot, cap
        pub = ledger.pack_genesis_pub(*packed)
        assert genesis_params(good._replace(generator_pub=pub)) is None


# ---------------------------------------------------------------------------
# Transaction validation reasons
# ---------------------------------------------------------------------------

def test_register_validation_reasons():
    chain = fresh_chain()
    ok = _reg(OUTSIDER)
    assert chain.validate_tx(ok) is None
    # identical bytes to the genesis registration are caught even earlier
    assert chain.validate_tx(_reg(HOME)) == "DUPLICATE_TX"
    assert chain.validate_tx(_reg(HOME, stake="0.4")) == "DUPLICATE_CSP"

    def reg_with(w_sat, w_auth, stake):
        return build_register_tx(OUTSIDER, RegisterData(w_sat, w_auth, stake))
    assert chain.validate_tx(reg_with(2 * ONE, 0, ONE)) == "WEIGHT_RANGE"
    assert chain.validate_tx(reg_with(0, 0, ONE)) == "WEIGHT_ZERO"
    assert chain.validate_tx(reg_with(ONE, ONE, 2 * ONE)) == "STAKE_RANGE"
    # another kind's payload is no registration
    as_token = make_transaction(TxKind.REGISTER, make_token_tx().payload,
                                OUTSIDER)
    assert chain.validate_tx(as_token) == "BAD_ENCODING"


def test_txid_and_signature_validation():
    chain = fresh_chain()
    tx = _reg(OUTSIDER)
    assert chain.validate_tx(tx._replace(txid=b"\x00" * 32)) == "BAD_TXID"
    assert chain.validate_tx(tx._replace(sig=b"\x00" * 64)) == "BAD_SIGNATURE"
    other_sig = build_register_tx(OUTSIDER, RegisterData(ONE, ONE, 0)).sig
    assert chain.validate_tx(tx._replace(sig=other_sig)) == "BAD_SIGNATURE"


def test_token_validation_reasons():
    chain = fresh_chain()
    good = make_token_tx()
    assert chain.validate_tx(good) is None

    unknown = token_payload_tx(make_token(issuer=OUTSIDER.address), OUTSIDER)
    assert chain.validate_tx(unknown) == "UNKNOWN_ISSUER"

    # a registered sender signing a token another provider issued
    forged = token_payload_tx(make_token(issuer=FOREIGN.address), HOME)
    assert chain.validate_tx(forged) == "TOKEN_SHAPE"

    dead = token_payload_tx(make_token(issued=300, expires=300))
    assert chain.validate_tx(dead) == "EXPIRY"


def test_token_uniqueness_rules():
    chain = fresh_chain()
    first = make_token_tx()
    chain.apply_block(bare_block(chain, [first]))

    # a double issuer's replay: the same token and profile in a fresh tx,
    # whose new ephemeral key gives it a new txid
    replayed = build_token_tx(HOME, b"profile-bytes", FOREIGN.pub_bytes,
                              make_token(), DetRng(78, b"ec2"))
    assert replayed.data.token == first.data.token
    assert replayed.data.enc_user.ephemeral_pub \
        != first.data.enc_user.ephemeral_pub
    assert replayed.txid != first.txid
    assert chain.validate_tx(replayed) == "DUPLICATE_TOKEN"

    nonce_clash = build_token_tx(
        HOME, b"p", FOREIGN.pub_bytes,
        make_token(nonce=1, resource=resource_address("queue")),
        DetRng(79, b"ec3"))
    assert chain.validate_tx(nonce_clash) == "DUPLICATE_NONCE"

    fresh = build_token_tx(HOME, b"p", FOREIGN.pub_bytes, make_token(nonce=2),
                           DetRng(80, b"ec4"))
    assert chain.validate_tx(fresh) is None


def test_feedback_validation_reasons():
    chain = fresh_chain()
    token_tx = make_token_tx()
    token = token_tx.data.token
    # OUTSIDER registers: a provider that is neither the token's issuer
    # (HOME) nor its audience (FOREIGN)
    chain.apply_block(bare_block(chain, [_reg(OUTSIDER), token_tx]))

    def fb_tx(key, label, token_id=token.token_id):
        return make_transaction(TxKind.FEEDBACK,
                                ser_feedback(FeedbackData(token_id, label)),
                                key)

    assert chain.validate_tx(fb_tx(FOREIGN, 3)) is None
    assert chain.validate_tx(fb_tx(HOME, 7)) is None

    assert chain.validate_tx(fb_tx(USER, 3)) == "UNKNOWN_RATER"
    assert chain.validate_tx(fb_tx(FOREIGN, 10)) == "LABEL_RANGE"
    assert chain.validate_tx(fb_tx(FOREIGN, 3, b"\x0a" * 32)) \
        == "UNKNOWN_TOKEN"
    # credibility ratings come from the serving side (the audience) only
    assert chain.validate_tx(fb_tx(HOME, 3)) == "NOT_PARTICIPANT"
    # satisfaction relays come from the home side (the issuer) only
    assert chain.validate_tx(fb_tx(FOREIGN, 7)) == "NOT_PARTICIPANT"
    # a registered provider the token does not name rates on neither scale
    assert chain.validate_tx(fb_tx(OUTSIDER, 3)) == "NOT_PARTICIPANT"
    assert chain.validate_tx(fb_tx(OUTSIDER, 7)) == "NOT_PARTICIPANT"

    chain.apply_block(bare_block(chain, [fb_tx(FOREIGN, 3)]))
    # with no sender history in a tx, the same rating is the same bytes
    assert chain.validate_tx(fb_tx(FOREIGN, 3)) == "DUPLICATE_TX"
    # one rating per (token, sender): the audience has rated this token,
    # and the issuer may still rate it
    assert chain.validate_tx(fb_tx(FOREIGN, 4)) == "DUPLICATE_FEEDBACK"
    assert chain.validate_tx(fb_tx(HOME, 7)) is None
    chain.apply_block(bare_block(chain, [fb_tx(HOME, 7)]))
    assert chain.validate_tx(fb_tx(HOME, 8)) == "DUPLICATE_FEEDBACK"

    as_token = make_transaction(TxKind.FEEDBACK, token_tx.payload, FOREIGN)
    assert chain.validate_tx(as_token) == "BAD_ENCODING"


def test_builder_input_checks():
    with pytest.raises(LedgerError):
        build_token_tx(OUTSIDER, b"p", FOREIGN.pub_bytes, make_token(),
                       DetRng(81))


def _fb_tx(key, fb):
    return make_transaction(TxKind.FEEDBACK, ser_feedback(fb), key)


def _touch_every_index():
    """Txs that each add to a different chain index, in a valid order: a
    registration, a token, and feedback on that token."""
    cred = FeedbackData(make_token().token_id, 3)
    return [_reg(OUTSIDER), make_token_tx(), _fb_tx(FOREIGN, cred)]


def test_same_block_duplicates_are_rejected():
    reg, token_tx, fb = _touch_every_index()
    twin_token = build_token_tx(HOME, b"other-profile", FOREIGN.pub_bytes,
                                make_token(), DetRng(78, b"ec2"))
    twin_nonce = build_token_tx(
        HOME, b"p", FOREIGN.pub_bytes,
        make_token(nonce=1, resource=resource_address("queue")),
        DetRng(79, b"ec3"))
    twin_fb = _fb_tx(FOREIGN, parse_feedback(fb.payload)._replace(label=4))
    twin_reg = build_register_tx(OUTSIDER, RegisterData(
        fp_from("0.5"), fp_from("0.5"), fp_from("0.1")))
    for txs, reason in (([token_tx, token_tx], "DUPLICATE_TX"),
                        ([token_tx, twin_token], "DUPLICATE_TOKEN"),
                        ([token_tx, twin_nonce], "DUPLICATE_NONCE"),
                        ([token_tx, fb, twin_fb], "DUPLICATE_FEEDBACK"),
                        ([reg, twin_reg], "DUPLICATE_CSP")):
        chain = fresh_chain()
        with pytest.raises(LedgerError) as err:
            chain.apply_block(bare_block(chain, txs))
        assert err.value.reason == reason
        assert err.value.txid == txs[-1].txid
    # a token issued earlier in the same block is visible to its feedback,
    # and a registration to the new registrant's own txs
    chain = fresh_chain()
    chain.apply_block(bare_block(chain, [reg, token_tx, fb]))
    assert OUTSIDER.address in chain.registered


def test_each_tx_is_hashed_and_parsed_once(monkeypatch):
    # Every replica that applies a block reads the same Transaction
    # objects, so each txid check and payload parse runs once per object:
    # not again on a second chain, a re-apply after a pop, or the fold.
    txs = _touch_every_index()
    chains = [fresh_chain(), fresh_chain()]
    calls = dict.fromkeys(("canonical_serialize", "parse_token_data",
                           "parse_feedback", "parse_register"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(ledger, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(ledger, name, counted)
    blk = bare_block(chains[0], txs)
    for chain in chains:
        chain.apply_block(blk)
    chains[0].pop_block()
    chains[0].apply_block(blk)
    fold_block(TrustState(ledger.Journal()), chains[0], blk)
    assert calls == {"canonical_serialize": 3, "parse_token_data": 1,
                     "parse_feedback": 1, "parse_register": 1}
    assert [tx.txid_ok for tx in txs] == [True] * 3
    assert txs[2].data == parse_feedback(txs[2].payload)
    assert txs[1].data == parse_token_data(txs[1].payload)
    assert txs[0].sender == OUTSIDER.address
    # the cache is per object: a tampered copy is checked afresh
    assert not txs[0]._replace(sender_pub=HOME.pub_bytes).txid_ok


# ---------------------------------------------------------------------------
# Block application
# ---------------------------------------------------------------------------

def test_apply_block_is_atomic():
    chain = fresh_chain()
    chain.apply_block(bare_block(chain, []), generator_trust=fp_from("0.3"))
    before = chain_state(chain)
    bad = make_token_tx(make_token(nonce=9))._replace(sig=b"\x00" * 64)
    txs = _touch_every_index() + [bad]
    with pytest.raises(LedgerError) as err:
        chain.apply_block(bare_block(chain, txs))
    assert err.value.reason == "BAD_SIGNATURE"
    assert err.value.txid == bad.txid
    assert chain_state(chain) == before
    good = txs[1]
    assert chain.lookup_token(good.data.token.token_id) is None
    # the same txs without the bad one still apply
    chain.apply_block(bare_block(chain, txs[:-1]))
    assert chain.height == 2


def test_lookup_token_and_gen_records():
    chain = fresh_chain()
    tx = make_token_tx()
    blk = bare_block(chain, [tx])
    chain.apply_block(blk, generator_trust=fp_from("0.5"))
    token = tx.data.token
    assert chain.lookup_token(token.token_id) == token
    assert chain.lookup_token(b"\x00" * 32) is None
    rec = chain.gen_records[HOME.address]
    assert rec.last_timestamp == blk.header.timestamp
    assert rec.prf_old == blk.header.prf
    assert chain.cum_trust[-1] == fp_from("0.5")


_JOURNAL_OPS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.integers(0, 1), st.integers(0, 5),
              st.sampled_from([None, 0, 1, 2])),
    st.tuples(st.just("mark")),
    st.tuples(st.just("undo"), st.integers(0, 1 << 16))), max_size=80)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_JOURNAL_OPS)
def test_journal_undo_restores_each_dict_with_its_order(ops):
    journal = ledger.Journal()
    tables = ({}, {})

    def snapshot():
        return [list(t.items()) for t in tables]

    marks = [(journal.mark(), snapshot())]
    for op in ops:
        if op[0] == "set":
            journal.set(tables[op[1]], op[2], op[3])
        elif op[0] == "mark":
            marks.append((journal.mark(), snapshot()))
        else:
            # undo to an earlier mark; the marks after it are spent
            n = op[1] % len(marks)
            del marks[n + 1:]
            mark, before = marks[n]
            journal.undo(mark)
            assert snapshot() == before
    journal.undo(0)
    assert snapshot() == [[], []]


def test_pop_block_undoes_apply_block():
    chain = fresh_chain()
    with pytest.raises(ValueError, match="genesis"):
        chain.pop_block()
    reg, token_tx, fb = _touch_every_index()
    states = [chain_state(chain)]
    blocks = []
    for n, (gen, txs) in enumerate(((HOME, [reg]), (FOREIGN, [token_tx]),
                                    (HOME, [fb]), (OUTSIDER, []))):
        blk = bare_block(chain, txs)
        blk = Block(blk.header._replace(generator_pub=gen.pub_bytes,
                                        prf=bytes([n]) * 32), txs)
        chain.apply_block(blk, generator_trust=fp_from("0.25"))
        blocks.append(blk)
        states.append(chain_state(chain))
    # HOME's third-block record replaced its first-block one
    rec = chain.gen_records[HOME.address]
    assert rec.last_timestamp == blocks[2].header.timestamp
    assert rec.prf_old == blocks[2].header.prf != blocks[0].header.prf
    for blk in reversed(blocks):
        states.pop()
        assert chain.pop_block() is blk
        assert chain_state(chain) == states[-1]
    assert chain.height == 0
    with pytest.raises(ValueError, match="genesis"):
        chain.pop_block()
    for blk in blocks:
        chain.apply_block(blk, generator_trust=fp_from("0.25"))
    assert chain.height == len(blocks)


# ---------------------------------------------------------------------------
# Ledger files
# ---------------------------------------------------------------------------

def test_ledger_file_round_trip(tmp_path):
    chain = fresh_chain()
    chain.apply_block(bare_block(chain, [make_token_tx()]))
    path = tmp_path / "ledger.bin"
    write_ledger(path, chain.blocks)
    assert read_ledger(path) == chain.blocks
    # identical content writes identical bytes
    other = tmp_path / "again.bin"
    write_ledger(other, chain.blocks)
    assert path.read_bytes() == other.read_bytes()


def test_ledger_file_framing_errors(tmp_path):
    chain = fresh_chain()
    path = tmp_path / "ledger.bin"
    write_ledger(path, chain.blocks)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"NOTRIGHT" + raw[8:])
    with pytest.raises(LedgerError):
        read_ledger(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[:-3])
    with pytest.raises(LedgerError):
        read_ledger(truncated)

    empty = tmp_path / "empty.bin"
    empty.write_bytes(raw[:7])      # magic only, zero blocks
    with pytest.raises(LedgerError):
        read_ledger(empty)


# ---------------------------------------------------------------------------
# Structural corruption of a ledger file
# ---------------------------------------------------------------------------

def _small_ledger():
    chain = fresh_chain()
    chain.apply_block(bare_block(chain, [make_token_tx()]))
    chain.apply_block(bare_block(chain, [make_token_tx(make_token(nonce=2))]))
    return chain.blocks


def _framing(blocks):
    """Ledger bytes, the offset where each block's frame starts, and the
    (offset, width) of every block length, tx count, tx length and payload
    length field."""
    raw, starts, fields = bytearray(LEDGER_MAGIC), [], []
    for blk in blocks:
        starts.append(len(raw))
        fields.append((len(raw), 4))
        off = len(raw) + 4 + len(blk.header.core_bytes) + len(blk.header.sig)
        fields.append((off, 4))
        off += 4
        for tx in blk.txs:
            fields += [(off, 4), (off + 4 + len(tx.txid) + 1, 4)]
            off += 4 + len(tx_to_wire(tx))
        wire = ser_block(blk)
        raw += len(wire).to_bytes(4, "big") + wire
    return bytes(raw), starts, fields


BLOCKS = _small_ledger()
RAW, STARTS, FIELDS = _framing(BLOCKS)
_FUZZ = settings(max_examples=60, deadline=2000, derandomize=True,
                 database=None)


def _tx_length_fields(tx):
    """(offset, width, value) of every count and length field in
    tx_to_wire(tx), those inside a TOKEN payload included."""
    off = len(tx.txid) + 1
    fields = [(off, 4, len(tx.payload))]
    off += 4
    if tx.kind == TxKind.TOKEN:
        tok, ct = tx.data.token, tx.data.enc_user
        off += sum(map(len, (tok.pseudonym, tok.issuer, tok.audience,
                             tok.resource)))
        fields.append((off, 2, len(tok.privileges)))
        off += 2
        for priv in tok.privileges:
            fields.append((off, 4, len(priv)))
            off += 4 + len(priv)
        off += 3 * 8 + len(ct.ephemeral_pub) + len(ct.nonce)
        fields.append((off, 4, len(ct.body)))
    return fields


_SER_DATA = {TxKind.TOKEN: ser_token_data, TxKind.FEEDBACK: ser_feedback,
             TxKind.REGISTER: ser_register}
WIRE_TXS = _touch_every_index()


@_FUZZ
@given(data=st.data())
def test_tx_from_wire_accepts_only_what_it_reencodes(data):
    tx = data.draw(st.sampled_from(WIRE_TXS))
    wire = tx_to_wire(tx)
    off, width, value = data.draw(st.sampled_from(_tx_length_fields(tx)))
    assert int.from_bytes(wire[off:off + width], "big") == value
    new = min(max(value + data.draw(st.integers(-40, 40)), 0),
              (1 << 8 * width) - 1)
    corrupt = wire[:off] + new.to_bytes(width, "big") + wire[off + width:]
    if data.draw(st.booleans()):
        # grow or cut the tail in step, so the new framing can line up
        grow = new - value
        corrupt = (corrupt + data.draw(st.binary(min_size=grow, max_size=grow))
                   if grow > 0 else corrupt[:len(corrupt) + grow])
    try:
        got = tx_from_wire(corrupt)
        payload = _SER_DATA[got.kind](got.data)
    except LedgerError as exc:
        assert exc.reason == "BAD_ENCODING"
        return
    assert tx_to_wire(got) == corrupt
    assert payload == got.payload


def _parse(tmp_path_factory, data):
    """read_ledger on data: the blocks, or the LedgerError it raised. Any
    other exception propagates and fails the test."""
    path = tmp_path_factory.getbasetemp() / "fuzz-ledger.bin"
    path.write_bytes(data)
    try:
        return read_ledger(path)
    except LedgerError as exc:
        return exc


def test_framing_helper_matches_write_ledger(tmp_path):
    path = tmp_path / "ledger.bin"
    write_ledger(path, BLOCKS)
    assert path.read_bytes() == RAW
    assert len(BLOCKS) == 3 and sum(len(b.txs) for b in BLOCKS) == 4


def test_read_ledger_truncated_at_every_offset(tmp_path_factory):
    for cut in range(len(RAW)):
        got = _parse(tmp_path_factory, RAW[:cut])
        if cut in STARTS[1:]:
            # a cut between frames leaves a shorter, well-formed ledger
            assert got == BLOCKS[:STARTS.index(cut)], cut
        else:
            assert isinstance(got, LedgerError), cut


def test_read_ledger_names_the_block_that_fails_to_parse(tmp_path_factory):
    for k, start in enumerate(STARTS):
        end = STARTS[k + 1] if k + 1 < len(STARTS) else len(RAW)
        for cut in range(start + 1, end):
            got = _parse(tmp_path_factory, RAW[:cut])
            assert (got.reason, got.height) == ("BAD_ENCODING", k), cut


@_FUZZ
@given(field=st.sampled_from(FIELDS), data=st.data())
def test_read_ledger_rejects_inflated_length_fields(tmp_path_factory, field,
                                                    data):
    off, width = field
    value = int.from_bytes(RAW[off:off + width], "big")
    bigger = data.draw(st.integers(value + 1, (1 << 8 * width) - 1))
    corrupt = RAW[:off] + bigger.to_bytes(width, "big") + RAW[off + width:]
    assert isinstance(_parse(tmp_path_factory, corrupt), LedgerError)


@_FUZZ
@given(cuts=st.lists(st.integers(len(LEDGER_MAGIC), len(RAW)),
                     min_size=4, max_size=4))
def test_read_ledger_spliced_bytes_parse_strictly(tmp_path_factory, cuts):
    # keep the head up to a, graft RAW[b:c] there, then resume at d
    a, b, c, d = cuts
    spliced = RAW[:a] + RAW[min(b, c):max(b, c)] + RAW[d:]
    got = _parse(tmp_path_factory, spliced)
    if not isinstance(got, LedgerError):
        # whatever the parser accepts must be exactly what it re-encodes
        assert spliced == _framing(got)[0]
