"""Transaction and block encoding, validation reasons, and file framing.

Chain.apply_block only enforces linkage, roots, and transaction-level
rules, so blocks here carry throwaway headers; the consensus-level header
checks get their own tests elsewhere.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ctsim import ledger
from ctsim.crypto import DetRng, ZERO_DIGEST, generate_keypair, resource_address
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import (
    AccessToken, Block, BlockHeader, Chain, FeedbackData, LedgerError,
    RegisterData, TxKind, TxInput, TxOutput, block_from_wire,
    build_feedback_tx, build_register_tx, build_token_tx,
    LEDGER_MAGIC, canonical_serialize, check_genesis_shape, compute_tx_root,
    make_genesis,
    make_transaction, read_ledger, ser_block, ser_feedback, ser_register,
    ser_token, tx_from_wire, tx_to_wire, unpack_genesis_pub, write_ledger,
)
from ctsim.replica import VerifyFailure, replay_blocks

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


def make_token_tx(token=None, prev=ZERO_DIGEST):
    token = token or make_token()
    return build_token_tx(HOME, b"profile-bytes", token.resource,
                          FOREIGN.pub_bytes, token, prev, DetRng(77, b"ec"))


def bare_block(chain: Chain, txs) -> Block:
    txs = tuple(txs)
    header = BlockHeader(
        height=chain.height + 1, prev_block=chain.tip.h_blk,
        tx_root=compute_tx_root(txs),
        timestamp=chain.tip.header.timestamp + 300,
        generator_pub=HOME.pub_bytes, prf=b"\x01" * 32,
        base_target=chain.base_target, sig=b"\x00" * 64)
    return Block(header, txs)


# ---------------------------------------------------------------------------
# Wire round trips
# ---------------------------------------------------------------------------

def test_tx_wire_round_trip_all_kinds():
    chainless = [
        _reg(HOME),
        make_token_tx(),
        build_feedback_tx(FOREIGN, FeedbackData(
            FOREIGN.address, HOME.address, USER.address, 3,
            make_token().token_id), ZERO_DIGEST),
    ]
    for tx in chainless:
        again = tx_from_wire(tx_to_wire(tx))
        assert again == tx
        assert again.txid == tx.txid


def test_txid_covers_everything_but_sig():
    tx = _reg(HOME)
    resigned = replace(tx, sig=b"\x11" * 64)
    assert canonical_serialize(resigned) == canonical_serialize(tx)
    tampered = replace(tx, prev_tx=b"\x22" * 32)
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


def test_privilege_count_cap():
    token = replace(make_token(), privileges=tuple(
        b"p%d" % i for i in range(65)))
    tx = make_transaction(
        TxKind.TOKEN,
        (TxInput(0, ZERO_DIGEST,
                 make_token_tx().inputs[0].enc_user, RESOURCE),),
        (TxOutput(0, ZERO_DIGEST, token, FOREIGN.address),),
        ZERO_DIGEST, b"", HOME)
    with pytest.raises(LedgerError):
        tx_from_wire(tx_to_wire(tx))


# ---------------------------------------------------------------------------
# Genesis
# ---------------------------------------------------------------------------

def test_genesis_shape_and_parameter_packing():
    genesis = make_genesis([_reg(HOME)], fp_from("0.2"), interval_ms=200,
                           slot_ms=50, k_bits=128, time_cap=32)
    assert genesis.height == 0
    assert genesis.header.prev_block == ZERO_DIGEST
    assert genesis.header.timestamp == 0
    assert genesis.header.sig == b"\x00" * 64
    assert unpack_genesis_pub(genesis.header.generator_pub) == (200, 50, 128, 32)
    assert check_genesis_shape(genesis) is None


def test_genesis_tampering_detected():
    genesis = make_genesis([_reg(HOME)], fp_from("0.2"))
    cases = [
        (replace(genesis, header=replace(genesis.header, timestamp=5)),
         "TIMESTAMP"),
        (replace(genesis, header=replace(genesis.header, sig=b"\x01" * 64)),
         "BAD_SIGNATURE"),
        (replace(genesis, header=replace(genesis.header, prf=b"\x01" * 32)),
         "PRF_MISMATCH"),
        (replace(genesis, header=replace(genesis.header, height=1)),
         "BAD_LINK"),
        (replace(genesis, txs=()), "BAD_TX_ROOT"),
    ]
    for bad, reason in cases:
        assert check_genesis_shape(bad) == reason
    with pytest.raises(LedgerError):
        Chain(cases[0][0])


def _genesis_failure(txs) -> VerifyFailure:
    with pytest.raises(VerifyFailure) as caught:
        replay_blocks([make_genesis(txs, fp_from("0.2"))])
    assert caught.value.height == 0
    return caught.value


def test_genesis_registration_carrying_token_parts_fails_verify():
    # the rule validate_tx applies in every later block holds at height 0
    payload = ser_register(RegisterData(ONE, ONE, ONE))
    with_output = make_transaction(
        TxKind.REGISTER, (),
        (TxOutput(0, ZERO_DIGEST, make_token(), FOREIGN.address),),
        ZERO_DIGEST, payload, OUTSIDER)
    with_input = make_transaction(TxKind.REGISTER, make_token_tx().inputs, (),
                                  ZERO_DIGEST, payload, OUTSIDER)
    for bad in (with_output, with_input):
        err = _genesis_failure([_reg(HOME), bad])
        assert (err.txid, err.reason) == (bad.txid, "BAD_ENCODING")


def test_genesis_registrations_get_block_tx_reasons():
    empty = make_genesis([], fp_from("0.2"))
    assert check_genesis_shape(empty) == "BAD_ENCODING"
    twin = _reg(HOME)
    err = _genesis_failure([_reg(HOME), twin])
    assert (err.txid, err.reason) == (twin.txid, "DUPLICATE_TX")
    garbled = make_transaction(TxKind.REGISTER, (), (), b"\x01" * 32,
                               b"junk", HOME)
    err = _genesis_failure([_reg(HOME), garbled])
    assert (err.txid, err.reason) == (garbled.txid, "BAD_ENCODING")
    again = build_register_tx(
        HOME, RegisterData(fp_from("0.5"), fp_from("0.5"), fp_from("0.5")),
        prev_tx=b"\x01" * 32)
    err = _genesis_failure([_reg(HOME), again])
    assert (err.txid, err.reason) == (again.txid, "DUPLICATE_CSP")
    idle = build_register_tx(OUTSIDER, RegisterData(0, 0, ONE))
    err = _genesis_failure([idle])
    assert (err.txid, err.reason) == (idle.txid, "WEIGHT_ZERO")


def test_genesis_params_reject_nonsense():
    good = make_genesis([_reg(HOME)], fp_from("0.2"))
    assert unpack_genesis_pub(good.header.generator_pub) == (300, 100, 64, 64)
    assert unpack_genesis_pub(b"\x02" * 33) is None
    assert unpack_genesis_pub(b"") is None


# ---------------------------------------------------------------------------
# Transaction validation reasons
# ---------------------------------------------------------------------------

def test_register_validation_reasons():
    chain = fresh_chain()
    ok = _reg(OUTSIDER)
    assert chain.validate_tx(ok) is None
    # identical bytes to the genesis registration are caught even earlier
    assert chain.validate_tx(_reg(HOME)) == "DUPLICATE_TX"
    re_register = build_register_tx(
        HOME, RegisterData(fp_from("0.5"), fp_from("0.5"), fp_from("0.5")),
        prev_tx=b"\x01" * 32)
    assert chain.validate_tx(re_register) == "DUPLICATE_CSP"

    def reg_with(w_sat, w_auth, stake):
        return make_transaction(TxKind.REGISTER, (), (), ZERO_DIGEST,
                                ser_register(RegisterData(w_sat, w_auth,
                                                          stake)), OUTSIDER)
    assert chain.validate_tx(reg_with(2 * ONE, 0, ONE)) == "WEIGHT_RANGE"
    assert chain.validate_tx(reg_with(0, 0, ONE)) == "WEIGHT_ZERO"
    assert chain.validate_tx(reg_with(ONE, ONE, 2 * ONE)) == "STAKE_RANGE"
    bad_shape = make_transaction(
        TxKind.REGISTER, (),
        (TxOutput(0, ZERO_DIGEST, make_token(), FOREIGN.address),),
        ZERO_DIGEST, ser_register(RegisterData(ONE, ONE, ONE)), OUTSIDER)
    assert chain.validate_tx(bad_shape) == "BAD_ENCODING"


def test_txid_and_signature_validation():
    chain = fresh_chain()
    tx = _reg(OUTSIDER)
    assert chain.validate_tx(replace(tx, txid=b"\x00" * 32)) == "BAD_TXID"
    assert chain.validate_tx(replace(tx, sig=b"\x00" * 64)) == "BAD_SIGNATURE"
    other_sig = build_register_tx(
        OUTSIDER, RegisterData(ONE, ONE, 0), prev_tx=b"\x05" * 32).sig
    assert chain.validate_tx(replace(tx, sig=other_sig)) == "BAD_SIGNATURE"


def test_token_validation_reasons():
    chain = fresh_chain()
    good = make_token_tx()
    assert chain.validate_tx(good) is None

    enc = good.inputs[0].enc_user
    no_inputs = make_transaction(
        TxKind.TOKEN, (), good.outputs, ZERO_DIGEST, b"", HOME)
    assert chain.validate_tx(no_inputs) == "TOKEN_SHAPE"

    stranger_token = make_token(issuer=OUTSIDER.address)
    unknown = make_transaction(
        TxKind.TOKEN, (TxInput(0, ZERO_DIGEST, enc, RESOURCE),),
        (TxOutput(0, ZERO_DIGEST, stranger_token, FOREIGN.address),),
        ZERO_DIGEST, b"", OUTSIDER)
    assert chain.validate_tx(unknown) == "UNKNOWN_ISSUER"

    misdirected = make_transaction(
        TxKind.TOKEN, (TxInput(0, ZERO_DIGEST, enc, RESOURCE),),
        (TxOutput(0, ZERO_DIGEST, make_token(audience=OUTSIDER.address),
                  FOREIGN.address),),
        ZERO_DIGEST, b"", HOME)
    assert chain.validate_tx(misdirected) == "AUDIENCE_MISMATCH"

    dead = make_transaction(
        TxKind.TOKEN, (TxInput(0, ZERO_DIGEST, enc, RESOURCE),),
        (TxOutput(0, ZERO_DIGEST, make_token(issued=300, expires=300),
                  FOREIGN.address),),
        ZERO_DIGEST, b"", HOME)
    assert chain.validate_tx(dead) == "EXPIRY"


def test_token_uniqueness_rules():
    chain = fresh_chain()
    first = make_token_tx()
    chain.apply_block(bare_block(chain, [first]))

    replayed = build_token_tx(HOME, b"other-profile", RESOURCE,
                              FOREIGN.pub_bytes, make_token(), first.txid,
                              DetRng(78, b"ec2"))
    assert chain.validate_tx(replayed) == "DUPLICATE_TOKEN"

    nonce_clash = build_token_tx(
        HOME, b"p", resource_address("queue"), FOREIGN.pub_bytes,
        make_token(nonce=1, resource=resource_address("queue")),
        first.txid, DetRng(79, b"ec3"))
    assert chain.validate_tx(nonce_clash) == "DUPLICATE_NONCE"

    fresh = build_token_tx(HOME, b"p", RESOURCE, FOREIGN.pub_bytes,
                           make_token(nonce=2), first.txid,
                           DetRng(80, b"ec4"))
    assert chain.validate_tx(fresh) is None


def test_feedback_validation_reasons():
    chain = fresh_chain()
    token_tx = make_token_tx()
    token = token_tx.outputs[0].token
    chain.apply_block(bare_block(chain, [token_tx]))

    def fb_tx(key, fb):
        return make_transaction(TxKind.FEEDBACK, (), (), ZERO_DIGEST,
                                ser_feedback(fb), key)

    cred = FeedbackData(FOREIGN.address, HOME.address, USER.address, 3,
                        token.token_id)
    assert chain.validate_tx(fb_tx(FOREIGN, cred)) is None

    assert chain.validate_tx(fb_tx(OUTSIDER, replace(
        cred, rater=OUTSIDER.address))) == "UNKNOWN_RATER"
    assert chain.validate_tx(fb_tx(HOME, cred)) == "RATER_MISMATCH"
    assert chain.validate_tx(fb_tx(FOREIGN, replace(
        cred, label=10))) == "LABEL_RANGE"
    assert chain.validate_tx(fb_tx(FOREIGN, replace(
        cred, token_id=b"\x0a" * 32))) == "UNKNOWN_TOKEN"
    assert chain.validate_tx(fb_tx(FOREIGN, replace(
        cred, user=OUTSIDER.address))) == "NOT_PARTICIPANT"
    # credibility ratings come from the serving side only
    assert chain.validate_tx(fb_tx(HOME, replace(
        cred, rater=HOME.address, subject=FOREIGN.address))) == "NOT_PARTICIPANT"
    # satisfaction relays come from the home side only
    sat = FeedbackData(FOREIGN.address, HOME.address, USER.address, 7,
                       token.token_id)
    assert chain.validate_tx(fb_tx(FOREIGN, sat)) == "NOT_PARTICIPANT"
    sat_ok = FeedbackData(HOME.address, FOREIGN.address, USER.address, 7,
                          token.token_id)
    assert chain.validate_tx(fb_tx(HOME, sat_ok)) is None

    chain.apply_block(bare_block(chain, [fb_tx(FOREIGN, cred)]))
    again = make_transaction(TxKind.FEEDBACK, (), (), b"\x01" * 32,
                             ser_feedback(replace(cred, label=4)), FOREIGN)
    assert chain.validate_tx(again) == "DUPLICATE_FEEDBACK"

    with_io = make_transaction(TxKind.FEEDBACK, token_tx.inputs, (),
                               ZERO_DIGEST, ser_feedback(cred), FOREIGN)
    assert chain.validate_tx(with_io) == "BAD_ENCODING"


def test_builder_input_checks():
    with pytest.raises(LedgerError):
        build_token_tx(OUTSIDER, b"p", RESOURCE, FOREIGN.pub_bytes,
                       make_token(), ZERO_DIGEST, DetRng(81))
    with pytest.raises(LedgerError):
        build_feedback_tx(FOREIGN, FeedbackData(
            HOME.address, FOREIGN.address, USER.address, 1, b"\x00" * 32),
            ZERO_DIGEST)


def test_same_block_duplicate_caught_by_stage():
    chain = fresh_chain()
    tx = make_token_tx()
    blk = bare_block(chain, [tx, tx])
    with pytest.raises(LedgerError) as err:
        chain.apply_block(blk)
    assert err.value.reason == "DUPLICATE_TX"


# ---------------------------------------------------------------------------
# Block application
# ---------------------------------------------------------------------------

def test_apply_block_is_atomic():
    chain = fresh_chain()
    good = make_token_tx()
    bad = replace(make_token_tx(make_token(nonce=9)), sig=b"\x00" * 64)
    before_height = chain.height
    with pytest.raises(LedgerError) as err:
        chain.apply_block(bare_block(chain, [good, bad]))
    assert err.value.reason == "BAD_SIGNATURE"
    assert chain.height == before_height
    assert good.txid not in chain.txids
    assert chain.lookup_token(good.outputs[0].token.token_id) is None


def test_apply_block_linkage_and_root():
    chain = fresh_chain()
    blk = bare_block(chain, [])
    wrong_link = Block(replace(blk.header, prev_block=b"\x07" * 32), blk.txs)
    with pytest.raises(LedgerError) as err:
        chain.apply_block(wrong_link)
    assert err.value.reason == "BAD_LINK"
    wrong_root = Block(replace(blk.header, tx_root=b"\x07" * 32), blk.txs)
    with pytest.raises(LedgerError) as err:
        chain.apply_block(wrong_root)
    assert err.value.reason == "BAD_TX_ROOT"
    chain.apply_block(blk)
    assert chain.height == 1


def test_lookup_token_and_gen_records():
    chain = fresh_chain()
    tx = make_token_tx()
    blk = bare_block(chain, [tx])
    chain.apply_block(blk, generator_trust=fp_from("0.5"))
    token = tx.outputs[0].token
    assert chain.lookup_token(token.token_id) == token
    assert chain.lookup_token(b"\x00" * 32) is None
    rec = chain.gen_records[HOME.address]
    assert rec.last_height == 1
    assert rec.last_timestamp == blk.header.timestamp
    assert chain.cum_trust[-1] == fp_from("0.5")


def test_chain_clone_is_independent():
    chain = fresh_chain()
    cloned = chain.clone()
    chain.apply_block(bare_block(chain, [make_token_tx()]))
    assert cloned.height == 0
    assert not cloned.token_index


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


def test_tx_from_wire_rejects_a_body_that_does_not_reserialize(monkeypatch):
    wire = tx_to_wire(make_token_tx())
    assert tx_to_wire(tx_from_wire(wire)) == wire
    monkeypatch.setattr(ledger, "canonical_serialize", lambda tx: b"")
    with pytest.raises(LedgerError) as err:
        tx_from_wire(wire)
    assert err.value.reason == "BAD_ENCODING"


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
    (offset, width) of every block length, tx count, tx length and input
    count field."""
    raw, starts, fields = bytearray(LEDGER_MAGIC), [], []
    for blk in blocks:
        starts.append(len(raw))
        fields.append((len(raw), 4))
        off = len(raw) + 4 + len(blk.header.core_bytes) + len(blk.header.sig)
        fields.append((off, 4))
        off += 4
        for tx in blk.txs:
            fields += [(off, 4), (off + 4 + len(tx.txid) + 1, 2)]
            off += 4 + len(tx_to_wire(tx))
        wire = ser_block(blk)
        raw += len(wire).to_bytes(4, "big") + wire
    return bytes(raw), starts, fields


BLOCKS = _small_ledger()
RAW, STARTS, FIELDS = _framing(BLOCKS)
_FUZZ = settings(max_examples=60, deadline=2000, derandomize=True,
                 database=None)


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
