"""Pairwise reputation: credibility, authentication, satisfaction, trust.

Three score families are kept per ordered pair, each updated by its own
recurrence when a feedback transaction lands:

  cred(F, u)   how far foreign provider F trusts visiting user u;
               starts at 1, updated as (trust(F) * rating + prev) / 2
  auth(F, H)   F's view of home provider H's vetting quality; starts at 0,
               updated as (rating + prev) / 2 with the same bucketed
               credibility rating F just gave H's user
  sat(H, F)    service satisfaction H's users report about F; starts at 0,
               blended as cred(u) * rating + (1 - cred(u)) * prev

Aggregates are arithmetic means over pairs that have at least one recorded
interaction; untouched subjects keep their initial value. Each is kept as
an exact running (sum, count) per subject, so reading one costs a lookup;
the floor of an exact integer sum over a count does not depend on the
order the pairs were written in. A provider's overall trust combines its
satisfaction and authentication aggregates under globally averaged
weights. All arithmetic is fixed-point (see fixedpoint).
"""

from __future__ import annotations

from enum import IntEnum

from . import ledger
from .fixedpoint import ONE, fp_mul
from .ledger import FeedbackData, TxKind

# ===========================================================================
# Feedback labels and buckets
# ===========================================================================

class CredLabel(IntEnum):
    VERY_BAD = 0
    BAD = 1
    MEDIUM = 2
    GOOD = 3
    EXCELLENT = 4


class SatLabel(IntEnum):
    FULLY_DISSATISFIED = 5
    DISSATISFIED = 6
    PARTIALLY_SATISFIED = 7
    SATISFIED = 8
    FULLY_SATISFIED = 9


# credibility buckets are even fifths; satisfaction buckets are uneven
# (breaks at 0.20 / 0.45 / 0.60 / 0.80), both mapped to their midpoints
_BUCKET_VALUE = {
    CredLabel.VERY_BAD: ONE // 10,
    CredLabel.BAD: 3 * ONE // 10,
    CredLabel.MEDIUM: ONE // 2,
    CredLabel.GOOD: 7 * ONE // 10,
    CredLabel.EXCELLENT: 9 * ONE // 10,
    SatLabel.FULLY_DISSATISFIED: ONE // 10,
    SatLabel.DISSATISFIED: 325 * ONE // 1000,
    SatLabel.PARTIALLY_SATISFIED: 525 * ONE // 1000,
    SatLabel.SATISFIED: 7 * ONE // 10,
    SatLabel.FULLY_SATISFIED: 9 * ONE // 10,
}

INITIAL_CRED = ONE
INITIAL_AUTH = 0
INITIAL_SAT = 0

BOOTSTRAP_TRUST = ONE // 2  # consensus-only default for providers with no history


def bucketize(label: int) -> int:
    """Label code -> canonical fixed-point bucket midpoint."""
    code = CredLabel(label) if label <= 4 else SatLabel(label)
    return _BUCKET_VALUE[code]


def is_cred_label(label: int) -> bool:
    return label <= 4


# ===========================================================================
# Update rules
# ===========================================================================

def cred_update(prev: int, trust_f: int, cred_curr: int) -> int:
    return (fp_mul(trust_f, cred_curr) + prev) // 2


def auth_update(prev: int, auth_curr: int) -> int:
    return (auth_curr + prev) // 2


def auth_curr_from_feedback(cred_curr_of_user: int) -> int:
    # the rating a foreign provider gives the visiting user doubles as the
    # authentication observation about that user's home provider
    return cred_curr_of_user


def sat_update(prev: int, cred_u: int, sat_curr: int) -> int:
    return fp_mul(cred_u, sat_curr) + fp_mul(ONE - cred_u, prev)


def overall_trust(sat: int, auth: int, weight_sat: int, weight_auth: int) -> int:
    # the ledger's WEIGHT_MEAN_ZERO rule keeps the global weights' sum > 0
    total = weight_sat + weight_auth
    return (weight_sat * sat + weight_auth * auth) // total


# ===========================================================================
# State
# ===========================================================================

class TrustState:
    """The cred, auth and sat pair tables plus registration-declared weights.

    The fold mutates it through register() and apply_feedback(). Every
    pair write goes through put(), which also moves the pair's subject
    (the key's second address) in that family's running (sum, count):
    cred_sum by user, auth_sum by home, sat_sum by foreign provider.

    The fold floors, so it cannot be inverted: every write goes through
    the journal passed in, the replica's one journal, and undoing it to an
    earlier mark rolls the state back, dict insertion order included.
    """

    def __init__(self, journal: ledger.Journal):
        self.cred: dict[tuple[bytes, bytes], int] = {}
        self.auth: dict[tuple[bytes, bytes], int] = {}
        self.sat: dict[tuple[bytes, bytes], int] = {}
        self.cred_sum: dict[bytes, tuple[int, int]] = {}
        self.auth_sum: dict[bytes, tuple[int, int]] = {}
        self.sat_sum: dict[bytes, tuple[int, int]] = {}
        self.declared: dict[bytes, tuple[int, int]] = {}
        self._set = journal.set

    def put(self, table: dict, sums: dict, key: tuple[bytes, bytes],
            value: int) -> None:
        """Write one pair and its subject's (key[1]) running (sum, count)."""
        prev = table.get(key)
        total, count = sums.get(key[1], (0, 0))
        if prev is None:
            prev, count = 0, count + 1
        self._set(sums, key[1], (total + value - prev, count))
        self._set(table, key, value)

    # -- registration and weights -----------------------------------------

    def register(self, address: bytes, weight_sat: int, weight_auth: int) -> None:
        self._set(self.declared, address, (weight_sat, weight_auth))

    def global_weights(self) -> tuple[int, int]:
        """Component-wise means of every registrant's declared weights."""
        if not self.declared:
            raise ValueError("no registered providers")
        n = len(self.declared)
        w_sat = sum(w for w, _ in self.declared.values()) // n
        w_auth = sum(w for _, w in self.declared.values()) // n
        return w_sat, w_auth

    # -- aggregates --------------------------------------------------------

    def cred_user(self, user: bytes) -> int:
        total, count = self.cred_sum.get(user, (INITIAL_CRED, 1))
        return total // count

    def auth_score(self, home: bytes) -> int:
        total, count = self.auth_sum.get(home, (INITIAL_AUTH, 1))
        return total // count

    def sat_score(self, foreign: bytes) -> int:
        total, count = self.sat_sum.get(foreign, (INITIAL_SAT, 1))
        return total // count

    def trust_of(self, csp: bytes) -> int:
        w_sat, w_auth = self.global_weights()
        return overall_trust(self.sat_score(csp), self.auth_score(csp),
                             w_sat, w_auth)

    def has_history(self, csp: bytes) -> bool:
        """True once any feedback has touched this provider in either role."""
        return csp in self.auth_sum or csp in self.sat_sum

    # -- the fold ----------------------------------------------------------

    def apply_feedback(self, fb: FeedbackData) -> None:
        """Fold one on-chain feedback record; order is cred, auth, sat."""
        value = bucketize(fb.label)
        if is_cred_label(fb.label):
            foreign, home, user = fb.rater, fb.subject, fb.user
            trust_f = self.trust_of(foreign)
            prev = self.cred.get((foreign, user), INITIAL_CRED)
            self.put(self.cred, self.cred_sum, (foreign, user),
                     cred_update(prev, trust_f, value))
            prev_a = self.auth.get((foreign, home), INITIAL_AUTH)
            self.put(self.auth, self.auth_sum, (foreign, home),
                     auth_update(prev_a, auth_curr_from_feedback(value)))
        else:
            home, foreign, user = fb.rater, fb.subject, fb.user
            cred_u = self.cred_user(user)
            prev = self.sat.get((home, foreign), INITIAL_SAT)
            self.put(self.sat, self.sat_sum, (home, foreign),
                     sat_update(prev, cred_u, value))


def fold_block(state: TrustState, blk: ledger.Block) -> None:
    """Apply one block's registrations and feedback in transaction order."""
    for tx in blk.txs:
        if tx.kind == TxKind.REGISTER:
            state.register(tx.sender, tx.data.weight_sat, tx.data.weight_auth)
        elif tx.kind == TxKind.FEEDBACK:
            state.apply_feedback(tx.data)
