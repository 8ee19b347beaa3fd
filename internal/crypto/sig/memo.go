package sig

import (
	"crypto/sha256"

	"repro/internal/memo"
)

// Memo is a bounded Schnorr verdict memo owned by ONE party. Signing is
// deterministic (one nonce per key and message), so every certificate a
// party receives on the same message carries byte-identical member
// signatures: a party checking n−f-signature quorums sees the same
// (key, message, signature) triple over and over. The memo collapses every
// repeat into a map lookup.
//
// # Scope
//
// Unlike the cluster-shared VRF and PVSS-script memos in pki and scache,
// a Memo must never be shared between parties: each party's keyring owns
// its own, so a party process pays exactly the verifications it would pay
// on its own, and an in-process cluster measures the same per-party work a
// one-party deployment does.
//
// # Why caching a verdict is sound
//
// Verify is a deterministic function of (public key, message, signature),
// and the memo key is a SHA-256 digest of exactly those three byte strings
// (the public key first, so a re-registered key slot can never hit a stale
// verdict). Positive and negative verdicts are both final.
//
// Bound and eviction are memo.Map's: two generations of memoGen entries.
type Memo memo.Map[[sha256.Size]byte, bool]

// MemoStats are a memo's cumulative counters.
type MemoStats struct {
	Lookups  int64 // signatures checked through the memo
	Hits     int64 // answered from the memo (positive or negative)
	Verifies int64 // cold verifications actually performed
}

// memoGen bounds one generation; an entry costs about 50 bytes.
const memoGen = 1 << 13

// NewMemo returns an empty memo.
func NewMemo() *Memo { return (*Memo)(memo.New[[sha256.Size]byte, bool](2 * memoGen)) }

func (m *Memo) verdicts() *memo.Map[[sha256.Size]byte, bool] {
	return (*memo.Map[[sha256.Size]byte, bool])(m)
}

func memoKey(pk PublicKey, msg []byte, s Signature) [sha256.Size]byte {
	// pk, c and s have fixed encodings, so putting the variable-length
	// message last keeps the preimage unambiguous.
	h := sha256.New()
	h.Write(pk.P.Bytes())
	h.Write(s.C.Bytes())
	h.Write(s.S.Bytes())
	h.Write(msg)
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// Verify reports whether s is a valid signature on msg under pk, answering
// from the memo when the triple has been decided before. A nil Memo
// verifies directly.
func (m *Memo) Verify(pk PublicKey, msg []byte, s Signature) bool {
	return m.verdicts().Get(memoKey(pk, msg, s), func() bool { return Verify(pk, msg, s) })
}

// VerifyQuorum is the package-level VerifyQuorum with every member
// signature checked through the memo. A nil Memo verifies directly.
func (m *Memo) VerifyQuorum(pks []PublicKey, msg []byte, q *Quorum, threshold int) bool {
	return verifyQuorum(pks, msg, q, threshold, m.Verify)
}

// Stats returns a snapshot of the counters (zero for a nil Memo).
func (m *Memo) Stats() MemoStats {
	st := m.verdicts().Stats()
	return MemoStats{Lookups: st.Lookups, Hits: st.Hits, Verifies: st.Misses}
}
