package sig

import (
	"crypto/sha256"
	"sync"
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
// Unlike the cluster-shared VRF and PVSS-script caches (vcache, scache),
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
// # Bound
//
// Entries live in two generations of at most memoGen entries each: when
// the current generation fills, it becomes the previous one and the older
// generation is dropped. A hit in the previous generation is promoted, so
// the signatures of instances still running stay resident while those of
// finished instances age out.
type Memo struct {
	mu        sync.Mutex
	cur, prev map[[sha256.Size]byte]bool
	stats     MemoStats
}

// MemoStats are a memo's cumulative counters.
type MemoStats struct {
	Lookups  int64 // signatures checked through the memo
	Hits     int64 // answered from the memo (positive or negative)
	Verifies int64 // cold verifications actually performed
}

// memoGen bounds one generation; an entry costs about 50 bytes.
const memoGen = 1 << 13

// NewMemo returns an empty memo.
func NewMemo() *Memo {
	return &Memo{cur: make(map[[sha256.Size]byte]bool), prev: make(map[[sha256.Size]byte]bool)}
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
	if m == nil {
		return Verify(pk, msg, s)
	}
	k := memoKey(pk, msg, s)
	m.mu.Lock()
	m.stats.Lookups++
	v, ok := m.cur[k]
	if !ok {
		if v, ok = m.prev[k]; ok {
			m.putLocked(k, v)
		}
	}
	if ok {
		m.stats.Hits++
		m.mu.Unlock()
		return v
	}
	m.stats.Verifies++
	m.mu.Unlock()

	// The scalar multiplications run outside the lock; two racing lookups
	// of one new triple both verify, and both are counted.
	v = Verify(pk, msg, s)

	m.mu.Lock()
	m.putLocked(k, v)
	m.mu.Unlock()
	return v
}

func (m *Memo) putLocked(k [sha256.Size]byte, v bool) {
	if len(m.cur) >= memoGen {
		m.prev, m.cur = m.cur, make(map[[sha256.Size]byte]bool)
	}
	m.cur[k] = v
}

// VerifyQuorum is the package-level VerifyQuorum with every member
// signature checked through the memo. A nil Memo verifies directly.
func (m *Memo) VerifyQuorum(pks []PublicKey, msg []byte, q *Quorum, threshold int) bool {
	return verifyQuorum(pks, msg, q, threshold, m.Verify)
}

// Stats returns a snapshot of the counters (zero for a nil Memo).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
