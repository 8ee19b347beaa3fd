// Package scache is a memoizing PVSS script verifier shared by every party
// of one cluster — the PVSS counterpart of pki's VRF memo. The §7.3
// ADKG has every party multicast a script and verify n of them, and the VBA
// deciding the aggregate re-checks its external-validity predicate (a full
// script verification) once per sender per broadcast stage; without
// memoization each party performs O(n²) pairing-heavy verifications per DKG.
// With one cluster-wide memo every distinct script or aggregate is verified
// cold exactly once, cluster-wide, and every repeat is a map lookup.
//
// # Memo key
//
// Entries are keyed by (params, H(script bytes), H(eks ‖ vks)):
//
//   - params pins the sharing topology, so the same bytes interpreted under
//     a different (n, degree) cannot cross-talk;
//   - the script hash covers the full canonical encoding (F, û2, A, Ŷ, W,
//     C, SoK), so any mauled component is a distinct entry;
//   - the key hash folds in the REGISTERED encryption and tag keys, so a
//     re-registered board slot (tests model malicious key generation by
//     overwriting boards) can never hit a stale verdict.
//
// # Why caching a verdict is sound
//
// pvss.VrfyScript is a deterministic function of the key triple: a script
// that verified once under a key set verifies forever, and a rejected one
// can never start verifying. (The batched verifier's Fiat–Shamir RLC
// coefficients are themselves derived from exactly the memo key's inputs,
// so even the batching randomness is pinned by the key.)
//
// Cold verifications run under a verifypool.Pool bound (NumCPU by default)
// so the live runtime's n dispatchers cannot oversubscribe the box; bound,
// eviction and single-flight are memo.Map's, so a script racing in on
// several dispatchers is verified once and the waiters count as hits.
package scache

import (
	"crypto/sha256"
	"sync/atomic"

	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/verifypool"
	"repro/internal/memo"
)

type key struct {
	n, degree int
	script    [sha256.Size]byte // SHA-256 of the canonical script encoding
	keys      [sha256.Size]byte // SHA-256 of eks ‖ vks
}

// Stats are the cache's cumulative counters. Lookups = Hits + Verifies +
// Composed.
type Stats struct {
	Lookups  int64 // Verify calls routed through the cache
	Hits     int64 // answered without cold work (memo or coalesced in-flight)
	Verifies int64 // cold script verifications actually performed
	Composed int64 // aggregates validated compositionally (no pairing work)
}

// maxEntries bounds memory on long-lived clusters serving many instances;
// scripts are large on the wire but an entry here is ~100 bytes.
const maxEntries = 1 << 14

// Cache memoizes PVSS script-verification verdicts. The zero value is not
// usable; call New. A nil Cache verifies directly, without the
// compositional fast path.
type Cache struct {
	pool     *verifypool.Pool
	verdicts *memo.Map[key, bool]
	composed atomic.Int64
}

// New returns an empty cache running cold verifications on pool. A nil
// pool gets a private NumCPU-bounded one.
func New(pool *verifypool.Pool) *Cache {
	if pool == nil {
		pool = verifypool.New(0)
	}
	return &Cache{pool: pool, verdicts: memo.New[key, bool](maxEntries)}
}

// Verify reports whether s is a valid (possibly aggregated) PVSS script
// under the given parameters and registered keys, answering from the memo
// when the exact (params, script, keys) triple has been decided before.
func (c *Cache) Verify(p pvss.Params, eks []pvss.EncKey, vks []pairing.G1, s *pvss.Script) bool {
	return c.verify(p, eks, vks, s, nil)
}

// VerifyComposed is Verify with a compositional fast path for aggregates:
// parts maps dealer index → that dealer's unit script. If s carries unit
// weights over a subset of parts, every one of those parts holds a
// memoized POSITIVE verdict in this cache under the SAME (params, board
// keys) — the cache re-checks this itself rather than trusting the caller,
// which also keeps the board-rekey guarantee intact: a part verified under
// old keys cannot vouch for an aggregate under new ones — and s equals,
// byte for byte, the component-wise product of those parts, then s is
// valid with NO pairing work at all. AggScripts preserves every Alg. 6
// check (the defining property of aggregatable PVSS: commitments multiply,
// tags carry through, degrees cannot rise), and the product of scripts is
// a deterministic order-independent function of the part set, so byte
// equality identifies it exactly. Aggregates that don't match (unknown or
// unverified dealers, non-unit weights, anything mauled) fall back to the
// cold batched verification.
func (c *Cache) VerifyComposed(p pvss.Params, eks []pvss.EncKey, vks []pairing.G1, s *pvss.Script, parts map[int]*pvss.Script) bool {
	return c.verify(p, eks, vks, s, parts)
}

func (c *Cache) verify(p pvss.Params, eks []pvss.EncKey, vks []pairing.G1, s *pvss.Script, parts map[int]*pvss.Script) bool {
	if s == nil {
		return false
	}
	if c == nil {
		return pvss.VrfyScript(p, eks, vks, s)
	}
	// The keys digest is recomputed per lookup (≈2n short SHA-256 writes,
	// single-digit µs at n=16) rather than cached per board: the board's
	// Parties slice is exported and tests overwrite slots to model
	// malicious key generation, so a cached digest would need an
	// invalidation protocol to stay rekey-safe — not worth it when a hit
	// saves a ~three-orders-larger multi-pairing.
	k := key{n: p.N, degree: p.Degree, script: sha256.Sum256(s.Bytes())}
	h := sha256.New()
	for _, ek := range eks {
		h.Write(ek.E.Bytes())
	}
	for _, vk := range vks {
		h.Write(vk.Bytes())
	}
	h.Sum(k.keys[:0])

	return c.verdicts.Get(k, func() bool {
		if c.partsVerified(p, k.keys, s, parts) && composes(p, s, k.script, parts) {
			c.composed.Add(1)
			return true
		}
		// Concurrent distinct scripts verify in parallel up to the pool
		// bound; concurrent identical ones wait on this computation.
		var v bool
		c.pool.Run(func() { v = pvss.VrfyScript(p, eks, vks, s) })
		return v
	})
}

// partsVerified reports whether every dealer named by s's weight vector
// has a part holding a memoized POSITIVE verdict under the same (params,
// keys digest). This is what makes the compositional path sound without
// trusting the caller: only scripts this cache has itself accepted under
// the CURRENT board keys can vouch for an aggregate. Each part's digest is
// computed before its memo lookup takes the lock.
func (c *Cache) partsVerified(p pvss.Params, keys [sha256.Size]byte, s *pvss.Script, parts map[int]*pvss.Script) bool {
	if len(parts) == 0 || len(s.W) != p.N {
		return false
	}
	any := false
	for i, w := range s.W {
		if w == 0 {
			continue
		}
		if w != 1 || parts[i] == nil {
			return false
		}
		pk := key{n: p.N, degree: p.Degree, script: sha256.Sum256(parts[i].Bytes()), keys: keys}
		if v, ok := c.verdicts.Peek(pk); !ok || !v {
			return false
		}
		any = true
	}
	return any
}

// composes reports whether s is exactly the aggregate of the verified unit
// scripts named by its weight vector: every non-zero weight is 1 and has a
// part, and the product of those parts (order-independent) re-encodes to
// the same bytes as s.
func composes(p pvss.Params, s *pvss.Script, want [sha256.Size]byte, parts map[int]*pvss.Script) bool {
	if len(parts) == 0 || len(s.W) != p.N {
		return false
	}
	var agg *pvss.Script
	for i, w := range s.W {
		switch {
		case w == 0:
			continue
		case w != 1 || parts[i] == nil:
			return false
		}
		if agg == nil {
			agg = parts[i]
			continue
		}
		next, err := pvss.AggScripts(agg, parts[i])
		if err != nil {
			return false
		}
		agg = next
	}
	return agg != nil && sha256.Sum256(agg.Bytes()) == want
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	st := c.verdicts.Stats()
	composed := c.composed.Load()
	return Stats{Lookups: st.Lookups, Hits: st.Hits, Verifies: st.Misses - composed, Composed: composed}
}
