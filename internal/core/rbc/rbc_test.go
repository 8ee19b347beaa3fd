package rbc

import (
	"bytes"
	"testing"

	"repro/internal/crypto/merkle"
	"repro/internal/crypto/rs"
	"repro/internal/memo"
	"repro/internal/sim"
	"repro/internal/wire"
)

// harness wires RBC instances for all honest nodes and records outputs.
type harness struct {
	nw      *sim.Network
	outputs map[int][]byte
	rounds  map[int]int
}

func newHarness(n, f int, seed int64, sched sim.Scheduler, byz map[int]bool) *harness {
	h := &harness{
		nw:      sim.New(sim.Config{N: n, F: f, Seed: seed, Scheduler: sched, Byzantine: byz}),
		outputs: make(map[int][]byte),
		rounds:  make(map[int]int),
	}
	return h
}

func (h *harness) startBracha(sender int, value []byte, byz map[int]bool) {
	n := h.nw.Node(0).N()
	for i := 0; i < n; i++ {
		if byz[i] {
			continue
		}
		i := i
		r := New(h.nw.Node(i), "rbc", sender, func(v []byte) {
			h.outputs[i] = v
			h.rounds[i] = h.nw.Node(i).Depth()
		})
		if i == sender && value != nil {
			r.Start(value)
		}
	}
}

func (h *harness) honestCount(byz map[int]bool) int {
	return h.nw.Node(0).N() - len(byz)
}

func TestBrachaValidity(t *testing.T) {
	h := newHarness(4, 1, 1, nil, nil)
	h.startBracha(0, []byte("value-v"), nil)
	err := h.nw.Run(10_000, func() bool { return len(h.outputs) == 4 })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h.outputs {
		if !bytes.Equal(v, []byte("value-v")) {
			t.Fatalf("node %d output %q", i, v)
		}
	}
}

func TestBrachaManySizes(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		h := newHarness(n, f, int64(n), nil, nil)
		h.startBracha(n-1, []byte("payload"), nil)
		if err := h.nw.Run(1_000_000, func() bool { return len(h.outputs) == n }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBrachaToleratesCrashedParties(t *testing.T) {
	byz := map[int]bool{2: true, 5: true} // f=2 crashed (silent)
	h := newHarness(7, 2, 3, nil, byz)
	h.startBracha(0, []byte("v"), byz)
	err := h.nw.Run(100_000, func() bool { return len(h.outputs) == h.honestCount(byz) })
	if err != nil {
		t.Fatal(err)
	}
}

// TestBrachaAgreementUnderEquivocation: a Byzantine sender sends v1 to half
// the parties and v2 to the rest. Honest parties may or may not deliver, but
// any two that deliver must agree.
func TestBrachaAgreementUnderEquivocation(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		byz := map[int]bool{0: true}
		h := newHarness(4, 1, seed, nil, byz)
		h.startBracha(0, nil, byz)
		// Craft equivocating proposals from party 0.
		mk := func(v string) []byte {
			var w wire.Writer
			w.Byte(msgPropose)
			w.Blob([]byte(v))
			return w.Bytes()
		}
		h.nw.Inject(0, 1, "rbc", mk("v1"))
		h.nw.Inject(0, 2, "rbc", mk("v1"))
		h.nw.Inject(0, 3, "rbc", mk("v2"))
		if err := h.nw.RunAll(100_000); err != nil {
			t.Fatal(err)
		}
		var first []byte
		for i, v := range h.outputs {
			if first == nil {
				first = v
			} else if !bytes.Equal(first, v) {
				t.Fatalf("seed %d: node %d disagreed: %q vs %q", seed, i, v, first)
			}
		}
	}
}

// TestBrachaTotality: if any honest party delivers, all honest parties
// deliver — even when the sender crashes mid-protocol (simulated by the
// sender sending proposals to only 3 of 4 parties and nothing else).
func TestBrachaTotality(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		byz := map[int]bool{0: true}
		h := newHarness(4, 1, seed, nil, byz)
		h.startBracha(0, nil, byz)
		mk := func(v string) []byte {
			var w wire.Writer
			w.Byte(msgPropose)
			w.Blob([]byte(v))
			return w.Bytes()
		}
		// Proposal reaches only parties 1 and 2.
		h.nw.Inject(0, 1, "rbc", mk("v"))
		h.nw.Inject(0, 2, "rbc", mk("v"))
		if err := h.nw.RunAll(100_000); err != nil {
			t.Fatal(err)
		}
		if len(h.outputs) != 0 && len(h.outputs) != 3 {
			t.Fatalf("seed %d: totality violated: %d of 3 honest delivered", seed, len(h.outputs))
		}
	}
}

func TestBrachaIgnoresProposeFromNonSender(t *testing.T) {
	h := newHarness(4, 1, 9, nil, nil)
	h.startBracha(0, nil, nil) // sender never starts
	var w wire.Writer
	w.Byte(msgPropose)
	w.Blob([]byte("forged"))
	h.nw.Inject(2, 1, "rbc", w.Bytes()) // party 2 pretends to be the sender
	if err := h.nw.RunAll(10_000); err != nil {
		t.Fatal(err)
	}
	if len(h.outputs) != 0 {
		t.Fatal("delivered value proposed by non-sender")
	}
	if h.nw.Metrics().Rejected == 0 {
		t.Fatal("forged proposal not counted as rejected")
	}
}

func TestBrachaMalformedMessagesRejected(t *testing.T) {
	h := newHarness(4, 1, 10, nil, nil)
	h.startBracha(0, []byte("ok"), nil)
	h.nw.Inject(1, 2, "rbc", []byte{})           // empty
	h.nw.Inject(1, 2, "rbc", []byte{99, 1, 2})   // unknown tag
	h.nw.Inject(1, 2, "rbc", []byte{msgEcho, 1}) // truncated blob
	if err := h.nw.Run(100_000, func() bool { return len(h.outputs) == 4 }); err != nil {
		t.Fatal(err)
	}
	if h.nw.Metrics().Rejected < 3 {
		t.Fatalf("rejected = %d, want >= 3", h.nw.Metrics().Rejected)
	}
}

func TestBrachaCommunicationQuadratic(t *testing.T) {
	// Communication for a |m|-bit payload should scale ~n² (echo/ready are
	// all-to-all). Check the growth exponent between n=4 and n=8 is ≈ 2.
	bytesFor := func(n int) int64 {
		f := (n - 1) / 3
		h := newHarness(n, f, 11, nil, nil)
		h.startBracha(0, make([]byte, 64), nil)
		if err := h.nw.Run(1_000_000, func() bool { return len(h.outputs) == n }); err != nil {
			t.Fatal(err)
		}
		return h.nw.Metrics().Honest.Bytes
	}
	b4, b8 := bytesFor(4), bytesFor(8)
	ratio := float64(b8) / float64(b4)
	if ratio < 2.5 || ratio > 6.5 { // 2² = 4 ± slack
		t.Fatalf("scaling n=4→8 ratio %.2f, want ≈4", ratio)
	}
}

func TestAVIDDeliversAllSizes(t *testing.T) {
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, n := range []int{4, 7} {
		f := (n - 1) / 3
		nw := sim.New(sim.Config{N: n, F: f, Seed: int64(n)})
		outputs := make(map[int][]byte)
		for i := 0; i < n; i++ {
			i := i
			a := NewAVID(nw.Node(i), "avid", 0, func(v []byte) { outputs[i] = v })
			if i == 0 {
				a.Start(payload)
			}
		}
		if err := nw.Run(1_000_000, func() bool { return len(outputs) == n }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range outputs {
			if !bytes.Equal(v, payload) {
				t.Fatalf("n=%d node %d: wrong payload", n, i)
			}
		}
	}
}

func TestAVIDToleratesCrashes(t *testing.T) {
	const n, f = 7, 2
	nw := sim.New(sim.Config{N: n, F: f, Seed: 5})
	outputs := make(map[int][]byte)
	crashed := map[int]bool{1: true, 4: true}
	for i := 0; i < n; i++ {
		if crashed[i] {
			nw.Node(i).Crash()
			continue
		}
		i := i
		a := NewAVID(nw.Node(i), "avid", 0, func(v []byte) { outputs[i] = v })
		if i == 0 {
			a.Start([]byte("dispersal payload"))
		}
	}
	if err := nw.Run(1_000_000, func() bool { return len(outputs) == n-len(crashed) }); err != nil {
		t.Fatal(err)
	}
}

// TestAVIDRejectsInconsistentDispersal: a Byzantine sender disperses chunks
// of two different payloads under one Merkle tree cannot exist (root pins
// them); instead try chunks from two different trees — parties reject
// mismatched proofs, so nothing is delivered for the wrong root.
func TestAVIDInconsistentSenderNoDisagreement(t *testing.T) {
	const n, f = 4, 1
	for seed := int64(0); seed < 10; seed++ {
		nw := sim.New(sim.Config{N: n, F: f, Seed: seed, Byzantine: map[int]bool{0: true}})
		outputs := make(map[int][]byte)
		for i := 1; i < n; i++ {
			i := i
			NewAVID(nw.Node(i), "avid", 0, func(v []byte) { outputs[i] = v })
		}
		// Sender behaves honestly toward a quorum but swaps one chunk set.
		send := func(to int, value []byte) {
			chunks, _ := rs.Encode(value, f+1, n)
			tree, _ := merkle.Build(chunks)
			proof, _ := tree.Prove(to)
			var w wire.Writer
			w.Byte(avidDisperse)
			root := tree.Root()
			w.Raw(root[:])
			w.Blob(chunks[to])
			encodeProof(&w, proof)
			nw.Inject(0, to, "avid", w.Bytes())
		}
		send(1, []byte("AAAA"))
		send(2, []byte("AAAA"))
		send(3, []byte("BBBB"))
		if err := nw.RunAll(100_000); err != nil {
			t.Fatal(err)
		}
		var first []byte
		for i, v := range outputs {
			if first == nil {
				first = v
			} else if !bytes.Equal(first, v) {
				t.Fatalf("seed %d: node %d disagreed", seed, i)
			}
		}
	}
}

func TestAVIDBytesBeatBrachaOnLargePayloadButCarryLogFactor(t *testing.T) {
	// For a large payload AVID ships O(n·|m|) vs Bracha's O(n²·|m|).
	const n, f = 7, 2
	payload := make([]byte, 4096)
	brachaBytes := func() int64 {
		h := newHarness(n, f, 21, nil, nil)
		h.startBracha(0, payload, nil)
		if err := h.nw.Run(1_000_000, func() bool { return len(h.outputs) == n }); err != nil {
			t.Fatal(err)
		}
		return h.nw.Metrics().Honest.Bytes
	}()
	avidBytes := func() int64 {
		nw := sim.New(sim.Config{N: n, F: f, Seed: 22})
		outputs := make(map[int][]byte)
		for i := 0; i < n; i++ {
			i := i
			a := NewAVID(nw.Node(i), "avid", 0, func(v []byte) { outputs[i] = v })
			if i == 0 {
				a.Start(payload)
			}
		}
		if err := nw.Run(1_000_000, func() bool { return len(outputs) == n }); err != nil {
			t.Fatal(err)
		}
		return nw.Metrics().Honest.Bytes
	}()
	if avidBytes >= brachaBytes {
		t.Fatalf("AVID (%d B) not cheaper than Bracha (%d B) on 4 KiB payload", avidBytes, brachaBytes)
	}
}

// TestAVIDRunsOnCachedCodec pins the data-plane rewiring: an AVID broadcast
// must route every encode (dispersal + per-party re-encode check) and every
// reconstruction through the cached-basis codec, and the decoded payloads
// must be intact. The slow evaluate/interpolate path stays test-only.
func TestAVIDRunsOnCachedCodec(t *testing.T) {
	const n, f = 7, 2
	before := rs.Snapshot()
	nw := sim.New(sim.Config{N: n, F: f, Seed: 77})
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	outputs := make(map[int][]byte)
	for i := 0; i < n; i++ {
		i := i
		a := NewAVID(nw.Node(i), "avid", 0, func(v []byte) { outputs[i] = v })
		if i == 0 {
			a.Start(payload)
		}
	}
	if err := nw.Run(1_000_000, func() bool { return len(outputs) == n }); err != nil {
		t.Fatal(err)
	}
	for i, v := range outputs {
		if !bytes.Equal(v, payload) {
			t.Fatalf("node %d corrupted payload", i)
		}
	}
	d := rs.Snapshot().Delta(before)
	// 1 dispersal encode; n decodes. The n delivery-time re-encode checks
	// are answered by the tree dedup cache (the sender seeds it), so they
	// show up as tree traffic rather than extra encodes.
	if d.Encodes < 1 || d.Decodes < int64(n) {
		t.Fatalf("AVID bypassed the codec: %+v", d)
	}
	if d.TreeHits+d.TreeBuilds < int64(n) {
		t.Fatalf("AVID skipped re-encode verification: %+v", d)
	}
	if d.CodecBuilds+d.CodecHits == 0 {
		t.Fatal("AVID never consulted the codec cache")
	}
}

// resetTreeCache empties the process-wide AVID verification cache so a test
// observes its own hit/build traffic deterministically.
func resetTreeCache() {
	treeCache = memo.New[treeCacheKey, struct{}](treeCacheCap)
}

// TestAVIDParityRecomputeDeduped: with the sender seeding the cache at
// dispersal, every party's delivery-time re-encode verification is answered
// from the cache — n hits, zero rebuilds — and the counters surface through
// rs.Stats.
func TestAVIDParityRecomputeDeduped(t *testing.T) {
	const n, f = 7, 2
	resetTreeCache()
	before := rs.Snapshot()
	nw := sim.New(sim.Config{N: n, F: f, Seed: 11})
	outputs := make(map[int][]byte)
	for i := 0; i < n; i++ {
		i := i
		a := NewAVID(nw.Node(i), "avid", 0, func(v []byte) { outputs[i] = v })
		if i == 0 {
			a.Start([]byte("dedup payload: recompute parity once, not n times"))
		}
	}
	if err := nw.Run(1_000_000, func() bool { return len(outputs) == n }); err != nil {
		t.Fatal(err)
	}
	d := rs.Snapshot().Delta(before)
	if d.TreeBuilds != 0 {
		t.Fatalf("expected 0 tree rebuilds with sender-seeded cache, got %d", d.TreeBuilds)
	}
	if d.TreeHits != n {
		t.Fatalf("expected %d tree-cache hits (one per delivery), got %d", n, d.TreeHits)
	}
}

// TestVerifyRootCachesOnlySuccesses exercises the miss path directly: the
// first verification of a (root, value) pair is a build, repeats are hits,
// and a failing verification is never cached (each retry rebuilds).
func TestVerifyRootCachesOnlySuccesses(t *testing.T) {
	const k, n = 3, 7
	codec, err := rs.Get(k, n)
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("verify-root unit payload")
	chunks, err := codec.Encode(value)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := merkle.Build(chunks)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()

	resetTreeCache()
	before := rs.Snapshot()
	if !verifyRoot(codec, k, n, root, value) {
		t.Fatal("genuine pair rejected")
	}
	if !verifyRoot(codec, k, n, root, value) {
		t.Fatal("cached pair rejected")
	}
	d := rs.Snapshot().Delta(before)
	if d.TreeBuilds != 1 || d.TreeHits != 1 {
		t.Fatalf("want 1 build + 1 hit, got %d builds %d hits", d.TreeBuilds, d.TreeHits)
	}

	var wrong merkle.Root
	wrong[0] = ^root[0]
	before = rs.Snapshot()
	for i := 0; i < 2; i++ {
		if verifyRoot(codec, k, n, wrong, value) {
			t.Fatal("mismatched root accepted")
		}
	}
	d = rs.Snapshot().Delta(before)
	if d.TreeBuilds != 2 || d.TreeHits != 0 {
		t.Fatalf("failures must not cache: want 2 builds + 0 hits, got %d builds %d hits", d.TreeBuilds, d.TreeHits)
	}
}
