package scache

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/verifypool"
)

type fixture struct {
	p   pvss.Params
	eks []pvss.EncKey
	sks []pvss.SigKey
	vks []pairing.G1
}

func setup(t *testing.T, r *rand.Rand, n, degree int) *fixture {
	t.Helper()
	fx := &fixture{p: pvss.Params{N: n, Degree: degree}}
	for i := 0; i < n; i++ {
		ek, _, err := pvss.GenerateEncKey(r)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := pvss.GenerateSigKey(r)
		if err != nil {
			t.Fatal(err)
		}
		fx.eks = append(fx.eks, ek)
		fx.sks = append(fx.sks, sk)
		fx.vks = append(fx.vks, sk.VK)
	}
	return fx
}

func deal(t *testing.T, r *rand.Rand, fx *fixture, dealer int) *pvss.Script {
	t.Helper()
	s, err := pvss.Deal(fx.p, fx.eks, dealer, fx.sks[dealer], field.MustRandom(r), r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMemoizesPositiveAndNegative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fx := setup(t, r, 4, 1)
	good := deal(t, r, fx, 0)
	bad := deal(t, r, fx, 1)
	bad.U2 = bad.U2.Mul(pairing.G2Generator().Exp(field.MustRandom(r)))

	c := New(nil)
	for i := 0; i < 3; i++ {
		if !c.Verify(fx.p, fx.eks, fx.vks, good) {
			t.Fatal("honest script rejected")
		}
		if c.Verify(fx.p, fx.eks, fx.vks, bad) {
			t.Fatal("mauled script accepted")
		}
	}
	st := c.Stats()
	if st.Lookups != 6 || st.Verifies != 2 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want lookups=6 verifies=2 hits=4", st)
	}
}

func TestKeyBindsBoardKeys(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	fx := setup(t, r, 4, 1)
	s := deal(t, r, fx, 0)
	c := New(nil)
	if !c.Verify(fx.p, fx.eks, fx.vks, s) {
		t.Fatal("honest script rejected")
	}
	// Re-key one board slot: the memoized verdict must NOT apply.
	ek2, _, err := pvss.GenerateEncKey(r)
	if err != nil {
		t.Fatal(err)
	}
	eks2 := append([]pvss.EncKey(nil), fx.eks...)
	eks2[2] = ek2
	if c.Verify(fx.p, eks2, fx.vks, s) {
		t.Fatal("stale verdict served for a re-keyed board")
	}
	if st := c.Stats(); st.Verifies != 2 {
		t.Fatalf("verifies = %d, want 2 (distinct key sets are distinct entries)", st.Verifies)
	}
}

func TestNilScriptRejected(t *testing.T) {
	c := New(nil)
	fx := setup(t, rand.New(rand.NewSource(4)), 4, 1)
	if c.Verify(fx.p, fx.eks, fx.vks, nil) {
		t.Fatal("nil script accepted")
	}
}

// TestConcurrentVerify exercises the pool path under -race: many
// goroutines, two distinct scripts, shared bounded pool.
func TestConcurrentVerify(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	fx := setup(t, r, 4, 1)
	a, b := deal(t, r, fx, 0), deal(t, r, fx, 1)
	c := New(verifypool.New(2))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		s := a
		if i%2 == 1 {
			s = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !c.Verify(fx.p, fx.eks, fx.vks, s) {
				t.Error("honest script rejected")
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Lookups != 16 {
		t.Fatalf("lookups = %d, want 16", st.Lookups)
	}
	// Memo + single-flight guarantee at most one cold verify per script.
	if st.Verifies > 2 {
		t.Fatalf("cold verifies = %d, want ≤ 2", st.Verifies)
	}
}

// TestComposedRequiresPartsVerifiedUnderCurrentKeys pins the board-rekey
// guarantee of the compositional path: parts verified under the OLD board
// keys must not vouch for an aggregate after a slot is re-keyed — the
// aggregate must take the cold path under the new keys (and fail, since
// the shares no longer match the registered encryption key).
func TestComposedRequiresPartsVerifiedUnderCurrentKeys(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	fx := setup(t, r, 4, 1)
	s0, s1 := deal(t, r, fx, 0), deal(t, r, fx, 1)
	agg, err := pvss.AggScripts(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[int]*pvss.Script{0: s0, 1: s1}

	c := New(nil)
	if !c.Verify(fx.p, fx.eks, fx.vks, s0) || !c.Verify(fx.p, fx.eks, fx.vks, s1) {
		t.Fatal("honest unit scripts rejected")
	}
	// Under the unchanged board the aggregate composes: no pairing work.
	if !c.VerifyComposed(fx.p, fx.eks, fx.vks, agg, parts) {
		t.Fatal("compositional aggregate rejected")
	}
	if st := c.Stats(); st.Composed != 1 || st.Verifies != 2 {
		t.Fatalf("stats = %+v, want 1 composed on top of 2 cold", st)
	}
	// Re-key a slot: the same parts must no longer compose, and the full
	// verification under the new keys must reject the aggregate.
	ek2, _, err := pvss.GenerateEncKey(r)
	if err != nil {
		t.Fatal(err)
	}
	eks2 := append([]pvss.EncKey(nil), fx.eks...)
	eks2[1] = ek2
	if c.VerifyComposed(fx.p, eks2, fx.vks, agg, parts) {
		t.Fatal("stale parts vouched for an aggregate under re-keyed board")
	}
	st := c.Stats()
	if st.Composed != 1 {
		t.Fatalf("composed = %d, want 1 (no composition under new keys)", st.Composed)
	}
	if st.Verifies != 3 {
		t.Fatalf("verifies = %d, want 3 (re-keyed aggregate must verify cold)", st.Verifies)
	}
}

// TestComposedRejectsUnverifiedParts: parts the cache never accepted (or
// rejected) cannot vouch for an aggregate, whatever bytes they carry.
func TestComposedRejectsUnverifiedParts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	fx := setup(t, r, 4, 1)
	s0, s1 := deal(t, r, fx, 0), deal(t, r, fx, 1)
	agg, err := pvss.AggScripts(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(nil)
	// Nothing verified yet: composition must not fire; the aggregate is
	// honest so the cold path accepts it — but as a cold verify.
	if !c.VerifyComposed(fx.p, fx.eks, fx.vks, agg, map[int]*pvss.Script{0: s0, 1: s1}) {
		t.Fatal("honest aggregate rejected")
	}
	if st := c.Stats(); st.Composed != 0 || st.Verifies != 1 {
		t.Fatalf("stats = %+v, want 0 composed + 1 cold verify", st)
	}
}
