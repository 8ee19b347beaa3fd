package sig

import (
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/crypto/field"
)

func memoKeys(t *testing.T, n int, seed int64) ([]PrivateKey, []PublicKey) {
	t.Helper()
	r := testRand(seed)
	sks := make([]PrivateKey, n)
	pks := make([]PublicKey, n)
	for i := range sks {
		var err error
		if sks[i], err = GenerateKey(r); err != nil {
			t.Fatal(err)
		}
		pks[i] = sks[i].PK
	}
	return sks, pks
}

// flipLow flips the lowest bit of a scalar's encoding.
func flipLow(s field.Scalar) field.Scalar {
	b := s.Bytes()
	b[len(b)-1] ^= 1
	return field.FromBytes(b)
}

// TestMemoMatchesRawVerify: the memo-routed verdict equals the raw one on
// valid signatures and on every mauling, both cold and from the memo.
func TestMemoMatchesRawVerify(t *testing.T) {
	sks, pks := memoKeys(t, 2, 11)
	msg := []byte("memo msg")
	good := sks[0].Sign(msg)
	cases := []struct {
		name string
		pk   PublicKey
		msg  []byte
		s    Signature
	}{
		{"valid", pks[0], msg, good},
		{"flipped c", pks[0], msg, Signature{C: flipLow(good.C), S: good.S}},
		{"flipped s", pks[0], msg, Signature{C: good.C, S: flipLow(good.S)}},
		{"wrong signer key", pks[1], msg, good},
		{"wrong message", pks[0], []byte("other"), good},
	}
	m := NewMemo()
	for round := 0; round < 2; round++ { // cold, then memoized
		for _, tc := range cases {
			want := Verify(tc.pk, tc.msg, tc.s)
			if got := m.Verify(tc.pk, tc.msg, tc.s); got != want {
				t.Fatalf("round %d, %s: memo verdict %v, raw %v", round, tc.name, got, want)
			}
		}
	}
	if !Verify(pks[0], msg, good) {
		t.Fatal("valid signature rejected")
	}
	st := m.Stats()
	if st.Verifies != int64(len(cases)) || st.Hits != int64(len(cases)) || st.Lookups != 2*int64(len(cases)) {
		t.Fatalf("stats = %+v, want %d cold verifies and %d hits", st, len(cases), len(cases))
	}
}

// TestMemoQuorumMatchesRaw: the memo plugs into the one quorum loop, so
// every structural rejection (threshold, duplicates, index range, signer
// mismatch) is identical to the raw VerifyQuorum.
func TestMemoQuorumMatchesRaw(t *testing.T) {
	const n = 4
	sks, pks := memoKeys(t, n, 12)
	msg := []byte("quorum")
	var full Quorum
	for i := 0; i < 3; i++ {
		full.Add(i, sks[i].Sign(msg))
	}
	swapped := Quorum{Indices: []int{0, 1, 2}, Sigs: []Signature{full.Sigs[1], full.Sigs[0], full.Sigs[2]}}
	dup := Quorum{Indices: []int{0, 0, 1}, Sigs: []Signature{full.Sigs[0], full.Sigs[0], full.Sigs[1]}}
	outOfRange := Quorum{Indices: []int{0, 1, n}, Sigs: []Signature{full.Sigs[0], full.Sigs[1], full.Sigs[2]}}
	ragged := Quorum{Indices: []int{0, 1, 2}, Sigs: full.Sigs[:2]}
	cases := []struct {
		name      string
		q         *Quorum
		threshold int
	}{
		{"valid", &full, 3},
		{"below threshold", &full, 4},
		{"wrong signer index", &swapped, 3},
		{"duplicate indices", &dup, 3},
		{"index out of range", &outOfRange, 3},
		{"ragged", &ragged, 2},
		{"nil", nil, 0},
	}
	m := NewMemo()
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			want := VerifyQuorum(pks, msg, tc.q, tc.threshold)
			if got := m.VerifyQuorum(pks, msg, tc.q, tc.threshold); got != want {
				t.Fatalf("round %d, %s: memo verdict %v, raw %v", round, tc.name, got, want)
			}
		}
	}
	if !VerifyQuorum(pks, msg, &full, 3) || VerifyQuorum(pks, msg, &dup, 3) || VerifyQuorum(pks, msg, &swapped, 3) {
		t.Fatal("raw VerifyQuorum verdicts are not the expected baseline")
	}
	// A repeat of the valid quorum is answered entirely from the memo.
	before := m.Stats()
	if !m.VerifyQuorum(pks, msg, &full, 3) {
		t.Fatal("valid quorum rejected on repeat")
	}
	after := m.Stats()
	if after.Verifies != before.Verifies || after.Hits-before.Hits != 3 {
		t.Fatalf("repeat quorum: stats %+v -> %+v, want 3 hits and no cold verify", before, after)
	}
}

// TestMemoReRegisteredKey: overwriting a board slot with a new key must
// never hit the old key's verdict, in either direction.
func TestMemoReRegisteredKey(t *testing.T) {
	sks, pks := memoKeys(t, 2, 13)
	msg := []byte("slot")
	s := sks[0].Sign(msg)
	m := NewMemo()
	var q Quorum
	q.Add(0, s)
	if !m.VerifyQuorum(pks, msg, &q, 1) {
		t.Fatal("valid quorum rejected")
	}
	regs := []PublicKey{pks[1], pks[1]} // slot 0 re-registered
	if m.VerifyQuorum(regs, msg, &q, 1) {
		t.Fatal("stale positive verdict after key re-registration")
	}
	if want := VerifyQuorum(regs, msg, &q, 1); want {
		t.Fatal("raw verdict unexpectedly accepts")
	}
	if !m.VerifyQuorum(pks, msg, &q, 1) {
		t.Fatal("original key's verdict lost")
	}
	if st := m.Stats(); st.Verifies != 2 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 cold verifies and 1 hit", st)
	}
}

func TestNilMemoVerifiesDirectly(t *testing.T) {
	sks, pks := memoKeys(t, 1, 14)
	s := sks[0].Sign([]byte("x"))
	var m *Memo
	if !m.Verify(pks[0], []byte("x"), s) || m.Verify(pks[0], []byte("y"), s) {
		t.Fatal("nil memo verdicts differ from raw")
	}
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("nil memo stats = %+v", st)
	}
}

// TestMemoGenerations: the memo holds at most two generations of memoGen
// entries, and a hit in the older generation is promoted so live entries
// survive a flip.
func TestMemoGenerations(t *testing.T) {
	m := NewMemo()
	key := func(i int) [sha256.Size]byte {
		return sha256.Sum256([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
	for i := 0; i < 3*memoGen; i++ {
		m.verdicts().Put(key(i), true)
		if l := m.verdicts().Len(); l > 2*memoGen {
			t.Fatalf("memo holds %d entries, bound %d", l, 2*memoGen)
		}
	}
	if _, ok := m.verdicts().Peek(key(0)); ok {
		t.Fatal("oldest generation was not dropped")
	}

	// Promotion through the public path: a real triple decided, pushed into
	// the older generation by a full generation of other entries, then
	// looked up again is a hit.
	sks, pks := memoKeys(t, 1, 15)
	s := sks[0].Sign([]byte("p"))
	m2 := NewMemo()
	if !m2.Verify(pks[0], []byte("p"), s) {
		t.Fatal("valid signature rejected")
	}
	for i := 0; i < memoGen; i++ {
		m2.verdicts().Put(key(i), true)
	}
	if !m2.Verify(pks[0], []byte("p"), s) {
		t.Fatal("promoted verdict lost")
	}
	if st := m2.Stats(); st.Hits != 1 || st.Verifies != 1 {
		t.Fatalf("promotion: stats %+v", st)
	}
}

// TestMemoConcurrent hammers overlapping triples from many goroutines; run
// under -race. Every verdict must equal the raw one.
func TestMemoConcurrent(t *testing.T) {
	const n = 4
	sks, pks := memoKeys(t, n, 16)
	msgs := [][]byte{[]byte("a"), []byte("b")}
	type claim struct {
		pk   PublicKey
		msg  []byte
		s    Signature
		want bool
	}
	var claims []claim
	for i := 0; i < n; i++ {
		for _, msg := range msgs {
			s := sks[i].Sign(msg)
			claims = append(claims, claim{pks[i], msg, s, true})
			bad := Signature{C: s.C, S: flipLow(s.S)}
			claims = append(claims, claim{pks[i], msg, bad, Verify(pks[i], msg, bad)})
		}
	}
	m := NewMemo()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(claims); i++ {
				cl := claims[(g+i)%len(claims)]
				if m.Verify(cl.pk, cl.msg, cl.s) != cl.want {
					errs <- "verdict mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := m.Stats()
	if st.Lookups != int64(8*3*len(claims)) || st.Hits+st.Verifies != st.Lookups {
		t.Fatalf("stats = %+v", st)
	}
	if st.Verifies < int64(len(claims)) {
		t.Fatalf("fewer cold verifies (%d) than distinct claims (%d)", st.Verifies, len(claims))
	}
}
