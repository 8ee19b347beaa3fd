package pki

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/sig"
	"repro/internal/crypto/vrf"
)

func TestSetupProducesConsistentBoard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rings, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if board.N() != 4 || len(rings) != 4 {
		t.Fatalf("n mismatch: %d/%d", board.N(), len(rings))
	}
	for i, r := range rings {
		if r.Self != i {
			t.Fatalf("ring %d has Self=%d", i, r.Self)
		}
		if r.Board != board {
			t.Fatal("ring not linked to the shared board")
		}
		// Private keys must match the registered public keys.
		if !r.Sig.PK.P.Equal(board.Parties[i].Sig.P) {
			t.Fatalf("party %d signature key mismatch", i)
		}
		if !r.VRF.PK.P.Equal(board.Parties[i].VRF.P) {
			t.Fatalf("party %d VRF key mismatch", i)
		}
	}
	// Accessors return n entries in index order.
	if len(board.SigKeys()) != 4 || len(board.EncKeys()) != 4 || len(board.PVSSVKs()) != 4 {
		t.Fatal("accessor lengths wrong")
	}
}

func TestKeysAreDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if board.Parties[i].Sig.P.Equal(board.Parties[j].Sig.P) {
				t.Fatalf("parties %d and %d share a signature key", i, j)
			}
		}
	}
}

// TestGrindVRFKeyBiasesKnownSeed demonstrates the §6.1 attack that Seeding
// defeats: against a KNOWN deterministic seed, key grinding shifts the VRF
// output distribution upward; against an unpredictable seed it cannot.
func TestGrindVRFKeyBiasesKnownSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	knownSeed := []byte("publicly-known-seed")
	ground, err := GrindVRFKey(rng, knownSeed, 64)
	if err != nil {
		t.Fatal(err)
	}
	groundOut, _ := ground.Eval(knownSeed)

	// Compare with honest single-keygen outputs: the ground key should beat
	// most of them on the seed it was ground for.
	beats := 0
	const honest = 40
	for i := 0; i < honest; i++ {
		k, err := vrf.GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := k.Eval(knownSeed)
		if out.Less(groundOut) {
			beats++
		}
	}
	if beats < honest*3/4 {
		t.Fatalf("ground key beat only %d/%d honest keys on the known seed", beats, honest)
	}

	// On a fresh unpredictable seed, the same ground key is ordinary.
	fresh := []byte("seed-unknown-at-grinding-time")
	freshOut, _ := ground.Eval(fresh)
	beats = 0
	for i := 0; i < honest; i++ {
		k, _ := vrf.GenerateKey(rng)
		out, _ := k.Eval(fresh)
		if out.Less(freshOut) {
			beats++
		}
	}
	if beats > honest*3/4 {
		t.Fatalf("ground key still beats %d/%d on an unpredictable seed — grinding should not transfer", beats, honest)
	}
}

func TestRegisterVRFOverwritesSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	_, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	k, err := vrf.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	board.RegisterVRF(2, k.PK)
	if !board.Parties[2].VRF.P.Equal(k.PK.P) {
		t.Fatal("RegisterVRF did not take effect")
	}
}

// TestVerifyVRFSharedCache: every keyring of a cluster routes VerifyVRF
// through ONE memoizing verifier, so party j's check of a quadruple makes
// party k's identical check free; and a key re-registered on the board
// (the corrupted-registration model) never hits a stale verdict.
func TestVerifyVRFSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rings, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("shared-cache-input")
	out, pf := rings[2].VRF.Eval(input)
	for i, r := range rings {
		if !r.VerifyVRF(2, input, out, pf) {
			t.Fatalf("ring %d rejected a valid evaluation", i)
		}
	}
	s := rings[0].Verifier.Stats()
	if s.Misses != 1 || s.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 cold verify + 3 shared hits", s)
	}
	// Re-register slot 2 with a ground key: the old proof must now fail,
	// not hit the cached positive verdict.
	ground, err := vrf.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	board.RegisterVRF(2, ground.PK)
	if rings[0].VerifyVRF(2, input, out, pf) {
		t.Fatal("stale cache hit after VRF key re-registration")
	}
	// A nil verifier degrades to raw verification.
	bare := &Keyring{Board: board}
	gout, gpf := ground.Eval(input)
	if !bare.VerifyVRF(2, input, gout, gpf) {
		t.Fatal("nil-verifier keyring rejected a valid evaluation")
	}
}

// TestPositiveCaching: repeating one valid VRF check on a keyring runs the
// cold verification once and answers every later lookup from the memo.
func TestPositiveCaching(t *testing.T) {
	sk, err := vrf.GenerateKey(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("input")
	out, pf := sk.Eval(in)
	c := &Keyring{Board: &Board{Parties: []Party{{VRF: sk.PK}}}, Verifier: newVRFMemo()}
	for i := 0; i < 5; i++ {
		if !c.VerifyVRF(0, in, out, pf) {
			t.Fatal("valid proof rejected")
		}
	}
	if s := c.Verifier.Stats(); s.Lookups != 5 || s.Misses != 1 || s.Hits != 4 {
		t.Fatalf("stats = %+v, want 5 lookups / 1 verify / 4 hits", s)
	}
}

// TestKeyDiscriminates: every component of the VRF memo key separates
// entries — party index, input, and the registered public key.
func TestKeyDiscriminates(t *testing.T) {
	keypair := func(seed int64) vrf.PrivateKey {
		sk, err := vrf.GenerateKey(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	sk, sk2 := keypair(3), keypair(4)
	in, in2 := []byte("a"), []byte("b")
	out, pf := sk.Eval(in)
	board := &Board{Parties: []Party{{VRF: sk.PK}, {VRF: sk.PK}}}
	c := &Keyring{Board: board, Verifier: newVRFMemo()}
	if !c.VerifyVRF(0, in, out, pf) {
		t.Fatal("valid proof rejected")
	}
	// Different party, same everything else: cold verify, same verdict.
	if !c.VerifyVRF(1, in, out, pf) {
		t.Fatal("party 1 copy rejected")
	}
	// Different input: the proof no longer matches.
	if c.VerifyVRF(0, in2, out, pf) {
		t.Fatal("proof accepted for a different input")
	}
	// Re-registered key on the same slot: must NOT hit party 0's entry.
	board.RegisterVRF(0, sk2.PK)
	if c.VerifyVRF(0, in, out, pf) {
		t.Fatal("stale verdict after key re-registration")
	}
	if s := c.Verifier.Stats(); s.Misses != 4 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 distinct cold verifies", s)
	}
}

// TestKeyringSharedScriptCache mirrors TestKeyringSharedCache (the VRF
// layer) for PVSS scripts: every keyring of a Setup shares ONE script
// verdict cache, compositional aggregates validate without cold work, and
// a nil-Scripts keyring degrades to raw batched verification.
func TestKeyringSharedScriptCache(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rings, board, err := Setup(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := pvss.Params{N: 4, Degree: 1}
	deal := func(dealer int) *pvss.Script {
		s, derr := pvss.Deal(p, board.EncKeys(), dealer, rings[dealer].PVSSSig, field.MustRandom(rng), rng)
		if derr != nil {
			t.Fatal(derr)
		}
		return s
	}
	s0 := deal(0)
	for i, r := range rings {
		if !r.VerifyScript(p, s0) {
			t.Fatalf("ring %d rejected a valid script", i)
		}
	}
	st := rings[0].Scripts.Stats()
	if st.Verifies != 1 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 1 cold verify + 3 shared hits", st)
	}
	// A compositional aggregate of verified parts costs no cold verify.
	s1 := deal(1)
	if !rings[1].VerifyScript(p, s1) {
		t.Fatal("second script rejected")
	}
	agg, err := pvss.AggScripts(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[int]*pvss.Script{0: s0, 1: s1}
	if !rings[2].VerifyScriptComposed(p, agg, parts) {
		t.Fatal("compositional aggregate rejected")
	}
	st = rings[0].Scripts.Stats()
	if st.Verifies != 2 || st.Composed != 1 {
		t.Fatalf("stats = %+v, want 2 cold verifies + 1 composed", st)
	}
	// A nil-Scripts keyring degrades to raw verification.
	bare := &Keyring{Board: board}
	if !bare.VerifyScript(p, agg) || !bare.VerifyScriptComposed(p, agg, parts) {
		t.Fatal("nil-Scripts keyring rejected a valid script")
	}
	bad := deal(2)
	bad.U2 = bad.U2.Mul(pairing.G2Generator().Exp(field.MustRandom(rng)))
	if bare.VerifyScript(p, bad) || rings[3].VerifyScript(p, bad) {
		t.Fatal("mauled script accepted")
	}
}

// TestKeyringSignatureMemoIsPerParty: unlike the VRF and script caches,
// every keyring owns its own signature memo, so one party's checks never
// warm another's; verdicts through VerifySig/VerifyQuorum match the raw
// ones, and a re-registered signature key misses the old verdict.
func TestKeyringSignatureMemoIsPerParty(t *testing.T) {
	rings, board, err := Setup(4, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*sig.Memo]bool{}
	for _, k := range rings {
		if k.Sigs == nil || seen[k.Sigs] {
			t.Fatal("keyrings must each own a distinct signature memo")
		}
		seen[k.Sigs] = true
	}
	msg := []byte("per-party")
	var q sig.Quorum
	for i := 0; i < 3; i++ {
		q.Add(i, rings[i].Sig.Sign(msg))
	}
	for round := 0; round < 2; round++ {
		if !rings[0].VerifyQuorum(msg, &q, 3) || rings[0].VerifyQuorum(msg, &q, 4) {
			t.Fatal("quorum verdicts differ from raw VerifyQuorum")
		}
		if !rings[0].VerifySig(1, msg, q.Sigs[1]) || rings[0].VerifySig(2, msg, q.Sigs[1]) {
			t.Fatal("signature verdicts differ from raw Verify")
		}
	}
	if st := rings[0].Sigs.Stats(); st.Verifies != 4 || st.Hits == 0 {
		t.Fatalf("party 0 memo stats %+v, want 4 cold verifies and repeat hits", st)
	}
	if st := rings[1].Sigs.Stats(); st.Lookups != 0 {
		t.Fatalf("party 1 memo saw party 0's lookups: %+v", st)
	}
	board.Parties[1].Sig = rings[3].Sig.PK // re-register slot 1
	if rings[0].VerifySig(1, msg, q.Sigs[1]) || rings[0].VerifyQuorum(msg, &q, 3) {
		t.Fatal("stale verdict after signature key re-registration")
	}
	bare := &Keyring{Board: board}
	if !bare.VerifySig(0, msg, q.Sigs[0]) {
		t.Fatal("nil-memo keyring rejected a valid signature")
	}
}
