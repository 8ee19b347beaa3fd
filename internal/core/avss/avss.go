// Package avss implements the paper's private-setup-free asynchronous
// verifiable secret sharing (§5.1, Algorithms 1 and 2): an O(λn²)-bit,
// constant-round, adaptively secure AVSS assuming only a bulletin PKI, the
// discrete-log assumption (via Pedersen commitments), and EUF-CMA signatures.
//
// Sharing (Alg. 1) is a hybrid scheme: the dealer Shamir-shares a random
// encryption key under a Pedersen polynomial commitment, collects n−f
// signatures on the commitment (the quorum proof Π, guaranteeing f+1
// forever-honest parties hold consistent key shares), then Bracha-broadcasts
// the ciphertext of the actual secret, gated on Π. Reconstruction (Alg. 2)
// recovers the key from f+1 verified shares and amplifies it with a Key
// round so that even parties who never saw the commitment can decrypt.
package avss

import (
	"bytes"
	"crypto/sha256"
	"sort"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pedersen"
	"repro/internal/crypto/poly"
	"repro/internal/crypto/sig"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Message tags for the sharing and reconstruction phases.
const (
	msgKeyShare byte = iota + 1
	msgKeyStored
	msgCipher
	msgEcho
	msgReady
	msgKeyRec
	msgKey
)

// ShareOutput is a party's output of AVSS-Sh: the ciphertext plus (when the
// party received a valid KeyShare) its key shares and the commitment. The
// paper's ⊥ cases are modeled by HasShare/HasCmt.
type ShareOutput struct {
	Cipher   []byte
	ShA, ShB field.Scalar
	HasShare bool
	Cmt      pedersen.Commitment
	HasCmt   bool
}

// AVSS is one instance (one dealer, one session) on one node. It carries
// both the AVSS-Sh and AVSS-Rec sub-protocols; reconstruction messages are
// tagged separately on the same instance path.
type AVSS struct {
	rt     proto.Runtime
	inst   string
	keys   *pki.Keyring
	dealer int

	onShare func(ShareOutput)
	onRec   func(secret []byte)

	// Dealer state.
	dealPoly  poly.Poly
	blindPoly poly.Poly
	dealCmt   pedersen.Commitment
	quorum    sig.Quorum
	cipherOut []byte
	cipherSnt bool

	// Party sharing state.
	shA, shB  field.Scalar
	cmt       pedersen.Commitment
	hasShare  bool
	pendingC  *cipherMsg // Cipher waiting for a KeyShare (Alg. 1 line 17)
	echoed    bool
	readySent bool
	echoes    map[string]map[int]bool
	readies   map[string]map[int]bool
	shared    *ShareOutput

	keyShareHook func()

	// Reconstruction state.
	recActive bool
	recSent   bool
	phi       map[int]keyShare // verified key shares (Φ in Alg. 2)
	recA      poly.Poly        // A through the first f+1 verified shares
	recB      poly.Poly        // B through the same shares
	haveRec   bool             // recA/recB are set
	keySent   bool
	keyVotes  map[string]map[int]bool
	keyVals   map[string]field.Scalar
	recOut    bool
}

// keyShare is one verified KeyRec pair (A(ω_j), B(ω_j)).
type keyShare struct{ a, b field.Scalar }

type cipherMsg struct {
	quorum sig.Quorum
	cmtB   []byte
	cipher []byte
}

// New registers an AVSS instance. dealer is the 0-based dealer index;
// onShare fires once when AVSS-Sh outputs, onRec once when AVSS-Rec
// reconstructs. Either callback may be nil.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, dealer int, onShare func(ShareOutput), onRec func([]byte)) *AVSS {
	a := &AVSS{
		rt:       rt,
		inst:     inst,
		keys:     keys,
		dealer:   dealer,
		onShare:  onShare,
		onRec:    onRec,
		echoes:   make(map[string]map[int]bool),
		readies:  make(map[string]map[int]bool),
		phi:      make(map[int]keyShare),
		keyVotes: make(map[string]map[int]bool),
		keyVals:  make(map[string]field.Scalar),
	}
	rt.Register(inst, a)
	return a
}

// StartDealer runs Alg. 1 lines 1–6: sample A(x), B(x) of degree f, commit,
// and send each party its key shares. Only the dealer calls this.
func (a *AVSS) StartDealer(secret []byte) {
	if a.rt.Self() != a.dealer {
		return
	}
	f := a.rt.F()
	var err error
	a.dealPoly, err = poly.Random(a.rt.RandReader(), f)
	if err != nil {
		return
	}
	a.blindPoly, err = poly.Random(a.rt.RandReader(), f)
	if err != nil {
		return
	}
	a.dealCmt, err = pedersen.Commit(a.dealPoly, a.blindPoly)
	if err != nil {
		return
	}
	key := a.dealPoly.Secret()
	a.cipherOut = sealCipher(a.inst, key, secret)
	cmtB := a.dealCmt.Bytes()
	for j := 0; j < a.rt.N(); j++ {
		var w wire.Writer
		w.Byte(msgKeyShare)
		w.Blob(cmtB)
		w.Bytes32(a.dealPoly.Eval(poly.X(j)).Bytes())
		w.Bytes32(a.blindPoly.Eval(poly.X(j)).Bytes())
		a.rt.Send(a.inst, j, w.Bytes())
	}
}

// StartRec activates AVSS-Rec (Alg. 2 line 1): once the sharing output is
// available and this party holds key shares, multicast them.
func (a *AVSS) StartRec() {
	if a.recActive {
		return
	}
	a.recActive = true
	a.maybeSendKeyRec()
	a.maybeFinishRec()
}

// Shared returns the sharing output, or nil if AVSS-Sh has not completed.
func (a *AVSS) Shared() *ShareOutput { return a.shared }

// KeyShare returns this party's recorded key shares. They can become
// available after the sharing output: a reordered network may complete the
// Bracha tail before the dealer's KeyShare message is processed.
func (a *AVSS) KeyShare() (shA, shB field.Scalar, ok bool) {
	return a.shA, a.shB, a.hasShare
}

// OnKeyShare registers fn to run once this party records its key shares
// (immediately when they are already present).
func (a *AVSS) OnKeyShare(fn func()) {
	a.keyShareHook = fn
	if a.hasShare {
		fn()
	}
}

// sealCipher encrypts/decrypts m with a SHA-256 keystream bound to the key
// and instance (cipher = m ⊕ KDF(key), the paper's key ⊕ m generalized to
// arbitrary-length secrets).
func sealCipher(inst string, key field.Scalar, m []byte) []byte {
	out := make([]byte, len(m))
	var ctr [4]byte
	for off := 0; off < len(m); off += sha256.Size {
		h := sha256.New()
		h.Write([]byte("avss/pad"))
		h.Write([]byte(inst))
		h.Write(key.Bytes())
		ctr[0], ctr[1], ctr[2], ctr[3] = byte(off>>24), byte(off>>16), byte(off>>8), byte(off)
		h.Write(ctr[:])
		pad := h.Sum(nil)
		for i := 0; i < sha256.Size && off+i < len(m); i++ {
			out[off+i] = m[off+i] ^ pad[i]
		}
	}
	return out
}

func storedMsg(inst string, cmtB []byte) []byte {
	h := sha256.New()
	h.Write([]byte("avss/stored"))
	h.Write([]byte(inst))
	h.Write(cmtB)
	return h.Sum(nil)
}

// Handle implements proto.Handler.
func (a *AVSS) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case msgKeyShare:
		a.onKeyShare(from, rd)
	case msgKeyStored:
		a.onKeyStored(from, rd)
	case msgCipher:
		a.onCipher(from, rd)
	case msgEcho:
		a.onEcho(from, rd)
	case msgReady:
		a.onReady(from, rd)
	case msgKeyRec:
		a.onKeyRec(from, rd)
	case msgKey:
		a.onKey(from, rd)
	default:
		a.rt.Reject()
	}
}

// onKeyShare is Alg. 1 lines 12–15.
func (a *AVSS) onKeyShare(from int, rd *wire.Reader) {
	cmtB := rd.Blob()
	shAB := rd.Bytes32()
	shBB := rd.Bytes32()
	if rd.Done() != nil || from != a.dealer || a.hasShare {
		a.rt.Reject()
		return
	}
	cmt, err := pedersen.FromBytes(cmtB, a.rt.F())
	if err != nil {
		a.rt.Reject()
		return
	}
	shA, errA := field.SetCanonical(shAB)
	shB, errB := field.SetCanonical(shBB)
	if errA != nil || errB != nil || !cmt.VerifyShare(a.rt.Self(), shA, shB) {
		a.rt.Reject()
		return
	}
	a.shA, a.shB, a.cmt, a.hasShare = shA, shB, cmt, true
	if a.keyShareHook != nil {
		a.keyShareHook()
	}
	s := a.keys.Sig.Sign(storedMsg(a.inst, cmtB))
	var w wire.Writer
	w.Byte(msgKeyStored)
	w.Raw(s.Bytes())
	a.rt.Send(a.inst, a.dealer, w.Bytes())
	// A Cipher may have arrived before our KeyShare (Alg. 1 line 17's wait).
	if a.pendingC != nil {
		p := a.pendingC
		a.pendingC = nil
		a.tryEcho(p)
	}
}

// onKeyStored is Alg. 1 lines 7–10 (dealer only).
func (a *AVSS) onKeyStored(from int, rd *wire.Reader) {
	sb := rd.Raw(sig.Size)
	if rd.Done() != nil || a.rt.Self() != a.dealer || len(a.dealCmt.C) == 0 {
		a.rt.Reject()
		return
	}
	if a.cipherSnt {
		return // late signature after the quorum closed; not an error
	}
	s, err := sig.SignatureFromBytes(sb)
	if err != nil || !a.keys.VerifySig(from, storedMsg(a.inst, a.dealCmt.Bytes()), s) {
		a.rt.Reject()
		return
	}
	a.quorum.Add(from, s)
	if a.quorum.Len() == a.rt.N()-a.rt.F() {
		a.cipherSnt = true
		var w wire.Writer
		w.Byte(msgCipher)
		a.quorum.Encode(&w)
		w.Blob(a.dealCmt.Bytes())
		w.Blob(a.cipherOut)
		a.rt.Multicast(a.inst, w.Bytes())
	}
}

// onCipher is Alg. 1 lines 16–20.
func (a *AVSS) onCipher(from int, rd *wire.Reader) {
	q, ok := sig.DecodeQuorum(rd, a.rt.N())
	cmtB := rd.Blob()
	cipher := rd.Blob()
	if !ok || rd.Done() != nil || from != a.dealer || a.echoed {
		a.rt.Reject()
		return
	}
	msg := &cipherMsg{quorum: q, cmtB: cmtB, cipher: cipher}
	if !a.hasShare {
		// Wait for the KeyShare (first Cipher only; duplicates rejected).
		if a.pendingC == nil {
			a.pendingC = msg
		}
		return
	}
	a.tryEcho(msg)
}

func (a *AVSS) tryEcho(m *cipherMsg) {
	if a.echoed || !a.hasShare {
		return
	}
	if !bytes.Equal(m.cmtB, a.cmt.Bytes()) {
		a.rt.Reject()
		return
	}
	if !a.keys.VerifyQuorum(storedMsg(a.inst, m.cmtB), &m.quorum, a.rt.N()-a.rt.F()) {
		a.rt.Reject()
		return
	}
	a.echoed = true
	var w wire.Writer
	w.Byte(msgEcho)
	w.Blob(m.cipher)
	a.rt.Multicast(a.inst, w.Bytes())
}

// onEcho / onReady are the Bracha tail of Alg. 1 (lines 21–26).
func (a *AVSS) onEcho(from int, rd *wire.Reader) {
	cipher := rd.Blob()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	k := string(cipher)
	set := a.echoes[k]
	if set == nil {
		set = make(map[int]bool)
		a.echoes[k] = set
	}
	if set[from] {
		return
	}
	set[from] = true
	if len(set) >= 2*a.rt.F()+1 {
		a.sendReady(cipher)
	}
}

func (a *AVSS) onReady(from int, rd *wire.Reader) {
	cipher := rd.Blob()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	k := string(cipher)
	set := a.readies[k]
	if set == nil {
		set = make(map[int]bool)
		a.readies[k] = set
	}
	if set[from] {
		return
	}
	set[from] = true
	if len(set) >= a.rt.F()+1 {
		a.sendReady(cipher)
	}
	if len(set) >= 2*a.rt.F()+1 && a.shared == nil {
		out := ShareOutput{
			Cipher:   cipher,
			ShA:      a.shA,
			ShB:      a.shB,
			HasShare: a.hasShare,
			Cmt:      a.cmt,
			HasCmt:   a.hasShare,
		}
		a.shared = &out
		if a.onShare != nil {
			a.onShare(out)
		}
		a.maybeSendKeyRec()
		a.maybeFinishRec()
	}
}

func (a *AVSS) sendReady(cipher []byte) {
	if a.readySent {
		return
	}
	a.readySent = true
	var w wire.Writer
	w.Byte(msgReady)
	w.Blob(cipher)
	a.rt.Multicast(a.inst, w.Bytes())
}

// --- reconstruction (Alg. 2) ---

func (a *AVSS) maybeSendKeyRec() {
	if !a.recActive || a.recSent || a.shared == nil || !a.shared.HasShare {
		return
	}
	a.recSent = true
	var w wire.Writer
	w.Byte(msgKeyRec)
	w.Bytes32(a.shared.ShA.Bytes())
	w.Bytes32(a.shared.ShB.Bytes())
	a.rt.Multicast(a.inst, w.Bytes())
}

// onKeyRec is Alg. 2 lines 4–11.
func (a *AVSS) onKeyRec(from int, rd *wire.Reader) {
	shAB := rd.Bytes32()
	shBB := rd.Bytes32()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	if !a.hasShare { // cmt = ⊥: cannot verify, rely on Key amplification
		return
	}
	if _, dup := a.phi[from]; dup {
		return
	}
	shA, errA := field.SetCanonical(shAB)
	shB, errB := field.SetCanonical(shBB)
	if errA != nil || errB != nil || !a.verifyKeyRec(from, shA, shB) {
		a.rt.Reject()
		return
	}
	a.phi[from] = keyShare{a: shA, b: shB}
	if len(a.phi) == a.rt.F()+1 && !a.keySent {
		// Sorted party order: interpolation is subset-exact either way, but
		// map-order assembly would make replays of the same seed diverge.
		sharesA := make([]poly.Share, 0, len(a.phi))
		sharesB := make([]poly.Share, 0, len(a.phi))
		for _, j := range order.SortedKeys(a.phi) {
			sharesA = append(sharesA, poly.Share{Index: j, Value: a.phi[j].a})
			sharesB = append(sharesB, poly.Share{Index: j, Value: a.phi[j].b})
		}
		recA, errA := poly.Interpolate(sharesA)
		recB, errB := poly.Interpolate(sharesB)
		if errA != nil || errB != nil {
			return
		}
		a.recA, a.recB, a.haveRec = recA, recB, true
		a.keySent = true
		var w wire.Writer
		w.Byte(msgKey)
		w.Bytes32(recA.Secret().Bytes())
		a.rt.Multicast(a.inst, w.Bytes())
	}
}

// verifyKeyRec checks a KeyRec share pair against the commitment. The
// first f+1 pairs pay the full Pedersen check. After that A and B are
// pinned: the degree-f commitment agrees with g^{A(x)}·h^{B(x)} at f+1
// points, hence everywhere, so a pair passes VerifyShare iff
// g^a·h^b = g^{A(ω)}·h^{B(ω)}. By Pedersen binding that holds iff
// (a, b) = (A(ω), B(ω)) unless the sender knows log_g h, so comparing
// against the interpolated polynomials gives VerifyShare's verdict with
// field arithmetic only.
func (a *AVSS) verifyKeyRec(from int, shA, shB field.Scalar) bool {
	if !a.haveRec {
		return a.cmt.VerifyShare(from, shA, shB)
	}
	x := poly.X(from)
	return shA.Equal(a.recA.Eval(x)) && shB.Equal(a.recB.Eval(x))
}

// onKey is Alg. 2 lines 12–13.
func (a *AVSS) onKey(from int, rd *wire.Reader) {
	keyB := rd.Bytes32()
	if rd.Done() != nil {
		a.rt.Reject()
		return
	}
	key, err := field.SetCanonical(keyB)
	if err != nil {
		a.rt.Reject()
		return
	}
	k := string(keyB)
	set := a.keyVotes[k]
	if set == nil {
		set = make(map[int]bool)
		a.keyVotes[k] = set
		a.keyVals[k] = key
	}
	if set[from] {
		return
	}
	set[from] = true
	a.maybeFinishRec()
}

func (a *AVSS) maybeFinishRec() {
	if a.recOut || a.shared == nil || a.onRec == nil {
		return
	}
	keys := make([]string, 0, len(a.keyVotes))
	for k := range a.keyVotes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(a.keyVotes[k]) >= a.rt.F()+1 {
			a.recOut = true
			m := sealCipher(a.inst, a.keyVals[k], a.shared.Cipher)
			a.onRec(m)
			return
		}
	}
}
