// Package seeding implements the paper's reliable broadcasted seeding
// (Definition 4, Lemma 8, Alg. 7): a leader-driven two-phase protocol that
// commits and then reveals an unpredictable λ-bit seed, built from the
// aggregatable PVSS of Gurkan et al.
//
// The seed patches each party's VRF against malicious key registration
// (§6.1): since no on-line common random string exists in the private-setup
// free model, VRF inputs are generated on the fly, committed by 2f+1
// contributions before anyone can evaluate on them. A malicious leader can
// block its own Seeding — which only hurts itself, because its VRF then
// cannot be verified and never enters the core-set.
//
// Costs: O(n²) messages, O(λn²) bits, constant rounds.
package seeding

import (
	"crypto/sha256"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/sig"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Message tags (Alg. 7).
const (
	msgPvssScript byte = iota + 1
	msgAggPvss
	msgAggPvssStored
	msgAggPvssCommit
	msgSeedShare
	msgSeed
	msgSeedEcho
	msgSeedReady
)

// SeedSize is the byte length of the output seed.
const SeedSize = 32

// Output delivers the agreed seed.
type Output func(seed [SeedSize]byte)

// Seeding is one instance (one leader, one session) on one node.
type Seeding struct {
	rt     proto.Runtime
	inst   string
	keys   *pki.Keyring
	leader int
	params pvss.Params
	out    Output

	// Leader state.
	collected map[int]bool
	units     map[int]*pvss.Script // receipt-verified unit contributions
	agg       *pvss.Script
	aggSent   bool
	sigma     sig.Quorum
	commitSnt bool
	shares    map[int]pairing.G2
	seedSent  bool

	// Party state.
	recorded   *pvss.Script // the AggPvss we signed (pvss in Alg. 7)
	recordedB  []byte
	shareSent  bool
	echoSent   bool
	readySent  bool
	echoes     map[string]map[int]bool
	readies    map[string]map[int]bool
	seedOfKey  map[string][SeedSize]byte
	delivered  bool
	sentScript bool
}

// New registers a Seeding instance with the given 0-based leader. The
// PVSS threshold is (n, 2f+1): reconstruction needs 2f+1 shares, so the
// adversary (f keys + up to f early revealers) cannot preempt the seed.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, leader int, out Output) *Seeding {
	s := &Seeding{
		rt:        rt,
		inst:      inst,
		keys:      keys,
		leader:    leader,
		params:    pvss.Params{N: rt.N(), Degree: 2 * rt.F()},
		out:       out,
		collected: make(map[int]bool),
		units:     make(map[int]*pvss.Script),
		shares:    make(map[int]pairing.G2),
		echoes:    make(map[string]map[int]bool),
		readies:   make(map[string]map[int]bool),
		seedOfKey: make(map[string][SeedSize]byte),
	}
	rt.Register(inst, s)
	return s
}

// Start runs Alg. 7 lines 1–2: sample a secret, deal a PVSS script, and send
// it to the leader. Every party (leader included) calls Start.
func (s *Seeding) Start() {
	if s.sentScript {
		return
	}
	s.sentScript = true
	secret, err := field.Random(s.rt.RandReader())
	if err != nil {
		return
	}
	script, err := pvss.Deal(s.params, s.keys.Board.EncKeys(), s.rt.Self(), s.keys.PVSSSig, secret, s.rt.RandReader())
	if err != nil {
		return
	}
	var w wire.Writer
	w.Byte(msgPvssScript)
	w.Blob(script.Bytes())
	s.rt.Send(s.inst, s.leader, w.Bytes())
}

func storedMsg(inst string, scriptB []byte) []byte {
	h := sha256.New()
	h.Write([]byte("seeding/stored"))
	h.Write([]byte(inst))
	h.Write(scriptB)
	return h.Sum(nil)
}

func seedOf(secret pairing.G2) [SeedSize]byte {
	h := sha256.New()
	h.Write([]byte("seeding/out"))
	h.Write(secret.Bytes())
	var out [SeedSize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Handle implements proto.Handler.
func (s *Seeding) Handle(from int, body []byte) {
	rd := wire.NewReader(body)
	switch rd.Byte() {
	case msgPvssScript:
		s.onScript(from, rd)
	case msgAggPvss:
		s.onAggPvss(from, rd)
	case msgAggPvssStored:
		s.onStored(from, rd)
	case msgAggPvssCommit:
		s.onCommit(from, rd)
	case msgSeedShare:
		s.onSeedShare(from, rd)
	case msgSeed:
		s.onSeed(from, rd)
	case msgSeedEcho:
		s.onEcho(from, rd)
	case msgSeedReady:
		s.onReady(from, rd)
	default:
		s.rt.Reject()
	}
}

// onScript is Alg. 7 lines 18–22 (leader only).
func (s *Seeding) onScript(from int, rd *wire.Reader) {
	raw := rd.Blob()
	if rd.Done() != nil || s.rt.Self() != s.leader || s.aggSent || s.collected[from] {
		s.rt.Reject()
		return
	}
	script, err := pvss.FromBytes(s.params, raw)
	if err != nil || !s.keys.VerifyScript(s.params, script) {
		s.rt.Reject()
		return
	}
	// The contribution must be solely from the claimed sender.
	w := script.Weights()
	for i, wi := range w {
		if (i == from && wi != 1) || (i != from && wi != 0) {
			s.rt.Reject()
			return
		}
	}
	s.collected[from] = true
	s.units[from] = script
	if s.agg == nil {
		s.agg = script
	} else {
		s.agg, err = pvss.AggScripts(s.agg, script)
		if err != nil {
			return
		}
	}
	if len(s.collected) == 2*s.rt.F()+1 {
		s.aggSent = true
		// Ride the receipt-path verdicts: the aggregate is exactly the
		// product of the 2f+1 unit scripts this leader just verified, so
		// the compositional check validates it with zero pairing work AND
		// plants the positive verdict in the cluster memo — every party's
		// onAggPvss check below lands a cache hit instead of one cold
		// multi-pairing on its critical path.
		s.keys.VerifyScriptComposed(s.params, s.agg, s.units)
		var out wire.Writer
		out.Byte(msgAggPvss)
		out.Blob(s.agg.Bytes())
		s.rt.Multicast(s.inst, out.Bytes())
	}
}

// onAggPvss is Alg. 7 lines 3–5.
func (s *Seeding) onAggPvss(from int, rd *wire.Reader) {
	raw := rd.Blob()
	if rd.Done() != nil || from != s.leader || s.recorded != nil {
		s.rt.Reject()
		return
	}
	// Through the cluster memo: the leader seeded a compositional verdict
	// for its aggregate at aggregation time, so this check is a cache hit
	// everywhere — zero cold verifications cluster-wide on the honest
	// path. s.units is populated only on the leader (empty elsewhere), and
	// VerifyScriptComposed degrades to the plain memoized verification for
	// unknown aggregates, so a Byzantine leader's mauled script still pays
	// the full cold check and rejects as before.
	script, err := pvss.FromBytes(s.params, raw)
	if err != nil || !s.keys.VerifyScriptComposed(s.params, script, s.units) {
		s.rt.Reject()
		return
	}
	ones := 0
	for _, wi := range script.Weights() {
		switch wi {
		case 0:
		case 1:
			ones++
		default:
			s.rt.Reject()
			return
		}
	}
	if ones < 2*s.rt.F()+1 {
		s.rt.Reject()
		return
	}
	s.recorded = script
	s.recordedB = raw
	sg := s.keys.Sig.Sign(storedMsg(s.inst, raw))
	var w wire.Writer
	w.Byte(msgAggPvssStored)
	w.Raw(sg.Bytes())
	s.rt.Send(s.inst, s.leader, w.Bytes())
}

// onStored is Alg. 7 lines 23–27 (leader only).
func (s *Seeding) onStored(from int, rd *wire.Reader) {
	sb := rd.Raw(sig.Size)
	if rd.Done() != nil || s.rt.Self() != s.leader || !s.aggSent {
		s.rt.Reject()
		return
	}
	if s.commitSnt {
		return
	}
	sg, err := sig.SignatureFromBytes(sb)
	if err != nil || !s.keys.VerifySig(from, storedMsg(s.inst, s.agg.Bytes()), sg) {
		s.rt.Reject()
		return
	}
	s.sigma.Add(from, sg)
	if s.sigma.Len() == 2*s.rt.F()+1 {
		s.commitSnt = true
		var w wire.Writer
		w.Byte(msgAggPvssCommit)
		s.sigma.Encode(&w)
		s.rt.Multicast(s.inst, w.Bytes())
	}
}

// onCommit is Alg. 7 lines 6–8: confirm the commitment and reveal our share.
func (s *Seeding) onCommit(from int, rd *wire.Reader) {
	q, ok := sig.DecodeQuorum(rd, s.rt.N())
	if !ok || rd.Done() != nil || from != s.leader {
		s.rt.Reject()
		return
	}
	if s.shareSent || s.recorded == nil {
		return
	}
	if !s.keys.VerifyQuorum(storedMsg(s.inst, s.recordedB), &q, 2*s.rt.F()+1) {
		s.rt.Reject()
		return
	}
	s.shareSent = true
	sh := pvss.GetShare(s.rt.Self(), s.keys.PVSSDec, s.recorded)
	var w wire.Writer
	w.Byte(msgSeedShare)
	w.Raw(sh.Bytes())
	s.rt.Send(s.inst, s.leader, w.Bytes())
}

// onSeedShare is Alg. 7 lines 28–31 (leader only).
func (s *Seeding) onSeedShare(from int, rd *wire.Reader) {
	shB := rd.Raw(pairing.G2Size)
	if rd.Done() != nil || s.rt.Self() != s.leader || s.agg == nil {
		s.rt.Reject()
		return
	}
	if s.seedSent {
		return
	}
	sh, err := pairing.G2FromBytes(shB)
	if err != nil || !pvss.VrfyShare(from, sh, s.agg) {
		s.rt.Reject()
		return
	}
	if _, dup := s.shares[from]; dup {
		return
	}
	s.shares[from] = sh
	if len(s.shares) == 2*s.rt.F()+1 {
		secret, err := pvss.AggShares(s.params, s.shares)
		if err != nil {
			return
		}
		s.seedSent = true
		var w wire.Writer
		w.Byte(msgSeed)
		s.sigma.Encode(&w)
		w.Raw(secret.Bytes())
		s.rt.Multicast(s.inst, w.Bytes())
	}
}

// onSeed is Alg. 7 lines 9–11.
func (s *Seeding) onSeed(from int, rd *wire.Reader) {
	q, ok := sig.DecodeQuorum(rd, s.rt.N())
	secretB := rd.Raw(pairing.G2Size)
	if !ok || rd.Done() != nil || from != s.leader {
		s.rt.Reject()
		return
	}
	if s.echoSent || s.recorded == nil {
		return
	}
	secret, err := pairing.G2FromBytes(secretB)
	if err != nil || !pvss.VrfySecret(secret, s.recorded) {
		s.rt.Reject()
		return
	}
	if !s.keys.VerifyQuorum(storedMsg(s.inst, s.recordedB), &q, 2*s.rt.F()+1) {
		s.rt.Reject()
		return
	}
	s.echoSent = true
	seed := seedOf(secret)
	var w wire.Writer
	w.Byte(msgSeedEcho)
	w.Bytes32(seed[:])
	s.rt.Multicast(s.inst, w.Bytes())
}

// onEcho / onReady are the Bracha tail (Alg. 7 lines 12–17).
func (s *Seeding) onEcho(from int, rd *wire.Reader) {
	seedB := rd.Bytes32()
	if rd.Done() != nil {
		s.rt.Reject()
		return
	}
	k := string(seedB)
	set := s.echoes[k]
	if set == nil {
		set = make(map[int]bool)
		s.echoes[k] = set
		var sd [SeedSize]byte
		copy(sd[:], seedB)
		s.seedOfKey[k] = sd
	}
	if set[from] {
		return
	}
	set[from] = true
	if len(set) >= 2*s.rt.F()+1 {
		s.sendReady(s.seedOfKey[k])
	}
}

func (s *Seeding) onReady(from int, rd *wire.Reader) {
	seedB := rd.Bytes32()
	if rd.Done() != nil {
		s.rt.Reject()
		return
	}
	k := string(seedB)
	set := s.readies[k]
	if set == nil {
		set = make(map[int]bool)
		s.readies[k] = set
		var sd [SeedSize]byte
		copy(sd[:], seedB)
		s.seedOfKey[k] = sd
	}
	if set[from] {
		return
	}
	set[from] = true
	if len(set) >= s.rt.F()+1 {
		s.sendReady(s.seedOfKey[k])
	}
	if len(set) >= 2*s.rt.F()+1 && !s.delivered {
		s.delivered = true
		s.out(s.seedOfKey[k])
	}
}

func (s *Seeding) sendReady(seed [SeedSize]byte) {
	if s.readySent {
		return
	}
	s.readySent = true
	var w wire.Writer
	w.Byte(msgSeedReady)
	w.Bytes32(seed[:])
	s.rt.Multicast(s.inst, w.Bytes())
}
