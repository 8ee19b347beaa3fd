// Package election implements the paper's random leader election with
// perfect agreement (§7.1, Alg. 5): the Coin machinery produces each
// party's speculative largest VRF; parties reliably broadcast those
// speculative winners, vote through one ABA on whether a "largest and
// majority" VRF exists among n−f broadcast outputs, and either adopt the
// unique such VRF (ABA=1) or a default leader (ABA=0).
//
// The result is an (n, f, 2f+1, 1/3)-Election: agreement always holds
// (Theorem 5), the adversary predicts the leader with probability at most
// 1−α+α/n, and the costs stay at expected O(n³) messages, O(λn³) bits and
// O(1) rounds — making the primitive pluggable into every VBA construction
// that previously needed a threshold-PRF leader election with private setup.
package election

import (
	"math/big"
	"sort"

	"repro/internal/core/aba"
	"repro/internal/core/coin"
	"repro/internal/core/rbc"
	"repro/internal/core/seeding"
	"repro/internal/crypto/vrf"
	"repro/internal/order"
	"repro/internal/pki"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Result is the election outcome.
type Result struct {
	Leader    int             // 0-based elected leader index
	ByDefault bool            // true when ABA voted 0 and the default leader was used
	Winner    *coin.Candidate // the agreed largest-and-majority VRF (nil when ByDefault)
}

// Config tunes the embedded Coin (and the ABA's round coins).
type Config struct {
	Coin coin.Config
}

// Output delivers the election result exactly once.
type Output func(Result)

type entry struct {
	leader int
	value  vrf.Output
	proof  vrf.Proof
}

// Election is one leader-election instance on one node.
type Election struct {
	rt   proto.Runtime
	inst string
	keys *pki.Keyring
	out  Output

	coin *coin.Coin
	rbcs []*rbc.RBC
	aba  *aba.ABA

	g        map[int]*entry // G: RBC slot -> validated speculative max
	bots     map[int]bool   // RBC slots that delivered ⊥ (zero-ballot votes)
	pend     map[int][]byte // RBC outputs waiting for the leader's seed
	ballot   *byte
	abaOut   *byte
	done     bool
	vrfmax   *coin.Candidate
	haveVMax bool
}

// New registers an Election instance and its sub-protocols. Call Start.
func New(rt proto.Runtime, inst string, keys *pki.Keyring, cfg Config, out Output) *Election {
	e := &Election{
		rt:   rt,
		inst: inst,
		keys: keys,
		out:  out,
		g:    make(map[int]*entry),
		bots: make(map[int]bool),
		pend: make(map[int][]byte),
	}
	e.coin = coin.New(rt, inst+"/c", keys, cfg.Coin, e.onCoin)
	e.coin.OnSeed(e.onSeed)
	e.rbcs = make([]*rbc.RBC, rt.N())
	for j := 0; j < rt.N(); j++ {
		j := j
		e.rbcs[j] = rbc.New(rt, inst+"/b/"+itoa(j), j, func(v []byte) { e.onRBC(j, v) })
	}
	coins := aba.PaperCoins(rt, inst+"/a/c", keys, cfg.Coin)
	e.aba = aba.New(rt, inst+"/a", coins, e.onABA)
	return e
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Start activates the instance (Alg. 5 lines 1–2).
func (e *Election) Start() { e.coin.Start() }

// ForceCoinResult feeds a coin outcome directly into Alg. 5 line 3,
// pre-empting the embedded Coin — a fault-injection hook for adversarial
// harnesses modeling corruption beyond what honest coin runs can produce
// (e.g. every party's speculative max forced to ⊥). The RBC and ABA
// sub-protocols still run for real. Calling Start afterwards is allowed:
// the coin then still runs (distributing seeds, which validation of other
// parties' broadcasts needs) but its genuine outcome is ignored.
func (e *Election) ForceCoinResult(r coin.Result) { e.onCoin(r) }

// onCoin is Alg. 5 lines 3–4: commit the speculative largest VRF via RBC.
func (e *Election) onCoin(res coin.Result) {
	if e.haveVMax {
		return
	}
	e.haveVMax = true
	e.vrfmax = res.Max
	var w wire.Writer
	if res.Max == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		w.Int(res.Max.Leader)
		w.Bytes32(res.Max.Value[:])
		w.Raw(res.Max.Proof.Bytes())
	}
	e.rbcs[e.rt.Self()].Start(w.Bytes())
}

// onRBC is Alg. 5 lines 5–12: validate broadcast VRFs into G and, once
// n−f slots have resolved, vote on whether a largest-and-majority VRF
// exists.
func (e *Election) onRBC(j int, v []byte) {
	rd := wire.NewReader(v)
	if !rd.Bool() {
		if rd.Done() != nil {
			return // malformed broadcast: not a ⊥ vote, dropped like any garbage slot
		}
		// ⊥ broadcast: never enters G, but it IS one of the n−f outputs
		// Alg. 5 line 8 waits for — a zero-ballot vote. Dropping it
		// entirely would stall the election whenever more than f slots
		// carry ⊥ (all-⊥ speculative maxes under heavy corruption)
		// instead of letting the parties vote 0.
		e.bots[j] = true
		e.maybeVote()
		// A ⊥ vote can also complete a pending winner's (n−f)-subset as a
		// filler slot after ABA already decided 1.
		e.maybeFinish()
		return
	}
	leader := rd.Int()
	if rd.Err() != nil || leader < 0 || leader >= e.rt.N() {
		e.rt.Reject()
		return
	}
	if _, ok := e.coin.Seed(leader); !ok {
		// Alg. 5 line 6: VRF verification implicitly waits for the seed.
		e.pend[j] = v
		return
	}
	e.accept(j, v)
}

// onSeed revisits RBC outputs that were waiting for a leader seed.
func (e *Election) onSeed(leader int, _ [seeding.SeedSize]byte) {
	js := make([]int, 0, len(e.pend))
	for j := range e.pend {
		js = append(js, j)
	}
	sort.Ints(js)
	for _, j := range js {
		v := e.pend[j]
		rd := wire.NewReader(v)
		_ = rd.Bool()
		if rd.Int() != leader {
			continue
		}
		delete(e.pend, j)
		e.accept(j, v)
	}
}

func (e *Election) accept(j int, v []byte) {
	if _, dup := e.g[j]; dup {
		return
	}
	rd := wire.NewReader(v)
	_ = rd.Bool()
	leader := rd.Int()
	rb := rd.Bytes32()
	pb := rd.Raw(vrf.ProofSize)
	if rd.Done() != nil {
		e.rt.Reject()
		return
	}
	var out vrf.Output
	copy(out[:], rb)
	pf, err := vrf.ProofFromBytes(pb)
	if err != nil {
		e.rt.Reject()
		return
	}
	sd, ok := e.coin.Seed(leader)
	if !ok {
		return // seed not yet derivable; not evidence of a bad broadcast
	}
	if !e.keys.VerifyVRF(leader, e.coin.VRFInput(sd), out, pf) {
		e.rt.Reject()
		return
	}
	e.g[j] = &entry{leader: leader, value: out, proof: pf}
	e.maybeVote()
	e.maybeFinish()
}

// maybeVote is Alg. 5 lines 8–12: once n−f slots resolved (validated
// entries plus ⊥ votes), derive the ballot.
func (e *Election) maybeVote() {
	if e.ballot != nil || len(e.g)+len(e.bots) < e.rt.N()-e.rt.F() {
		return
	}
	b := byte(0)
	if e.winnerIn(e.g, len(e.bots)) != nil {
		b = 1
	}
	e.ballot = &b
	e.aba.Start(b)
}

// winnerIn reports the unique largest-and-majority candidate realizable in
// some (n−f)-sized subset of the resolved slots, or nil: a value v
// qualifies when enough copies exist to form a strict majority of n−f
// entries and all remaining slots can be filled with strictly smaller
// values — ⊥ slots (bots) rank below every real VRF, so they only ever
// serve as fillers.
func (e *Election) winnerIn(g map[int]*entry, bots int) *entry {
	q := e.rt.N() - e.rt.F()
	// Group by VRF value.
	type grp struct {
		ent     *entry
		count   int
		smaller int
	}
	groups := make(map[vrf.Output]*grp)
	for _, ent := range g {
		gr := groups[ent.value]
		if gr == nil {
			gr = &grp{ent: ent}
			groups[ent.value] = gr
		}
		gr.count++
	}
	// Sorted value order end to end: the winner condition holds for at most
	// one group, but scanning a map would still let replays of the same
	// seed walk candidates in different orders.
	vals := order.SortedKeysFunc(groups, func(a, b vrf.Output) bool { return a.Less(b) })
	for _, v := range vals {
		gr := groups[v]
		for _, w := range vals {
			if w.Less(v) {
				gr.smaller += groups[w].count
			}
		}
	}
	for _, v := range vals {
		gr := groups[v]
		m := gr.count
		if m > q {
			m = q
		}
		if 2*m > q && gr.count+gr.smaller+bots >= q {
			return gr.ent
		}
	}
	return nil
}

// onABA is Alg. 5 lines 13–17.
func (e *Election) onABA(b byte) {
	e.abaOut = &b
	e.maybeFinish()
}

func (e *Election) maybeFinish() {
	if e.done || e.abaOut == nil {
		return
	}
	if *e.abaOut == 0 {
		e.done = true
		e.out(Result{Leader: 0, ByDefault: true})
		return
	}
	win := e.winnerIn(e.g, len(e.bots))
	if win == nil {
		return // keep waiting for G to grow (Alg. 5 line 15)
	}
	e.done = true
	e.out(Result{
		Leader: leaderOf(win.value, e.rt.N()),
		Winner: &coin.Candidate{Leader: win.leader, Value: win.value, Proof: win.proof},
	})
}

// leaderOf maps a winning VRF value to its leader index, value mod n.
func leaderOf(v vrf.Output, n int) int {
	idx := new(big.Int).SetBytes(v[:])
	idx.Mod(idx, big.NewInt(int64(n)))
	return int(idx.Int64())
}

// GenesisLeaders returns every leader an election instance inst can elect
// by winning VRF (Result.ByDefault false) when all parties are honest and
// the coin runs on a genesis nonce. The set follows from Alg. 5's
// structure, not from any one schedule: the winner is some party's
// speculative largest VRF, the largest over a reconstructed core set of at
// least n−f evaluations, so it ranks among the f+1 largest of the n
// evaluations on the nonce. Which of those a run elects depends on which
// dealers the schedule lets into the core sets, so two schedules of one
// seed may legitimately elect different leaders; agreement within a run
// is what Theorem 5 pins.
func GenesisLeaders(inst string, keys []*pki.Keyring, f int, nonce []byte) map[int]bool {
	input := coin.VRFInputFor(inst+"/c", coin.GenesisSeed(nonce))
	outs := make([]vrf.Output, len(keys))
	for j, k := range keys {
		outs[j], _ = k.VRF.Eval(input)
	}
	sort.Slice(outs, func(a, b int) bool { return outs[b].Less(outs[a]) })
	leaders := make(map[int]bool, f+1)
	for _, v := range outs[:f+1] {
		leaders[leaderOf(v, len(keys))] = true
	}
	return leaders
}
