package nodenet

// Named workloads the launcher can replay on a process cluster. Each maps
// to per-party control-RPC launch requests mirroring the registry specs in
// internal/exp, and declares what may be checked about its decisions:
//
//   - Agreement: every process must report an identical decision (the
//     protocol's agreement property — gated for every deterministic-output
//     kind).
//   - Sim: the decision is checked against an in-process simulator run of
//     the same protocol and seed. Validity-pinned workloads (a unanimous
//     ABA, a VBA whose proposals all agree) must decide exactly what the
//     simulator decides. An election is not pinned by its seed: Alg. 5
//     elects the largest VRF among the dealers the schedule lets into the
//     core sets, so the process and the simulator must each elect a leader
//     Alg. 5 allows for the seed (election.GenesisLeaders, or the default
//     leader) rather than the same one. Other timing-dependent outcomes
//     (distinct-proposal VBA, weak coins, ADKG's contributor set) are
//     compared across processes only.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core/election"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/noded"
	"repro/internal/pki"
)

// Workload is one replayable multi-process scenario.
type Workload struct {
	Name      string
	Kind      string // noded instance kind
	Genesis   string
	Input     func(i int) []byte // nil = no input
	Predicate string
	Epochs    int
	TxCount   int
	TxBytes   int

	Agreement bool // decisions must be identical across processes
	Sim       bool // decision must match the simulator for the same seed

	// Mid, when set, runs after every party has accepted the launch and
	// before drain/await — the window where fault injection (a SIGKILL +
	// WAL restart, say) cannot race the control RPCs themselves. An error
	// fails the workload.
	Mid func() error

	// Byz names an adversary behavior run by the top-indexed party: that
	// process's protocol instance lies on the wire (internal/adversary via
	// noded's launch path). The run then additionally asserts that the
	// cluster's detection counters (rejected + equivocations) fired —
	// a lying process nobody caught fails the workload. Byz workloads are
	// never Sim-pinned: the simulator reference run has no liar.
	Byz string
}

// Workloads is the registry, in run order.
var Workloads = []Workload{
	{Name: "election", Kind: "election", Genesis: "wl/e", Agreement: true, Sim: true},
	{Name: "vba-pinned", Kind: "vba", Genesis: "wl/v",
		Input:     func(int) []byte { return []byte("ok:pinned") },
		Predicate: "prefix:ok:", Agreement: true, Sim: true},
	{Name: "aba-unanimous", Kind: "aba", Genesis: "wl/a",
		Input: func(int) []byte { return []byte{1} }, Agreement: true, Sim: true},
	{Name: "vba-contested", Kind: "vba", Genesis: "wl/vc",
		Input:     func(i int) []byte { return []byte(fmt.Sprintf("ok:p%d", i)) },
		Predicate: "prefix:ok:", Agreement: true},
	{Name: "coin", Kind: "coin", Genesis: "wl/c"}, // weak coin: completion only
	{Name: "adkg", Kind: "adkg", Genesis: "wl/k", Agreement: true},
	{Name: "beacon", Kind: "beacon", Genesis: "wl/b", Epochs: 2, Agreement: true},
	{Name: "ledger", Kind: "ledger", Genesis: "wl/l", TxCount: 16, TxBytes: 64, Agreement: true},
	{Name: "vba-byz", Kind: "vba", Genesis: "wl/vz",
		Input:     func(i int) []byte { return []byte(fmt.Sprintf("ok:p%d", i)) },
		Predicate: "prefix:ok:", Agreement: true, Byz: "byz/vba-doublevote"},
	{Name: "adkg-byz", Kind: "adkg", Genesis: "wl/kz", Agreement: true, Byz: "byz/pvss-badshare"},
}

// WorkloadByName resolves one registry entry.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("nodenet: unknown workload %q", name)
}

// WorkloadResult is one workload's cross-process outcome.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Tag       string            `json:"tag"`
	Decisions []*noded.Decision `json:"decisions"`
	Agreed    bool              `json:"agreed"`
	SimMatch  *bool             `json:"simMatch,omitempty"` // nil when not sim-comparable (see Workload.Sim)
	ElapsedMS int64             `json:"elapsedMs"`
}

// Run replays the workload on the cluster: launch on every party, drain
// (ledger), await all decisions, and evaluate the declared checks. A
// violated check is an error — agreement failures across real processes
// are exactly what this harness exists to catch.
func (w Workload) Run(cl *Cluster) (*WorkloadResult, error) {
	tag := "wl/" + w.Name
	start := time.Now()
	launch := func(i int) *noded.Request {
		req := &noded.Request{
			Op: noded.OpLaunch, Kind: w.Kind, Tag: tag,
			Genesis:   []byte(w.Genesis),
			Predicate: w.Predicate,
			Epochs:    w.Epochs,
			TxCount:   w.TxCount, TxBytes: w.TxBytes,
		}
		if w.Input != nil {
			req.Input = w.Input(i)
		}
		if w.Byz != "" && i == cl.N-1 {
			req.Byz = w.Byz
		}
		return req
	}
	if _, err := cl.CallAll(launch, 30*time.Second); err != nil {
		return nil, fmt.Errorf("workload %s: launch: %w", w.Name, err)
	}
	if w.Mid != nil {
		if err := w.Mid(); err != nil {
			return nil, fmt.Errorf("workload %s: mid-run fault: %w", w.Name, err)
		}
	}
	if w.Kind == "ledger" {
		if _, err := cl.CallAll(func(int) *noded.Request {
			return &noded.Request{Op: noded.OpDrain, Tag: tag}
		}, 30*time.Second); err != nil {
			return nil, fmt.Errorf("workload %s: drain: %w", w.Name, err)
		}
	}
	decs, err := cl.AwaitAll(tag)
	if err != nil {
		return nil, fmt.Errorf("workload %s: await: %w", w.Name, err)
	}
	res := &WorkloadResult{
		Name: w.Name, Tag: tag, Decisions: decs,
		Agreed:    decisionsAgree(decs),
		ElapsedMS: time.Since(start).Milliseconds(),
	}
	if w.Agreement && !res.Agreed {
		return res, fmt.Errorf("workload %s: processes disagree: %+v", w.Name, decs)
	}
	if w.Byz != "" {
		stats, err := cl.StatsAll()
		if err != nil {
			return res, fmt.Errorf("workload %s: stats: %w", w.Name, err)
		}
		var detected int64
		for _, s := range stats {
			detected += s.Rejected + s.Equivocations
		}
		if detected == 0 {
			return res, fmt.Errorf("workload %s: party %d lied (%s) but no process detected it",
				w.Name, cl.N-1, w.Byz)
		}
	}
	if w.Sim {
		simDec, err := w.SimDecision(cl.N, cl.F, cl.Seed)
		if err != nil {
			return res, fmt.Errorf("workload %s: sim run: %w", w.Name, err)
		}
		match, err := w.matchesSim(cl.N, cl.F, cl.Seed, decs[0], simDec)
		if err != nil {
			return res, fmt.Errorf("workload %s: sim check: %w", w.Name, err)
		}
		res.SimMatch = &match
		if !match {
			return res, fmt.Errorf("workload %s: process decision %+v does not match sim decision %+v",
				w.Name, decs[0], simDec)
		}
	}
	return res, nil
}

// matchesSim applies the Sim check (see Workload.Sim): equality for
// seed-pinned kinds; for an election, both decisions must be leaders Alg. 5
// can elect under this seed and genesis nonce. The simulator alone elects
// different leaders for one seed under different schedulers (see
// election.TestLeaderDependsOnScheduleWithinGenesisLeaders), so equality
// with one simulator schedule is not a property of the protocol.
func (w Workload) matchesSim(n, f int, seed int64, proc, simDec *noded.Decision) (bool, error) {
	if w.Kind != "election" {
		return sameDecision(proc, simDec), nil
	}
	keys, _, err := pki.Setup(n, rand.New(rand.NewSource(seed^KeySeed)))
	if err != nil {
		return false, err
	}
	leaders := election.GenesisLeaders("wl/"+w.Name, keys, f, []byte(w.Genesis))
	allowed := func(d *noded.Decision) bool {
		if d == nil || d.Kind != "election" {
			return false
		}
		if d.ByDefault {
			return d.Leader == 0
		}
		return leaders[d.Leader]
	}
	return allowed(proc) && allowed(simDec), nil
}

// decisionsAgree reports whether every party's decision is identical in
// its kind-relevant fields.
func decisionsAgree(decs []*noded.Decision) bool {
	for _, d := range decs[1:] {
		if !sameDecision(decs[0], d) {
			return false
		}
	}
	return true
}

// sameDecision compares the outcome fields that must agree across parties
// (views/rounds/attempts are per-party observations and may differ).
func sameDecision(a, b *noded.Decision) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Bit != b.Bit || a.Leader != b.Leader ||
		a.ByDefault != b.ByDefault || a.Value != b.Value ||
		a.GroupPK != b.GroupPK || a.Weight != b.Weight ||
		a.FinalSlot != b.FinalSlot || a.Txs != b.Txs || a.Bytes != b.Bytes ||
		a.TxSet != b.TxSet || len(a.EpochValues) != len(b.EpochValues) {
		return false
	}
	for i := range a.EpochValues {
		if a.EpochValues[i] != b.EpochValues[i] {
			return false
		}
	}
	return true
}

// SimDecision runs the same protocol on the in-process simulator with the
// same seed and returns the reference decision. Only meaningful for
// workloads whose outcome is pinned by the seed (w.Sim).
func (w Workload) SimDecision(n, f int, seed int64) (*noded.Decision, error) {
	c, err := harness.NewCluster(n, f, seed, harness.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	genesis := []byte(w.Genesis)
	switch w.Kind {
	case "election":
		ei := exp.LaunchPaperElection(c, "wl/"+w.Name, genesis)
		if err := ei.Wait(ctx); err != nil {
			return nil, err
		}
		out := ei.Outcome()
		if !out.Agreed {
			return nil, fmt.Errorf("sim election disagreed")
		}
		return &noded.Decision{Kind: "election", Leader: out.Leader, ByDefault: out.ByDefault}, nil
	case "vba":
		proposals := make([][]byte, n)
		for i := range proposals {
			proposals[i] = w.Input(i)
		}
		pred, err := predicateFor(w.Predicate)
		if err != nil {
			return nil, err
		}
		vi := exp.LaunchPaperVBA(c, "wl/"+w.Name, proposals, pred, genesis)
		if err := vi.Wait(ctx); err != nil {
			return nil, err
		}
		out := vi.Outcome()
		if !out.Agreed {
			return nil, fmt.Errorf("sim vba disagreed")
		}
		return &noded.Decision{Kind: "vba", Value: string(out.Value)}, nil
	case "aba":
		inputs := make([]byte, n)
		for i := range inputs {
			inputs[i] = w.Input(i)[0] & 1
		}
		ai := exp.LaunchPaperABA(c, "wl/"+w.Name, inputs, genesis)
		if err := ai.Wait(ctx); err != nil {
			return nil, err
		}
		out := ai.Outcome()
		if !out.Agreed {
			return nil, fmt.Errorf("sim aba disagreed")
		}
		return &noded.Decision{Kind: "aba", Bit: int(out.Bit)}, nil
	}
	return nil, fmt.Errorf("nodenet: workload kind %q is not sim-comparable", w.Kind)
}

// predicateFor mirrors noded's named-predicate resolution for the sim run.
func predicateFor(name string) (func([]byte) bool, error) {
	return noded.PredicateByName(name)
}
