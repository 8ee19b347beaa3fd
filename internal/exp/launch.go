package exp

// Instance launchers: each wires one protocol instance per honest party
// onto a long-lived harness.Cluster under a caller-chosen instance tag,
// tracks per-party completion, and reports an instance-scoped outcome.
// They are the session layer shared by the one-shot Run* functions (fresh
// cluster, one instance), the concurrent-instance experiment family
// (mux.go), and the public repro.Cluster API — and they are runtime-
// agnostic: the same launcher drives the deterministic simulator (instances
// interleaved by the adversarial scheduler) and the live runtime (instances
// truly parallel), through the proto.Driver contract.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core/aba"
	"repro/internal/core/adkg"
	"repro/internal/core/beacon"
	"repro/internal/core/coin"
	"repro/internal/core/election"
	"repro/internal/core/vba"
	"repro/internal/harness"
	"repro/internal/sim"
)

// tracker books per-party completion of one instance tag on one cluster.
// report must be called inside Cluster.Update; done/missing are evaluated
// under the same lock by Await.
type tracker struct {
	c      *harness.Cluster
	tag    string
	need   int
	got    map[int]bool
	rounds int
}

func newTracker(c *harness.Cluster, tag string) *tracker {
	return &tracker{c: c, tag: tag, need: c.Honest(), got: make(map[int]bool)}
}

// bump folds party i's current causal depth into the instance's rounds
// metric; call it from any output callback (inside Update).
func (t *tracker) bump(i int) {
	if d := t.c.Depth(i); d > t.rounds {
		t.rounds = d
	}
}

func (t *tracker) report(i int) {
	t.bump(i)
	t.got[i] = true
}

func (t *tracker) done() bool { return len(t.got) == t.need }

func (t *tracker) missing() []int {
	var out []int
	t.c.EachHonest(func(i int) {
		if !t.got[i] {
			out = append(out, i)
		}
	})
	return out
}

// wait blocks until every honest party reported. A simulator stall comes
// back as a *sim.StallError annotated with the parties still missing.
func (t *tracker) wait(ctx context.Context) error {
	err := t.c.Await(ctx, t.done)
	var stall *sim.StallError
	if errors.As(err, &stall) {
		stall.Missing = t.missing()
	}
	if err != nil {
		return fmt.Errorf("instance %q: %w", t.tag, err)
	}
	return nil
}

// stats scopes the paper's metrics to this instance's traffic (the tag
// path and every tag/… sub-path). Steps and Verifies stay cluster-global —
// simulator deliveries and the verifier cache are shared by every
// concurrent instance.
func (t *tracker) stats() Stats {
	tl := t.c.InstanceTally(t.tag)
	return Stats{
		N: t.c.N, F: t.c.F,
		Msgs: tl.Msgs, Bytes: tl.Bytes,
		Rounds: t.rounds, Steps: t.c.Steps(), Verifies: t.c.Verifies(),
		ScriptVerifies: t.c.ScriptVerifies(), RSOps: t.c.RSOps(),
		Rejected: t.c.Rejected(), Equivocations: t.c.Equivocations(),
	}
}

// --- paper-standard convenience launchers ---
//
// The public session facade (repro.Cluster) configures every protocol by
// the cluster's genesis nonce alone; these wrappers keep the core config
// types out of the public package's import graph.

// LaunchPaperCoin launches one Alg. 4 coin under the paper-standard config.
func LaunchPaperCoin(c *harness.Cluster, tag string, genesis []byte) *CoinInstance {
	return LaunchCoin(c, tag, coin.Config{GenesisNonce: genesis})
}

// LaunchPaperABA launches one ABA whose round coins are paper coins under
// tag/c.
func LaunchPaperABA(c *harness.Cluster, tag string, inputs []byte, genesis []byte) *ABAInstance {
	cfg := coin.Config{GenesisNonce: genesis}
	coins := func(i int) aba.CoinFactory {
		return aba.PaperCoins(c.Runtime(i), tag+"/c", c.Keys[i], cfg)
	}
	return LaunchABA(c, tag, inputs, coins)
}

// LaunchPaperElection launches one Alg. 5 election.
func LaunchPaperElection(c *harness.Cluster, tag string, genesis []byte) *ElectionInstance {
	return LaunchElection(c, tag, election.Config{Coin: coin.Config{GenesisNonce: genesis}})
}

// LaunchPaperVBA launches one validated BA.
func LaunchPaperVBA(c *harness.Cluster, tag string, proposals [][]byte, valid func([]byte) bool, genesis []byte) *VBAInstance {
	return LaunchVBA(c, tag, proposals, valid, vba.Config{Coin: coin.Config{GenesisNonce: genesis}})
}

// LaunchPaperADKG launches one §7.3 distributed key generation.
func LaunchPaperADKG(c *harness.Cluster, tag string, genesis []byte) *ADKGInstance {
	return LaunchADKG(c, tag, adkg.Config{VBA: vba.Config{Coin: coin.Config{GenesisNonce: genesis}}})
}

// LaunchPaperBeacon launches one §7.3 DKG-free beacon.
func LaunchPaperBeacon(c *harness.Cluster, tag string, epochs int, genesis []byte) *BeaconInstance {
	return LaunchBeacon(c, tag, epochs, coin.Config{GenesisNonce: genesis})
}

// --- Coin ---

// CoinInstance is one common-coin instance launched on a cluster.
type CoinInstance struct {
	t   *tracker
	res map[int]coin.Result
}

// LaunchCoin wires one coin (Alg. 4) instance per honest party under tag.
func LaunchCoin(c *harness.Cluster, tag string, cfg coin.Config) *CoinInstance {
	ci := &CoinInstance{t: newTracker(c, tag), res: make(map[int]coin.Result)}
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			co := coin.New(c.Runtime(i), tag, c.Keys[i], cfg, func(r coin.Result) {
				c.Update(func() {
					ci.res[i] = r
					ci.t.report(i)
				})
			})
			co.Start()
		})
	})
	return ci
}

// Wait blocks until every honest party output its coin bit.
func (ci *CoinInstance) Wait(ctx context.Context) error { return ci.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (ci *CoinInstance) Outcome() CoinOutcome {
	c := ci.t.c
	out := CoinOutcome{Agreed: true, MaxIsSet: true}
	if c.Net != nil {
		out.PerPhase = map[string]sim.Tally{
			"seeding":   c.Net.Metrics().ByPrefix(ci.t.tag + "/sd/"),
			"avss":      c.Net.Metrics().ByPrefix(ci.t.tag + "/av/"),
			"wcs":       c.Net.Metrics().ByPrefix(ci.t.tag + "/wcs"),
			"recreq":    c.Net.Metrics().ByPrefix(ci.t.tag + "/rr"),
			"candidate": c.Net.Metrics().ByPrefix(ci.t.tag + "/cd"),
		}
	}
	first := true
	for _, r := range ci.res {
		if first {
			out.Bit = r.Bit
			first = false
		} else if r.Bit != out.Bit {
			out.Agreed = false
		}
		if r.Max == nil {
			out.MaxIsSet = false
		}
	}
	out.Stats = ci.t.stats()
	return out
}

// --- ABA ---

type abaResult struct {
	bit   byte
	round int
	coins int
}

// ABAInstance is one binary-agreement instance launched on a cluster.
type ABAInstance struct {
	t   *tracker
	res map[int]abaResult
}

// LaunchABA wires one ABA instance per honest party; inputs[i] is party
// i's bit, and coins builds each party's round-coin factory.
func LaunchABA(c *harness.Cluster, tag string, inputs []byte, coins func(i int) aba.CoinFactory) *ABAInstance {
	ai := &ABAInstance{t: newTracker(c, tag), res: make(map[int]abaResult)}
	insts := make([]*aba.ABA, c.N)
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			insts[i] = aba.New(c.Runtime(i), tag, coins(i), func(b byte) {
				c.Update(func() {
					ai.res[i] = abaResult{bit: b, round: insts[i].DecidedRound, coins: insts[i].CoinRounds}
					ai.t.report(i)
				})
			})
		})
	})
	c.EachHonest(func(i int) {
		c.Launch(i, func() { insts[i].Start(inputs[i]) })
	})
	return ai
}

// Wait blocks until every honest party decided.
func (ai *ABAInstance) Wait(ctx context.Context) error { return ai.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (ai *ABAInstance) Outcome() ABAOutcome {
	out := ABAOutcome{Agreed: true}
	first := true
	total, coins, cnt := 0, 0, 0
	ai.t.c.EachHonest(func(i int) {
		r := ai.res[i]
		if first {
			out.Bit = r.bit
			first = false
		} else if r.bit != out.Bit {
			out.Agreed = false
		}
		total += r.round
		coins += r.coins
		cnt++
		if r.round > out.MaxRound {
			out.MaxRound = r.round
		}
	})
	out.MeanRound = float64(total) / float64(cnt)
	out.CoinRounds = float64(coins) / float64(cnt)
	out.Stats = ai.t.stats()
	return out
}

// --- Election ---

// ElectionInstance is one leader-election instance launched on a cluster.
type ElectionInstance struct {
	t   *tracker
	res map[int]election.Result
}

// LaunchElection wires one election (Alg. 5) instance per honest party.
func LaunchElection(c *harness.Cluster, tag string, cfg election.Config) *ElectionInstance {
	ei := &ElectionInstance{t: newTracker(c, tag), res: make(map[int]election.Result)}
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			e := election.New(c.Runtime(i), tag, c.Keys[i], cfg, func(r election.Result) {
				c.Update(func() {
					ei.res[i] = r
					ei.t.report(i)
				})
			})
			e.Start()
		})
	})
	return ei
}

// Wait blocks until every honest party elected.
func (ei *ElectionInstance) Wait(ctx context.Context) error { return ei.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (ei *ElectionInstance) Outcome() ElectionOutcome {
	out := ElectionOutcome{Agreed: true}
	first := true
	for _, r := range ei.res {
		if first {
			out.Leader, out.ByDefault = r.Leader, r.ByDefault
			first = false
		} else if r.Leader != out.Leader || r.ByDefault != out.ByDefault {
			out.Agreed = false
		}
	}
	out.Stats = ei.t.stats()
	return out
}

// --- VBA ---

type vbaResult struct {
	value []byte
	view  int
}

// VBAInstance is one validated-BA instance launched on a cluster.
type VBAInstance struct {
	t   *tracker
	res map[int]vbaResult
}

// LaunchVBA wires one VBA instance per honest party; proposals[i] is party
// i's input, valid the external predicate Q.
func LaunchVBA(c *harness.Cluster, tag string, proposals [][]byte, valid vba.Predicate, cfg vba.Config) *VBAInstance {
	vi := &VBAInstance{t: newTracker(c, tag), res: make(map[int]vbaResult)}
	insts := make([]*vba.VBA, c.N)
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			insts[i] = vba.New(c.Runtime(i), tag, c.Keys[i], valid, cfg, func(v []byte) {
				c.Update(func() {
					vi.res[i] = vbaResult{value: v, view: insts[i].DecidedView}
					vi.t.report(i)
				})
			})
		})
	})
	c.EachHonest(func(i int) {
		c.Launch(i, func() { insts[i].Start(proposals[i]) })
	})
	return vi
}

// Wait blocks until every honest party decided.
func (vi *VBAInstance) Wait(ctx context.Context) error { return vi.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (vi *VBAInstance) Outcome() VBAOutcome {
	out := VBAOutcome{Agreed: true}
	var first []byte
	set := false
	vi.t.c.EachHonest(func(i int) {
		r := vi.res[i]
		if !set {
			first = r.value
			set = true
		} else if string(first) != string(r.value) {
			out.Agreed = false
		}
		if r.view > out.MaxView {
			out.MaxView = r.view
		}
	})
	out.Value = first
	out.Stats = vi.t.stats()
	return out
}

// --- ADKG ---

// ADKGInstance is one distributed-key-generation instance on a cluster.
type ADKGInstance struct {
	t    *tracker
	keys map[int]adkg.ThresholdKey
}

// LaunchADKG wires one ADKG (§7.3) instance per honest party.
func LaunchADKG(c *harness.Cluster, tag string, cfg adkg.Config) *ADKGInstance {
	di := &ADKGInstance{t: newTracker(c, tag), keys: make(map[int]adkg.ThresholdKey)}
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			a := adkg.New(c.Runtime(i), tag, c.Keys[i], cfg, func(k adkg.ThresholdKey) {
				c.Update(func() {
					di.keys[i] = k
					di.t.report(i)
				})
			})
			a.Start()
		})
	})
	return di
}

// Wait blocks until every honest party holds key material.
func (di *ADKGInstance) Wait(ctx context.Context) error { return di.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (di *ADKGInstance) Outcome() ADKGOutcome {
	out := ADKGOutcome{KeysAgree: true}
	var ref *adkg.ThresholdKey
	for _, k := range di.keys {
		k := k
		if ref == nil {
			ref = &k
			out.Contributors = k.Script.WeightCount()
		} else if !k.GroupPK.Equal(ref.GroupPK) {
			out.KeysAgree = false
		}
	}
	out.Stats = di.t.stats()
	return out
}

// --- Beacon ---

// BeaconInstance is one multi-epoch beacon instance on a cluster.
type BeaconInstance struct {
	t      *tracker
	epochs int
	got    map[int][]beacon.Epoch
}

// LaunchBeacon wires one DKG-free beacon (§7.3) per honest party, running
// for the given number of epochs.
func LaunchBeacon(c *harness.Cluster, tag string, epochs int, cfg coin.Config) *BeaconInstance {
	bi := &BeaconInstance{t: newTracker(c, tag), epochs: epochs, got: make(map[int][]beacon.Epoch)}
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			b := beacon.New(c.Runtime(i), tag, c.Keys[i],
				beacon.Config{Coin: cfg, Epochs: epochs}, func(e beacon.Epoch) {
					c.Update(func() {
						bi.got[i] = append(bi.got[i], e)
						bi.t.bump(i)
						if len(bi.got[i]) == epochs {
							bi.t.report(i)
						}
					})
				})
			b.Start()
		})
	})
	return bi
}

// Wait blocks until every honest party emitted every epoch.
func (bi *BeaconInstance) Wait(ctx context.Context) error { return bi.t.wait(ctx) }

// Outcome aggregates the instance after Wait returned nil.
func (bi *BeaconInstance) Outcome() BeaconOutcome {
	out := BeaconOutcome{Epochs: bi.epochs, Agreed: true}
	var ref []beacon.Epoch
	totalAttempts := 0
	for _, es := range bi.got {
		if ref == nil {
			ref = es
			for _, e := range es {
				out.Values = append(out.Values, e.Value)
				totalAttempts += e.Attempts
			}
		} else {
			for k := range ref {
				if es[k].Value != ref[k].Value {
					out.Agreed = false
				}
			}
		}
	}
	out.MeanAttempt = float64(totalAttempts) / float64(bi.epochs)
	out.Stats = bi.t.stats()
	return out
}
