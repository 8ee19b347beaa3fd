// Package exp contains the experiment layer: the instance launchers
// (launch.go) that wire one protocol instance onto a long-lived
// harness.Cluster of either runtime, the per-protocol Run* functions (each
// builds a fresh keyed cluster, executes one instance to completion, and
// reports the paper's three metrics of §3 plus outcome-quality fields), the
// concurrent-instance runners (mux.go), the named-Spec registry indexing
// every experiment E1–E11 with its baselines and adversarial scenarios, and
// the parallel matrix engine that sweeps specs over party counts and seeded
// trials. It is shared by cmd/benchtable, the root testing.B benchmarks,
// the public session API (repro.Cluster) and the integration test suite;
// see README.md for the experiment index.
package exp

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/baseline/ajm21"
	"repro/internal/baseline/ckls02"
	"repro/internal/baseline/kms20"
	"repro/internal/baseline/threshcoin"
	"repro/internal/core/aba"
	"repro/internal/core/adkg"
	"repro/internal/core/avss"
	"repro/internal/core/beacon"
	"repro/internal/core/coin"
	"repro/internal/core/election"
	"repro/internal/core/rbc"
	"repro/internal/core/seeding"
	"repro/internal/core/vba"
	"repro/internal/core/wcs"
	"repro/internal/crypto/field"
	"repro/internal/crypto/rs"
	"repro/internal/crypto/scache"
	"repro/internal/harness"
	"repro/internal/memo"
	"repro/internal/sim"
)

// Stats summarizes one protocol run with the paper's three metrics (§3).
type Stats struct {
	N, F   int
	Msgs   int64
	Bytes  int64
	Rounds int   // max causal depth at output (asynchronous rounds)
	Steps  int64 // simulator deliveries (not a paper metric; for context)
	// Verifies counts cold VRF verifications — P-256 work the cluster's
	// memoizing verifier could not dedup. Like Steps it is cluster-
	// cumulative: concurrent instances share one cache, so an instance's
	// value is a completion-time snapshot, not an instance-scoped delta.
	Verifies int64
	// ScriptVerifies counts cold PVSS script verifications — multi-pairing
	// work the cluster's script cache could not dedup. Cluster-cumulative,
	// like Verifies.
	ScriptVerifies int64
	// RSOps counts Reed–Solomon codec operations (systematic encodes +
	// cached-basis decodes) driven by the run's AVID broadcasts — the
	// erasure-coding data-plane counterpart of Verifies/ScriptVerifies.
	RSOps int64
	// Rejected counts messages honest parties dropped at receipt as
	// malformed or cryptographically invalid — the detection counter the
	// Byzantine-behavior specs assert on. Zero in honest runs.
	Rejected int64
	// Equivocations counts messages carrying proof that a sender lied:
	// conflicting votes, double FINISHes, pinned-value flips. Stronger
	// evidence than Rejected (garbage has no provable author; an
	// equivocation does). Zero in honest runs.
	Equivocations int64
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d msgs=%d bytes=%d rounds=%d", s.N, s.Msgs, s.Bytes, s.Rounds)
}

// RunSpec configures a single experiment run.
type RunSpec struct {
	N       int
	F       int // negative = ⌊(n−1)/3⌋
	Seed    int64
	Genesis []byte               // non-nil → adaptive variant (skip Seeding)
	Sched   sim.Scheduler        // nil = random
	Crash   int                  // crash `Crash` parties (see CrashWhere)
	Where   harness.CrashProfile // which parties crash; "" = last
	Steps   int64                // delivery budget; 0 = sim.DefaultDeliveryBudget
}

func (r RunSpec) steps() int64 {
	if r.Steps > 0 {
		return r.Steps
	}
	return sim.DefaultDeliveryBudget
}

func (r RunSpec) cluster() (*harness.Cluster, error) {
	f := r.F
	if f < 0 {
		f = (r.N - 1) / 3
	}
	byz := harness.Crashed(r.Where, r.N, r.Crash, r.Seed)
	return harness.NewCluster(r.N, f, r.Seed, harness.Options{
		Scheduler: r.Sched, Byzantine: byz, Crash: true, Budget: r.steps(),
	})
}

func (r RunSpec) coinCfg() coin.Config { return coin.Config{GenesisNonce: r.Genesis} }

func collectStats(c *harness.Cluster, rounds int) Stats {
	m := c.Net.Metrics()
	return Stats{
		N: c.N, F: c.F,
		Msgs: m.Honest.Msgs, Bytes: m.Honest.Bytes,
		Rounds: rounds, Steps: c.Net.Steps(), Verifies: c.Verifies(),
		ScriptVerifies: c.ScriptVerifies(), RSOps: c.RSOps(),
		Rejected: c.Rejected(), Equivocations: c.Equivocations(),
	}
}

// CoinOutcome is the result of RunCoin.
type CoinOutcome struct {
	Stats    Stats
	Agreed   bool // all honest parties output the same bit
	Bit      byte // the (first party's) bit
	MaxIsSet bool // the speculative max was non-⊥ everywhere
	PerPhase map[string]sim.Tally
}

// RunCoin executes one common coin (Alg. 4) across a fresh cluster.
func RunCoin(spec RunSpec) (CoinOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return CoinOutcome{}, err
	}
	inst := LaunchCoin(c, "coin", spec.coinCfg())
	if err := inst.Wait(context.Background()); err != nil {
		return CoinOutcome{}, fmt.Errorf("coin run: %w", err)
	}
	return inst.Outcome(), nil
}

// ABAOutcome is the result of RunABA.
type ABAOutcome struct {
	Stats     Stats
	Agreed    bool
	Bit       byte
	MeanRound float64 // mean DecidedRound across honest parties
	MaxRound  int
}

// ABACoinKind selects the coin powering the ABA.
type ABACoinKind int

// Coin kinds for RunABA.
const (
	ABAPaperCoin  ABACoinKind = iota // the Alg. 4 coin (Theorem 4)
	ABATestCoin                      // free perfect coin (costless-coin lower bound)
	ABALocalCoin                     // Ben-Or style local coin (no agreement)
	ABAThreshCoin                    // threshold coin WITH private setup (CKS'00)
)

// RunABA executes one binary agreement; inputs[i] is party i's bit.
func RunABA(spec RunSpec, inputs []byte, kind ABACoinKind) (ABAOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ABAOutcome{}, err
	}
	var setup *threshcoin.Setup
	var tshares []field.Scalar
	if kind == ABAThreshCoin {
		s, sh, derr := threshcoin.Deal(c.N, c.F, rand.New(rand.NewSource(spec.Seed^0x7ea1)))
		if derr != nil {
			return ABAOutcome{}, derr
		}
		setup, tshares = s, sh
	}
	coins := func(i int) aba.CoinFactory {
		switch kind {
		case ABATestCoin:
			return aba.TestCoins(fmt.Sprint("h", spec.Seed))
		case ABALocalCoin:
			return aba.AdversarialCoins(fmt.Sprint("h", spec.Seed), i)
		case ABAThreshCoin:
			return threshcoin.Factory(c.Runtime(i), "aba/tc", setup, tshares[i])
		default:
			return aba.PaperCoins(c.Runtime(i), "aba/c", c.Keys[i], spec.coinCfg())
		}
	}
	inst := LaunchABA(c, "aba", inputs, coins)
	if err := inst.Wait(context.Background()); err != nil {
		return ABAOutcome{}, fmt.Errorf("aba run: %w", err)
	}
	return inst.Outcome(), nil
}

// ElectionOutcome is the result of RunElection.
type ElectionOutcome struct {
	Stats     Stats
	Agreed    bool
	Leader    int
	ByDefault bool
}

// RunElection executes one leader election (Alg. 5).
func RunElection(spec RunSpec) (ElectionOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ElectionOutcome{}, err
	}
	inst := LaunchElection(c, "el", election.Config{Coin: spec.coinCfg()})
	if err := inst.Wait(context.Background()); err != nil {
		return ElectionOutcome{}, fmt.Errorf("election run: %w", err)
	}
	return inst.Outcome(), nil
}

// VBAOutcome is the result of RunVBA.
type VBAOutcome struct {
	Stats   Stats
	Agreed  bool
	Value   []byte
	MaxView int
}

// RunVBA executes one validated BA; proposals[i] is party i's input, and
// valid is the external predicate Q.
func RunVBA(spec RunSpec, proposals [][]byte, valid vba.Predicate) (VBAOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return VBAOutcome{}, err
	}
	inst := LaunchVBA(c, "vba", proposals, valid, vba.Config{Coin: spec.coinCfg()})
	if err := inst.Wait(context.Background()); err != nil {
		return VBAOutcome{}, fmt.Errorf("vba run: %w", err)
	}
	return inst.Outcome(), nil
}

// ADKGOutcome is the result of RunADKG.
type ADKGOutcome struct {
	Stats        Stats
	KeysAgree    bool
	Contributors int
}

// RunADKG executes one distributed key generation (§7.3).
func RunADKG(spec RunSpec) (ADKGOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ADKGOutcome{}, err
	}
	inst := LaunchADKG(c, "dkg", adkg.Config{VBA: vba.Config{Coin: spec.coinCfg()}})
	if err := inst.Wait(context.Background()); err != nil {
		return ADKGOutcome{}, fmt.Errorf("adkg run: %w", err)
	}
	return inst.Outcome(), nil
}

// BeaconOutcome is the result of RunBeacon.
type BeaconOutcome struct {
	Stats       Stats
	Epochs      int
	Agreed      bool
	Values      []beacon.Value
	MeanAttempt float64
}

// RunBeacon executes `epochs` epochs of the DKG-free beacon (§7.3).
func RunBeacon(spec RunSpec, epochs int) (BeaconOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return BeaconOutcome{}, err
	}
	inst := LaunchBeacon(c, "bcn", epochs, spec.coinCfg())
	if err := inst.Wait(context.Background()); err != nil {
		return BeaconOutcome{}, fmt.Errorf("beacon run: %w", err)
	}
	return inst.Outcome(), nil
}

// SubprotocolStats measures one AVSS, WCS or Seeding instance (E9–E11).
func RunAVSS(spec RunSpec, payload int) (Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return Stats{}, err
	}
	done := make(map[int]bool)
	rounds := 0
	insts := make([]*avss.AVSS, c.N)
	c.EachHonest(func(i int) {
		insts[i] = avss.New(c.Net.Node(i), "avss", c.Keys[i], 0, func(avss.ShareOutput) {
			done[i] = true
			if d := c.Net.Node(i).Depth(); d > rounds {
				rounds = d
			}
		}, nil)
	})
	insts[0].StartDealer(make([]byte, payload))
	if err := c.Net.Run(spec.steps(), func() bool { return len(done) == c.Honest() }); err != nil {
		return Stats{}, fmt.Errorf("avss run: %w", err)
	}
	return collectStats(c, rounds), nil
}

// RunWCS measures one weak core-set selection (E10).
func RunWCS(spec RunSpec) (Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return Stats{}, err
	}
	done := make(map[int]bool)
	rounds := 0
	insts := make([]*wcs.WCS, c.N)
	c.EachHonest(func(i int) {
		insts[i] = wcs.New(c.Net.Node(i), "wcs", c.Keys[i], func(map[int]bool) {
			done[i] = true
			if d := c.Net.Node(i).Depth(); d > rounds {
				rounds = d
			}
		})
	})
	c.EachHonest(func(i int) {
		for j := 0; j < c.N-c.F; j++ {
			insts[i].Add(j)
		}
	})
	if err := c.Net.Run(spec.steps(), func() bool { return len(done) == c.Honest() }); err != nil {
		return Stats{}, fmt.Errorf("wcs run: %w", err)
	}
	return collectStats(c, rounds), nil
}

// RunSeeding measures one Seeding instance (E11).
func RunSeeding(spec RunSpec) (Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return Stats{}, err
	}
	done := make(map[int]bool)
	rounds := 0
	c.EachHonest(func(i int) {
		s := seeding.New(c.Net.Node(i), "sd", c.Keys[i], 0, func([seeding.SeedSize]byte) {
			done[i] = true
			if d := c.Net.Node(i).Depth(); d > rounds {
				rounds = d
			}
		})
		s.Start()
	})
	if err := c.Net.Run(spec.steps(), func() bool { return len(done) == c.Honest() }); err != nil {
		return Stats{}, fmt.Errorf("seeding run: %w", err)
	}
	return collectStats(c, rounds), nil
}

// RunRBC measures the AVID erasure-coded broadcast data plane under the
// n-broadcast pattern one VBA view drives: every honest party disperses a
// payload-byte value under its own instance tag, and the run completes when
// every honest party has delivered every honest sender's broadcast. The
// returned Stats carry the RSOps the workload pushed through the cached-
// basis codec.
func RunRBC(spec RunSpec, payload int) (Stats, error) {
	st, _, err := RunRBCOps(spec, payload)
	return st, err
}

// RunRBCOps is RunRBC plus the cluster's Reed–Solomon codec counters,
// quantifying the data-plane shape: systematic encodes, cached-basis
// decodes, how many decodes hit the zero-field-work concatenation path, and
// the field multiplications the parity rows cost.
func RunRBCOps(spec RunSpec, payload int) (Stats, rs.Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return Stats{}, rs.Stats{}, err
	}
	delivered := make(map[int]int)
	rounds := 0
	honest := c.Honest()
	insts := make([][]*rbc.AVID, c.N)
	c.EachHonest(func(i int) {
		insts[i] = make([]*rbc.AVID, c.N)
		for j := 0; j < c.N; j++ {
			insts[i][j] = rbc.NewAVID(c.Net.Node(i), fmt.Sprintf("rb/%d", j), j, func([]byte) {
				delivered[i]++
				if d := c.Net.Node(i).Depth(); d > rounds {
					rounds = d
				}
			})
		}
	})
	c.EachHonest(func(j int) {
		value := make([]byte, payload)
		for m := range value {
			value[m] = byte(31*j + m)
		}
		insts[j][j].Start(value)
	})
	err = c.Net.Run(spec.steps(), func() bool {
		for i, got := range delivered {
			if c.Byz[i] || got < honest {
				return false
			}
		}
		return len(delivered) == honest
	})
	if err != nil {
		return Stats{}, rs.Stats{}, fmt.Errorf("rbc run: %w", err)
	}
	return collectStats(c, rounds), c.RSStats(), nil
}

// RunVBADedup executes one validated BA and additionally reports the
// cluster's VRF memo counters, quantifying how much P-256 work the memo
// removed from the run (Misses are the cold verifications).
func RunVBADedup(spec RunSpec, proposals [][]byte, valid vba.Predicate) (VBAOutcome, memo.Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return VBAOutcome{}, memo.Stats{}, err
	}
	inst := LaunchVBA(c, "vba", proposals, valid, vba.Config{Coin: spec.coinCfg()})
	if err := inst.Wait(context.Background()); err != nil {
		return VBAOutcome{}, memo.Stats{}, fmt.Errorf("vba dedup run: %w", err)
	}
	return inst.Outcome(), c.VerifyStats(), nil
}

// RunADKGDedup executes one distributed key generation and additionally
// reports the cluster's PVSS script verifier-cache counters, quantifying
// how much multi-pairing work the memo layer removed: without it every
// party re-verifies every dealer script on receipt and every VBA stage
// re-evaluates the aggregate predicate per sender (O(n²) script
// verifications per DKG); with it each distinct script or aggregate is
// verified cold once, cluster-wide.
func RunADKGDedup(spec RunSpec) (ADKGOutcome, scache.Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return ADKGOutcome{}, scache.Stats{}, err
	}
	inst := LaunchADKG(c, "dkg", adkg.Config{VBA: vba.Config{Coin: spec.coinCfg()}})
	if err := inst.Wait(context.Background()); err != nil {
		return ADKGOutcome{}, scache.Stats{}, fmt.Errorf("adkg dedup run: %w", err)
	}
	return inst.Outcome(), c.ScriptVerifyStats(), nil
}

// RunElectionBots models corruption beyond what honest coin runs can
// produce: EVERY party's speculative max is forced to ⊥ (the coin layer is
// bypassed via ForceCoinResult; RBC and ABA run for real). Alg. 5 must
// then vote 0 and elect the default leader rather than stall — the ⊥
// broadcasts count toward the n−f vote threshold as zero ballots.
func RunElectionBots(spec RunSpec) (ElectionOutcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return ElectionOutcome{}, err
	}
	ei := &ElectionInstance{t: newTracker(c, "el"), res: make(map[int]election.Result)}
	c.EachHonest(func(i int) {
		c.Launch(i, func() {
			e := election.New(c.Runtime(i), "el", c.Keys[i],
				election.Config{Coin: spec.coinCfg()}, func(r election.Result) {
					c.Update(func() {
						ei.res[i] = r
						ei.t.report(i)
					})
				})
			e.ForceCoinResult(coin.Result{})
		})
	})
	if err := ei.Wait(context.Background()); err != nil {
		return ElectionOutcome{}, fmt.Errorf("election bots run: %w", err)
	}
	return ei.Outcome(), nil
}

// BaselineKind selects a Table 1 comparator coin.
type BaselineKind int

// Baseline coins for RunBaselineCoin.
const (
	BaselineCKLS02 BaselineKind = iota
	BaselineAJM21
	BaselineThresh
)

// RunBaselineCoin executes one baseline coin and reports its cost.
func RunBaselineCoin(spec RunSpec, kind BaselineKind) (Stats, error) {
	c, err := spec.cluster()
	if err != nil {
		return Stats{}, err
	}
	bits := make(map[int]byte)
	rounds := 0
	record := func(i int) func(byte) {
		return func(b byte) {
			bits[i] = b
			if d := c.Net.Node(i).Depth(); d > rounds {
				rounds = d
			}
		}
	}
	switch kind {
	case BaselineCKLS02:
		c.EachHonest(func(i int) { ckls02.New(c.Net.Node(i), "bl", c.Keys[i], record(i)).Start() })
	case BaselineAJM21:
		c.EachHonest(func(i int) { ajm21.New(c.Net.Node(i), "bl", c.Keys[i], record(i)).Start() })
	case BaselineThresh:
		setup, shares, derr := threshcoin.Deal(c.N, c.F, rand.New(rand.NewSource(spec.Seed^0x7ea1)))
		if derr != nil {
			return Stats{}, derr
		}
		c.EachHonest(func(i int) { threshcoin.New(c.Net.Node(i), "bl", setup, shares[i], record(i)).Start() })
	}
	if err := c.Net.Run(spec.steps(), func() bool { return len(bits) == c.Honest() }); err != nil {
		return Stats{}, fmt.Errorf("baseline coin run: %w", err)
	}
	return collectStats(c, rounds), nil
}

// KMS20Outcome reports the two-phase KMS20 facsimile costs.
type KMS20Outcome struct {
	Bootstrap Stats
	PerCoin   Stats
}

// RunKMS20 measures the bootstrap and one subsequent coin.
func RunKMS20(spec RunSpec) (KMS20Outcome, error) {
	c, err := spec.cluster()
	if err != nil {
		return KMS20Outcome{}, err
	}
	keys := make(map[int]kms20.Key)
	rounds := 0
	c.EachHonest(func(i int) {
		b := kms20.NewBootstrap(c.Net.Node(i), "km", c.Keys[i], func(k kms20.Key) {
			keys[i] = k
			if d := c.Net.Node(i).Depth(); d > rounds {
				rounds = d
			}
		})
		b.Start()
	})
	if err := c.Net.Run(spec.steps(), func() bool { return len(keys) == c.Honest() }); err != nil {
		return KMS20Outcome{}, fmt.Errorf("kms20 bootstrap: %w", err)
	}
	out := KMS20Outcome{Bootstrap: collectStats(c, rounds)}
	preMsgs, preBytes := out.Bootstrap.Msgs, out.Bootstrap.Bytes
	bits := make(map[int]byte)
	c.EachHonest(func(i int) {
		kms20.NewCoin(c.Net.Node(i), "km/c0", keys[i], func(b byte) { bits[i] = b }).Start()
	})
	if err := c.Net.Run(spec.steps(), func() bool { return len(bits) == c.Honest() }); err != nil {
		return KMS20Outcome{}, fmt.Errorf("kms20 coin: %w", err)
	}
	m := c.Net.Metrics()
	out.PerCoin = Stats{N: c.N, F: c.F, Msgs: m.Honest.Msgs - preMsgs, Bytes: m.Honest.Bytes - preBytes, Rounds: 1}
	return out, nil
}
