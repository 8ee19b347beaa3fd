package aba

import (
	"fmt"
	"testing"

	"repro/internal/core/coin"
	"repro/internal/harness"
	"repro/internal/sim"
)

type fixture struct {
	c     *harness.Cluster
	insts []*ABA
	outs  map[int]byte
	depth map[int]int
}

// setup wires ABA instances with the given coin factory builder (per node).
func setup(t *testing.T, n, f int, seed int64, opts harness.Options, coins coinsFor) *fixture {
	t.Helper()
	c, err := harness.NewCluster(n, f, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx := &fixture{c: c, insts: make([]*ABA, n), outs: make(map[int]byte), depth: make(map[int]int)}
	c.EachHonest(func(i int) {
		fx.insts[i] = New(c.Net.Node(i), "aba", coins(c, i), func(b byte) {
			fx.outs[i] = b
			fx.depth[i] = c.Net.Node(i).Depth()
		})
	})
	return fx
}

// coinsFor builds party i's coin factory on the fixture's cluster.
type coinsFor func(c *harness.Cluster, i int) CoinFactory

func testCoins(seed string) coinsFor {
	return func(*harness.Cluster, int) CoinFactory { return TestCoins(seed) }
}

// paperCoins backs every party with the paper's Alg. 4 coin.
func paperCoins(c *harness.Cluster, i int) CoinFactory {
	return PaperCoins(c.Net.Node(i), "aba/coin", c.Keys[i], coinConfig())
}

func (fx *fixture) start(inputs map[int]byte) {
	fx.c.EachHonest(func(i int) { fx.insts[i].Start(inputs[i]) })
}

func (fx *fixture) checkAgreementValidity(t *testing.T, inputs map[int]byte, wantAll int) {
	t.Helper()
	if len(fx.outs) != wantAll {
		t.Fatalf("%d of %d honest decided", len(fx.outs), wantAll)
	}
	var first *byte
	for _, b := range fx.outs {
		if first == nil {
			v := b
			first = &v
		} else if *first != b {
			t.Fatal("agreement violated")
		}
	}
	// Validity: the decided bit was some honest party's input.
	found := false
	for i, in := range inputs {
		if !fx.c.Byz[i] && in == *first {
			found = true
		}
	}
	if !found {
		t.Fatalf("decided %d but no honest party input it", *first)
	}
}

// TestUnanimousInputsDecideFast: unanimous inputs decide in round 1, and
// under the paper coin no party starts a single round coin — view₂ is
// {v} everywhere, so the coin is never needed.
func TestUnanimousInputsDecideFast(t *testing.T) {
	for _, paper := range []bool{false, true} {
		for _, bit := range []byte{0, 1} {
			const n, f = 4, 1
			coins := testCoins("s")
			if paper {
				coins = paperCoins
			}
			fx := setup(t, n, f, int64(bit)+1, harness.Options{}, coins)
			inputs := map[int]byte{0: bit, 1: bit, 2: bit, 3: bit}
			fx.start(inputs)
			if err := fx.c.Net.Run(1_000_000, func() bool { return len(fx.outs) == n }); err != nil {
				t.Fatal(err)
			}
			fx.checkAgreementValidity(t, inputs, n)
			for i, b := range fx.outs {
				if b != bit {
					t.Fatalf("node %d decided %d on unanimous %d input", i, b, bit)
				}
			}
			for i, inst := range fx.insts {
				if inst.DecidedRound != 1 {
					t.Fatalf("unanimous input decided in round %d, want 1", inst.DecidedRound)
				}
				if inst.CoinRounds != 0 {
					t.Fatalf("paper=%v: node %d started %d round coins on unanimous input, want 0", paper, i, inst.CoinRounds)
				}
			}
		}
	}
}

// TestEquivocatingAUX2CannotStrandCoin: a Byzantine party sends AUX2 = v
// to one honest party and AUX2 = ⊥ to the others in every round, trying to
// leave one party deciding without the coin while another waits on it
// with fewer than n−f participants. Any two n−f AUX2 sets share an honest
// sender, so a {v} view puts v into every honest view: either nobody waits
// on the coin or every honest party starts it. Every honest party must
// decide, and on the same bit, under the paper coin.
func TestEquivocatingAUX2CannotStrandCoin(t *testing.T) {
	coinRounds := 0
	for seed := int64(0); seed < 4; seed++ {
		const n, f = 4, 1
		byz := map[int]bool{3: true}
		fx := setup(t, n, f, seed+70, harness.Options{Byzantine: byz}, paperCoins)
		inputs := map[int]byte{0: 0, 1: 1, 2: byte(seed) & 1}
		fx.start(inputs)
		v := byte(seed>>1) & 1
		for r := 1; r <= 6; r++ {
			for to := 0; to < 3; to++ {
				send := func(tag, val byte) {
					fx.c.Net.Inject(3, to, "aba", []byte{tag, 0, 0, 0, byte(r), val})
				}
				send(msgEST1, 0)
				send(msgEST1, 1)
				send(msgAUX1, byte(to)&1)
				send(msgEST2, v)
				send(msgEST2, bot)
				if to == 0 {
					send(msgAUX2, v)
				} else {
					send(msgAUX2, bot)
				}
			}
		}
		if err := fx.c.Net.Run(50_000_000, func() bool { return len(fx.outs) == 3 }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fx.checkAgreementValidity(t, inputs, 3)
		fx.c.EachHonest(func(i int) { coinRounds += fx.insts[i].CoinRounds })
	}
	if coinRounds == 0 {
		t.Fatal("no honest party ever started a round coin: the split-view paths went unexercised")
	}
}

func TestSplitInputsAgree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		const n, f = 4, 1
		fx := setup(t, n, f, seed, harness.Options{}, testCoins(fmt.Sprint(seed)))
		inputs := map[int]byte{0: 0, 1: 1, 2: 0, 3: 1}
		fx.start(inputs)
		if err := fx.c.Net.Run(2_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fx.checkAgreementValidity(t, inputs, n)
	}
}

func TestLargerNetworks(t *testing.T) {
	for _, n := range []int{7, 10} {
		f := (n - 1) / 3
		fx := setup(t, n, f, int64(n), harness.Options{}, testCoins("big"))
		inputs := map[int]byte{}
		for i := 0; i < n; i++ {
			inputs[i] = byte(i % 2)
		}
		fx.start(inputs)
		if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		fx.checkAgreementValidity(t, inputs, n)
	}
}

func TestToleratesCrashedParties(t *testing.T) {
	const n, f = 7, 2
	byz := harness.LastFByzantine(n, f)
	fx := setup(t, n, f, 3, harness.Options{Byzantine: byz, Crash: true}, testCoins("crash"))
	inputs := map[int]byte{}
	for i := 0; i < n; i++ {
		inputs[i] = byte((i + 1) % 2)
	}
	fx.start(inputs)
	honest := n - f
	if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.outs) == honest }); err != nil {
		t.Fatal(err)
	}
	fx.checkAgreementValidity(t, inputs, honest)
}

// TestSafetyUnderAdversarialCoin: with a maximally disagreeing coin (every
// party sees an independent bit) agreement must still hold whenever parties
// decide — the two-stage structure consults the coin only in all-⊥ views.
func TestSafetyUnderAdversarialCoin(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		const n, f = 4, 1
		coins := func(_ *harness.Cluster, i int) CoinFactory { return AdversarialCoins(fmt.Sprint(seed), i) }
		fx := setup(t, n, f, seed, harness.Options{}, coins)
		inputs := map[int]byte{0: 0, 1: 1, 2: 1, 3: 0}
		fx.start(inputs)
		// Termination is not guaranteed quickly under full disagreement;
		// run a bounded schedule and check any decisions agree.
		_ = fx.c.Net.Run(3_000_000, func() bool { return len(fx.outs) == n })
		var first *byte
		for i, b := range fx.outs {
			if first == nil {
				v := b
				first = &v
			} else if *first != b {
				t.Fatalf("seed %d: node %d decided %d vs %d under adversarial coin", seed, i, b, *first)
			}
		}
	}
}

func TestAdversarialSchedulerStillDecides(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 11, harness.Options{
		Scheduler: sim.DelayScheduler{Slow: map[int]bool{2: true}, Bias: 0.85},
	}, testCoins("sched"))
	inputs := map[int]byte{0: 1, 1: 0, 2: 1, 3: 0}
	fx.start(inputs)
	if err := fx.c.Net.Run(5_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	fx.checkAgreementValidity(t, inputs, n)
}

// TestExpectedConstantRounds: across seeds and split inputs, the mean
// decided round should be small (expected O(1); with a perfect test coin
// ≈ ≤ 2) and the max bounded.
func TestExpectedConstantRounds(t *testing.T) {
	total, count, maxR := 0, 0, 0
	for seed := int64(0); seed < 12; seed++ {
		const n, f = 4, 1
		fx := setup(t, n, f, seed*13+1, harness.Options{}, testCoins(fmt.Sprint("r", seed)))
		inputs := map[int]byte{0: byte(seed) & 1, 1: 1, 2: 0, 3: byte(seed>>1) & 1}
		fx.start(inputs)
		if err := fx.c.Net.Run(3_000_000, func() bool { return len(fx.outs) == n }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, inst := range fx.insts {
			total += inst.DecidedRound
			count++
			if inst.DecidedRound > maxR {
				maxR = inst.DecidedRound
			}
		}
	}
	mean := float64(total) / float64(count)
	if mean > 3.0 {
		t.Fatalf("mean decided round %.2f, want ≤ 3 with perfect coin", mean)
	}
	if maxR > 8 {
		t.Fatalf("max decided round %d, want ≤ 8", maxR)
	}
}

// TestWithPaperCoin: the full composition — ABA driven by the real Alg. 4
// coin stack (Theorem 4).
func TestWithPaperCoin(t *testing.T) {
	const n, f = 4, 1
	c, err := harness.NewCluster(n, f, 21, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outs := make(map[int]byte)
	insts := make([]*ABA, n)
	for i := 0; i < n; i++ {
		i := i
		coins := PaperCoins(c.Net.Node(i), "aba/coin", c.Keys[i], coinConfig())
		insts[i] = New(c.Net.Node(i), "aba", coins, func(b byte) { outs[i] = b })
	}
	inputs := []byte{1, 0, 1, 0}
	for i := 0; i < n; i++ {
		insts[i].Start(inputs[i])
	}
	if err := c.Net.Run(50_000_000, func() bool { return len(outs) == n }); err != nil {
		t.Fatal(err)
	}
	var first *byte
	for _, b := range outs {
		if first == nil {
			v := b
			first = &v
		} else if *first != b {
			t.Fatal("agreement violated with paper coin")
		}
	}
}

func TestByzantineEquivocatingVotes(t *testing.T) {
	// A Byzantine party sends conflicting EST1 votes to different parties;
	// agreement must hold among honest parties.
	for seed := int64(0); seed < 6; seed++ {
		const n, f = 4, 1
		byz := map[int]bool{3: true}
		fx := setup(t, n, f, seed+50, harness.Options{Byzantine: byz}, testCoins("equiv"))
		inputs := map[int]byte{0: 0, 1: 1, 2: 0}
		fx.start(inputs)
		// Equivocate in round 1 and inject bogus FINISH votes.
		for to := 0; to < 3; to++ {
			v := byte(to % 2)
			fx.c.Net.Inject(3, to, "aba", []byte{msgEST1, 0, 0, 0, 1, v})
			fx.c.Net.Inject(3, to, "aba", []byte{msgAUX1, 0, 0, 0, 1, v})
			fx.c.Net.Inject(3, to, "aba", []byte{msgFINISH, v})
		}
		if err := fx.c.Net.Run(3_000_000, func() bool { return len(fx.outs) == 3 }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fx.checkAgreementValidity(t, inputs, 3)
	}
}

// TestHaltedInstanceRecordsDoubleVotes: a double vote that arrives after
// the receiver halted is still evidence. The honest parties decide and
// halt without the Byzantine party; its conflicting AUX1, AUX2 and FINISH
// copies then reach a halted instance, which records each pair once.
func TestHaltedInstanceRecordsDoubleVotes(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 80, harness.Options{Byzantine: map[int]bool{3: true}}, testCoins("halt"))
	fx.start(map[int]byte{0: 1, 1: 1, 2: 1})
	if err := fx.c.Net.RunAll(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !fx.insts[0].halted {
		t.Fatal("party 0 did not halt")
	}
	node := fx.c.Net.Node(0)
	before := node.Equivocations()
	for _, m := range [][]byte{
		{msgAUX1, 0, 0, 0, 1, 1}, {msgAUX1, 0, 0, 0, 1, 0},
		{msgAUX2, 0, 0, 0, 1, 1}, {msgAUX2, 0, 0, 0, 1, bot},
		{msgFINISH, 1}, {msgFINISH, 0},
	} {
		fx.c.Net.Inject(3, 0, "aba", m)
	}
	if err := fx.c.Net.RunAll(1_000_000); err != nil {
		t.Fatal(err)
	}
	if got := node.Equivocations() - before; got != 3 {
		t.Fatalf("halted instance recorded %d double votes, want 3 (AUX1, AUX2, FINISH)", got)
	}
}

func TestMalformedMessagesRejected(t *testing.T) {
	const n, f = 4, 1
	fx := setup(t, n, f, 60, harness.Options{}, testCoins("mal"))
	fx.c.Net.Inject(3, 0, "aba", []byte{})                       // empty
	fx.c.Net.Inject(3, 0, "aba", []byte{99, 0})                  // unknown tag
	fx.c.Net.Inject(3, 0, "aba", []byte{msgEST1, 0, 0, 0, 1, 7}) // bad value
	fx.c.Net.Inject(3, 0, "aba", []byte{msgEST1, 0, 0, 0, 0, 1}) // round 0
	inputs := map[int]byte{0: 1, 1: 1, 2: 1, 3: 1}
	fx.start(inputs)
	if err := fx.c.Net.Run(1_000_000, func() bool { return len(fx.outs) == n }); err != nil {
		t.Fatal(err)
	}
	if fx.c.Net.Metrics().Rejected < 4 {
		t.Fatalf("rejected = %d, want ≥ 4", fx.c.Net.Metrics().Rejected)
	}
}

func coinConfig() coin.Config { return coin.Config{} }
