// Benchmarks regenerating the paper's quantitative artifacts, driven
// through the experiment registry: every registered spec (Table 1 rows,
// E1–E11, ablations, the adversarial-scheduler scenario suite) becomes one
// sub-benchmark. Each iteration performs one full protocol execution on the
// deterministic simulator and reports the paper's metrics (§3) as custom
// units:
//
//	wire-B/op    communicated bytes among honest parties
//	msgs/op      honest messages
//	rounds/op    asynchronous rounds (causal depth)
//
// go test -bench=. -benchtime=1x        # one run per spec (CI smoke)
// go test -bench=Registry/e1            # one Table 1 family
// go test -bench=Matrix                 # the parallel engine itself
//
// cmd/benchtable sweeps n and aggregates trials; here each spec runs at its
// smallest configured party count so the full registry stays fast.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto/field"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/pvss"
	"repro/internal/crypto/rs"
	"repro/internal/crypto/scache"
	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/memo"
)

func reportOutcome(b *testing.B, out exp.Outcome) {
	b.Helper()
	b.ReportMetric(float64(out.Stats.Bytes), "wire-B/op")
	b.ReportMetric(float64(out.Stats.Msgs), "msgs/op")
	b.ReportMetric(float64(out.Stats.Rounds), "rounds/op")
}

// BenchmarkRegistry runs every registered spec as a sub-benchmark, at the
// spec's smallest party count, one fresh seeded cluster per iteration.
func BenchmarkRegistry(b *testing.B) {
	for _, name := range exp.Names() {
		spec, _ := exp.Lookup(name)
		b.Run(name, func(b *testing.B) {
			var last exp.Outcome
			for i := 0; i < b.N; i++ {
				out, err := exp.RunNamed(name, spec.Ns[0], i, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = out
			}
			reportOutcome(b, last)
		})
	}
}

// BenchmarkRegistryAtScale re-runs the Table 1 rows at the sweep's largest
// size, where the Θ(n³) vs Θ(n⁴) separation is visible in wire-B/op.
func BenchmarkRegistryAtScale(b *testing.B) {
	specs, err := exp.Select("table1")
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range specs {
		n := spec.Ns[len(spec.Ns)-1]
		b.Run(spec.Name, func(b *testing.B) {
			var last exp.Outcome
			for i := 0; i < b.N; i++ {
				out, err := exp.RunNamed(spec.Name, n, i, 1)
				if err != nil {
					b.Fatal(err)
				}
				last = out
			}
			reportOutcome(b, last)
		})
	}
}

// BenchmarkAmortizedSetup is the session API's headline: deciding 8 values
// as 8 one-shot Agree calls pays the bulletin-PKI setup (and, on the live
// runtimes, cluster/mesh construction) 8 times and runs the decisions
// strictly in sequence, while one long-lived Cluster pays setup once and
// runs the 8 VBAs concurrently. pki-setups/op makes the amortization
// explicit and hardware-independent; the wall-clock gap scales with cores —
// on a single-core box the simulated variants tie (the work is ~92% P-256
// crypto either way), while on a multi-core machine the live shared
// cluster additionally overlaps the instances' critical paths across the
// per-party dispatchers.
func BenchmarkAmortizedSetup(b *testing.B) {
	const n, k = 7, 8
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) }
	propsFor := func(j int) [][]byte {
		props := make([][]byte, n)
		for i := range props {
			props[i] = []byte(fmt.Sprintf("ok:i%d-p%d", j, i))
		}
		return props
	}
	sharedCluster := func(b *testing.B, opts ...Option) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			c, err := NewCluster(n, append([]Option{WithSeed(int64(i)), WithGenesisNonce([]byte("bench"))}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			handles := make([]*VBAHandle, k)
			for j := 0; j < k; j++ {
				if handles[j], err = c.Agree(fmt.Sprintf("s%d", j), propsFor(j), valid); err != nil {
					b.Fatal(err)
				}
			}
			for _, h := range handles {
				if _, err := h.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			c.Close()
		}
		b.ReportMetric(1, "pki-setups/op")
	}
	b.Run("one-shot-x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < k; j++ {
				if _, err := Agree(Config{N: n, Seed: int64(i), GenesisNonce: []byte("bench")}, propsFor(j), valid); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(k, "pki-setups/op")
	})
	b.Run("shared-cluster-x8", func(b *testing.B) { sharedCluster(b) })
	b.Run("live-shared-cluster-x8", func(b *testing.B) { sharedCluster(b, WithRuntime(RuntimeLiveChannels)) })
}

// BenchmarkVerifyDedup quantifies the VRF memo every pki.Keyring of a
// cluster shares: one full 7-party VBA per iteration, once with the memo
// and once with every keyring's Verifier set to nil (each check verifies
// directly; compare ns/op). The memoized leg reports the custom units that
// are the acceptance metric of the dedup work:
//
//	vrf-lookups/op   VRF checks the protocols demanded
//	vrf-verifies/op  cold P-256 verifications actually performed
//	dedup-x/op       their ratio — the scalar-mult-work reduction factor
//
// Memoized runs land ~15× under the pass-through baseline (the coin's n²
// candidate re-verifications and the election's per-RBC-slot re-checks all
// collapse onto the winning triple); the hard floor asserted by
// TestCoinVerifyDedupBudget is ≥ 2×.
func BenchmarkVerifyDedup(b *testing.B) {
	const n = 7
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) }
	props := make([][]byte, n)
	for i := range props {
		props[i] = []byte(fmt.Sprintf("ok:p%d", i))
	}
	for _, mode := range []struct {
		name string
		memo bool
	}{{"memoized", true}, {"no-cache", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var vs memo.Stats
			for i := 0; i < b.N; i++ {
				c, err := harness.NewCluster(n, -1, int64(i)+1, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !mode.memo {
					for _, k := range c.Keys {
						k.Verifier = nil
					}
				}
				inst := exp.LaunchPaperVBA(c, "vba", props, valid, []byte("dedup"))
				if err := inst.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
				vs = c.VerifyStats()
			}
			if mode.memo {
				b.ReportMetric(float64(vs.Lookups), "vrf-lookups/op")
				b.ReportMetric(float64(vs.Misses), "vrf-verifies/op")
				b.ReportMetric(float64(vs.Lookups)/float64(vs.Misses), "dedup-x/op")
			}
		})
	}
}

// BenchmarkMatrixEngine measures the engine itself: one full Table 1 matrix
// at small n per iteration, serial versus one worker per core — the
// wall-clock ratio on a multicore box is the engine's speedup.
func BenchmarkMatrixEngine(b *testing.B) {
	specs, err := exp.Select("e2,e9,e11")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"percore", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := exp.RunMatrix(specs, exp.MatrixOptions{
					Ns: []int{4, 7}, Trials: 2, BaseSeed: int64(i), Workers: bc.workers,
				})
				if errs := m.CellErrors(); len(errs) > 0 {
					b.Fatal(errs)
				}
			}
		})
	}
}

// BenchmarkPVSSVerify compares the two PVSS script verifiers on a 7-party
// aggregate of n−f dealer contributions: the batched VrfyScript (one
// random-linear-combination multi-pairing identity — n+2 Miller loops
// sharing one final exponentiation, plus one closing pairing) against the
// sequential VrfyScriptSlow (2n+2 standalone pairings). The pairing cost
// model is enabled so the simulated group reflects the real cost hierarchy
// (a pairing dwarfs the RLC's exponentiations; see pairing.SetCostModel);
// the custom units report the work shape the batching changes:
//
//	millers/op      Miller-loop evaluations per verification
//	finalexps/op    final exponentiations per verification
//
// The wall-clock ns/op ratio between the two sub-benchmarks is the headline
// (≥ 2× for the batched path at n=7).
func BenchmarkPVSSVerify(b *testing.B) {
	const n = 7
	f := (n - 1) / 3
	rng := rand.New(rand.NewSource(1))
	p := pvss.Params{N: n, Degree: f}
	var eks []pvss.EncKey
	var sks []pvss.SigKey
	var vks []pairing.G1
	for i := 0; i < n; i++ {
		ek, _, err := pvss.GenerateEncKey(rng)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := pvss.GenerateSigKey(rng)
		if err != nil {
			b.Fatal(err)
		}
		eks, sks, vks = append(eks, ek), append(sks, sk), append(vks, sk.VK)
	}
	var agg *pvss.Script
	for d := 0; d < n-f; d++ {
		s, err := pvss.Deal(p, eks, d, sks[d], field.MustRandom(rng), rng)
		if err != nil {
			b.Fatal(err)
		}
		if agg == nil {
			agg = s
		} else if agg, err = pvss.AggScripts(agg, s); err != nil {
			b.Fatal(err)
		}
	}
	pairing.SetCostModel(true)
	defer pairing.SetCostModel(false)
	for _, mode := range []struct {
		name   string
		verify func() bool
	}{
		{"batched", func() bool { return pvss.VrfyScript(p, eks, vks, agg) }},
		{"sequential", func() bool { return pvss.VrfyScriptSlow(p, eks, vks, agg) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			before := pairing.Snapshot()
			for i := 0; i < b.N; i++ {
				if !mode.verify() {
					b.Fatal("honest aggregate rejected")
				}
			}
			d := pairing.Snapshot()
			b.ReportMetric(float64(d.Millers-before.Millers)/float64(b.N), "millers/op")
			b.ReportMetric(float64(d.FinalExps-before.FinalExps)/float64(b.N), "finalexps/op")
		})
	}
}

// BenchmarkADKGBatch quantifies the PVSS verification subsystem end to end:
// one full 7-party ADKG per iteration, once with the cluster script memo
// (plus the compositional aggregate fast path) and once with every
// keyring's Scripts set to nil (each check verifies directly). Custom units
// mirror BenchmarkVerifyDedup for the script layer; millers/op is reported
// by both legs:
//
//	script-lookups/op   script checks the protocols demanded
//	script-verifies/op  cold batched verifications actually performed
//	dedup-x/op          their ratio (≥ n is the acceptance floor)
//	millers/op          Miller loops per run — the pairing work axis
func BenchmarkADKGBatch(b *testing.B) {
	const n = 7
	for _, mode := range []struct {
		name string
		memo bool
	}{{"memoized", true}, {"no-cache", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var ss scache.Stats
			before := pairing.Snapshot()
			for i := 0; i < b.N; i++ {
				c, err := harness.NewCluster(n, -1, int64(i)+1, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if !mode.memo {
					for _, k := range c.Keys {
						k.Scripts = nil
					}
				}
				inst := exp.LaunchPaperADKG(c, "dkg", []byte("dedup"))
				if err := inst.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
				ss = c.ScriptVerifyStats()
			}
			d := pairing.Snapshot()
			if mode.memo {
				b.ReportMetric(float64(ss.Lookups), "script-lookups/op")
				b.ReportMetric(float64(ss.Verifies), "script-verifies/op")
				b.ReportMetric(float64(ss.Lookups)/float64(ss.Verifies), "dedup-x/op")
			}
			b.ReportMetric(float64(d.Millers-before.Millers)/float64(b.N), "millers/op")
		})
	}
}

// BenchmarkADKGAtScale runs the e7/adkg registry spec at the top of its
// sweep (n=16) — the size the PVSS batching + memoization work unlocked;
// CI's bench smoke executes it once per run as the scale gate.
func BenchmarkADKGAtScale(b *testing.B) {
	spec, ok := exp.Lookup("e7/adkg")
	if !ok {
		b.Fatal("e7/adkg not registered")
	}
	n := spec.Ns[len(spec.Ns)-1]
	b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
		var last exp.Outcome
		for i := 0; i < b.N; i++ {
			out, err := exp.RunNamed("e7/adkg", n, i, 1)
			if err != nil {
				b.Fatal(err)
			}
			last = out
		}
		reportOutcome(b, last)
		b.ReportMetric(float64(last.Stats.ScriptVerifies), "script-verifies/op")
	})
}

// rsBenchShape is the acceptance shape of the data-plane work: an n=16
// cluster's AVID threshold (k = f+1 = 6) over a multi-column payload.
const (
	rsBenchK       = 6
	rsBenchN       = 16
	rsBenchPayload = 16 * 1024 // ~89 columns of 6×31 payload bytes
)

func rsBenchData(b *testing.B) []byte {
	b.Helper()
	data := make([]byte, rsBenchPayload)
	rand.New(rand.NewSource(42)).Read(data)
	return data
}

// BenchmarkRSEncode compares the cached-basis systematic encoder against
// the original per-column evaluate/interpolate path at the n=16 AVID shape.
// The fast path copies the k source chunks verbatim and computes only the
// n−k parity rows as cached-matrix dot products (~10× on this shape); the
// parity-symbols/op and field-muls/op units report the work that remains.
func BenchmarkRSEncode(b *testing.B) {
	data := rsBenchData(b)
	b.Run("fast", func(b *testing.B) {
		before := rs.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := rs.Encode(data, rsBenchK, rsBenchN); err != nil {
				b.Fatal(err)
			}
		}
		d := rs.Snapshot().Delta(before)
		b.ReportMetric(float64(d.ParitySymbols)/float64(b.N), "parity-symbols/op")
		b.ReportMetric(float64(d.FieldMuls)/float64(b.N), "field-muls/op")
	})
	b.Run("slow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rs.EncodeSlow(data, rsBenchK, rsBenchN); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRSDecode compares decode paths at the same shape. The
// systematic sub-benchmark supplies the first k chunks (pure concatenation,
// zero field multiplications — guard-tested in the rs differential suite);
// the parity sub-benchmark supplies the last k (one memoized basis applied
// across columns); slow is the original interpolating decoder on the same
// parity subset. fast-parity vs slow is the ≥ 5× acceptance ratio.
func BenchmarkRSDecode(b *testing.B) {
	data := rsBenchData(b)
	chunks, err := rs.Encode(data, rsBenchK, rsBenchN)
	if err != nil {
		b.Fatal(err)
	}
	systematic := map[int][]byte{}
	parity := map[int][]byte{}
	for i := 0; i < rsBenchK; i++ {
		systematic[i] = chunks[i]
	}
	for i := rsBenchN - rsBenchK; i < rsBenchN; i++ {
		parity[i] = chunks[i]
	}
	run := func(sub map[int][]byte, dec func(map[int][]byte, int) ([]byte, error)) func(*testing.B) {
		return func(b *testing.B) {
			before := rs.Snapshot()
			for i := 0; i < b.N; i++ {
				got, err := dec(sub, rsBenchK)
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					b.Fatal("decode mismatch")
				}
			}
			d := rs.Snapshot().Delta(before)
			b.ReportMetric(float64(d.FieldMuls)/float64(b.N), "field-muls/op")
		}
	}
	b.Run("fast-systematic", run(systematic, rs.Decode))
	b.Run("fast-parity", run(parity, rs.Decode))
	b.Run("slow", run(parity, rs.DecodeSlow))
}

// BenchmarkABCThroughput drives the streaming ledger end to end through the
// public API — Submit against mempool backpressure, BKR parallel-broadcast
// slots, verified identical delivery — and reports wall-clock throughput
// and commit latency:
//
//	tx-per-sec/op   committed transactions per wall-clock second
//	lat-ms-mean/op  mean Submit→commit latency (ms)
//	lat-ms-p95/op   nearest-rank p95 Submit→commit latency (ms)
//	slots/op        committed slots carrying transactions
//
// The deterministic (hardware-independent) throughput trajectory lives in
// BENCH_abc.json via the abc/* registry specs; this benchmark is the
// wall-clock smoke CI runs on every push.
func BenchmarkABCThroughput(b *testing.B) {
	for _, bc := range []struct {
		name       string
		n, txs     int
		batchBytes int
	}{
		{"n4-b256", 4, 48, 256},
		{"n7-b1k", 7, 96, 1024},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var txTotal, slotTotal int
			var lats []float64
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(bc.n, WithSeed(int64(i)+1), WithGenesisNonce([]byte("bench")))
				if err != nil {
					b.Fatal(err)
				}
				l, err := c.NewLedger("log", WithBatchBytes(bc.batchBytes))
				if err != nil {
					b.Fatal(err)
				}
				var mu sync.Mutex
				submitted := make(map[string]time.Time, bc.txs)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for commit := range l.Committed() {
						now := time.Now()
						mu.Lock()
						slotTotal++
						for _, e := range commit.Entries {
							for _, tx := range e.Txs {
								if t0, ok := submitted[string(tx)]; ok {
									lats = append(lats, float64(now.Sub(t0))/float64(time.Millisecond))
								}
								txTotal++
							}
						}
						mu.Unlock()
					}
				}()
				for q := 0; q < bc.txs; q++ {
					tx := make([]byte, 64)
					copy(tx, fmt.Sprintf("bench-tx-%d-%d", i, q))
					mu.Lock()
					submitted[string(tx)] = time.Now()
					mu.Unlock()
					if err := l.Submit(context.Background(), tx); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := l.Stop(context.Background()); err != nil {
					b.Fatal(err)
				}
				<-done
				c.Close()
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(txTotal)/sec, "tx-per-sec/op")
			}
			b.ReportMetric(float64(slotTotal)/float64(b.N), "slots/op")
			if len(lats) > 0 {
				total := 0.0
				for _, l := range lats {
					total += l
				}
				b.ReportMetric(total/float64(len(lats)), "lat-ms-mean/op")
				sorted := append([]float64(nil), lats...)
				sort.Float64s(sorted)
				b.ReportMetric(sorted[(95*len(sorted)+99)/100-1], "lat-ms-p95/op")
			}
		})
	}
}

// BenchmarkRBCAtScale runs the rbc/avid registry spec at the top of its
// sweep (n=16, 16 concurrent 4 KiB AVID broadcasts) — the workload the
// cached-basis codec unlocked; CI's bench smoke executes it once per run
// as the data-plane scale gate.
func BenchmarkRBCAtScale(b *testing.B) {
	spec, ok := exp.Lookup("rbc/avid")
	if !ok {
		b.Fatal("rbc/avid not registered")
	}
	n := spec.Ns[len(spec.Ns)-1]
	b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
		var last exp.Outcome
		for i := 0; i < b.N; i++ {
			out, err := exp.RunNamed("rbc/avid", n, i, 1)
			if err != nil {
				b.Fatal(err)
			}
			last = out
		}
		reportOutcome(b, last)
		b.ReportMetric(float64(last.Stats.RSOps), "rs-ops/op")
	})
}
