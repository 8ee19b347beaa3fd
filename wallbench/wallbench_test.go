package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, // even the median leaves only 5 beyond
		{19, 0, false},
		{20, 50, true},
		{39, 50, true}, // p75 is rank 30, 9 beyond
		{40, 75, true},
		{100, 90, true}, // p95 is rank 95, 5 beyond
		{200, 95, true},
		{999, 95, true}, // p99 is rank 990, 9 beyond
		{1000, 99, true},
		{100000, 99, true}, // capped at p99
	} {
		q, ok := tailPercentile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g,%v, want p%g,%v", c.n, q, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d beyond", c.n, q, c.n-rank(c.n, q))
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median(3,1,2) = %g", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", m)
	}
}

func TestTxRoundTrip(t *testing.T) {
	for _, size := range []int{8, 64, 100, 4096} {
		tx := makeTx(7, 42, size)
		if id, ok := checkTx(7, tx); !ok || id != 42 {
			t.Errorf("size %d: checkTx = %d,%v", size, id, ok)
		}
		if _, ok := checkTx(8, tx); ok && size > 8 {
			t.Errorf("size %d: tx checks under another seed", size)
		}
		if size > 8 {
			tx[size-1] ^= 1
			if _, ok := checkTx(7, tx); ok {
				t.Errorf("size %d: corrupted tx checks", size)
			}
		}
	}
	if bytes.Equal(makeTx(7, 1, 64)[8:], makeTx(7, 2, 64)[8:]) {
		t.Error("two ids share a body")
	}
}

func TestProposalsValidAndDistinct(t *testing.T) {
	valid := validator(5)
	seen := map[string]bool{}
	for party := 0; party < agreeN; party++ {
		p := proposal(5, 1, 9, party)
		if !valid(p) {
			t.Fatalf("party %d's proposal fails the predicate", party)
		}
		if seen[string(p)] {
			t.Fatalf("party %d's proposal repeats another", party)
		}
		seen[string(p)] = true
		p[20] ^= 1
		if valid(p) {
			t.Fatalf("tampered proposal of party %d passes", party)
		}
	}
	if validator(6)(proposal(5, 1, 9, 0)) {
		t.Error("proposal passes under another seed")
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = splitmix(x)
		}
	}
	return x
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(time.Now().Add(400 * time.Millisecond))
	pprof.StopCPUProfile()
	stacks, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(stacks, map[string]func(string) bool{
		"spin": func(fn string) bool { return fn == "repro/wallbench.spin" },
		"none": func(fn string) bool { return false },
	})
	if shares["spin"] < 0.5 || shares["none"] != 0 {
		t.Errorf("shares = %v, want spin ≥ 0.5 and none = 0", shares)
	}
	if _, err := profileStacks([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core/abc.(*Engine).onSlot": "repro/internal/core/abc",
		"repro/internal/crypto/rs.parCols.func1":   "repro/internal/crypto/rs",
		"runtime.gcBgMarkWorker":                   "runtime",
		"crypto/sha256.(*digest).Write":            "crypto/sha256",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke runs check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny size, untraced
// and traced, and checks each prints exactly the metrics BENCHMARK.json
// lists for its mode, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live TCP clusters")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for _, mode := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run(wl.Name+"/trace"+mode.trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", wl.Name, "--seed", "3", "--seconds", "3",
					"--scale", "0.05", "--setups", "1", "--trace", mode.trace, "--out", t.TempDir()}, &out)
				if code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(mode.want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(mode.want))
				}
				for _, m := range mode.want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit == "" || got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}
