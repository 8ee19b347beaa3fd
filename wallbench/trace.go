package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/crypto/pairing"
	"repro/internal/crypto/rs"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one operation share Op; Parent names the span
// of the same operation that caused this one.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // offset from the run's start
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	heap  uint64 // peak sampled live-heap bytes
}

func (t *tracer) add(name string, op uint64, parent string, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, op, parent, int64(start), int64(end)})
	t.mu.Unlock()
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// sampleHeap records the live heap; called at each slot arrival or
// decision of the traced window.
func (t *tracer) sampleHeap() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	metrics.Read(heapSample)
	if v := heapSample[0].Value.Uint64(); v > t.heap {
		t.heap = v
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is one reading of every counter the layers expose, by name.
type counters map[string]float64

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCounters(c *repro.Cluster) counters {
	metrics.Read(cpuSamples)
	st, r, pr := c.Stats(), rs.Snapshot(), pairing.Snapshot()
	t := st.Transport
	return counters{
		"msgs": float64(st.Messages), "bytes": float64(st.Bytes),
		"verifies": float64(st.Verifies), "scripts": float64(st.ScriptVerifies),
		"frames": float64(t.Frames), "syscalls": float64(t.Syscalls),
		"resends": float64(t.Resends), "dups": float64(t.Dups), "dropped": float64(t.Dropped),
		"encodes": float64(r.Encodes), "decodes": float64(r.Decodes),
		"systematic": float64(r.SystematicDecodes), "fieldMuls": float64(r.FieldMuls),
		"basisHits": float64(r.BasisHits), "basisBuilds": float64(r.BasisBuilds),
		"treeHits": float64(r.TreeHits), "treeBuilds": float64(r.TreeBuilds),
		"millers": float64(pr.Millers),
		"gcCPU":   cpuSamples[0].Value.Float64(), "allCPU": cpuSamples[1].Value.Float64(),
	}
}

// probe measures the traced window: the counters' growth and a CPU profile
// over one or more segments, each on one cluster (bulk jobs each add one).
// begin and end alternate and are never concurrent.
type probe struct {
	c      *repro.Cluster
	before counters
	delta  counters
	buf    bytes.Buffer
	prof   [][]byte // one CPU profile per segment
	err    error
}

func (p *probe) begin(c *repro.Cluster) {
	p.c = c
	p.before = readCounters(c)
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil && p.err == nil {
		p.err = err
	}
}

func (p *probe) end() {
	if p.err == nil {
		pprof.StopCPUProfile()
		p.prof = append(p.prof, bytes.Clone(p.buf.Bytes()))
	}
	if p.delta == nil {
		p.delta = counters{}
	}
	for k, v := range readCounters(p.c) {
		p.delta[k] += v - p.before[k]
	}
}

// armProbe runs p over window w of a running session, off the load
// goroutines, and returns a function that waits until p has ended. A nil p
// does nothing.
func armProbe(p *probe, c *repro.Cluster, w *window, since func() time.Duration) func() {
	if p == nil {
		return func() {}
	}
	done := make(chan struct{})
	time.AfterFunc(w.start-since(), func() {
		p.begin(c)
		time.AfterFunc(w.end-since(), func() {
			p.end()
			close(done)
		})
	})
	return func() { <-done }
}

// layerPackages maps each cpu.<name> metric to the repro package whose
// frames it counts: the share of CPU samples whose stack holds that package.
var layerPackages = map[string]string{
	"rbc": "core/rbc", "rs": "crypto/rs", "merkle": "crypto/merkle",
	"livenet": "livenet", "wire": "wire",
	"aba": "core/aba", "coin": "core/coin", "avss": "core/avss", "wcs": "core/wcs",
	"pedersen": "crypto/pedersen", "group": "crypto/group",
	"seeding": "core/seeding", "pvss": "crypto/pvss",
	"vba": "core/vba", "election": "core/election", "sig": "crypto/sig",
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge")
}

// layerUnits lists every per-layer metric with its unit. A metric a
// workload does not exercise (the ledger's on agree) reads 0.
func layerUnits() map[string]string {
	u := map[string]string{
		"loadgen.late_ms_p99":              "ms",
		"loadgen.offered_tps":              "1/s",
		"abc.submit_wait_ms_p99":           "ms",
		"abc.slot_interval_ms_p50":         "ms",
		"abc.txs_per_slot":                 "count",
		"abc.batch_fill":                   "ratio",
		"abc.origins_per_slot":             "ratio",
		"abc.stop_drain_s":                 "s",
		"rs.ops_per_slot":                  "count",
		"rs.field_muls_per_mb":             "count/MB",
		"rs.systematic_decode_share":       "ratio",
		"rs.basis_hit_ratio":               "ratio",
		"merkle.tree_hit_ratio":            "ratio",
		"livenet.frames_per_syscall":       "ratio",
		"livenet.resends":                  "count",
		"livenet.dups":                     "count",
		"livenet.dropped":                  "count",
		"vrf.cold_verifies_per_op":         "count",
		"pvss.cold_script_verifies_per_op": "count",
		"pairing.millers_per_op":           "count",
		"proto.msgs_per_op":                "count",
		"proto.bytes_per_op":               "B",
		"go.gc_cpu_frac":                   "ratio",
		"go.heap_peak_mb":                  "MB",
		"cpu.gc":                           "ratio",
		"trace.overhead_latency_p50_pct":   "%",
		"trace.overhead_throughput_pct":    "%",
	}
	for name := range layerPackages {
		u["cpu."+name] = "ratio"
	}
	return u
}

func layerNames() []string { return slices.Sorted(maps.Keys(layerUnits())) }

// traceReport fills the per-layer metrics of a traced run from its traced
// window, probe and spans, and writes the spans and CPU profiles out.
// batchBytes is the ledger batch size (0 without a ledger); drains are the
// Stop durations of the traced window. Untraced runs return at once.
func traceReport(cfg config, rep *report, ws []*window, p *probe, batchBytes, n int, drains []float64) error {
	if !cfg.trace {
		return nil
	}
	t := cfg.tr
	if p.err != nil {
		return fmt.Errorf("cpu profile: %w", p.err)
	}
	w, d := ws[len(ws)-1], p.delta
	units := layerUnits()
	set := func(name string, v float64) { rep.layer[name] = metric{v, units[name]} }
	for name := range units {
		if _, ok := rep.layer[name]; !ok {
			set(name, 0)
		}
	}
	ops := float64(w.done)
	if len(w.late) > 0 {
		set("loadgen.late_ms_p99", percentile(sorted(w.late), 99))
		set("loadgen.offered_tps", float64(w.attempted)/w.seconds())
	}
	if w.slots > 0 {
		slots := float64(w.slots)
		set("abc.submit_wait_ms_p99", percentile(sorted(w.submitWait), 99))
		set("abc.slot_interval_ms_p50", percentile(sorted(w.slotGaps), 50))
		set("abc.txs_per_slot", ops/slots)
		set("abc.batch_fill", float64(w.bytes)/(slots*float64(n*batchBytes)))
		set("abc.origins_per_slot", float64(w.origins)/(slots*float64(n)))
		set("abc.stop_drain_s", median(drains))
		set("rs.ops_per_slot", (d["encodes"]+d["decodes"])/slots)
		set("rs.field_muls_per_mb", ratio(d["fieldMuls"], float64(w.bytes)/(1<<20)))
		set("rs.systematic_decode_share", ratio(d["systematic"], d["decodes"]))
		set("rs.basis_hit_ratio", ratio(d["basisHits"], d["basisHits"]+d["basisBuilds"]))
		set("merkle.tree_hit_ratio", ratio(d["treeHits"], d["treeHits"]+d["treeBuilds"]))
	}
	set("livenet.frames_per_syscall", ratio(d["frames"], d["syscalls"]))
	set("livenet.resends", d["resends"])
	set("livenet.dups", d["dups"])
	set("livenet.dropped", d["dropped"])
	set("vrf.cold_verifies_per_op", ratio(d["verifies"], ops))
	set("pvss.cold_script_verifies_per_op", ratio(d["scripts"], ops))
	set("pairing.millers_per_op", ratio(d["millers"], ops))
	set("proto.msgs_per_op", ratio(d["msgs"], ops))
	set("proto.bytes_per_op", ratio(d["bytes"], ops))
	set("go.gc_cpu_frac", ratio(d["gcCPU"], d["allCPU"]))
	set("go.heap_peak_mb", float64(t.heap)/(1<<20))

	var stacks []stack
	for _, prof := range p.prof {
		st, err := profileStacks(prof)
		if err != nil {
			return err
		}
		stacks = append(stacks, st...)
	}
	groups := map[string]func(string) bool{"gc": isGC}
	for name, pkg := range layerPackages {
		path := "repro/internal/" + pkg
		groups[name] = func(fn string) bool { return funcPackage(fn) == path }
	}
	for name, share := range cpuShares(stacks, groups) {
		set("cpu."+name, share)
	}
	var samples int64
	for _, s := range stacks {
		samples += s.count
	}
	rep.notes = append(rep.notes, fmt.Sprintf("traced window: %d ops over %.2f s, %d CPU profile samples, %d spans",
		w.done, w.seconds(), samples, len(t.spans)))

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := t.write(stem + ".spans.jsonl"); err != nil {
		return err
	}
	for i, prof := range p.prof {
		if err := os.WriteFile(fmt.Sprintf("%s.cpu%d.pprof", stem, i), prof, 0o644); err != nil {
			return err
		}
	}
	rep.notes = append(rep.notes, "spans and CPU profiles written to "+stem+".*")
	return nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
