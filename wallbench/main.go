// Command wallbench is the repository's wall-clock benchmark. It drives the
// public repro API in one process on RuntimeLiveTCP with no genesis nonce —
// the paper's PKI-only setting, running Seeding, the coin and ABA/VBA over
// the real TCP mesh — checks every output, and prints one JSON result line.
//
//	wallbench --workload ledger-open --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced window (spans, counters and
// a CPU profile), preceded by an untraced window of equal length on the
// same cluster so that the tracing overhead is reported too. The workloads
// and their reasons are in README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration // measured time, split in two halves when traced
	trace    bool
	setups   int       // cluster set-ups timed; the median is setup_s
	scale    float64   // load multiplier; 1 in scored runs, smaller in smoke tests
	outDir   string    // where the traced run writes spans and the CPU profile
	base     time.Time // every session's times are offsets from here
	tr       *tracer   // nil in untraced runs
}

// report is what a workload measured, before it is turned into a result.
type report struct {
	e2e        map[string]metric
	layer      map[string]metric
	attempted  int64
	failed     int64
	violations []string // correctness failures: the run is wrong
	invalid    string   // the load generator missed its schedule: not scored
	notes      []string // human-readable context printed before the result
}

func (r *report) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// End-to-end metric names and units, shared by every workload.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"throughput_per_s": "1/s",
	"ok_frac":          "ratio",
	"mem_peak_mb":      "MB",
}

var workloads = map[string]func(config) (*report, error){
	"ledger-open": runLedgerOpen,
	"ledger-bulk": runLedgerBulk,
	"agree":       runAgree,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run runs one invocation, printing notes and the result line to stdout,
// and returns the exit code: 0 for a correct run, 1 when the run could not
// be completed, 2 for bad arguments and 3 for a run that is wrong or
// invalid, which still prints its result.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: ledger-open, ledger-bulk or agree")
	seed := fs.Int64("seed", 1, "seed the inputs and cluster keys are made from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	setups := fs.Int("setups", 5, "cluster set-ups timed for setup_s")
	scale := fs.Float64("scale", 1, "load multiplier (smoke tests use less than 1)")
	out := fs.String("out", filepath.Join(".bench_build", "wallbench"), "directory for trace output")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || *setups < 1 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "wallbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, trace: *trace == 1, setups: *setups, scale: *scale,
		window: time.Duration(*seconds * float64(time.Second)), outDir: *out,
		base: time.Now(),
	}
	if cfg.trace {
		cfg.tr = &tracer{}
	}
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, err := finish(cfg, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	for _, v := range rep.violations {
		fmt.Fprintln(os.Stderr, "wallbench: VIOLATION: "+v)
	}
	if rep.invalid != "" {
		fmt.Fprintln(os.Stderr, "wallbench: INVALID RUN: "+rep.invalid)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wallbench: %v\n", err)
		return 1
	}
	printMetrics(stdout, res.Metrics)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 3
	}
	return 0
}

// finish checks the report carries exactly the metrics of its mode and
// builds the result line.
func finish(cfg config, rep *report) (result, error) {
	ms := rep.e2e
	want := e2eNames()
	if cfg.trace {
		ms = rep.layer
		want = layerNames()
	}
	if err := sameNames(ms, want); err != nil {
		return result{}, err
	}
	return result{
		Correct:   len(rep.violations) == 0 && rep.invalid == "",
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   ms,
	}, nil
}

func e2eNames() []string { return slices.Sorted(maps.Keys(e2eUnits)) }

func sameNames(ms map[string]metric, want []string) error {
	var missing, extra []string
	for _, n := range want {
		if _, ok := ms[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range ms {
		if !slices.Contains(want, n) {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v", missing, extra)
	}
	return nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, n := range slices.Sorted(maps.Keys(ms)) {
		fmt.Fprintf(w, "# %-34s %14s %s\n", n, strconv.FormatFloat(ms[n].Value, 'f', -1, 64), ms[n].Unit)
	}
}

// memPeakMB reads the process's peak resident set (VmHWM) in MB.
func memPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
