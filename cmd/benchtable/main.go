// Command benchtable regenerates the paper's quantitative artifacts — the
// Table 1 comparison and the derived experiments E1–E11 plus the
// adversarial-scheduler scenario suite — through the registry-driven
// parallel matrix engine in internal/exp.
//
// Usage:
//
//	go run ./cmd/benchtable -exp table1                  # Table 1 rows
//	go run ./cmd/benchtable -exp e1,e2 -n 4,7            # explicit sweep
//	go run ./cmd/benchtable -exp all -parallel           # everything, one worker per core
//	go run ./cmd/benchtable -exp adv -sched lifo         # scenario suite under an override adversary
//	go run ./cmd/benchtable -exp table1 -json -parallel  # machine-readable artifact on stdout
//	go run ./cmd/benchtable -exp table1 -json -out BENCH_table1.json
//	go run ./cmd/benchtable -exp rbc,dedup/rs-ops -workers 1   # RS data-plane sweep (serial: exact codec counters)
//	go run ./cmd/benchtable -exp abc -json -parallel     # atomic-broadcast ledger throughput sweep
//
// Selectors name specs ("e1/coin-pki"), groups ("e1".."e11", "ablation",
// "adv", "mux", "rbc") or tags ("table1", "sched", "session", "rbc"); "all"
// selects everything. Growth
// exponents are least-squares fits of log(mean bytes) against log(n); the
// paper's claims are Θ(λn³) for the new protocols, Θ(λn⁴) for CKLS02-shape,
// Θ(λn³ log n) for AJM+21-shape and Θ(λn²) for the threshold-setup coin.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exp"
)

func main() {
	expFlag := flag.String("exp", "table1", "spec/group/tag selector, comma-separated (e.g. table1, e1..e11, adv, mux, all)")
	nFlag := flag.String("n", "", "comma-separated party counts overriding each spec's sweep")
	seed := flag.Int64("seed", 1, "base seed (every cell derives its own via TrialSeed)")
	trials := flag.Int("trials", 0, "trials per (spec, n); 0 = spec default")
	schedFlag := flag.String("sched", "", "override adversary: random|fifo|lifo|delay|partition|targeted:<inst-prefix>")
	parallel := flag.Bool("parallel", false, "fan runs out over one worker per CPU core")
	workers := flag.Int("workers", 0, "explicit worker-pool size (overrides -parallel)")
	jsonOut := flag.Bool("json", false, "emit the machine-readable matrix document on stdout")
	outPath := flag.String("out", "", "also write the matrix document to this file")
	steps := flag.Int64("steps", 0, "per-run delivery budget; 0 = generous default")
	flag.Parse()

	specs, err := exp.Select(*expFlag)
	if err != nil {
		fatal(err)
	}
	opt := exp.MatrixOptions{BaseSeed: *seed, Trials: *trials, Steps: *steps}
	if *nFlag != "" {
		if opt.Ns, err = parseNs(*nFlag); err != nil {
			fatal(err)
		}
	}
	switch {
	case *workers > 0:
		opt.Workers = *workers
	case *parallel:
		opt.Workers = 0 // engine default: runtime.NumCPU()
	default:
		opt.Workers = 1
	}
	if *schedFlag != "" {
		if opt.Sched, err = exp.NamedSched(*schedFlag); err != nil {
			fatal(err)
		}
		opt.SchedName = *schedFlag
	}

	m := exp.RunMatrix(specs, opt)
	m.Selector = *expFlag

	doc, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err)
	}
	doc = append(doc, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		os.Stdout.Write(doc)
	} else {
		printHuman(m)
	}
	if errs := m.CellErrors(); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "cell error:", e)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtable:", err)
	os.Exit(2)
}

func parseNs(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 4 {
			return nil, fmt.Errorf("bad n %q (need integers ≥ 4)", part)
		}
		ns = append(ns, v)
	}
	sort.Ints(ns)
	return ns, nil
}

// groupLess orders experiment groups the way a reader expects: e-numbered
// groups numerically (e1 < e2 < … < e10 < e11), everything else after,
// alphabetically.
func groupLess(a, b string) bool {
	na, ea := groupNum(a)
	nb, eb := groupNum(b)
	switch {
	case ea && eb:
		return na < nb
	case ea != eb:
		return ea
	default:
		return a < b
	}
}

func groupNum(g string) (int, bool) {
	if len(g) < 2 || g[0] != 'e' {
		return 0, false
	}
	n, err := strconv.Atoi(g[1:])
	return n, err == nil
}

// printHuman renders the matrix as the familiar per-group tables: one row
// per spec, one column per n, mean bytes per cell, plus the fitted growth
// exponent and notable extras.
func printHuman(m exp.Matrix) {
	byGroup := map[string][]exp.SpecReport{}
	var groups []string
	for _, s := range m.Specs {
		if _, seen := byGroup[s.Group]; !seen {
			groups = append(groups, s.Group)
		}
		byGroup[s.Group] = append(byGroup[s.Group], s)
	}
	sort.Slice(groups, func(i, j int) bool { return groupLess(groups[i], groups[j]) })
	for _, g := range groups {
		specs := byGroup[g]
		ns := unionNs(specs)
		fmt.Printf("\n== %s ==\n", g)
		fmt.Printf("%-34s", "spec")
		for _, n := range ns {
			fmt.Printf("  %12s", fmt.Sprintf("n=%d", n))
		}
		fmt.Printf("  %8s  %12s  %s\n", "fit n^b", "rounds@max-n", "claim")
		for _, s := range specs {
			fmt.Printf("%-34s", s.Title)
			cells := map[int]exp.Cell{}
			for _, c := range s.Cells {
				cells[c.N] = c
			}
			for _, n := range ns {
				c, ok := cells[n]
				switch {
				case !ok:
					fmt.Printf("  %12s", "—")
				case len(c.Errors) == c.Trials:
					fmt.Printf("  %12s", "ERR")
				default:
					fmt.Printf("  %12s", humanBytes(c.Bytes.Mean))
				}
			}
			// rounds@max-n reports the spec's own largest size — "—" when
			// that cell errored out, never a smaller size's value.
			rounds := "—"
			if last := s.Cells[len(s.Cells)-1]; len(last.Errors) < last.Trials {
				rounds = fmt.Sprintf("%.1f", last.Rounds.Mean)
			}
			fmt.Printf("  %8.2f  %12s  %s\n", s.BytesExp, rounds, s.Claim)
			printExtras(s)
		}
	}
	fmt.Println()
}

// printExtras surfaces scenario-quality aggregates (agreement rates, ABA
// rounds, election attempts, coin phase shares) under the spec's table row.
func printExtras(s exp.SpecReport) {
	last := s.Cells[len(s.Cells)-1]
	if len(last.Extra) == 0 {
		return
	}
	var parts []string
	if d, ok := last.Extra["agreed"]; ok {
		parts = append(parts, fmt.Sprintf("agreement %.0f%%", 100*d.Mean))
	}
	if d, ok := last.Extra["mean-round"]; ok {
		parts = append(parts, fmt.Sprintf("ABA rounds mean %.2f (p95 %.1f)", d.Mean, d.P95))
	}
	if d, ok := last.Extra["coin-rounds"]; ok {
		parts = append(parts, fmt.Sprintf("round coins/party %.2f", d.Mean))
	}
	if d, ok := last.Extra["mean-attempts"]; ok {
		parts = append(parts, fmt.Sprintf("election attempts/epoch %.2f", d.Mean))
	}
	if d, ok := last.Extra["by-default"]; ok {
		parts = append(parts, fmt.Sprintf("default-leader fallbacks %.0f%%", 100*d.Mean))
	}
	if d, ok := last.Extra["all-agreed"]; ok {
		parts = append(parts, fmt.Sprintf("all instances agreed %.0f%%", 100*d.Mean))
	}
	if d, ok := last.Extra["bytes-ratio"]; ok {
		parts = append(parts, fmt.Sprintf("Σ inst/total bytes %.3f", d.Mean))
	}
	if d, ok := last.Extra["dedup-x"]; ok {
		parts = append(parts, fmt.Sprintf("dedup %.1f×", d.Mean))
	}
	if d, ok := last.Extra["vrf-verifies"]; ok {
		parts = append(parts, fmt.Sprintf("cold vrf verifies %.0f", d.Mean))
	}
	if d, ok := last.Extra["script-verifies"]; ok {
		parts = append(parts, fmt.Sprintf("cold script verifies %.0f", d.Mean))
	}
	if d, ok := last.Extra["rs-decodes"]; ok {
		if sys, ok2 := last.Extra["rs-systematic"]; ok2 && d.Mean > 0 {
			parts = append(parts, fmt.Sprintf("rs decodes %.0f (%.0f%% zero-mul systematic)",
				d.Mean, 100*sys.Mean/d.Mean))
		} else {
			parts = append(parts, fmt.Sprintf("rs decodes %.0f", d.Mean))
		}
	}
	if d, ok := last.Extra["rs-field-muls"]; ok {
		parts = append(parts, fmt.Sprintf("rs field-muls %.0f", d.Mean))
	}
	if d, ok := last.Extra["tx-per-kstep"]; ok {
		parts = append(parts, fmt.Sprintf("tx/kstep %.2f", d.Mean))
	}
	if d, ok := last.Extra["tx-per-round"]; ok {
		parts = append(parts, fmt.Sprintf("tx/round %.2f", d.Mean))
	}
	if d, ok := last.Extra["lat-rounds-mean"]; ok {
		if p, ok2 := last.Extra["lat-rounds-p95"]; ok2 {
			parts = append(parts, fmt.Sprintf("commit latency rounds %.1f (p95 %.1f)", d.Mean, p.Mean))
		} else {
			parts = append(parts, fmt.Sprintf("commit latency rounds %.1f", d.Mean))
		}
	}
	if d, ok := last.Extra["occupancy"]; ok {
		parts = append(parts, fmt.Sprintf("slot occupancy %.0f%%", 100*d.Mean))
	}
	if d, ok := last.Extra["txs"]; ok {
		if s, ok2 := last.Extra["slots"]; ok2 {
			parts = append(parts, fmt.Sprintf("%.0f txs over %.0f slots", d.Mean, s.Mean))
		}
	}
	if len(parts) > 0 {
		fmt.Printf("%-34s    · %s\n", "", strings.Join(parts, ", "))
	}
	var phases []string
	for k := range last.Extra {
		if strings.HasPrefix(k, "phase-bytes/") {
			phases = append(phases, k)
		}
	}
	if len(phases) > 0 {
		sort.Strings(phases)
		var ph []string
		for _, k := range phases {
			ph = append(ph, fmt.Sprintf("%s %s", strings.TrimPrefix(k, "phase-bytes/"), humanBytes(last.Extra[k].Mean)))
		}
		fmt.Printf("%-34s    · phases: %s\n", "", strings.Join(ph, ", "))
	}
}

func unionNs(specs []exp.SpecReport) []int {
	seen := map[int]bool{}
	var ns []int
	for _, s := range specs {
		for _, c := range s.Cells {
			if !seen[c.N] {
				seen[c.N] = true
				ns = append(ns, c.N)
			}
		}
	}
	sort.Ints(ns)
	return ns
}

func humanBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
