package main

import (
	"errors"
	"fmt"
	"time"
)

// window is one measured interval. An operation belongs to the window its
// start (or due time) falls in; a ledger commit is counted by the window it
// arrives in. So windows can sit back to back on one running cluster.
// Untraced runs measure one window; traced runs measure an untraced and a
// traced half. Fields are guarded by the owning session's mutex.
type window struct {
	start, end time.Duration // offsets from the run's start
	busy       time.Duration // measured time, when not end − start (bulk jobs, agree)
	traced     bool

	// per operation started in the window
	lat        []float64 // start or due time → commit or decision, ms
	late       []float64 // open loop: actual Submit call − due time, ms
	submitWait []float64 // Submit call duration (mempool backpressure), ms
	attempted  int64
	failed     int64

	// per ledger commit arriving in the window (agree: per decision started)
	done       int64 // committed txs or decisions
	bytes      int64 // committed tx bytes
	slots      int   // SlotCommits received
	origins    int   // entries (origin batches) in those slots
	slotGaps   []float64
	lastSlotAt time.Duration
}

func (w *window) contains(t time.Duration) bool { return t >= w.start && t < w.end }

func (w *window) seconds() float64 {
	if w.busy > 0 {
		return w.busy.Seconds()
	}
	return (w.end - w.start).Seconds()
}

// farFuture ends a window that takes every arrival until its session stops.
const farFuture = time.Duration(1<<63 - 1)

// absorb adds job's samples and counts to w.
func (w *window) absorb(job *window) {
	w.busy += job.busy
	w.lat = append(w.lat, job.lat...)
	w.late = append(w.late, job.late...)
	w.submitWait = append(w.submitWait, job.submitWait...)
	w.slotGaps = append(w.slotGaps, job.slotGaps...)
	w.attempted += job.attempted
	w.failed += job.failed
	w.done += job.done
	w.bytes += job.bytes
	w.slots += job.slots
	w.origins += job.origins
}

// newWindows lays out the measured windows from offset at: one untraced
// window, or an untraced and a traced half. The first window always gives
// the end-to-end metrics.
func newWindows(cfg config, at time.Duration) []*window {
	if !cfg.trace {
		return []*window{{start: at, end: at + cfg.window}}
	}
	half := cfg.window / 2
	return []*window{
		{start: at, end: at + half},
		{start: at + half, end: at + cfg.window, traced: true},
	}
}

func windowAt(ws []*window, t time.Duration) *window {
	for _, w := range ws {
		if w.contains(t) {
			return w
		}
	}
	return nil
}

// e2eOf computes a window's end-to-end metrics, except setup and memory,
// with a note stating which percentile the tail metric is and its sample
// count.
func e2eOf(w *window) (map[string]metric, string) {
	lat := sorted(w.lat)
	m := map[string]metric{
		"latency_p50_ms":   {percentile(lat, 50), "ms"},
		"throughput_per_s": {ratio(float64(w.done), w.seconds()), "1/s"},
	}
	q, ok := tailPercentile(len(lat))
	if !ok {
		// Too few samples for any supported tail: report the maximum.
		m["latency_tail_ms"] = metric{percentile(lat, 100), "ms"}
		return m, fmt.Sprintf("latency_tail_ms is the maximum of %d samples (too few for p50 with %d beyond)", len(lat), minBeyond)
	}
	m["latency_tail_ms"] = metric{percentile(lat, q), "ms"}
	return m, fmt.Sprintf("latency_tail_ms is p%g of %d samples (%d beyond it)", q, len(lat), len(lat)-rank(len(lat), q))
}

// assemble fills the report's end-to-end metrics from the first (untraced)
// window, the set-up times and the peak RSS, and in traced runs the
// tracing overhead from the two halves. The load goroutines must have
// finished.
func assemble(rep *report, ws []*window, setups []float64) error {
	for _, w := range ws {
		rep.attempted += w.attempted
		rep.failed += w.failed
	}
	e2e, note := e2eOf(ws[0])
	rep.notes = append(rep.notes, note)
	if rep.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	e2e["ok_frac"] = metric{1 - float64(rep.failed)/float64(rep.attempted), "ratio"}
	e2e["setup_s"] = metric{median(setups), "s"}
	rep.notes = append(rep.notes, fmt.Sprintf("setup_s is the median of %d set-ups: %v", len(setups), setups))
	mem, err := memPeakMB()
	if err != nil {
		return err
	}
	e2e["mem_peak_mb"] = metric{mem, "MB"}
	rep.e2e = e2e
	if len(ws) == 2 {
		traced, _ := e2eOf(ws[1])
		rep.layer["trace.overhead_latency_p50_pct"] = metric{pctChange(e2e["latency_p50_ms"].Value, traced["latency_p50_ms"].Value), "%"}
		rep.layer["trace.overhead_throughput_pct"] = metric{pctChange(e2e["throughput_per_s"].Value, traced["throughput_per_s"].Value), "%"}
		for _, n := range []string{"latency_p50_ms", "latency_tail_ms", "throughput_per_s"} {
			rep.notes = append(rep.notes, fmt.Sprintf("%s untraced half %.4g, traced half %.4g", n, e2e[n].Value, traced[n].Value))
		}
	}
	return nil
}

func pctChange(from, to float64) float64 { return 100 * ratio(to-from, from) }
