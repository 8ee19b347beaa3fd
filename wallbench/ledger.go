package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
)

// The two ledger workloads share one implementation and differ in their load:
//
//   - ledger-open: many small independent clients. 64-byte txs arrive on a
//     fixed open-loop schedule at openRate tx/s with default ledger options,
//     and each tx is timed from the moment it was due. The slot's ABA/coin
//     critical path sets the latency; the AVID data plane is a few percent
//     of CPU.
//   - ledger-bulk: few large batches. One submitter keeps 4 KiB txs queued
//     against mempool backpressure with 1 MiB batches, so the load saturates
//     on purpose and the data plane (AVID, RS coding, Merkle hashing, wire
//     copies, socket writes) takes about half the CPU.
const (
	ledgerN      = 4
	openTxBytes  = 64
	openRate     = 1000 // offered tx/s
	bulkTxBytes  = 4096
	bulkBatch    = 1 << 20
	bulkMempool  = 4 << 20
	bulkJobTxs   = 8000     // txs per bulk job (32 MB of payload)
	defaultBatch = 16 << 10 // the ledger's default WithBatchBytes

	// lateTolerance is how far behind schedule (p99 of Submit call − due
	// time) the open-loop generator may run before the run is invalid: a
	// late generator offers less load than the schedule claims.
	lateTolerance = 100 * time.Millisecond

	submitGrace = 30 * time.Second // Submit may block this long past the window
	stopTimeout = 60 * time.Second
	warmTimeout = 60 * time.Second
)

type ledgerSpec struct {
	txBytes int
	opts    []repro.LedgerOption
}

// txState is what the generator remembers of one in-flight tx: when it was
// due (or submitted) and the window it belongs to. nil marks a warm-up tx.
type txState struct {
	start time.Duration
	win   *window
}

// ledgerSession is one cluster with one running ledger and its commit
// consumer.
type ledgerSession struct {
	c    *repro.Cluster
	l    *repro.Ledger
	seed int64
	base time.Time
	tr   *tracer

	mu       sync.Mutex
	inflight map[uint64]txState // keyed by the tx's id header, dropped at commit
	windows  []*window
	rep      *report
	warm     chan struct{} // one send per committed warm-up tx
	consumed chan struct{} // closed when the commit stream has closed
}

func (s *ledgerSession) since() time.Duration { return time.Since(s.base) }

// warmID marks set-up txs so they never collide with measured ids.
const warmID = uint64(1) << 63

// openLedger sets up one cluster and ledger and waits for a warm-up tx to
// commit, returning the session and the time that took. k numbers the
// set-ups of a run.
func openLedger(cfg config, spec ledgerSpec, rep *report, k int) (*ledgerSession, time.Duration, error) {
	s := &ledgerSession{
		seed: cfg.seed, base: cfg.base, tr: cfg.tr, rep: rep,
		inflight: make(map[uint64]txState),
		warm:     make(chan struct{}, 1),
		consumed: make(chan struct{}),
	}
	t0 := s.since()
	c, err := repro.NewCluster(ledgerN, repro.WithRuntime(repro.RuntimeLiveTCP), repro.WithSeed(cfg.seed))
	if err != nil {
		return nil, 0, err
	}
	s.c = c
	if s.l, err = c.NewLedger("ledger", spec.opts...); err != nil {
		c.Close()
		return nil, 0, err
	}
	go s.consume()
	ctx, cancel := context.WithTimeout(context.Background(), warmTimeout)
	defer cancel()
	if err := s.submit(ctx, warmID, makeTx(cfg.seed, warmID, spec.txBytes), 0, nil); err != nil {
		s.close(ctx)
		return nil, 0, fmt.Errorf("warm-up submit: %w", err)
	}
	select {
	case <-s.warm:
	case <-ctx.Done():
		s.close(ctx)
		return nil, 0, errors.New("warm-up tx did not commit")
	}
	t1 := s.since()
	s.tr.add("setup", uint64(k), "", t0, t1)
	return s, t1 - t0, nil
}

// submit registers tx as in flight and hands it to the ledger.
func (s *ledgerSession) submit(ctx context.Context, id uint64, tx []byte, start time.Duration, w *window) error {
	s.mu.Lock()
	s.inflight[id] = txState{start, w}
	s.mu.Unlock()
	t0 := s.since()
	err := s.l.Submit(ctx, tx)
	t1 := s.since()
	s.mu.Lock()
	defer s.mu.Unlock()
	if w != nil {
		w.submitWait = append(w.submitWait, ms(t1-t0))
		if w.traced {
			s.tr.add("submit", id, "", t0, t1)
		}
	}
	if err != nil {
		delete(s.inflight, id)
		if w != nil {
			w.failed++
		}
	}
	return err
}

// consume drains the commit stream, checking each tx against the in-flight
// set: a tx that is not in flight was committed twice or never submitted.
func (s *ledgerSession) consume() {
	defer close(s.consumed)
	for sc := range s.l.Committed() {
		now := s.since()
		type arrival struct {
			id uint64
			n  int
		}
		var got []arrival
		for _, e := range sc.Entries {
			for _, tx := range e.Txs {
				id, ok := checkTx(s.seed, tx)
				if !ok {
					s.mu.Lock()
					s.rep.violate("slot %d: committed tx is not one the generator made (%d bytes)", sc.Slot, len(tx))
					s.mu.Unlock()
					continue
				}
				got = append(got, arrival{id, len(tx)})
			}
		}
		s.mu.Lock()
		w := windowAt(s.windows, now)
		if w != nil {
			if w.slots > 0 {
				w.slotGaps = append(w.slotGaps, ms(now-w.lastSlotAt))
			}
			w.slots++
			w.lastSlotAt = now
			w.origins += len(sc.Entries)
		}
		warm := false
		for _, a := range got {
			st, ok := s.inflight[a.id]
			if !ok {
				s.rep.violate("slot %d: tx %d committed twice or never submitted", sc.Slot, a.id)
				continue
			}
			delete(s.inflight, a.id)
			if w != nil {
				w.done++
				w.bytes += int64(a.n)
			}
			if st.win == nil {
				warm = true
				continue
			}
			st.win.lat = append(st.win.lat, ms(now-st.start))
			if st.win.traced {
				s.tr.add("commit", a.id, "submit", st.start, now)
			}
		}
		traced := w != nil && w.traced
		s.mu.Unlock()
		if traced {
			s.tr.add("slot", uint64(sc.Slot), "", now, now)
			s.tr.sampleHeap()
		}
		if warm {
			s.warm <- struct{}{}
		}
	}
}

// close stops the ledger, checks it and closes the cluster.
func (s *ledgerSession) close(ctx context.Context) time.Duration {
	d := s.stop(ctx)
	s.c.Close()
	return d
}

// stop stops the ledger and checks exactly-once delivery: every tx still
// in flight must come back as a Stop leftover (counted as failed), and
// nothing may be left unaccounted for. It returns how long Stop took.
func (s *ledgerSession) stop(ctx context.Context) time.Duration {
	t0 := s.since()
	left, err := s.l.Stop(ctx)
	<-s.consumed
	drain := s.since() - t0
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.rep.violate("ledger stop: %v", err)
	}
	for _, tx := range left {
		id, ok := checkTx(s.seed, tx)
		st, inflight := s.inflight[id]
		if !ok || !inflight {
			s.rep.violate("Stop returned a leftover tx that was not in flight")
			continue
		}
		delete(s.inflight, id)
		if st.win != nil {
			st.win.failed++
		}
	}
	for id := range s.inflight {
		s.rep.violate("tx %d was submitted but neither committed nor returned by Stop", id)
	}
	return drain
}

// setUp opens cfg.setups sessions one after another, closing all but the
// last, and returns the last with every set-up time. The closed sessions'
// garbage is collected before the caller measures anything.
func setUp(cfg config, spec ledgerSpec, rep *report) (*ledgerSession, []float64, error) {
	var s *ledgerSession
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.close(context.Background())
		}
		var d time.Duration
		var err error
		if s, d, err = openLedger(cfg, spec, rep, i); err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
	}
	runtime.GC()
	return s, setups, nil
}

// runLedgerOpen measures one cluster under the open-loop schedule.
func runLedgerOpen(cfg config) (*report, error) {
	spec := ledgerSpec{txBytes: openTxBytes}
	rate := openRate * cfg.scale
	rep := &report{layer: map[string]metric{}}
	s, setups, err := setUp(cfg, spec, rep)
	if err != nil {
		return nil, err
	}
	var p *probe
	if cfg.trace {
		p = &probe{}
	}
	ws := newWindows(cfg, s.since()+10*time.Millisecond)
	s.mu.Lock()
	s.windows = ws
	s.mu.Unlock()
	wait := armProbe(p, s.c, ws[len(ws)-1], s.since)
	end := ws[len(ws)-1].end
	ctx, cancel := context.WithDeadline(context.Background(), s.base.Add(end+submitGrace))
	defer cancel()
	s.openLoop(ctx, ws, rate, spec.txBytes)
	wait()
	stopCtx, stopCancel := context.WithTimeout(context.Background(), stopTimeout)
	defer stopCancel()
	drain := s.close(stopCtx)
	s.tr.add("stop", 0, "", end, end+drain)

	if p99 := percentile(sorted(ws[0].late), 99); p99 > ms(lateTolerance) {
		rep.invalid = fmt.Sprintf("open-loop generator ran %.1f ms behind schedule at p99 (tolerance %v)", p99, lateTolerance)
	}
	if err := assemble(rep, ws, setups); err != nil {
		return nil, err
	}
	return rep, traceReport(cfg, rep, ws, p, defaultBatch, ledgerN, []float64{drain.Seconds()})
}

// runLedgerBulk measures a sequence of bulk jobs, each on a fresh cluster:
// a cluster keeps roughly 16 times its committed payload until it is
// closed, so one cluster saturated for the whole window would exhaust
// memory. A job's busy time runs from its first Submit to its last commit.
// Jobs are never cut short, since a short job's ramp-up and drain would
// weigh more than a full one's: whole jobs run until their busy time
// fills the window, which may overrun it by up to one job.
func runLedgerBulk(cfg config) (*report, error) {
	spec := ledgerSpec{
		txBytes: bulkTxBytes,
		opts:    []repro.LedgerOption{repro.WithBatchBytes(bulkBatch), repro.WithMempoolBytes(int(bulkMempool * cfg.scale))},
	}
	jobTxs := max(1, int(bulkJobTxs*cfg.scale))
	rep := &report{layer: map[string]metric{}}
	s, setups, err := setUp(cfg, spec, rep)
	if err != nil {
		return nil, err
	}
	var p *probe
	if cfg.trace {
		p = &probe{}
	}
	var drains []float64
	ws := newWindows(cfg, 0)
	for _, w := range ws {
		budget := w.end - w.start
		for w.busy < budget {
			if s == nil {
				var d time.Duration
				if s, d, err = openLedger(cfg, spec, rep, len(setups)); err != nil {
					return nil, fmt.Errorf("bulk job set-up: %w", err)
				}
				setups = append(setups, d.Seconds())
			}
			job := &window{start: s.since(), end: farFuture, traced: w.traced}
			s.mu.Lock()
			s.windows = []*window{job}
			s.mu.Unlock()
			if w.traced {
				p.begin(s.c)
			}
			ctx, cancel := context.WithTimeout(context.Background(), submitGrace)
			s.closedLoop(ctx, job, jobTxs, spec.txBytes)
			cancel()
			stopCtx, stopCancel := context.WithTimeout(context.Background(), stopTimeout)
			drain := s.stop(stopCtx)
			stopCancel()
			if w.traced {
				p.end()
				drains = append(drains, drain.Seconds())
			}
			s.c.Close()
			s = nil
			runtime.GC() // so each job starts without the last one's garbage
			if job.done == 0 {
				return nil, errors.New("a bulk job committed nothing")
			}
			job.busy = job.lastSlotAt - job.start // the consumer has exited
			w.absorb(job)
		}
	}
	if err := assemble(rep, ws, setups); err != nil {
		return nil, err
	}
	return rep, traceReport(cfg, rep, ws, p, bulkBatch, ledgerN, drains)
}

// openLoop submits txs on a fixed schedule across the windows; each tx is
// timed from its due time, so a stall delays every tx due behind it.
func (s *ledgerSession) openLoop(ctx context.Context, ws []*window, rate float64, txBytes int) {
	period := time.Duration(float64(time.Second) / rate)
	start, end := ws[0].start, ws[len(ws)-1].end
	for k := uint64(0); ; k++ {
		due := start + time.Duration(k)*period
		if due >= end {
			return
		}
		if d := due - s.since(); d > 0 {
			time.Sleep(d)
		}
		w := windowAt(ws, due)
		s.mu.Lock()
		w.late = append(w.late, ms(s.since()-due))
		w.attempted++
		s.mu.Unlock()
		// A failed Submit is counted, and the schedule goes on.
		_ = s.submit(ctx, k, makeTx(s.seed, k, txBytes), due, w)
	}
}

// closedLoop keeps one submitter blocked on mempool backpressure until it
// has submitted n txs; each tx is timed from its Submit call.
func (s *ledgerSession) closedLoop(ctx context.Context, w *window, n int, txBytes int) {
	for k := uint64(0); k < uint64(n); k++ {
		now := s.since()
		s.mu.Lock()
		w.attempted++
		s.mu.Unlock()
		if err := s.submit(ctx, k, makeTx(s.seed, k, txBytes), now, w); err != nil {
			return
		}
	}
}

// makeTx builds tx id of the given size: an 8-byte id header, then bytes
// drawn from a generator keyed by (seed, id), so a committed tx can be
// checked without keeping its payload.
func makeTx(seed int64, id uint64, size int) []byte {
	tx := make([]byte, size)
	binary.BigEndian.PutUint64(tx, id)
	fill(tx[8:], seed, id)
	return tx
}

// checkTx returns the id of a tx makeTx built for seed, and false for any
// other bytes.
func checkTx(seed int64, tx []byte) (uint64, bool) {
	if len(tx) < 8 {
		return 0, false
	}
	id := binary.BigEndian.Uint64(tx)
	var buf [512]byte
	body := tx[8:]
	for off := 0; off < len(body); off += len(buf) {
		chunk := body[off:min(off+len(buf), len(body))]
		want := buf[:len(chunk)]
		fillAt(want, seed, id, off)
		if string(want) != string(chunk) {
			return id, false
		}
	}
	return id, true
}

func fill(dst []byte, seed int64, id uint64) { fillAt(dst, seed, id, 0) }

// fillAt writes the generator's bytes for (seed, id) starting at body
// offset off (a multiple of 8) into dst.
func fillAt(dst []byte, seed int64, id uint64, off int) {
	var word [8]byte
	for i := 0; i < len(dst); i += 8 {
		binary.LittleEndian.PutUint64(word[:], splitmix(uint64(seed)^id*0x9e3779b97f4a7c15+uint64(off+i)))
		copy(dst[i:], word[:])
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
