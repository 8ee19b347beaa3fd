package repro

// The streaming ledger: the public surface of the BKR parallel-broadcast
// common-subset engine (internal/core/abc.Engine). One Ledger runs one
// engine per honest party on the cluster; Submit feeds transactions into
// per-party mempools with blocking backpressure, a single pump goroutine
// drives the runtime and verifies that every honest party committed the
// identical slot before emitting it, and Stop drains in-band: stopping
// parties flag their batches, and the first slot committing only flagged
// batches ends the log identically everywhere.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core/abc"
	"repro/internal/core/coin"
	"repro/internal/sim"
)

// ErrLedgerStopped is returned by Ledger.Submit once Stop has begun.
var ErrLedgerStopped = errors.New("repro: ledger stopped")

// ErrLedgerAbandoned is the terminal error recorded when the pump is
// aborted because the consumer stopped draining Committed() and a Stop
// caller's ctx expired waiting on the wedged drain.
var ErrLedgerAbandoned = errors.New("repro: ledger commit stream abandoned (consumer stopped draining)")

// LedgerOption tunes NewLedger.
type LedgerOption func(*ledgerOptions)

type ledgerOptions struct {
	batchBytes   int
	mempoolBytes int
	maxInFlight  int
}

// WithBatchBytes bounds the transaction bytes one party packs per slot
// batch (default 16 KiB).
func WithBatchBytes(n int) LedgerOption { return func(o *ledgerOptions) { o.batchBytes = n } }

// WithMempoolBytes bounds each party's queued transaction bytes; Submit
// blocks (backpressure, not drops) while the chosen party's pool is full
// (default 256 KiB).
func WithMempoolBytes(n int) LedgerOption { return func(o *ledgerOptions) { o.mempoolBytes = n } }

// WithMaxInFlightSlots bounds how many slots may run past the committed
// frontier — the pipelining depth (default 2).
func WithMaxInFlightSlots(n int) LedgerOption { return func(o *ledgerOptions) { o.maxInFlight = n } }

// LedgerEntry is one origin's contribution to a committed slot.
type LedgerEntry struct {
	Origin int // the party whose broadcast carried these transactions
	Txs    [][]byte
}

// SlotCommit is one committed slot: the agreed subset of party batches,
// entries sorted by origin, identical at every honest party. Slots arrive
// in index order; indices may skip slots that committed no transactions.
type SlotCommit struct {
	Slot    int
	Entries []LedgerEntry
}

// Ledger is a streaming atomic-broadcast log on a Cluster. Submit and Stop
// are safe for concurrent use; Committed's channel must be drained by the
// consumer (an undrained stream backpressures the pump, and Stop cannot
// complete). An abandoned stream is recoverable: when a Stop caller's ctx
// expires against the wedged drain, the pump is aborted — the stream
// closes and Err reports ErrLedgerAbandoned instead of the pump leaking.
type Ledger struct {
	c       *Cluster
	tag     string
	order   []int // honest parties, round-robin submit targets
	pools   []*abc.Mempool
	engines []*abc.Engine
	out     chan SlotCommit
	kick    chan struct{} // wakeup latch for the pump (buffered, size 1)
	done    chan struct{} // closed when the pump exits (after out closes)

	abort     chan struct{} // closed to force the pump out of a wedged drain
	abortOnce sync.Once

	mu       sync.Mutex
	logs     map[int][][]abc.Entry // per-party committed slots not yet emitted, in order
	launched map[int]int           // per-party locally launched slot count
	finished int                   // honest engines that delivered their final slot
	stopped  bool
	err      error
	rr       int // round-robin cursor
	emitted  int // slots emitted to out and popped from every log (pump-owned; under mu for readers)
}

// NewLedger starts a streaming atomic-broadcast ledger under tag. The
// ledger is work-conserving: with nothing submitted, no slots run. Callers
// must Stop the ledger before closing the cluster.
func (c *Cluster) NewLedger(tag string, opts ...LedgerOption) (*Ledger, error) {
	if err := c.claim(tag); err != nil {
		return nil, err
	}
	var o ledgerOptions
	for _, opt := range opts {
		opt(&o)
	}
	l := &Ledger{
		c:        c,
		tag:      tag,
		pools:    make([]*abc.Mempool, c.n),
		engines:  make([]*abc.Engine, c.n),
		out:      make(chan SlotCommit),
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		abort:    make(chan struct{}),
		logs:     make(map[int][][]abc.Entry),
		launched: make(map[int]int),
	}
	hc := c.hc
	hc.EachHonest(func(i int) {
		l.order = append(l.order, i)
		l.pools[i] = abc.NewMempool(o.mempoolBytes)
	})
	hc.EachHonest(func(i int) {
		cfg := abc.EngineConfig{
			Coin:        coin.Config{GenesisNonce: c.genesis},
			BatchBytes:  o.batchBytes,
			MaxInFlight: o.maxInFlight,
			OnLaunch: func(int) {
				hc.Update(func() {
					l.mu.Lock()
					l.launched[i]++
					l.mu.Unlock()
				})
			},
		}
		hc.Launch(i, func() {
			l.engines[i] = abc.NewEngine(hc.Runtime(i), tag, hc.Keys[i], cfg, l.pools[i],
				func(slot int, entries []abc.Entry) {
					hc.Update(func() {
						l.mu.Lock()
						l.logs[i] = append(l.logs[i], entries)
						l.mu.Unlock()
					})
				},
				func(int) {
					hc.Update(func() {
						l.mu.Lock()
						l.finished++
						l.mu.Unlock()
					})
				})
			l.engines[i].Start()
		})
	})
	go l.pump()
	return l, nil
}

// Submit enqueues one transaction, blocking while the target mempool is at
// capacity (backpressure, never drops). Transactions spread round-robin
// across the honest parties' pools. Returns ErrLedgerStopped after Stop.
func (l *Ledger) Submit(ctx context.Context, tx []byte) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return ErrLedgerStopped
	}
	p := l.order[l.rr%len(l.order)]
	l.rr++
	l.mu.Unlock()
	if err := l.pools[p].Submit(ctx, tx); err != nil {
		if errors.Is(err, abc.ErrMempoolClosed) {
			return ErrLedgerStopped
		}
		return err
	}
	// The engine read is safe: the closure runs on party p's dispatch
	// context, ordered after the construction launch that set engines[p].
	l.c.hc.Launch(p, func() { l.engines[p].NotifyWork() })
	l.kickPump()
	return nil
}

// Committed returns the ordered commit stream. It is closed after the
// final slot (post-Stop drain) or on an internal error — check Err after
// the channel closes.
func (l *Ledger) Committed() <-chan SlotCommit { return l.out }

// Err reports the pump's terminal error, if any, once Committed's channel
// has closed. A non-nil value means the stream is incomplete (runtime
// stall, timeout, or — indicating a bug — honest log divergence).
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stop drains and ends the ledger: future Submits fail, already-queued
// transactions commit through flagged slots, and the stream closes after
// the agreed final slot. Returns any leftover transactions that could not
// be carried (queued after the final slot sealed — normally none). Stop is
// idempotent; all callers block until the drain completes or their ctx
// ends. A ctx that ends first aborts the pump — the usual cause is a
// consumer that stopped draining Committed(), wedging the drain — so the
// stream closes, Err reports ErrLedgerAbandoned, and Stop returns
// ctx.Err() rather than leaking the pump forever.
func (l *Ledger) Stop(ctx context.Context) ([][]byte, error) {
	l.mu.Lock()
	already := l.stopped
	l.stopped = true
	l.mu.Unlock()
	if !already {
		for _, p := range l.pools {
			if p != nil {
				p.Close()
			}
		}
		hc := l.c.hc
		hc.EachHonest(func(i int) {
			hc.Launch(i, func() { l.engines[i].RequestStop() })
		})
		l.kickPump()
	}
	select {
	case <-l.done:
	case <-ctx.Done():
		l.abortOnce.Do(func() { close(l.abort) })
		return nil, ctx.Err()
	}
	if err := l.Err(); err != nil {
		return nil, err
	}
	// Every honest engine delivered the final slot; slots pipelined past
	// it are discarded identically everywhere. Nothing under the tag is
	// needed any more.
	l.c.hc.Retire(l.tag)
	var leftover [][]byte
	for _, p := range l.pools {
		if p == nil {
			continue
		}
		for !p.Empty() {
			leftover = append(leftover, p.Take(1<<30)...)
		}
	}
	return leftover, nil
}

func (l *Ledger) kickPump() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// pump is the single goroutine driving the runtime (on the simulator) and
// relaying verified commits to the stream. It only engages the runtime
// while progress is possible — otherwise it parks on the kick latch, so an
// idle ledger leaves the network quiescent. Closing l.abort forces the
// pump out of any blocking state (kick park, runtime await, stream send)
// with ErrLedgerAbandoned as the terminal error.
func (l *Ledger) pump() {
	defer close(l.done)
	defer close(l.out)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-l.abort:
			cancel()
		case <-ctx.Done():
		}
	}()
	for {
		if !l.outstanding() {
			select {
			case <-l.kick:
			case <-l.abort:
				l.fail(ErrLedgerAbandoned)
				return
			}
		}
		err := l.c.hc.Await(ctx, l.progress)
		if err != nil {
			if l.aborted() {
				l.fail(ErrLedgerAbandoned)
				return
			}
			var stall *sim.StallError
			if errors.As(err, &stall) && stall.Drained && !l.wedged() {
				continue // idle quiesce between submissions; await the next kick
			}
			l.fail(err)
			return
		}
		if !l.emitReady() {
			return // divergence recorded by emitReady
		}
		if l.allFinished() {
			return
		}
	}
}

// progress is the Await predicate: a new slot is emittable, or every
// engine has finished. Runs under the driver lock on the live runtime.
func (l *Ledger) progress() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.emittableLocked() || l.finished == len(l.order)
}

func (l *Ledger) emittableLocked() bool {
	for _, i := range l.order {
		if len(l.logs[i]) == 0 {
			return false
		}
	}
	return true
}

// committedLocked reports how many slots party i has delivered.
func (l *Ledger) committedLocked(i int) int { return l.emitted + len(l.logs[i]) }

// outstanding reports whether runtime progress is possible without a new
// kick: an emittable slot, slots in flight past the committed frontier,
// queued transactions, or a pending stop drain.
func (l *Ledger) outstanding() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.emittableLocked() || (l.stopped && l.finished < len(l.order)) {
		return true
	}
	for _, i := range l.order {
		if l.launched[i] > l.committedLocked(i) || !l.pools[i].Empty() {
			return true
		}
	}
	return false
}

// wedged reports whether a drained simulator stall is a genuine failure:
// work was pending (in-flight slots or a stop drain) yet the network has
// nothing left to deliver.
func (l *Ledger) wedged() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped && l.finished < len(l.order) {
		return true
	}
	for _, i := range l.order {
		if l.launched[i] > l.committedLocked(i) {
			return true
		}
	}
	return false
}

func (l *Ledger) allFinished() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finished == len(l.order) && !l.emittableLocked()
}

// emitReady relays every fully committed slot to the stream, first
// verifying the honest logs agree on it entry-by-entry. A verified slot
// leaves every log and its instance path (tag/s<slot>) is retired: every
// honest party has delivered it, so none needs its RBCs, ABAs or coins
// any more. Returns false after recording a terminal error: honest-log
// divergence (a protocol-safety bug, not an operational condition) or an
// abort while wedged against an abandoned stream.
func (l *Ledger) emitReady() bool {
	for {
		l.mu.Lock()
		if !l.emittableLocked() {
			l.mu.Unlock()
			return true
		}
		s := l.emitted
		ref := l.logs[l.order[0]][0]
		for _, i := range l.order[1:] {
			if !sameEntries(ref, l.logs[i][0]) {
				l.err = fmt.Errorf("repro: ledger %q slot %d diverged across honest parties (bug)", l.tag, s)
				l.mu.Unlock()
				return false
			}
		}
		for _, i := range l.order {
			l.logs[i][0] = nil
			l.logs[i] = l.logs[i][1:]
		}
		l.emitted++
		l.mu.Unlock()
		l.c.hc.Retire(fmt.Sprintf("%s/s%d", l.tag, s))
		commit := SlotCommit{Slot: s}
		for _, e := range ref {
			if len(e.Txs) > 0 {
				commit.Entries = append(commit.Entries, LedgerEntry{Origin: e.Origin, Txs: e.Txs})
			}
		}
		if len(commit.Entries) > 0 {
			select {
			case l.out <- commit: // consumer backpressure; no locks held
			case <-l.abort:
				l.fail(ErrLedgerAbandoned)
				return false
			}
		}
	}
}

func (l *Ledger) aborted() bool {
	select {
	case <-l.abort:
		return true
	default:
		return false
	}
}

func (l *Ledger) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = fmt.Errorf("repro: ledger %q: %w", l.tag, err)
	}
}

func sameEntries(a, b []abc.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Origin != b[j].Origin || len(a[j].Txs) != len(b[j].Txs) {
			return false
		}
		for k := range a[j].Txs {
			if !bytes.Equal(a[j].Txs[k], b[j].Txs[k]) {
				return false
			}
		}
	}
	return true
}
