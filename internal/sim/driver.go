package sim

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/proto"
)

// Driver adapts a Network to the proto.Driver session contract: one
// long-lived simulated cluster serving many concurrent protocol instances,
// interleaved by the scheduler over the single shared message queue.
//
// The simulator is single-threaded, so Launch runs fn inline, Update is a
// plain call, and Await drives the network itself. Concurrent Await calls
// serialize on an internal token: each waiter in turn steps the network
// until its own predicate holds, so goroutine-per-instance session code
// works unchanged on the simulator (deliveries still happen one at a time).
type Driver struct {
	Net *Network
	// Budget bounds the deliveries a single Await may execute; <= 0 selects
	// DefaultDeliveryBudget.
	Budget int64

	semOnce   sync.Once
	sem       chan struct{} // the drive token; see lock()
	launchers atomic.Int32  // Launch calls waiting for the token
}

// NewDriver wraps nw as a session driver.
func NewDriver(nw *Network, budget int64) *Driver {
	return &Driver{Net: nw, Budget: budget}
}

var _ proto.Driver = (*Driver)(nil)

func (d *Driver) lock() {
	d.semOnce.Do(func() { d.sem = make(chan struct{}, 1) })
	d.sem <- struct{}{}
}
func (d *Driver) unlock() { <-d.sem }

// Runtime returns node i's protocol-facing surface.
func (d *Driver) Runtime(i int) proto.Runtime { return d.Net.Node(i) }

// Launch runs fn in node i's dispatch context — inline, under the drive
// token, so instance wiring cannot interleave with a concurrent Await step.
// A concurrent Await hands the token over between two deliveries (see
// Await), so a Launch never waits for another goroutine's predicate.
func (d *Driver) Launch(_ int, fn func()) {
	d.launchers.Add(1)
	d.lock()
	d.launchers.Add(-1)
	defer d.unlock()
	fn()
}

// Update runs fn directly: all simulator callbacks already execute under
// the drive token (inside Launch or an Await step).
func (d *Driver) Update(fn func()) { fn() }

// Await drives the network until done() holds. The ctx is consulted
// between deliveries; a stalled or budget-exhausted run returns the
// network's *StallError.
func (d *Driver) Await(ctx context.Context, done func() bool) error {
	budget := d.Budget
	if budget <= 0 {
		budget = DefaultDeliveryBudget
	}
	d.lock()
	defer d.unlock()
	for s := int64(0); ; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		d.Net.drainReplays()
		if done() {
			return nil
		}
		if d.Net.Pending() == 0 {
			return d.Net.stall(true, budget)
		}
		if s >= budget {
			return d.Net.stall(false, budget)
		}
		d.Net.Step()
		if d.launchers.Load() > 0 {
			// Yield to a queued Launch between deliveries. Holding the
			// token until done() would deadlock any predicate that needs
			// the launched work (a ledger Stop's per-party RequestStop),
			// and under a starving scheduler the network may never drain
			// to release it. Releasing the token hands it to the blocked
			// Launch; re-acquiring then waits for that Launch to finish.
			d.unlock()
			d.lock()
		}
	}
}
