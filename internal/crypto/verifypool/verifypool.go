// Package verifypool bounds concurrent expensive work. The live runtime
// verifies from n dispatcher goroutines at once; without a bound an n=16
// cluster can stack 16 multi-pairing PVSS script verifications on a 4-core
// box, and the Reed–Solomon codec would spawn one goroutine per column
// range per call.
//
// A Pool is a counting semaphore: at most Workers functions execute
// concurrently and excess callers queue. Callers block until their work is
// done, so the pool adds no asynchrony — protocol semantics are unchanged
// on both runtimes, and on the single-threaded simulator every call runs
// inline. Deduplicating identical work is not the pool's job: the memos in
// package memo run concurrent misses on one key once.
//
// The pool holds no goroutines of its own — construction is free and idle
// pools cost nothing, so every pki.Setup can own one.
package verifypool

import (
	"runtime"
	"sync"
)

// Pool runs functions with bounded concurrency. The zero value is not
// usable; call New.
type Pool struct {
	sem chan struct{}
}

// New returns a pool executing at most workers functions concurrently;
// workers <= 0 selects runtime.NumCPU().
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// Run executes fn on the caller's goroutine once one of the pool's slots is
// free, and returns when fn has.
func (p *Pool) Run(fn func()) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	fn()
}

// Par runs every task under the concurrency bound and returns when all have
// completed. It is the pool's data-parallel face: callers that split a batch
// of independent column/row work (the Reed–Solomon codec's per-column field
// arithmetic) fan the pieces out here and inherit the pool's NumCPU-style
// bound instead of spawning unbounded goroutines. The bound is per pool:
// callers that want one CPU budget shared with verification work must pass
// the same Pool instance. A single task runs inline on the caller with no
// goroutine at all, so small batches pay nothing for the generality.
func (p *Pool) Par(tasks []func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			p.Run(fn)
		}(task)
	}
	wg.Wait()
}
