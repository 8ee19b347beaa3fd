// Package memo is the one bounded, concurrency-safe memo behind every
// verification and codec cache in the repository: Schnorr verdicts, VRF
// verdicts, PVSS script verdicts, AVID re-encode checks, Reed–Solomon codecs
// and decode bases, and hash-to-curve points. Each of those is a pure
// function of its key, so remembering a result is sound and the only policy
// questions are how much to keep and what to do about concurrent misses.
// They are answered here, once:
//
//   - Bound: entries live in two generations of at most bound/2 entries
//     each. When the current generation fills, it becomes the older one and
//     the previous older generation is dropped. A lookup that hits the older
//     generation moves the entry into the current one, so the entries of
//     work still in progress stay resident while those of finished work age
//     out.
//   - Concurrency: a miss computes outside the lock, so distinct keys are
//     computed in parallel. Concurrent misses on the same key run the
//     computation once; the other callers wait for its result.
//   - Errors: a Load whose computation fails returns the error to its
//     caller and to every waiter and remembers nothing, so a later lookup
//     computes again.
//
// A nil *Map is valid and computes every lookup directly, which is how
// callers run uncached (the baseline legs of the dedup benchmarks).
//
// The package is a leaf: it imports only the standard library, so any
// package, down to the field and group primitives, can use it.
package memo

import "sync"

// Stats are a map's cumulative counters. Every Get/Load is one lookup, and
// every lookup is exactly one hit or one miss.
type Stats struct {
	Lookups int64 // Get/Load calls
	Hits    int64 // answered from the map or by waiting on another caller's computation
	Misses  int64 // computations run
}

// call is one in-flight computation; waiters block on done.
type call[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Map is a bounded memo from K to V. The zero value is not usable; call New.
type Map[K comparable, V any] struct {
	gen int // entries per generation

	mu        sync.Mutex
	cur, prev map[K]V
	flight    map[K]*call[V]
	stats     Stats
}

// New returns an empty map holding at most bound entries in total (two
// generations of bound/2; bound < 2 is raised to 2).
func New[K comparable, V any](bound int) *Map[K, V] {
	gen := max(bound/2, 1)
	return &Map[K, V]{
		gen:    gen,
		cur:    make(map[K]V),
		prev:   make(map[K]V),
		flight: make(map[K]*call[V]),
	}
}

// Get returns the value for k, running compute on a miss.
func (m *Map[K, V]) Get(k K, compute func() V) V {
	v, _ := m.Load(k, func() (V, error) { return compute(), nil })
	return v
}

// Load returns the value for k, running compute on a miss. A successful
// result is remembered; an error is returned (to this caller and to any
// caller that waited on the computation) and not remembered.
func (m *Map[K, V]) Load(k K, compute func() (V, error)) (V, error) {
	if m == nil {
		return compute()
	}
	m.mu.Lock()
	m.stats.Lookups++
	if v, ok := m.lookupLocked(k); ok {
		m.stats.Hits++
		m.mu.Unlock()
		return v, nil
	}
	if c, ok := m.flight[k]; ok {
		m.stats.Hits++
		m.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	m.stats.Misses++
	c := &call[V]{done: make(chan struct{})}
	m.flight[k] = c
	m.mu.Unlock()

	c.v, c.err = compute()

	m.mu.Lock()
	delete(m.flight, k)
	if c.err == nil {
		m.putLocked(k, c.v)
	}
	m.mu.Unlock()
	close(c.done)
	return c.v, c.err
}

// Peek returns the value remembered for k without computing anything and
// without counting a lookup. A hit in the older generation is moved into
// the current one, as for Get.
func (m *Map[K, V]) Peek(k K) (V, bool) {
	if m == nil {
		var zero V
		return zero, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookupLocked(k)
}

// Put remembers v for k, for results the caller has established by other
// means (a sender that built a Merkle tree itself need not verify it).
func (m *Map[K, V]) Put(k K, v V) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.putLocked(k, v)
	m.mu.Unlock()
}

// Len reports the number of entries currently remembered.
func (m *Map[K, V]) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.prev)
}

// Stats returns a snapshot of the counters (zero for a nil Map).
func (m *Map[K, V]) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Map[K, V]) lookupLocked(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.prev[k]
	if ok {
		m.putLocked(k, v)
	}
	return v, ok
}

func (m *Map[K, V]) putLocked(k K, v V) {
	delete(m.prev, k)
	if _, ok := m.cur[k]; !ok && len(m.cur) >= m.gen {
		m.prev, m.cur = m.cur, make(map[K]V)
	}
	m.cur[k] = v
}
