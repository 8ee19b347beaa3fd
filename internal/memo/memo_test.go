package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoBound: however many distinct keys pass through, the map never
// holds more than its bound, and the oldest entries are the ones dropped.
func TestMemoBound(t *testing.T) {
	const bound = 64
	m := New[int, int](bound)
	for i := 0; i < 10*bound; i++ {
		if i%2 == 0 {
			m.Put(i, i)
		} else if v := m.Get(i, func() int { return i }); v != i {
			t.Fatalf("Get(%d) = %d", i, v)
		}
		if l := m.Len(); l > bound {
			t.Fatalf("after %d keys the map holds %d entries, bound %d", i+1, l, bound)
		}
	}
	if m.Len() < bound/2 {
		t.Fatalf("map holds %d entries, want at least one full generation (%d)", m.Len(), bound/2)
	}
	if _, ok := m.Peek(0); ok {
		t.Fatal("oldest entry survived ten bounds' worth of newer keys")
	}
	if v, ok := m.Peek(10*bound - 1); !ok || v != 10*bound-1 {
		t.Fatal("newest entry missing")
	}
}

// TestMemoPromotionSurvivesFlip: an entry hit while in the older generation
// moves into the current one, so it survives the next flip, while an entry
// left alone in the older generation is dropped by it.
func TestMemoPromotionSurvivesFlip(t *testing.T) {
	const gen = 8
	m := New[int, bool](2 * gen)
	m.Put(-1, true) // will be promoted
	m.Put(-2, true) // will not
	for i := 0; i < gen; i++ {
		m.Put(i, true) // flips: -1 and -2 now sit in the older generation
	}
	computed := false
	if !m.Get(-1, func() bool { computed = true; return false }) || computed {
		t.Fatal("entry in the older generation was not answered from the map")
	}
	for i := gen; i < 2*gen; i++ {
		m.Put(i, true) // second flip drops the older generation
	}
	if _, ok := m.Peek(-1); !ok {
		t.Fatal("promoted entry lost on the next flip")
	}
	if _, ok := m.Peek(-2); ok {
		t.Fatal("unpromoted entry survived two flips")
	}
	if st := m.Stats(); st != (Stats{Lookups: 1, Hits: 1}) {
		t.Fatalf("stats = %+v, want one lookup answered as a hit", st)
	}
}

// TestMemoNegativeVerdicts: a false verdict is remembered like a true one —
// the check runs once and every repeat is a hit.
func TestMemoNegativeVerdicts(t *testing.T) {
	m := New[string, bool](16)
	runs := 0
	for i := 0; i < 4; i++ {
		if m.Get("forged", func() bool { runs++; return false }) {
			t.Fatal("negative verdict flipped")
		}
	}
	if runs != 1 {
		t.Fatalf("negative verdict computed %d times, want 1", runs)
	}
	if st := m.Stats(); st != (Stats{Lookups: 4, Hits: 3, Misses: 1}) {
		t.Fatalf("stats = %+v, want 4 lookups / 3 hits / 1 miss", st)
	}
}

// TestMemoLoadErrorNotRemembered: a failed computation reaches its caller
// and is not remembered, so the next lookup computes again; a later success
// is remembered.
func TestMemoLoadErrorNotRemembered(t *testing.T) {
	m := New[int, int](16)
	errFail := errors.New("fail")
	runs := 0
	for i := 0; i < 2; i++ {
		if _, err := m.Load(1, func() (int, error) { runs++; return 0, errFail }); err != errFail {
			t.Fatalf("err = %v, want %v", err, errFail)
		}
	}
	if v, err := m.Load(1, func() (int, error) { runs++; return 7, nil }); err != nil || v != 7 {
		t.Fatalf("Load = (%d, %v), want (7, nil)", v, err)
	}
	if v, err := m.Load(1, func() (int, error) { runs++; return 0, errFail }); err != nil || v != 7 {
		t.Fatalf("remembered Load = (%d, %v), want (7, nil)", v, err)
	}
	if runs != 3 || m.Len() != 1 {
		t.Fatalf("runs = %d, len = %d; want 3 computations and 1 entry", runs, m.Len())
	}
}

// TestMemoNil: a nil map computes every lookup directly and remembers and
// counts nothing.
func TestMemoNil(t *testing.T) {
	var m *Map[int, int]
	runs := 0
	for i := 0; i < 3; i++ {
		if v := m.Get(1, func() int { runs++; return 5 }); v != 5 {
			t.Fatalf("Get = %d, want 5", v)
		}
	}
	m.Put(1, 5)
	if _, ok := m.Peek(1); ok || runs != 3 || m.Len() != 0 || m.Stats() != (Stats{}) {
		t.Fatalf("nil map remembered or counted: runs=%d len=%d stats=%+v", runs, m.Len(), m.Stats())
	}
}

// TestMemoSingleFlight: N concurrent misses on one key run the computation
// once, every caller gets its result, and the N−1 waiters count as hits.
// Run under -race.
func TestMemoSingleFlight(t *testing.T) {
	const callers = 8
	m := New[string, int](16)
	var runs atomic.Int64
	release := make(chan struct{})
	got := make([]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = m.Get("k", func() int {
				runs.Add(1)
				<-release
				return 42
			})
		}(i)
	}
	// Every caller has looked up before the computation may finish, so all
	// but the one computing are waiting on it.
	for m.Stats().Lookups < callers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times, want 1", runs.Load())
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	if st := m.Stats(); st != (Stats{Lookups: callers, Hits: callers - 1, Misses: 1}) {
		t.Fatalf("stats = %+v, want %d lookups / %d hits / 1 miss", st, callers, callers-1)
	}
}

// TestMemoConcurrentFlips hammers overlapping keys on a tiny map from many
// goroutines, so generation flips race with lookups and in-flight
// computations. Run under -race.
func TestMemoConcurrentFlips(t *testing.T) {
	const goroutines, rounds, keys, bound = 8, 500, 40, 8
	m := New[int, int](bound)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g*7 + i) % keys
				if v := m.Get(k, func() int { return k * k }); v != k*k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				if l := m.Len(); l > bound {
					t.Errorf("map holds %d entries, bound %d", l, bound)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Lookups != goroutines*rounds || st.Hits+st.Misses != st.Lookups {
		t.Fatalf("stats = %+v", st)
	}
}
