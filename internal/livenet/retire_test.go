package livenet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/proto"
)

// stubEnv lets a single Node run its dispatcher without a transport.
type stubEnv struct{}

func (stubEnv) partyCount() int                        { return 2 }
func (stubEnv) faultBound() int                        { return 0 }
func (stubEnv) record(string, int)                     {}
func (stubEnv) transportSend(int, int, string, []byte) {}
func (stubEnv) transportFlush(int)                     {}

type journalLog struct {
	mu    sync.Mutex
	insts []string
}

func (j *journalLog) add(_ int, _ uint64, inst string, _ []byte) {
	j.mu.Lock()
	j.insts = append(j.insts, inst)
	j.mu.Unlock()
}

func (j *journalLog) count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.insts)
}

func startStubNode(t *testing.T, j *journalLog) *Node {
	t.Helper()
	nd := newNode(stubEnv{}, 0, 1)
	nd.SetJournal(j.add)
	nd.done.Add(1)
	go nd.dispatch()
	t.Cleanup(func() {
		nd.mu.Lock()
		nd.closed = true
		nd.cond.Broadcast()
		nd.mu.Unlock()
		nd.done.Wait()
	})
	return nd
}

// barrier waits until the dispatcher has processed everything queued so
// far (the queue is FIFO, so a job runs after every earlier frame).
func barrier(t *testing.T, nd *Node) {
	t.Helper()
	ch := make(chan struct{})
	nd.Do(func() { close(ch) })
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher barrier timed out")
	}
}

// TestRetireDropsHandlersAndStragglers: retiring a prefix drops the
// handlers under it (and only under it — path boundaries count), retires
// frames already parked for it, and drops later stragglers after
// journaling them, so their link sequences still become ackable.
func TestRetireDropsHandlersAndStragglers(t *testing.T) {
	j := &journalLog{}
	nd := startStubNode(t, j)
	var mu sync.Mutex
	calls := map[string]int{}
	handler := func(inst string) proto.Handler {
		return proto.HandlerFunc(func(int, []byte) {
			mu.Lock()
			calls[inst]++
			mu.Unlock()
		})
	}
	for _, inst := range []string{"x/s1", "x/s1/a0", "x/s10/a0", "x/s1a"} {
		nd.Register(inst, handler(inst))
	}
	nd.enqueue(1, 1, "x/s1/b2", []byte("parked"))
	barrier(t, nd)
	if h, p := nd.Instances(); h != 4 || p != 1 {
		t.Fatalf("before retire: %d handlers, %d pending paths; want 4, 1", h, p)
	}

	nd.Retire("x/s1")
	if h, p := nd.Instances(); h != 2 || p != 0 {
		t.Fatalf("after retire: %d handlers, %d pending paths; want 2, 0", h, p)
	}
	seq := uint64(2)
	for _, inst := range []string{"x/s1", "x/s1/a0", "x/s1/a0/c/r2", "x/s1/new", "x/s10/a0", "x/s1a"} {
		nd.enqueue(1, seq, inst, []byte("late"))
		seq++
	}
	barrier(t, nd)
	mu.Lock()
	got := map[string]int{}
	for k, v := range calls {
		got[k] = v
	}
	mu.Unlock()
	want := map[string]int{"x/s10/a0": 1, "x/s1a": 1}
	if len(got) != len(want) || got["x/s10/a0"] != 1 || got["x/s1a"] != 1 {
		t.Fatalf("handler calls %v, want %v", got, want)
	}
	if n := j.count(); n != 7 {
		t.Fatalf("journaled %d frames, want 7 (every frame, retired or not)", n)
	}
	if h, p := nd.Instances(); h != 2 || p != 0 {
		t.Fatalf("stragglers re-grew state: %d handlers, %d pending paths", h, p)
	}

	// A late sub-protocol registration under the retired prefix is not
	// installed; a sibling with a longer name is.
	nd.Register("x/s1/late", handler("x/s1/late"))
	nd.Register("x/s10/b0", handler("x/s10/b0"))
	if h, _ := nd.Instances(); h != 3 {
		t.Fatalf("%d handlers after registrations, want 3", h)
	}
}

// TestTombstoneLookupRespectsPathBoundaries: a tombstone covers its path
// and /-bounded sub-paths only.
func TestTombstoneLookupRespectsPathBoundaries(t *testing.T) {
	nd := newNode(stubEnv{}, 0, 1)
	nd.Retire("x/s1")
	nd.Retire("a")
	for inst, want := range map[string]bool{
		"x/s1":        true,
		"x/s1/a0":     true,
		"x/s1/a0/c/r": true,
		"x/s10/a0":    false,
		"x/s10":       false,
		"x/s1a":       false,
		"x":           false,
		"x/":          false,
		"a":           true,
		"a/b/c":       true,
		"ab":          false,
		"b/a":         false,
		"":            false,
	} {
		nd.mu.Lock()
		got := nd.tombstonedLocked(inst)
		nd.mu.Unlock()
		if got != want {
			t.Errorf("tombstoned(%q) = %v, want %v", inst, got, want)
		}
	}
}

// TestNetworkRetireFoldsTallies: retiring folds the prefix's per-path
// traffic into one entry, so scoped totals of the prefix and its ancestors
// are unchanged and the tally map stops growing per sub-path.
func TestNetworkRetireFoldsTallies(t *testing.T) {
	nw, err := New(Config{N: 2, F: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	for _, inst := range []string{"t/s1/a", "t/s1/b/c", "t/s10/a", "u"} {
		nw.record(inst, 10)
	}
	before := map[string]Tally{}
	for _, tag := range []string{"t", "t/s1", "t/s10", "u"} {
		before[tag] = nw.ByInstance(tag)
	}
	nw.Retire("t/s1")
	for tag, want := range before {
		if got := nw.ByInstance(tag); got != want {
			t.Fatalf("ByInstance(%q) = %+v after retire, want %+v", tag, got, want)
		}
	}
	nw.mmu.Lock()
	paths := len(nw.perInst)
	nw.mmu.Unlock()
	if paths != 3 {
		t.Fatalf("%d tally paths after retire, want 3 (t/s1, t/s10/a, u)", paths)
	}
	if h, _ := nw.Node(0).Instances(); h != 0 {
		t.Fatalf("%d handlers on an idle node", h)
	}
}
