package repro

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// liveInstances snapshots each live node's (handlers, pending paths).
func liveInstances(c *Cluster) [][2]int {
	out := make([][2]int, c.n)
	for i := range out {
		h, p := c.hc.Live.Node(i).Instances()
		out[i] = [2]int{h, p}
	}
	return out
}

func sameInstances(a, b [][2]int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAgreeRetiresInstances: on the live TCP runtime, a successful Wait
// retires the instance, so after a run of Agree calls — sequential and
// concurrent — every node's handler count and parked-frame paths are back
// at their pre-instance baseline.
func TestAgreeRetiresInstances(t *testing.T) {
	c, err := NewCluster(4, WithRuntime(RuntimeLiveTCP), WithSeed(61), WithGenesisNonce([]byte("retire")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := liveInstances(c)
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) }
	props := func(tag string) [][]byte {
		out := make([][]byte, c.n)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("ok:%s-%d", tag, i))
		}
		return out
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for k := 0; k < 3; k++ {
		tag := fmt.Sprintf("seq%d", k)
		h, err := c.Agree(tag, props(tag), valid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := liveInstances(c); !sameInstances(got, base) {
			t.Fatalf("after %s: (handlers, pending) per node %v, baseline %v", tag, got, base)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for k := range errs {
		tag := fmt.Sprintf("par%d", k)
		h, err := c.Agree(tag, props(tag), valid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = h.Wait(ctx)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := liveInstances(c); !sameInstances(got, base) {
		t.Fatalf("after concurrent Agrees: (handlers, pending) per node %v, baseline %v", got, base)
	}
	// Retired traffic still adds up: the instance tallies fold, not vanish.
	// Poll briefly: a handler already running when its tag retired may
	// still be sending.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sum int64
		for _, tag := range []string{"seq0", "seq1", "seq2", "par0", "par1"} {
			s := c.InstanceStats(tag)
			if s.Bytes == 0 {
				t.Fatalf("instance %s lost its traffic tally", tag)
			}
			sum += s.Bytes
		}
		total := c.Stats().Bytes
		if sum == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Σ instance bytes %d never converged to cluster total %d", sum, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLedgerStopRetiresInstances: the ledger retires each slot once every
// honest log agrees on it — so an idle ledger holds only its engine's own
// handler per node — and the whole tag at Stop, so a drained ledger leaves
// every node at its pre-ledger baseline.
func TestLedgerStopRetiresInstances(t *testing.T) {
	c, err := NewCluster(4, WithRuntime(RuntimeLiveTCP), WithSeed(62), WithGenesisNonce([]byte("retire")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := liveInstances(c)
	l, err := c.NewLedger("log", WithBatchBytes(64))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for q := 0; q < 24; q++ {
		tx := fmt.Sprintf("retire-tx-%02d", q)
		want = append(want, tx)
		if err := l.Submit(context.Background(), []byte(tx)); err != nil {
			t.Fatalf("submit %d: %v", q, err)
		}
	}
	allSeen := make(chan struct{})
	got := make(chan map[string]int, 1)
	go func() {
		seen := make(map[string]int)
		signal := allSeen
		for commit := range l.Committed() {
			for _, e := range commit.Entries {
				for _, tx := range e.Txs {
					seen[string(tx)]++
				}
			}
			if len(seen) == len(want) && signal != nil {
				close(signal)
				signal = nil
			}
		}
		got <- seen
	}()
	select {
	case <-allSeen:
	case <-time.After(2 * time.Minute):
		t.Fatal("transactions never all committed")
	}
	// Every committed slot is retired before it is emitted; slots still in
	// flight finish without new work, after which each node holds just the
	// engine's handler.
	idle := make([][2]int, len(base))
	for i := range base {
		idle[i] = [2]int{base[i][0] + 1, base[i][1]}
	}
	deadline := time.Now().Add(30 * time.Second)
	for !sameInstances(liveInstances(c), idle) {
		if time.Now().After(deadline) {
			t.Fatalf("idle ledger: (handlers, pending) per node %v, want %v", liveInstances(c), idle)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := l.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	checkExactlyOnce(t, <-got, want)
	l.mu.Lock()
	for _, i := range l.order {
		if len(l.logs[i]) != 0 {
			t.Errorf("party %d still holds %d emitted slots", i, len(l.logs[i]))
		}
	}
	l.mu.Unlock()
	if got := liveInstances(c); !sameInstances(got, base) {
		t.Fatalf("after Stop: (handlers, pending) per node %v, baseline %v", got, base)
	}
}
