package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro"
)

// agree is the paper's headline protocol at a larger n: a closed loop of
// agreeClients clients, each calling Agree with agreeN distinct valid
// proposals and waiting for the decision before its next call. Election
// and VBA run over the PKI-only coin; there is no mempool and no bulk
// AVID, so signature quorums and Seeding/PVSS dominate the CPU.
const (
	agreeN        = 7
	agreeClients  = 2
	proposalBytes = 48 // 16-byte header, 16 bytes of body, 16-byte tag
	decideTimeout = 60 * time.Second
)

// proposal builds party's input to instance (client, seq): a header naming
// the instance and party, a body drawn from the seed, and a tag binding
// both to the seed, which the validity predicate checks.
func proposal(seed int64, client, seq, party int) []byte {
	p := make([]byte, proposalBytes)
	binary.BigEndian.PutUint32(p[0:], uint32(client))
	binary.BigEndian.PutUint64(p[4:], uint64(seq))
	binary.BigEndian.PutUint32(p[12:], uint32(party))
	fill(p[16:32], seed, uint64(client)<<48|uint64(seq)<<8|uint64(party))
	tag := proposalTag(seed, p[:32])
	copy(p[32:], tag[:16])
	return p
}

func proposalTag(seed int64, msg []byte) [32]byte {
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], uint64(seed))
	return sha256.Sum256(append(key[:], msg...))
}

// validator is the external-validity predicate: a proposal of the right
// size whose tag matches its contents under seed.
func validator(seed int64) func([]byte) bool {
	return func(v []byte) bool {
		if len(v) != proposalBytes {
			return false
		}
		tag := proposalTag(seed, v[:32])
		return bytes.Equal(v[32:], tag[:16])
	}
}

type agreeSession struct {
	c     *repro.Cluster
	seed  int64
	valid func([]byte) bool
	base  time.Time
	tr    *tracer

	mu      sync.Mutex
	windows []*window
	rep     *report
}

func (s *agreeSession) since() time.Duration { return time.Since(s.base) }

// decide runs one instance to its decision and checks the decision is one
// of the instance's proposals and passes the predicate. Traced calls
// record an "agree" and a "wait" span under the client's "decision" span.
func (s *agreeSession) decide(client, seq int, traced bool) error {
	props := make([][]byte, agreeN)
	for i := range props {
		props[i] = proposal(s.seed, client, seq, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), decideTimeout)
	defer cancel()
	op := uint64(client)<<32 | uint64(seq)
	t0 := s.since()
	h, err := s.c.Agree(fmt.Sprintf("c%d-%d", client, seq), props, s.valid)
	t1 := s.since()
	if err != nil {
		return err
	}
	res, err := h.Wait(ctx)
	if traced {
		s.tr.add("agree", op, "decision", t0, t1)
		s.tr.add("wait", op, "decision", t1, s.since())
	}
	if err != nil {
		return err
	}
	ok := false
	for _, p := range props {
		ok = ok || bytes.Equal(p, res.Value)
	}
	if !ok || !s.valid(res.Value) {
		s.mu.Lock()
		s.rep.violate("instance c%d-%d decided %x, which is not a valid proposal of it", client, seq, res.Value)
		s.mu.Unlock()
	}
	return nil
}

// openAgree sets up one cluster and waits for one warm-up decision.
func openAgree(cfg config, rep *report, k int) (*agreeSession, time.Duration, error) {
	s := &agreeSession{seed: cfg.seed, valid: validator(cfg.seed), base: cfg.base, tr: cfg.tr, rep: rep}
	t0 := s.since()
	c, err := repro.NewCluster(agreeN, repro.WithRuntime(repro.RuntimeLiveTCP), repro.WithSeed(cfg.seed))
	if err != nil {
		return nil, 0, err
	}
	s.c = c
	// Warm-up instances use client index agreeClients+k, which no measured
	// client uses.
	if err := s.decide(agreeClients+k, 0, false); err != nil {
		c.Close()
		return nil, 0, fmt.Errorf("warm-up decision: %w", err)
	}
	t1 := s.since()
	s.tr.add("setup", uint64(k), "", t0, t1)
	return s, t1 - t0, nil
}

func runAgree(cfg config) (*report, error) {
	rep := &report{layer: map[string]metric{}}
	var s *agreeSession
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			s.c.Close()
		}
		var d time.Duration
		var err error
		if s, d, err = openAgree(cfg, rep, i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer s.c.Close()
	runtime.GC() // collect the closed set-ups' clusters before measuring
	var p *probe
	if cfg.trace {
		p = &probe{}
	}
	ws := newWindows(cfg, s.since()+10*time.Millisecond)
	s.windows = ws
	wait := armProbe(p, s.c, ws[len(ws)-1], s.since)
	start, end := ws[0].start, ws[len(ws)-1].end
	if d := start - s.since(); d > 0 {
		time.Sleep(d)
	}
	var wg sync.WaitGroup
	for client := 0; client < agreeClients; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(client, end)
		}()
	}
	wg.Wait()
	wait()
	if err := assemble(rep, ws, setups); err != nil {
		return nil, err
	}
	return rep, traceReport(cfg, rep, ws, p, 0, agreeN, nil)
}

// client runs a closed loop until end: one instance at a time, each timed
// from its Agree call to its decision. An operation counts toward the
// window it started in.
func (s *agreeSession) client(client int, end time.Duration) {
	for seq := 0; ; seq++ {
		t0 := s.since()
		if t0 >= end {
			return
		}
		w := windowAt(s.windows, t0) // windows are fixed before the clients start
		traced := w != nil && w.traced
		err := s.decide(client, seq, traced)
		t1 := s.since()
		s.mu.Lock()
		if w != nil {
			// Clients run back to back, so the window's busy time is the
			// sum of its operations' durations over the client count.
			w.attempted++
			w.busy += (t1 - t0) / agreeClients
			if err != nil {
				w.failed++
			} else {
				w.done++
				w.lat = append(w.lat, ms(t1-t0))
			}
		}
		s.mu.Unlock()
		if traced {
			s.tr.add("decision", uint64(client)<<32|uint64(seq), "", t0, t1)
			s.tr.sampleHeap()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wallbench: instance c%d-%d failed: %v\n", client, seq, err)
		}
	}
}
