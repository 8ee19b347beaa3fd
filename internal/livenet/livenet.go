// Package livenet is a concurrent runtime for the protocol stack: every
// party runs its own dispatcher goroutine and messages travel over either
// in-process queues with random delivery jitter or real TCP connections. It
// implements the same proto.Runtime surface as the deterministic simulator,
// so every protocol in internal/core runs on it unchanged — this is the
// deployment-shaped execution path, while internal/sim remains the
// measurement and adversarial-testing path.
//
// Concurrency contract: all protocol callbacks and handlers of one node run
// on that node's dispatcher goroutine, preserving the single-threaded
// protocol contract. External code interacts with a node only through
// Do(fn), which schedules fn onto the dispatcher.
//
// The TCP fabric is built from per-party Mesh endpoints (mesh.go): every
// connection is authenticated by a signed-challenge handshake bound to the
// party's bulletin-PKI key, frames are sequence-numbered and retained until
// acked so links survive connection drops (reconnect + exponential backoff
// + resend), and per-link WAN emulation can replay wide-area latency
// profiles. The same Mesh serves the out-of-process noded daemon, so the
// in-process runtime and the real deployment share one wire layer.
package livenet

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crypto/sig"
	"repro/internal/proto"
)

// Transport selects the message fabric.
type Transport int

// Available transports.
const (
	// Channels delivers through in-process queues with random jitter.
	Channels Transport = iota
	// TCP delivers over authenticated loopback TCP meshes (full mesh).
	TCP
)

// Auth binds transport identity to the bulletin PKI: Keys[i] signs party
// i's connection handshakes and Board[i] verifies them. With Auth nil on
// the TCP transport, a deterministic keyset is derived from the Seed so the
// handshake is still always signed (tests); real clusters pass the PKI keys
// so wire identity and protocol identity are the same key.
type Auth struct {
	Keys  []sig.PrivateKey
	Board []sig.PublicKey
}

// Config describes a live network.
type Config struct {
	N, F      int
	Seed      int64
	Transport Transport
	// Jitter is the maximum random delivery delay for the Channels
	// transport (0 = immediate). It creates real asynchrony.
	Jitter time.Duration
	// FlushEvery bounds how long a frame may sit in a TCP peer's
	// coalescing buffer: a background timer flushes all pending buffers at
	// this period, so frame latency stays bounded even when a dispatcher
	// never goes idle and the 64 KiB overflow write-through never fires
	// (sustained small-frame load). 0 selects defaultFlushEvery; ignored
	// by the Channels transport.
	FlushEvery time.Duration
	// Auth supplies the handshake signing keys for the TCP transport
	// (nil = deterministic keys derived from Seed).
	Auth *Auth
	// WAN optionally emulates per-link wide-area delay/jitter/loss on the
	// TCP transport (nil = no emulation). Ignored by Channels.
	WAN *WANProfile
}

// defaultFlushEvery is the TCP max-frame-latency flush period when
// Config.FlushEvery is zero.
const defaultFlushEvery = 2 * time.Millisecond

// Network is a running live cluster.
type Network struct {
	n, f  int
	nodes []*Node
	tr    transport

	jmu  sync.Mutex
	jrng *rand.Rand

	mmu     sync.Mutex
	total   Tally
	perInst map[string]*Tally

	closeOnce sync.Once
}

// Tally accumulates message and byte counts (the same accounting the
// simulator keeps, so per-instance costs are comparable across runtimes).
type Tally struct {
	Msgs  int64
	Bytes int64
}

// envelopeOverhead mirrors sim's per-message framing estimate so byte
// tallies line up across the two runtimes.
const envelopeOverhead = 12

// record books one sent message under its instance path.
func (nw *Network) record(inst string, bodyLen int) {
	cost := int64(bodyLen + len(inst) + envelopeOverhead)
	nw.mmu.Lock()
	defer nw.mmu.Unlock()
	nw.total.Msgs++
	nw.total.Bytes += cost
	t := nw.perInst[inst]
	if t == nil {
		t = &Tally{}
		nw.perInst[inst] = t
	}
	t.Msgs++
	t.Bytes += cost
}

// TotalTally reports all traffic sent since the network started.
func (nw *Network) TotalTally() Tally {
	nw.mmu.Lock()
	defer nw.mmu.Unlock()
	return nw.total
}

// ByInstance sums traffic whose instance path is tag itself or any
// sub-path tag/… — one protocol instance's full footprint.
func (nw *Network) ByInstance(tag string) Tally {
	prefix := tag + "/"
	var out Tally
	nw.mmu.Lock()
	defer nw.mmu.Unlock()
	for inst, t := range nw.perInst {
		if inst == tag || strings.HasPrefix(inst, prefix) {
			out.Msgs += t.Msgs
			out.Bytes += t.Bytes
		}
	}
	return out
}

// Retire releases a finished instance prefix on every node (Node.Retire)
// and folds the prefix's per-path traffic tallies into one entry under the
// prefix, so ByInstance of the prefix or any ancestor is unchanged while
// the tally map stops growing with every instance ever run. Sub-paths of a
// retired prefix no longer report separately.
func (nw *Network) Retire(prefix string) {
	for _, nd := range nw.nodes {
		nd.Retire(prefix)
	}
	nw.mmu.Lock()
	defer nw.mmu.Unlock()
	var sum Tally
	for inst, t := range nw.perInst {
		if underPrefix(inst, prefix) {
			sum.Msgs += t.Msgs
			sum.Bytes += t.Bytes
			delete(nw.perInst, inst)
		}
	}
	if sum != (Tally{}) {
		nw.perInst[prefix] = &sum
	}
}

type transport interface {
	send(from, to int, inst string, body []byte)
	// flush pushes any frames buffered on node `from`'s outbound
	// connections to the wire. Dispatchers call it when their queue
	// drains (flush-on-idle), which is what makes per-peer write
	// coalescing safe: a node never blocks waiting for input while its
	// own output sits in a buffer.
	flush(from int)
	close()
}

// nodeEnv is what a Node needs from its surroundings: cluster shape,
// traffic accounting, and a transport. A full in-process Network provides
// it for n nodes; a single-party Party (party.go) provides it for one, so
// the same dispatcher runtime serves both deployment shapes.
type nodeEnv interface {
	partyCount() int
	faultBound() int
	record(inst string, bodyLen int)
	transportSend(from, to int, inst string, body []byte)
	transportFlush(from int)
}

type task struct {
	// Either a message…
	from int
	seq  uint64 // link sequence (0 for self-sends and the Channels fabric)
	inst string
	body []byte
	// …or a job.
	fn func()
}

// Node is one party's live runtime.
type Node struct {
	env nodeEnv
	idx int

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []task
	insts      map[string]proto.Handler
	pending    map[string][]task
	tombstones map[string]struct{} // retired instance path prefixes
	closed     bool

	// journal, when set (before the transport connects), observes every
	// message task at the moment it is processed — the write-ahead record a
	// durable daemon appends before effects escape. Processing order, not
	// arrival order: parked frames are journaled when their handler finally
	// runs, which is the order a replay can reproduce.
	journal func(from int, seq uint64, inst string, body []byte)

	rng           *rand.Rand // used only on the dispatcher goroutine
	rejected      atomic.Int64
	equivocations atomic.Int64
	done          sync.WaitGroup
	crashed       bool
}

var _ proto.Runtime = (*Node)(nil)

// newNode builds party idx's dispatcher state (not yet running). The RNG
// derivation is shared by both deployment shapes, so runs seeded alike
// draw alike whether the node lives in a Network or a Party.
func newNode(env nodeEnv, idx int, seed int64) *Node {
	nd := &Node{
		env:        env,
		idx:        idx,
		insts:      make(map[string]proto.Handler),
		pending:    make(map[string][]task),
		tombstones: make(map[string]struct{}),
		rng:        rand.New(rand.NewSource(seed*7_368_787 + int64(idx))),
	}
	nd.cond = sync.NewCond(&nd.mu)
	return nd
}

// New starts a live network with running dispatchers.
func New(cfg Config) (*Network, error) {
	if cfg.N <= 0 {
		return nil, errors.New("livenet: N must be positive")
	}
	nw := &Network{
		n:       cfg.N,
		f:       cfg.F,
		jrng:    rand.New(rand.NewSource(cfg.Seed ^ 0x11ff)),
		perInst: make(map[string]*Tally),
	}
	for i := 0; i < cfg.N; i++ {
		nw.nodes = append(nw.nodes, newNode(nw, i, cfg.Seed))
	}
	switch cfg.Transport {
	case Channels:
		nw.tr = &chanTransport{nw: nw, jitter: cfg.Jitter}
	case TCP:
		tr, err := newMeshTransport(nw, cfg)
		if err != nil {
			return nil, fmt.Errorf("livenet: tcp transport: %w", err)
		}
		nw.tr = tr
	default:
		return nil, fmt.Errorf("livenet: unknown transport %d", cfg.Transport)
	}
	for _, nd := range nw.nodes {
		nd.done.Add(1)
		go nd.dispatch()
	}
	return nw, nil
}

// Node returns party i's runtime.
func (nw *Network) Node(i int) *Node { return nw.nodes[i] }

// Runtime returns party i's protocol-facing surface (driverHost).
func (nw *Network) Runtime(i int) proto.Runtime { return nw.nodes[i] }

// Launch schedules fn onto party i's dispatcher (driverHost).
func (nw *Network) Launch(i int, fn func()) { nw.nodes[i].Do(fn) }

// Close stops dispatchers and the transport. It is idempotent.
func (nw *Network) Close() {
	nw.closeOnce.Do(func() {
		nw.tr.close()
		for _, nd := range nw.nodes {
			nd.mu.Lock()
			nd.closed = true
			nd.cond.Broadcast()
			nd.mu.Unlock()
		}
		for _, nd := range nw.nodes {
			nd.done.Wait()
		}
	})
}

// TCPStats aggregates the TCP transport's mesh counters across all
// endpoints. Zero on the Channels transport.
type TCPStats struct {
	Frames   int64 // protocol frames handed to the transport
	Syscalls int64 // data-path socket writes that carried them (coalesced flushes)
	Dropped  int64 // frames lost to outbox overflow (peer gone too long)

	Resends       int64 // frames rewritten while resyncing a reconnected link
	Redials       int64 // connections re-established after a drop
	BackoffResets int64 // exponential redial backoff returns to minimum
	AuthRejects   int64 // inbound handshakes rejected (impostor/replay)
	Dups          int64 // duplicate frames dropped by receiver seq dedup

	WANDelays int64 // frames held by per-link WAN emulation
	WANLosses int64 // emulated loss→retransmission latency events
}

// TCPStats reports the transport's framing counters; Frames/Syscalls is
// the achieved write-coalescing factor.
func (nw *Network) TCPStats() TCPStats {
	mt, ok := nw.tr.(*meshTransport)
	if !ok {
		return TCPStats{}
	}
	var agg MeshStats
	for _, m := range mt.meshes {
		agg.add(m.Stats())
	}
	return TCPStats{
		Frames:        agg.Frames,
		Syscalls:      agg.Syscalls,
		Dropped:       agg.Dropped,
		Resends:       agg.Resends,
		Redials:       agg.Redials,
		BackoffResets: agg.BackoffResets,
		AuthRejects:   agg.AuthRejects,
		Dups:          agg.Dups,
		WANDelays:     agg.WANDelays,
		WANLosses:     agg.WANLosses,
	}
}

// RecoveryStats counts one party's WAL-backed crash-recovery activity. It
// is populated by a durable daemon (noded) after replaying its journal and
// published through its stats RPC; in-process runtimes keep no journal.
type RecoveryStats struct {
	Restarts        int64 // recoveries from a non-empty journal (0 or 1 per process)
	ReplayedRecords int64 // journal records replayed at startup
	ReplayedFrames  int64 // …of which inbound/self message frames
	ReplayedOps     int64 // …of which instance launches and drains
	SelfMismatches  int64 // replay self-sends diverging from the journal
	TruncatedBytes  int64 // torn journal tail dropped on open
	WALAppends      int64 // records appended this process lifetime
	WALSyncs        int64 // fsync batches committed
	Compactions     int64 // snapshot+compaction cycles
	SnapshotBytes   int64 // size of the live snapshot base
}

// PeerDrops reports the frames charged against the (from, to) link: frames
// dropped to outbox overflow on the sender side, plus inbound handshakes at
// `to` rejected while claiming identity `from` (an impostor posing as
// `from` books its rejections here). Zero on the Channels transport and for
// self-sends.
func (nw *Network) PeerDrops(from, to int) int64 {
	mt, ok := nw.tr.(*meshTransport)
	if !ok || from < 0 || from >= nw.n || to < 0 || to >= nw.n {
		return 0
	}
	return mt.meshes[from].LinkDrops(to) + mt.meshes[to].AuthRejects(from)
}

// Sever force-closes the current (from → to) TCP connection; the mesh
// redials with backoff and resends unacked frames, so delivery resumes.
// No-op on the Channels transport — the crash/recovery test hook. It
// reports whether a live connection was actually killed (false while the
// link is still dialing, and always false on Channels).
func (nw *Network) Sever(from, to int) bool {
	if mt, ok := nw.tr.(*meshTransport); ok && from >= 0 && from < nw.n {
		return mt.meshes[from].Sever(to)
	}
	return false
}

// MeshAddr returns party i's TCP data listen address ("" on Channels).
func (nw *Network) MeshAddr(i int) string {
	if mt, ok := nw.tr.(*meshTransport); ok && i >= 0 && i < nw.n {
		return mt.meshes[i].Addr()
	}
	return ""
}

// Network's nodeEnv implementation (Node runs against either a full
// Network or a single-party Party).
func (nw *Network) partyCount() int { return nw.n }
func (nw *Network) faultBound() int { return nw.f }
func (nw *Network) transportSend(from, to int, inst string, body []byte) {
	nw.tr.send(from, to, inst, body)
}
func (nw *Network) transportFlush(from int) { nw.tr.flush(from) }

func (nw *Network) jitterDelay(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	nw.jmu.Lock()
	defer nw.jmu.Unlock()
	return time.Duration(nw.jrng.Int63n(int64(max)))
}

// --- Node: proto.Runtime ---

// N returns the party count.
func (nd *Node) N() int { return nd.env.partyCount() }

// F returns the corruption bound.
func (nd *Node) F() int { return nd.env.faultBound() }

// Self returns this node's index.
func (nd *Node) Self() int { return nd.idx }

// Depth always returns 0: the live runtime does not track causal rounds.
func (nd *Node) Depth() int { return 0 }

// RandReader returns the dispatcher-local randomness source.
func (nd *Node) RandReader() *rand.Rand { return nd.rng }

// Reject counts a malformed inbound message.
func (nd *Node) Reject() { nd.rejected.Add(1) }

// Equivocation counts conflicting-message evidence against a sender.
func (nd *Node) Equivocation() { nd.equivocations.Add(1) }

// Rejected reports the malformed messages this node's handlers dropped.
func (nd *Node) Rejected() int64 { return nd.rejected.Load() }

// Equivocations reports the conflicting-message evidence this node's
// handlers recorded.
func (nd *Node) Equivocations() int64 { return nd.equivocations.Load() }

// Register installs a handler and replays buffered messages for it. A
// path under a retired prefix is not installed: a finished instance's
// late sub-protocol (registered by a handler that was mid-run when the
// prefix retired) would never receive a message anyway.
func (nd *Node) Register(inst string, h proto.Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.tombstonedLocked(inst) {
		return
	}
	if _, dup := nd.insts[inst]; dup {
		panic(fmt.Sprintf("livenet: node %d: duplicate instance %q", nd.idx, inst))
	}
	nd.insts[inst] = h
	if buf := nd.pending[inst]; len(buf) > 0 {
		nd.queue = append(nd.queue, buf...)
		delete(nd.pending, inst)
		nd.cond.Broadcast()
	}
}

// Send routes a message to the same instance on node `to`.
func (nd *Node) Send(inst string, to int, body []byte) {
	if to < 0 || to >= nd.env.partyCount() {
		return
	}
	nd.env.record(inst, len(body))
	nd.env.transportSend(nd.idx, to, inst, body)
}

// Multicast sends to all parties, self included.
func (nd *Node) Multicast(inst string, body []byte) {
	for to := 0; to < nd.env.partyCount(); to++ {
		nd.Send(inst, to, body)
	}
}

// Do schedules fn onto the node's dispatcher goroutine — the only legal way
// for external code to touch protocol state (e.g. calling Start).
func (nd *Node) Do(fn func()) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed || nd.crashed {
		return
	}
	nd.queue = append(nd.queue, task{fn: fn})
	nd.cond.Broadcast()
}

// enqueue appends an inbound message (called by transports).
func (nd *Node) enqueue(from int, seq uint64, inst string, body []byte) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed || nd.crashed {
		return
	}
	nd.queue = append(nd.queue, task{from: from, seq: seq, inst: inst, body: body})
	nd.cond.Broadcast()
}

// SetJournal installs the write-ahead observer. It must be set before the
// transport connects (the hook is read on the dispatcher without a lock).
func (nd *Node) SetJournal(fn func(from int, seq uint64, inst string, body []byte)) {
	nd.journal = fn
}

// Retire releases a finished instance path prefix: the handlers of the
// prefix and of every sub-path are dropped (so the node no longer holds
// their protocol state), and the prefix is tombstoned. Straggler frames
// for it are journaled — so the recv cursor advances past them and they
// can be acked — and dropped instead of parking forever waiting for a
// handler that will never re-register. Callers retire a prefix only once
// no party needs this node's further participation in it: a compaction
// snapshot absorbed it (noded), or every honest party has output (the
// in-process harness).
func (nd *Node) Retire(prefix string) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.tombstones[prefix] = struct{}{}
	for inst := range nd.insts {
		if underPrefix(inst, prefix) {
			delete(nd.insts, inst)
		}
	}
	// Frames already parked under the prefix are retired the same way on
	// their next dispatch; re-queue them so that happens promptly.
	for inst, buf := range nd.pending {
		if underPrefix(inst, prefix) {
			nd.queue = append(nd.queue, buf...)
			delete(nd.pending, inst)
		}
	}
	nd.cond.Broadcast()
}

// underPrefix reports whether inst is prefix itself or one of its
// /-separated sub-paths.
func underPrefix(inst, prefix string) bool {
	return inst == prefix || strings.HasPrefix(inst, prefix) && inst[len(prefix)] == '/'
}

// tombstonedLocked reports whether inst falls under a retired prefix: the
// path itself or any of its /-bounded ancestors is tombstoned. Cost is one
// map probe per path segment, independent of how many prefixes retired.
func (nd *Node) tombstonedLocked(inst string) bool {
	if len(nd.tombstones) == 0 {
		return false
	}
	for i := 0; i < len(inst); i++ {
		if inst[i] == '/' {
			if _, ok := nd.tombstones[inst[:i]]; ok {
				return true
			}
		}
	}
	_, ok := nd.tombstones[inst]
	return ok
}

// Instances reports how many handlers are registered on the node and how
// many instance paths hold frames parked for a handler not yet registered.
func (nd *Node) Instances() (handlers, pending int) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.insts), len(nd.pending)
}

// Replay re-processes one journaled message on the dispatcher goroutine —
// the recovery path's direct-injection hook, called only from inside a
// Party.Replay critical section. It bypasses the queue, the journal hook
// (the record is already durable) and transport dedup (the WAL is the
// authority on what was processed). A record whose handler is not yet
// registered parks like a live frame and reports false.
func (nd *Node) Replay(from int, seq uint64, inst string, body []byte) bool {
	nd.mu.Lock()
	if nd.tombstonedLocked(inst) {
		nd.mu.Unlock()
		return false
	}
	h, ok := nd.insts[inst]
	if !ok {
		nd.pending[inst] = append(nd.pending[inst], task{from: from, seq: seq, inst: inst, body: body})
		nd.mu.Unlock()
		return false
	}
	nd.mu.Unlock()
	h.Handle(from, body)
	return true
}

// dispatch is the node's event loop.
func (nd *Node) dispatch() {
	defer nd.done.Done()
	for {
		nd.mu.Lock()
		if len(nd.queue) == 0 && !nd.closed {
			// Going idle: everything this node sent while draining the
			// queue must reach the wire before we sleep. The flush runs
			// outside nd.mu so inbound enqueues are never blocked behind
			// a syscall; the re-check below catches anything that raced
			// in meanwhile.
			nd.mu.Unlock()
			nd.env.transportFlush(nd.idx)
			nd.mu.Lock()
		}
		for len(nd.queue) == 0 && !nd.closed {
			nd.cond.Wait()
		}
		if nd.closed {
			nd.mu.Unlock()
			return
		}
		t := nd.queue[0]
		nd.queue = nd.queue[1:]
		var h proto.Handler
		tombstoned := false
		if t.fn == nil {
			if tombstoned = nd.tombstonedLocked(t.inst); !tombstoned {
				var ok bool
				h, ok = nd.insts[t.inst]
				if !ok {
					nd.pending[t.inst] = append(nd.pending[t.inst], t)
					nd.mu.Unlock()
					continue
				}
			}
		}
		nd.mu.Unlock()
		if t.fn != nil {
			t.fn()
			continue
		}
		// Journal at processing time: this is the order a replay can
		// reproduce (parking reorders arrival), and a tombstoned straggler
		// is journaled too so its sequence becomes ackable.
		if nd.journal != nil {
			nd.journal(t.from, t.seq, t.inst, t.body)
		}
		if !tombstoned {
			h.Handle(t.from, t.body)
		}
	}
}

// --- channel transport ---

type chanTransport struct {
	nw     *Network
	jitter time.Duration
}

func (c *chanTransport) send(from, to int, inst string, body []byte) {
	b := append([]byte(nil), body...)
	if d := c.nw.jitterDelay(c.jitter); d > 0 {
		time.AfterFunc(d, func() { c.nw.nodes[to].enqueue(from, 0, inst, b) })
		return
	}
	c.nw.nodes[to].enqueue(from, 0, inst, b)
}

func (c *chanTransport) flush(int) {}

func (c *chanTransport) close() {}

// --- TCP transport: n in-process Mesh endpoints on loopback ---

// inProcBackoffMin/Max tune the redial backoff for loopback, where a peer
// that refuses a dial is back within milliseconds, not seconds.
const (
	inProcBackoffMin = 5 * time.Millisecond
	inProcBackoffMax = 500 * time.Millisecond
)

// DeriveAuth builds a deterministic transport-auth keyset from a seed — the
// stand-in used when no bulletin-PKI keys are supplied, so the handshake is
// never unauthenticated.
func DeriveAuth(n int, seed int64) (*Auth, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d657368)) // "mesh"
	a := &Auth{Keys: make([]sig.PrivateKey, n), Board: make([]sig.PublicKey, n)}
	for i := 0; i < n; i++ {
		k, err := sig.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		a.Keys[i] = k
		a.Board[i] = k.PK
	}
	return a, nil
}

type meshTransport struct {
	nw     *Network
	meshes []*Mesh
}

func newMeshTransport(nw *Network, cfg Config) (*meshTransport, error) {
	auth := cfg.Auth
	if auth == nil {
		var err error
		if auth, err = DeriveAuth(nw.n, cfg.Seed); err != nil {
			return nil, err
		}
	}
	if len(auth.Keys) != nw.n || len(auth.Board) != nw.n {
		return nil, fmt.Errorf("auth keyset has %d/%d keys, want %d", len(auth.Keys), len(auth.Board), nw.n)
	}
	mt := &meshTransport{nw: nw}
	addrs := make([]string, nw.n)
	for i := 0; i < nw.n; i++ {
		node := nw.nodes[i]
		m, err := NewMesh(MeshConfig{
			Self:       i,
			N:          nw.n,
			Key:        auth.Keys[i],
			Board:      auth.Board,
			Deliver:    node.enqueue,
			WAN:        cfg.WAN,
			Seed:       cfg.Seed,
			FlushEvery: cfg.FlushEvery,
			BackoffMin: inProcBackoffMin,
			BackoffMax: inProcBackoffMax,
		})
		if err != nil {
			mt.close()
			return nil, err
		}
		mt.meshes = append(mt.meshes, m)
		addrs[i] = m.Addr()
	}
	for _, m := range mt.meshes {
		if err := m.Connect(addrs); err != nil {
			mt.close()
			return nil, err
		}
	}
	return mt, nil
}

func (mt *meshTransport) send(from, to int, inst string, body []byte) {
	mt.meshes[from].Send(to, inst, body)
}

func (mt *meshTransport) flush(from int) { mt.meshes[from].Flush() }

func (mt *meshTransport) close() {
	var wg sync.WaitGroup
	for _, m := range mt.meshes {
		wg.Add(1)
		go func(m *Mesh) {
			defer wg.Done()
			m.Close()
		}(m)
	}
	wg.Wait()
}

// Crash makes the node drop all future deliveries and jobs — a
// crash-faulty party on the live runtime.
func (nd *Node) Crash() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.queue = nil
	nd.insts = make(map[string]proto.Handler)
	nd.pending = make(map[string][]task)
	nd.crashed = true
}
