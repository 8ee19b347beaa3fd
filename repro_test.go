package repro

import (
	"bytes"
	"context"
	"testing"
)

func TestFlipCoinFacade(t *testing.T) {
	res, err := FlipCoin(Config{N: 4, Seed: 1, GenesisNonce: []byte("g")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages == 0 || res.Stats.Bytes == 0 || res.Stats.Rounds == 0 {
		t.Fatalf("empty stats: %+v", res.Stats)
	}
}

func TestDecideBitFacade(t *testing.T) {
	res, err := DecideBit(Config{N: 4, Seed: 2, GenesisNonce: []byte("g")}, []byte{1, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bit > 1 {
		t.Fatalf("bit = %d", res.Bit)
	}
}

func TestElectLeaderFacade(t *testing.T) {
	res, err := ElectLeader(Config{N: 4, Seed: 3, GenesisNonce: []byte("g")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 || res.Leader >= 4 {
		t.Fatalf("leader = %d", res.Leader)
	}
}

func TestAgreeFacade(t *testing.T) {
	valid := func(v []byte) bool { return bytes.HasPrefix(v, []byte("tx:")) }
	props := [][]byte{[]byte("tx:a"), []byte("tx:b"), []byte("tx:c"), []byte("tx:d")}
	res, err := Agree(Config{N: 4, Seed: 4, GenesisNonce: []byte("g")}, props, valid)
	if err != nil {
		t.Fatal(err)
	}
	if !valid(res.Value) {
		t.Fatalf("decided %q", res.Value)
	}
}

func TestGenerateKeyFacade(t *testing.T) {
	res, err := GenerateKey(Config{N: 4, Seed: 5, GenesisNonce: []byte("g")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Contributors < 3 {
		t.Fatalf("contributors = %d", res.Contributors)
	}
}

func TestRunBeaconFacade(t *testing.T) {
	res, err := RunBeacon(Config{N: 4, Seed: 6, GenesisNonce: []byte("g")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 1 || res.Values[0] == ([16]byte{}) {
		t.Fatalf("values = %v", res.Values)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := FlipCoin(Config{N: 2}); err == nil {
		t.Fatal("accepted N=2")
	}
	if _, err := DecideBit(Config{N: 4}, []byte{1}); err == nil {
		t.Fatal("accepted short inputs")
	}
	if _, err := Agree(Config{N: 4}, make([][]byte, 4), nil); err == nil {
		t.Fatal("accepted nil predicate")
	}
	if _, err := RunBeacon(Config{N: 4}, 0); err == nil {
		t.Fatal("accepted zero epochs")
	}
	if _, err := FlipCoin(Config{N: 4, Crashed: 2}); err == nil {
		t.Fatal("accepted crashes > f")
	}
}

func TestCrashedPartiesTolerated(t *testing.T) {
	res, err := ElectLeader(Config{N: 4, Seed: 7, Crashed: 1, GenesisNonce: []byte("g")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader < 0 {
		t.Fatal("bad leader")
	}
}

func TestDeterministicReplay(t *testing.T) {
	a, err := ElectLeader(Config{N: 4, Seed: 42, GenesisNonce: []byte("g")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ElectLeader(Config{N: 4, Seed: 42, GenesisNonce: []byte("g")})
	if err != nil {
		t.Fatal(err)
	}
	if a.Leader != b.Leader || a.Stats != b.Stats {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

func TestSeededModeWorksThroughFacade(t *testing.T) {
	// Without a genesis nonce the full Seeding layer runs.
	res, err := FlipCoin(Config{N: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Bytes == 0 {
		t.Fatal("no traffic")
	}
}

// TestCoinVerifyDedupBudget guards the verifier-cache dedup: one 16-party
// coin must perform at most n + O(1) distinct (cold) VRF verifications —
// the n core reconstructions plus a handful of distinct candidate maxes.
// Without dedup the candidate phase alone re-verifies per sender (n², ~256
// here), so any regression trips the budget immediately. Measured: exactly
// 16 cold verifies in both seeded and genesis modes.
func TestCoinVerifyDedupBudget(t *testing.T) {
	const n, budget = 16, 16 + 4
	res, err := FlipCoin(Config{N: n, Seed: 1, GenesisNonce: []byte("dedup-budget")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Verifies > budget {
		t.Fatalf("16-party coin performed %d cold VRF verifies, budget %d (n + O(1)) — dedup regressed",
			res.Stats.Verifies, budget)
	}
	if res.Stats.Verifies == 0 {
		t.Fatal("verifies counter not wired — a coin run cannot verify nothing")
	}
}

// TestADKGScriptVerifyDedupBudget mirrors TestCoinVerifyDedupBudget for the
// PVSS layer: a 7-party ADKG issues O(n²) script checks (every party
// verifies every dealer contribution on receipt, and the VBA re-evaluates
// the aggregate predicate once per sender per broadcast stage), but the
// cluster-shared script cache plus the compositional aggregate fast path
// must keep the COLD multi-pairing verifications at n + O(1): one per
// distinct dealer script, plus the few aggregates that reach a party before
// their component contributions do.
func TestADKGScriptVerifyDedupBudget(t *testing.T) {
	const n = 7
	const budget = n + 2
	res, err := GenerateKey(Config{N: n, Seed: 1, GenesisNonce: []byte("dedup-budget")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ScriptVerifies > budget {
		t.Fatalf("7-party ADKG performed %d cold script verifies, budget %d (n + O(1)) — script dedup regressed",
			res.Stats.ScriptVerifies, budget)
	}
	if res.Stats.ScriptVerifies == 0 {
		t.Fatal("script-verifies counter not wired — a DKG cannot verify nothing")
	}
}

// TestSignatureMemoDedupPerParty: in the PKI-only setting (no genesis
// nonce) every party repeats signature checks — deterministic nonces make
// every certificate on one message carry byte-identical signatures — and
// each party's own memo must absorb the repeats. The simulator run is
// deterministic, so the floor guards the memo's wiring at every call site.
func TestSignatureMemoDedupPerParty(t *testing.T) {
	c, err := NewCluster(7, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	props := make([][]byte, 7)
	for i := range props {
		props[i] = []byte{'o', 'k', ':', byte('0' + i)}
	}
	h, err := c.Agree("memo", props, func(v []byte) bool { return bytes.HasPrefix(v, []byte("ok:")) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var lookups, verifies int64
	for i, k := range c.hc.Keys {
		s := k.Sigs.Stats()
		if s.Lookups == 0 || s.Hits+s.Verifies != s.Lookups {
			t.Fatalf("party %d memo stats %+v: memo not on the signature path", i, s)
		}
		lookups += s.Lookups
		verifies += s.Verifies
	}
	// Measured 1.65x at this seed; the floor leaves room for protocol
	// changes that legitimately shift the mix.
	if 4*lookups < 5*verifies {
		t.Fatalf("%d signature checks but %d cold verifies: per-party dedup below 1.25x", lookups, verifies)
	}
}
