package pedersen

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/field"
	"repro/internal/crypto/group"
	"repro/internal/crypto/poly"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func commitPair(t *testing.T, r *rand.Rand, deg int) (poly.Poly, poly.Poly, Commitment) {
	t.Helper()
	a, err := poly.Random(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := poly.Random(r, deg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Commit(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return a, b, c
}

func TestVerifyShareAccepts(t *testing.T) {
	r := testRand(1)
	const deg, n = 3, 10
	a, b, c := commitPair(t, r, deg)
	for i := 0; i < n; i++ {
		if !c.VerifyShare(i, a.Eval(poly.X(i)), b.Eval(poly.X(i))) {
			t.Fatalf("share %d rejected", i)
		}
	}
}

func TestVerifyShareRejectsTampered(t *testing.T) {
	r := testRand(2)
	a, b, c := commitPair(t, r, 3)
	av := a.Eval(poly.X(0)).Add(field.One())
	if c.VerifyShare(0, av, b.Eval(poly.X(0))) {
		t.Fatal("tampered A-share accepted")
	}
	bv := b.Eval(poly.X(0)).Add(field.One())
	if c.VerifyShare(0, a.Eval(poly.X(0)), bv) {
		t.Fatal("tampered B-share accepted")
	}
}

func TestCommitRejectsDegreeMismatch(t *testing.T) {
	r := testRand(3)
	a, _ := poly.Random(r, 3)
	b, _ := poly.Random(r, 2)
	if _, err := Commit(a, b); err == nil {
		t.Fatal("degree mismatch accepted")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := testRand(4)
	_, _, c := commitPair(t, r, 4)
	got, err := FromBytes(c.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(c) {
		t.Fatal("round trip mismatch")
	}
	if _, err := FromBytes(c.Bytes(), 5); err == nil {
		t.Fatal("accepted wrong degree")
	}
	if _, err := FromBytes(c.Bytes()[:10], 4); err == nil {
		t.Fatal("accepted truncation")
	}
}

// TestHiding demonstrates perfect hiding: two different value polynomials
// can yield the same commitment under suitable blinding — here we verify
// the homomorphic structure that makes the information-theoretic argument
// go through (commitment of a+Δ with blinding b-Δ·log_h(g)… is out of scope
// without the dlog; instead we check commitments of equal polynomials with
// different blinding differ, i.e. blinding actually enters).
func TestBlindingEnters(t *testing.T) {
	r := testRand(5)
	a, _ := poly.Random(r, 2)
	b1, _ := poly.Random(r, 2)
	b2, _ := poly.Random(r, 2)
	c1, _ := Commit(a, b1)
	c2, _ := Commit(a, b2)
	if c1.Equal(c2) {
		t.Fatal("different blinding produced equal commitments")
	}
}

func TestEvalMatchesShareCheck(t *testing.T) {
	r := testRand(6)
	a, b, c := commitPair(t, r, 3)
	x := field.FromUint64(7)
	// g^{A(7)} h^{B(7)} must equal c.Eval(7).
	lhs := c.Eval(x)
	if !c.VerifyShare(6, a.Eval(x), b.Eval(x)) { // party 6 has X=7
		t.Fatal("share check failed at x=7")
	}
	_ = lhs
}

func TestEqual(t *testing.T) {
	r := testRand(7)
	_, _, c1 := commitPair(t, r, 2)
	_, _, c2 := commitPair(t, r, 2)
	if c1.Equal(c2) {
		t.Fatal("independent commitments equal")
	}
	if !c1.Equal(c1) {
		t.Fatal("commitment not equal to itself")
	}
}

// TestEvalMatchesCommittedPair: Eval(x) is the commitment to (A(x), B(x))
// at every x, including x = 0 (where only c_0 contributes) and the
// degree-0 commitment.
func TestEvalMatchesCommittedPair(t *testing.T) {
	r := testRand(9)
	h := group.SecondGenerator()
	for _, deg := range []int{0, 1, 4} {
		a, b, c := commitPair(t, r, deg)
		for _, x := range []field.Scalar{field.Zero(), field.One(), field.MustRandom(r)} {
			want := group.BaseMul(a.Eval(x)).Add(h.Mul(b.Eval(x)))
			if !c.Eval(x).Equal(want) {
				t.Fatalf("deg %d: Eval(%v) differs from g^A(x)·h^B(x)", deg, x)
			}
		}
	}
	if !(Commitment{}).Eval(field.One()).IsIdentity() {
		t.Fatal("empty commitment must evaluate to the identity")
	}
}
