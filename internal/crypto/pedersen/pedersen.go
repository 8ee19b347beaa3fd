// Package pedersen implements Pedersen polynomial commitments (Pedersen '91,
// cited as [59]), the commitment scheme inside the paper's AVSS (Alg. 1/2):
// the dealer commits to polynomials A(x), B(x) of degree ≤ f with
// c_j = g^{a_j} · h^{b_j}, and a party holding shares (A(i), B(i)) checks
// g^{A(i)} h^{B(i)} = Π_k c_k^{i^k}.
//
// The commitment is perfectly hiding (the basis of AVSS secrecy, Lemma 7)
// and computationally binding under the discrete-log assumption (Lemma 3).
package pedersen

import (
	"fmt"

	"repro/internal/crypto/field"
	"repro/internal/crypto/group"
	"repro/internal/crypto/poly"
)

// Commitment is the vector (c_0, …, c_f) committing to a pair of
// polynomials of degree ≤ f.
type Commitment struct {
	C []group.Point
}

// Commit commits to value polynomial a with blinding polynomial b. Both must
// have the same degree.
func Commit(a, b poly.Poly) (Commitment, error) {
	if a.Degree() != b.Degree() {
		return Commitment{}, fmt.Errorf("pedersen: degree mismatch %d vs %d", a.Degree(), b.Degree())
	}
	h := group.SecondGenerator()
	c := make([]group.Point, a.Degree()+1)
	for j := range c {
		c[j] = group.BaseMul(a.Coeff(j)).Add(h.Mul(b.Coeff(j)))
	}
	return Commitment{C: c}, nil
}

// Degree returns the committed polynomial degree.
func (c Commitment) Degree() int { return len(c.C) - 1 }

// Eval computes Π_k c_k^{x^k}, the commitment to (A(x), B(x)).
func (c Commitment) Eval(x field.Scalar) group.Point {
	if len(c.C) == 0 {
		return group.Point{}
	}
	// c_0^{x^0} is c_0 itself: start there rather than paying a scalar
	// multiplication by one.
	acc := c.C[0]
	pow := x
	for _, ck := range c.C[1:] {
		acc = acc.Add(ck.Mul(pow))
		pow = pow.Mul(x)
	}
	return acc
}

// VerifyShare checks the share pair (a, b) of 0-based party i against the
// commitment: g^a h^b == Π c_k^{ω_i^k} with ω_i = i+1.
func (c Commitment) VerifyShare(i int, a, b field.Scalar) bool {
	lhs := group.BaseMul(a).Add(group.SecondGenerator().Mul(b))
	return lhs.Equal(c.Eval(poly.X(i)))
}

// Equal reports whether two commitments are identical.
func (c Commitment) Equal(d Commitment) bool {
	if len(c.C) != len(d.C) {
		return false
	}
	for i := range c.C {
		if !c.C[i].Equal(d.C[i]) {
			return false
		}
	}
	return true
}

// Bytes encodes the commitment as the concatenation of compressed points.
func (c Commitment) Bytes() []byte {
	out := make([]byte, 0, len(c.C)*group.CompressedSize)
	for _, p := range c.C {
		out = append(out, p.Bytes()...)
	}
	return out
}

// FromBytes decodes a commitment of the given degree.
func FromBytes(b []byte, degree int) (Commitment, error) {
	want := (degree + 1) * group.CompressedSize
	if len(b) != want {
		return Commitment{}, fmt.Errorf("pedersen: bad encoding length %d, want %d", len(b), want)
	}
	c := make([]group.Point, degree+1)
	for j := range c {
		p, err := group.FromBytes(b[j*group.CompressedSize : (j+1)*group.CompressedSize])
		if err != nil {
			return Commitment{}, fmt.Errorf("pedersen: coefficient %d: %w", j, err)
		}
		c[j] = p
	}
	return Commitment{C: c}, nil
}
