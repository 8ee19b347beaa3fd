// Package group wraps the NIST P-256 curve as a prime-order group with the
// operations the protocol stack needs: point addition, scalar
// multiplication, a second independent generator for Pedersen commitments,
// hash-to-curve (try-and-increment), and compressed 33-byte encodings.
//
// The identity element is represented explicitly (the zero value of Point)
// because crypto/elliptic's affine formulas do not handle the point at
// infinity.
package group

import (
	"crypto/elliptic"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/crypto/field"
	"repro/internal/memo"
)

// CompressedSize is the length of a compressed point encoding.
const CompressedSize = 33

var (
	curve = elliptic.P256()
	// curveB is the b parameter of y² = x³ - 3x + b.
	curveB = curve.Params().B
	curveP = curve.Params().P
)

// Point is a P-256 group element. The zero value is the identity.
type Point struct {
	x, y *big.Int
}

// Generator returns the standard base point G.
func Generator() Point {
	return Point{x: curve.Params().Gx, y: curve.Params().Gy}
}

var secondGen = hashToPointUncached("repro/group: second generator h", nil)

// SecondGenerator returns a generator h with unknown discrete log relative
// to G, derived by hashing to the curve. It blinds Pedersen commitments.
func SecondGenerator() Point { return secondGen }

// IsIdentity reports whether p is the group identity.
func (p Point) IsIdentity() bool { return p.x == nil }

// Equal reports whether two points are the same group element.
func (p Point) Equal(q Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	if p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) != 0 {
		return Point{} // p + (-p) = identity
	}
	var x, y *big.Int
	if p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0 {
		x, y = curve.Double(p.x, p.y)
	} else {
		x, y = curve.Add(p.x, p.y, q.x, q.y)
	}
	return Point{x: x, y: y}
}

// Neg returns -p.
func (p Point) Neg() Point {
	if p.IsIdentity() {
		return p
	}
	return Point{x: p.x, y: new(big.Int).Sub(curveP, p.y)}
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return p.Add(q.Neg()) }

// Mul returns k·p.
func (p Point) Mul(k field.Scalar) Point {
	if p.IsIdentity() || k.IsZero() {
		return Point{}
	}
	x, y := curve.ScalarMult(p.x, p.y, k.Bytes())
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}
	}
	return Point{x: x, y: y}
}

// BaseMul returns k·G using the fastest fixed-base path available: the
// standard library's precomputed-table assembly where it exists, the
// package's own wNAF odd-multiple table otherwise (see double.go).
func BaseMul(k field.Scalar) Point {
	if k.IsZero() {
		return Point{}
	}
	if !hasAccelScalarMult {
		return baseMulWNAF(k)
	}
	x, y := curve.ScalarBaseMult(k.Bytes())
	return Point{x: x, y: y}
}

// Bytes returns the compressed encoding: 0x02/0x03 tag plus the 32-byte x
// coordinate; the identity encodes as 33 zero bytes.
func (p Point) Bytes() []byte {
	out := make([]byte, CompressedSize)
	if p.IsIdentity() {
		return out
	}
	if p.y.Bit(0) == 0 {
		out[0] = 0x02
	} else {
		out[0] = 0x03
	}
	p.x.FillBytes(out[1:])
	return out
}

// ErrInvalidPoint is returned when decoding rejects an encoding.
var ErrInvalidPoint = errors.New("group: invalid point encoding")

// FromBytes decodes a compressed encoding produced by Bytes.
func FromBytes(b []byte) (Point, error) {
	if len(b) != CompressedSize {
		return Point{}, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	switch b[0] {
	case 0x00:
		for _, c := range b[1:] {
			if c != 0 {
				return Point{}, fmt.Errorf("%w: bad identity encoding", ErrInvalidPoint)
			}
		}
		return Point{}, nil
	case 0x02, 0x03:
		// The standard library's P-256 decoder rejects x ≥ p and takes the
		// square root in field arithmetic, several times faster than
		// liftX's big.Int ModSqrt; a differential test pins both to the
		// same verdicts and points. liftX stays for hash-to-curve.
		x, y := elliptic.UnmarshalCompressed(curve, b)
		if x == nil {
			return Point{}, fmt.Errorf("%w: x out of range or not on curve", ErrInvalidPoint)
		}
		return Point{x: x, y: y}, nil
	default:
		return Point{}, fmt.Errorf("%w: tag %#x", ErrInvalidPoint, b[0])
	}
}

// liftX solves y² = x³ - 3x + b for y, choosing the root with the requested
// parity. ok is false when x is not the abscissa of a curve point.
func liftX(x *big.Int, odd bool) (y *big.Int, ok bool) {
	// rhs = x³ - 3x + b mod p
	rhs := new(big.Int).Mul(x, x)
	rhs.Mod(rhs, curveP)
	rhs.Mul(rhs, x)
	rhs.Mod(rhs, curveP)
	threeX := new(big.Int).Lsh(x, 1)
	threeX.Add(threeX, x)
	rhs.Sub(rhs, threeX)
	rhs.Add(rhs, curveB)
	rhs.Mod(rhs, curveP)
	y = new(big.Int).ModSqrt(rhs, curveP)
	if y == nil {
		return nil, false
	}
	if (y.Bit(0) == 1) != odd {
		y.Sub(curveP, y)
	}
	return y, true
}

// h2cCache memoizes HashToPoint results. Each try-and-increment attempt
// pays a big.Int ModSqrt (~1/3 of a cold VRF verification, measured), and
// the protocol stack hashes the same VRF input once per verification — a
// point cache turns all but the first into a map lookup. Keys hash the
// input so entry size is bounded.
type h2cKey struct {
	domain string
	data   [sha256.Size]byte
}

const h2cCacheMax = 1 << 14

var h2cCache = memo.New[h2cKey, Point](h2cCacheMax)

// HashToPoint deterministically maps (domain, data) to a curve point with
// unknown discrete log, via try-and-increment: candidate x-coordinates are
// derived from SHA-256(domain ‖ counter ‖ data) until one lifts. Results
// are memoized; Point values are immutable so sharing is safe.
func HashToPoint(domain string, data []byte) Point {
	key := h2cKey{domain: domain, data: sha256.Sum256(data)}
	return h2cCache.Get(key, func() Point { return hashToPointUncached(domain, data) })
}

func hashToPointUncached(domain string, data []byte) Point {
	var ctr [4]byte
	for i := uint32(0); ; i++ {
		binary.BigEndian.PutUint32(ctr[:], i)
		h := sha256.New()
		h.Write([]byte(domain))
		h.Write(ctr[:])
		h.Write(data)
		x := new(big.Int).SetBytes(h.Sum(nil))
		x.Mod(x, curveP)
		if y, ok := liftX(x, x.Bit(1) == 1); ok {
			// Multiply by the cofactor would go here; P-256 has cofactor 1.
			return Point{x: x, y: y}
		}
	}
}

// MulSum returns Σ kᵢ·pᵢ. It exists to keep multi-scalar call sites terse;
// no windowing optimization is applied.
func MulSum(ks []field.Scalar, ps []Point) Point {
	acc := Point{}
	for i := range ks {
		acc = acc.Add(ps[i].Mul(ks[i]))
	}
	return acc
}

// String implements fmt.Stringer.
func (p Point) String() string {
	if p.IsIdentity() {
		return "Point(∞)"
	}
	return fmt.Sprintf("Point(%x…)", p.Bytes()[:5])
}
