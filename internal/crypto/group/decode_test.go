package group

import (
	"bytes"
	"math/big"
	"testing"

	"repro/internal/crypto/field"
)

// fromBytesLiftX is the reference decoder FromBytes replaced: range check,
// then liftX's big.Int square root with parity selection.
func fromBytesLiftX(b []byte) (Point, bool) {
	if len(b) != CompressedSize {
		return Point{}, false
	}
	switch b[0] {
	case 0x00:
		for _, c := range b[1:] {
			if c != 0 {
				return Point{}, false
			}
		}
		return Point{}, true
	case 0x02, 0x03:
		x := new(big.Int).SetBytes(b[1:])
		if x.Cmp(curveP) >= 0 {
			return Point{}, false
		}
		y, ok := liftX(x, b[0] == 0x03)
		if !ok {
			return Point{}, false
		}
		return Point{x: x, y: y}, true
	default:
		return Point{}, false
	}
}

func encodeX(tag byte, x *big.Int) []byte {
	b := make([]byte, CompressedSize)
	b[0] = tag
	x.FillBytes(b[1:])
	return b
}

// TestFromBytesMatchesLiftX: FromBytes accepts exactly the encodings the
// liftX decoder accepted and returns the same points — random points under
// both parity tags, random abscissae (about half have no square root),
// x ≥ p, the identity encoding and malformed tags and lengths.
func TestFromBytesMatchesLiftX(t *testing.T) {
	r := testRand(77)
	var inputs [][]byte
	for i := 0; i < 200; i++ {
		p := BaseMul(field.MustRandom(r))
		enc := p.Bytes()
		flipped := append([]byte(nil), enc...)
		flipped[0] ^= 0x01 // 0x02 <-> 0x03: the negated point
		inputs = append(inputs, enc, flipped)

		x := new(big.Int).Rand(r, curveP)
		inputs = append(inputs, encodeX(0x02, x), encodeX(0x03, x))
	}
	two256 := new(big.Int).Lsh(big.NewInt(1), 256)
	for _, x := range []*big.Int{
		new(big.Int).Set(curveP),
		new(big.Int).Add(curveP, big.NewInt(1)),
		new(big.Int).Sub(two256, big.NewInt(1)),
		new(big.Int).Sub(curveP, big.NewInt(1)),
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Set(curve.Params().Gx),
	} {
		inputs = append(inputs, encodeX(0x02, x), encodeX(0x03, x))
	}
	identity := make([]byte, CompressedSize)
	badIdentity := make([]byte, CompressedSize)
	badIdentity[CompressedSize-1] = 1
	g := Generator().Bytes()
	for _, tag := range []byte{0x00, 0x01, 0x04, 0x05, 0x06, 0x07, 0xff} {
		bad := append([]byte(nil), g...)
		bad[0] = tag
		inputs = append(inputs, bad)
	}
	inputs = append(inputs, identity, badIdentity, nil, g[:CompressedSize-1], append(g, 0))

	accepted, noRoot := 0, 0
	for _, in := range inputs {
		want, wantOK := fromBytesLiftX(in)
		got, err := FromBytes(in)
		if (err == nil) != wantOK {
			t.Fatalf("input %x: FromBytes err=%v, liftX accept=%v", in, err, wantOK)
		}
		if !wantOK {
			if len(in) == CompressedSize && (in[0] == 0x02 || in[0] == 0x03) {
				noRoot++
			}
			continue
		}
		accepted++
		if !got.Equal(want) {
			t.Fatalf("input %x: decoders return different points", in)
		}
		if !bytes.Equal(got.Bytes(), in) {
			t.Fatalf("input %x: decoded point re-encodes as %x", in, got.Bytes())
		}
	}
	if accepted < 400 || noRoot < 100 {
		t.Fatalf("weak coverage: %d accepted, %d rejected abscissae", accepted, noRoot)
	}
}

func BenchmarkFromBytes(b *testing.B) {
	enc := BaseMul(field.MustRandom(testRand(78))).Bytes()
	b.Run("elliptic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FromBytes(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("liftX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := fromBytesLiftX(enc); !ok {
				b.Fatal("rejected")
			}
		}
	})
}
