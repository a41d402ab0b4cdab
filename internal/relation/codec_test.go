package relation

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	tuples := []Tuple{
		{},
		{Null},
		{Int(0), Int(-1), Int(math.MaxInt64), Int(math.MinInt64)},
		{Float(0), Float(math.Pi), Float(math.Inf(-1)), Float(-0.0)},
		{String(""), String("MALSTQ"), String("a\x00b\xffc")},
		{Int(7), String("ORF007"), Float(1.5), Null},
	}
	for i, tp := range tuples {
		enc := EncodeTuple(tp)
		dec, rest, err := DecodeTuple(new(Arena), enc)
		if err != nil {
			t.Fatalf("tuple %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("tuple %d: %d trailing bytes", i, len(rest))
		}
		if !dec.Equal(tp) {
			t.Fatalf("tuple %d: round trip %v != %v", i, dec.Format(), tp.Format())
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	prop := func(g tupleGen) bool {
		enc := EncodeTuple(g.T)
		dec, rest, err := DecodeTuple(new(Arena), enc)
		return err == nil && len(rest) == 0 && dec.Equal(g.T)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// decodeTuples decodes a count-prefixed tuple sequence (the EncodeTuples
// framing) twice and holds the two decoders against each other: tuple by
// tuple with the plain DecodeTuple reference, and in fused
// DecodeTuplesShared runs of width tuples. Both must accept or both must
// reject (with ErrCorrupt, trailing bytes included), and accepted inputs
// must decode to tuples with identical encodings.
func decodeTuples(b []byte, width int) ([]Tuple, error) {
	n, rest, err := TupleCount(b)
	if err != nil {
		return nil, err
	}
	var a Arena
	trailing := func(r []byte, err error) error {
		if err == nil && len(r) != 0 {
			return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r))
		}
		return err
	}

	var want []Tuple
	var refErr error
	r := rest
	for i := uint64(0); i < n && refErr == nil; i++ {
		var tp Tuple
		tp, r, refErr = DecodeTuple(&a, r)
		want = append(want, tp)
	}
	refErr = trailing(r, refErr)

	var got []Tuple
	var fusedErr error
	batch := NewBatch(width)
	base, r, left := string(rest), rest, n
	for left > 0 && fusedErr == nil {
		r, left, _, fusedErr = DecodeTuplesShared(&a, base, r, left, batch, nil)
		got = append(got, batch.Tuples...)
		batch.Rewind()
	}
	fusedErr = trailing(r, fusedErr)

	switch {
	case (refErr == nil) != (fusedErr == nil):
		return nil, fmt.Errorf("decoders disagree: reference err %v, fused err %v", refErr, fusedErr)
	case refErr != nil && !errors.Is(fusedErr, ErrCorrupt):
		return nil, fmt.Errorf("fused decode error does not wrap ErrCorrupt: %v", fusedErr)
	case refErr != nil:
		return nil, refErr
	case !bytes.Equal(EncodeTuples(got), EncodeTuples(want)):
		return nil, fmt.Errorf("decoders disagree: fused %x, reference %x", EncodeTuples(got), EncodeTuples(want))
	}
	return want, nil
}

func TestCodecBatchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	batch := make([]Tuple, 64)
	for i := range batch {
		batch[i] = randTuple(r)
	}
	enc := EncodeTuples(batch)
	dec, err := decodeTuples(enc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(batch) {
		t.Fatalf("decoded %d tuples, want %d", len(dec), len(batch))
	}
	for i := range batch {
		if !dec[i].Equal(batch[i]) {
			t.Fatalf("tuple %d differs: %v != %v", i, dec[i].Format(), batch[i].Format())
		}
	}
}

func TestCodecCorruptInputs(t *testing.T) {
	good := EncodeTuple(Tuple{Int(1), String("abc"), Float(2.5)})
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": good[:1],
		"truncated string": good[:len(good)-6],
		"truncated float":  good[:len(good)-3],
		"bad tag":          append(append([]byte{}, 1), 200),
		"huge count":       {0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, b := range cases {
		if _, _, err := DecodeTuple(new(Arena), b); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

func TestCodecBatchCorrupt(t *testing.T) {
	enc := EncodeTuples([]Tuple{{Int(1)}, {Int(2)}})
	if _, err := decodeTuples(enc[:len(enc)-1], 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated batch: err = %v, want ErrCorrupt", err)
	}
	if _, err := decodeTuples(append(enc, 0), 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
	if _, err := decodeTuples(nil, 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil batch: err = %v, want ErrCorrupt", err)
	}
}

func TestCodecNeverPanicsOnGarbage(t *testing.T) {
	// Fuzz-ish: random byte strings must produce an error or a tuple, never
	// a panic or an out-of-range read.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(40))
		r.Read(b)
		_, _, _ = DecodeTuple(new(Arena), b)
		if _, err := decodeTuples(b, 3); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("input %x: %v", b, err)
		}
	}
}

func BenchmarkEncodeTuple(b *testing.B) {
	tp := Tuple{String("ORF000123"), String("MALSTQWKDEFGHIRNPVYCMALSTQWKDEFGHIRNPVYC"), Int(40)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeTuple(tp)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	enc := EncodeTuple(Tuple{String("ORF000123"), String("MALSTQWKDEFGHIRNPVYCMALSTQWKDEFGHIRNPVYC"), Int(40)})
	var a Arena
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(&a, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeTupleIntoMatchesDecodeTuple pins the arena contract of the
// single-tuple decoder: tuples carved from one shared arena stay intact
// while later decodes carve more from it.
func TestDecodeTupleIntoMatchesDecodeTuple(t *testing.T) {
	var a Arena
	r := rand.New(rand.NewSource(17))
	var enc []byte
	var want []Tuple
	for i := 0; i < 200; i++ {
		tp := randTuple(r)
		want = append(want, tp)
		enc = AppendTuple(enc, tp)
	}
	b := enc
	got := make([]Tuple, 0, len(want))
	for i := range want {
		dec, rest, err := DecodeTuple(&a, b)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		got = append(got, dec)
		b = rest
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
	// Checked only after the full run: later arena decodes must never
	// touch the storage of earlier decoded tuples.
	for i, tp := range want {
		if !got[i].Equal(tp) {
			t.Fatalf("tuple %d: arena round trip %v != %v", i, got[i].Format(), tp.Format())
		}
	}
}

func TestDecodeTupleIntoCorrupt(t *testing.T) {
	var a Arena
	for _, b := range [][]byte{nil, {255}, {2, 1}, {1, 3, 200}, {1, 9}} {
		if _, _, err := DecodeTuple(&a, b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("input %v: err = %v, want ErrCorrupt", b, err)
		}
	}
}

func TestEncodeBufferPoolAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if a := testing.AllocsPerRun(100, func() {
		PutEncodeBuffer(AppendTuple(GetEncodeBuffer(), Tuple{Int(1)}))
	}); a != 0 {
		t.Fatalf("GetEncodeBuffer+PutEncodeBuffer allocates %.2f times", a)
	}
}
