package storage

import (
	"bytes"
	"testing"

	"repro/internal/relation"
)

// FuzzSpillRunRoundTrip mirrors the transport's FuzzTupleCodecRoundTrip at
// the spill layer: any tuple sequence that decodes from the fuzzed bytes
// must survive a write-seal-read cycle through a run byte-exactly (block
// framing, arena reuse and codec composition must not corrupt anything —
// spilled operator state replays from these runs).
func FuzzSpillRunRoundTrip(f *testing.F) {
	f.Add(relation.EncodeTuple(relation.Tuple{}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Null}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Int(42), relation.Int(-1)}))
	f.Add(relation.EncodeTuple(relation.Tuple{relation.Float(3.25), relation.String("ORF YAL00007C")}))
	f.Add(append(
		relation.EncodeTuple(relation.Tuple{relation.Int(7)}),
		relation.EncodeTuple(relation.Tuple{relation.String("x"), relation.Null})...))
	f.Add([]byte{2, 1})
	f.Add([]byte{1, 99})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Decode as many whole tuples as the input holds; corrupt tails are
		// the codec's concern (covered by its own fuzzer), not the run's.
		var tuples []relation.Tuple
		rest := raw
		for len(rest) > 0 {
			tp, tail, err := relation.DecodeTuple(new(relation.Arena), rest)
			if err != nil {
				break
			}
			tuples = append(tuples, tp)
			rest = tail
			if len(tuples) >= 256 {
				break
			}
		}
		if len(tuples) == 0 {
			t.Skip()
		}
		b := NewMemory()
		defer b.Close()
		w, err := b.Create("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range tuples {
			if err := w.Append(tp); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("seal: %v", err)
		}
		r, err := b.OpenBlocks("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := decodeBlocks(t, r)
		if len(got) != len(tuples) {
			t.Fatalf("run yielded %d tuples, want %d", len(got), len(tuples))
		}
		for i, want := range tuples {
			if !bytes.Equal(relation.EncodeTuple(want), relation.EncodeTuple(got[i])) {
				t.Fatalf("tuple %d changed across the run:\n%x\n%x",
					i, relation.EncodeTuple(want), relation.EncodeTuple(got[i]))
			}
		}
	})
}
