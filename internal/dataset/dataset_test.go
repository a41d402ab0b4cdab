package dataset

import (
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestProteinSequencesShape(t *testing.T) {
	tbl := ProteinSequences(100, 1)
	if tbl.Cardinality() != 100 {
		t.Fatalf("cardinality = %d", tbl.Cardinality())
	}
	if tbl.Schema.Len() != 2 {
		t.Fatalf("schema = %v", tbl.Schema)
	}
	seen := make(map[string]bool)
	for i, tp := range tbl.Tuples {
		orf := tp[0].AsString()
		if seen[orf] {
			t.Fatalf("duplicate ORF %q", orf)
		}
		seen[orf] = true
		seq := tp[1].AsString()
		if len(seq) != SequenceLength {
			t.Fatalf("tuple %d: sequence length %d, want %d (paper pads all tuples equal)", i, len(seq), SequenceLength)
		}
		if seq[0] != 'M' {
			t.Errorf("tuple %d: sequence does not start with M", i)
		}
		for _, r := range seq {
			if !strings.ContainsRune(aminoAcids, r) {
				t.Fatalf("tuple %d: invalid residue %q", i, r)
			}
		}
	}
}

func TestProteinSequencesDeterministic(t *testing.T) {
	a := ProteinSequences(50, 7)
	b := ProteinSequences(50, 7)
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) {
			t.Fatalf("tuple %d differs across identical seeds", i)
		}
	}
	c := ProteinSequences(50, 8)
	same := true
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(c.Tuples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestProteinInteractionsJoinable(t *testing.T) {
	seqs := ProteinSequences(200, 1)
	ints := ProteinInteractions(500, 200, 1)
	if ints.Cardinality() != 500 {
		t.Fatalf("cardinality = %d", ints.Cardinality())
	}
	valid := make(map[string]bool, 200)
	for _, tp := range seqs.Tuples {
		valid[tp[0].AsString()] = true
	}
	for i, tp := range ints.Tuples {
		if !valid[tp[0].AsString()] {
			t.Fatalf("interaction %d: ORF1 %q not in sequence domain", i, tp[0].AsString())
		}
	}
}

func TestDemoCardinalities(t *testing.T) {
	s := Demo()
	seqs, err := s.Table("protein_sequences")
	if err != nil {
		t.Fatal(err)
	}
	if seqs.Cardinality() != DefaultSequences {
		t.Errorf("sequences = %d, want %d", seqs.Cardinality(), DefaultSequences)
	}
	ints, err := s.Table("PROTEIN_INTERACTIONS") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if ints.Cardinality() != DefaultInteractions {
		t.Errorf("interactions = %d, want %d", ints.Cardinality(), DefaultInteractions)
	}
}

func TestStoreMissingTable(t *testing.T) {
	s := NewStore()
	if _, err := s.Table("nope"); err == nil {
		t.Fatal("expected error for missing table")
	}
	if got := len(s.Names()); got != 0 {
		t.Fatalf("Names = %d", got)
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s := Demo()
	names := s.Names()
	if len(names) != 2 || names[0] != "protein_interactions" || names[1] != "protein_sequences" {
		t.Fatalf("Names = %v", names)
	}
}

func TestAvgTupleBytes(t *testing.T) {
	tbl := ProteinSequences(10, 1)
	got := tbl.AvgTupleBytes()
	// ORF (9 chars) + sequence (128 chars) + headers: expect ~150 bytes.
	if got < 130 || got > 180 {
		t.Errorf("AvgTupleBytes = %d, want ~150", got)
	}
	empty := &Table{Name: "e", Schema: relation.NewSchema()}
	if empty.AvgTupleBytes() != 0 {
		t.Error("empty table should have 0 avg bytes")
	}
}

func TestProteinInteractionsZipfSkew(t *testing.T) {
	tbl := ProteinInteractionsZipf(5000, 500, 1.5, 1)
	if tbl.Cardinality() != 5000 {
		t.Fatalf("cardinality = %d", tbl.Cardinality())
	}
	counts := map[string]int{}
	for _, tp := range tbl.Tuples {
		counts[tp[0].AsString()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Zipf(1.5): the hottest key must dominate the mean group size.
	mean := 5000 / len(counts)
	if max < 5*mean {
		t.Errorf("no skew: max group %d vs mean %d over %d groups", max, mean, len(counts))
	}
	// Deterministic.
	again := ProteinInteractionsZipf(5000, 500, 1.5, 1)
	for i := range tbl.Tuples {
		if !tbl.Tuples[i].Equal(again.Tuples[i]) {
			t.Fatal("not deterministic")
		}
	}
}

// maxDemoAllocs bounds DemoSized(3000, 4700): the generators carve strings
// from 64 KiB chunks and tuples from arena chunks, so the count follows the
// chunks (about 55), not the 7 700 rows.
const maxDemoAllocs = 100

func TestDemoSizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if got := testing.AllocsPerRun(3, func() { DemoSized(3000, 4700) }); got > maxDemoAllocs {
		t.Fatalf("DemoSized(3000, 4700) makes %.0f allocations, ceiling %d", got, maxDemoAllocs)
	}
}
