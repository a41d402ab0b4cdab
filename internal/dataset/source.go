// Streaming table sources: tables no longer have to materialise their
// tuples in memory. A Table either holds an in-memory tuple slice (the
// classic path, preserved untouched for the paper-scale demo database) or
// points at a sealed storage run, in which case scans stream it block at a
// time and generators can write tables far larger than memory directly to a
// posix backend.
package dataset

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/storage"
)

// OpenBlocks returns a block-granular reader over a stored table's run —
// the one way stored tuples are read. ok is false for in-memory tables,
// whose Tuples slice is scanned directly.
func (t *Table) OpenBlocks() (r storage.BlockReader, ok bool, err error) {
	if t.backend == nil {
		return nil, false, nil
	}
	r, err = t.backend.OpenBlocks(t.run)
	if err != nil {
		return nil, false, fmt.Errorf("dataset: open stored table %q: %w", t.Name, err)
	}
	return r, true, nil
}

// TotalBytes returns the encoded size of the table — exact for stored
// tables (cardinality × mean tuple size from the generator), estimated the
// same way for in-memory ones. The catalog carries it so the optimiser and
// admission control can see table volume, not just cardinality.
func (t *Table) TotalBytes() int64 {
	return int64(t.Cardinality()) * int64(t.AvgTupleBytes())
}

// NewStoredTable wraps an already written, sealed run as a table. card and
// avgBytes feed the catalog statistics the optimiser reads.
func NewStoredTable(name string, schema *relation.Schema, backend storage.Backend, run string, card int, avgBytes int) *Table {
	return &Table{Name: name, Schema: schema, backend: backend, run: run, card: card, avgBytes: avgBytes}
}

// writeRows streams rows produced by gen into a backend run and returns the
// stored table. Nothing is materialised: memory use is the generator's
// current string and tuple chunks plus the writer's block buffer regardless
// of n, since every filled chunk is garbage once its rows are encoded.
func writeRows(backend storage.Backend, run string, name string, schema *relation.Schema, n int, gen func(i int) relation.Tuple) (*Table, error) {
	w, err := backend.Create(run)
	if err != nil {
		return nil, fmt.Errorf("dataset: create table run: %w", err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(gen(i)); err != nil {
			_ = w.Close()
			_ = backend.Remove(run)
			return nil, fmt.Errorf("dataset: write table run: %w", err)
		}
	}
	bytes := w.Bytes()
	if err := w.Close(); err != nil {
		_ = backend.Remove(run)
		return nil, fmt.Errorf("dataset: seal table run: %w", err)
	}
	avg := 0
	if n > 0 {
		avg = int(bytes) / n
	}
	return NewStoredTable(name, schema, backend, run, n, avg), nil
}

// WriteProteinSequences generates protein_sequences straight into a backend
// run — the path for tables larger than memory. Deterministic in (n, seed)
// and tuple-for-tuple identical to ProteinSequences.
func WriteProteinSequences(backend storage.Backend, run string, n int, seed int64) (*Table, error) {
	gen := sequencesGen(seed)
	return writeRows(backend, run, "protein_sequences", sequencesSchema(), n, gen)
}

// WriteProteinInteractions generates protein_interactions straight into a
// backend run. Deterministic in (n, seqCount, seed) and tuple-for-tuple
// identical to ProteinInteractions.
func WriteProteinInteractions(backend storage.Backend, run string, n, seqCount int, seed int64) (*Table, error) {
	gen := interactionsGen(seqCount, seed)
	return writeRows(backend, run, "protein_interactions", interactionsSchema(), n, gen)
}

// WriteProteinInteractionsZipf generates Zipf-skewed protein_interactions
// straight into a backend run. Deterministic in (n, seqCount, s, seed) and
// tuple-for-tuple identical to ProteinInteractionsZipf.
func WriteProteinInteractionsZipf(backend storage.Backend, run string, n, seqCount int, s float64, seed int64) (*Table, error) {
	gen := interactionsZipfGen(seqCount, s, seed)
	return writeRows(backend, run, "protein_interactions", interactionsSchema(), n, gen)
}

// WriteSynthetic streams a synthetic table into a backend run — the
// multi-GB path: memory use is one generator chunk plus the writer's block
// buffer regardless of sp.Rows. Deterministic in the spec and tuple-for-tuple
// identical to Synthetic.
func WriteSynthetic(backend storage.Backend, run string, sp SyntheticSpec) (*Table, error) {
	sp = sp.withDefaults()
	return writeRows(backend, run, sp.Name, syntheticSchema(sp.Name), sp.Rows, syntheticGen(sp))
}

// DemoStored builds the demo database with both protein tables written as
// block-framed runs on the given backend instead of in-memory slices — the
// configuration for larger-than-memory scans. Runs are named
// "base/<table>", outside the "q<N>." query-tag namespace the per-query
// spill sweeps delete. Tuple-for-tuple identical to DemoSized at the same
// cardinalities.
func DemoStored(backend storage.Backend, sequences, interactions int) (*Store, error) {
	seqs, err := WriteProteinSequences(backend, "base/protein_sequences", sequences, 1)
	if err != nil {
		return nil, err
	}
	ints, err := WriteProteinInteractions(backend, "base/protein_interactions", interactions, sequences, 1)
	if err != nil {
		return nil, err
	}
	s := NewStore()
	s.Add(seqs)
	s.Add(ints)
	return s, nil
}
