// Package dataset provides the demo bioinformatics database used by the
// paper's evaluation: the protein_sequences and protein_interactions tables
// of the OGSA-DQP demo database. The originals are not distributable, so the
// generators here produce deterministic synthetic data with the same
// cardinalities (3000 sequences, 4700 interactions), fixed-width sequences
// (the paper pads all tuples to the same length "to facilitate result
// analysis"), and an ORF key domain that makes the Q2 join selective but
// productive.
//
// It also provides Store, the in-memory table store that plays the role the
// OGSA-DAI Grid Data Service wrappers play in the paper: the thing a scan
// operator reads from on a data node.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/relation"
	"repro/internal/storage"
)

// Default cardinalities from the paper (§3.2): Q1 retrieves 3000 sequence
// tuples; protein_interactions contains 4700 tuples.
const (
	DefaultSequences    = 3000
	DefaultInteractions = 4700
	// SequenceLength is the fixed width of every protein sequence, in
	// residues. All tuples have the same length, as in the paper.
	SequenceLength = 128
)

// aminoAcids is the 20-letter residue alphabet.
const aminoAcids = "ACDEFGHIKLMNPQRSTVWY"

// Table is an immutable named relation: either an in-memory tuple slice or
// a reference to a sealed storage run (see source.go), which scans read
// through OpenBlocks; only the in-memory path touches Tuples directly.
type Table struct {
	Name   string
	Schema *relation.Schema
	// Tuples is the in-memory representation; nil for stored tables.
	Tuples []relation.Tuple

	// Stored-table fields (see NewStoredTable).
	backend  storage.Backend
	run      string
	card     int
	avgBytes int
}

// Cardinality returns the number of tuples.
func (t *Table) Cardinality() int {
	if t.backend != nil {
		return t.card
	}
	return len(t.Tuples)
}

// AvgTupleBytes returns the mean wire size of the table's tuples, used by
// the optimiser's cost model.
func (t *Table) AvgTupleBytes() int {
	if t.backend != nil {
		return t.avgBytes
	}
	if len(t.Tuples) == 0 {
		return 0
	}
	total := 0
	for _, tp := range t.Tuples {
		total += tp.ByteSize()
	}
	return total / len(t.Tuples)
}

// chunkBytes is the size of the string chunks generated rows are carved
// from: a row's strings are substrings of one 64 KiB chunk shared with its
// neighbours, not allocations of their own.
const chunkBytes = 64 << 10

// carver hands out a generator's strings and tuples from append-only chunks:
// strings from a strings.Builder, tuples from a relation.Arena. A Builder
// never rewrites bytes it has handed out, so each carved string stays valid
// after the carver moves on; when the tail of a chunk is too short for the
// next string, a fresh Builder starts the next chunk. Every chunk of a table
// held in memory lives as long as any of its rows; a streaming writer's
// chunks become garbage as they fill, so its memory stays O(chunk).
type carver struct {
	b     strings.Builder
	start int
	arena relation.Arena
}

// begin opens a string of at most n bytes, to be written to c.b and closed
// by end.
func (c *carver) begin(n int) {
	if c.b.Cap()-c.b.Len() < n {
		c.b = strings.Builder{}
		c.b.Grow(max(chunkBytes, n))
	}
	c.start = c.b.Len()
}

// end returns the string written since begin.
func (c *carver) end() string { return c.b.String()[c.start:] }

// padded carves prefix, v zero-padded to width digits, and suffix: the
// fmt verb %0<width>d for v >= 0, which widens past width digits as fmt
// does.
func (c *carver) padded(prefix string, v, width int, suffix string) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	c.begin(len(prefix) + max(width, len(d)) + len(suffix))
	c.b.WriteString(prefix)
	for i := len(d); i < width; i++ {
		c.b.WriteByte('0')
	}
	c.b.Write(d)
	c.b.WriteString(suffix)
	return c.end()
}

// orf carves the i-th open-reading-frame identifier, YAL%05dC.
func (c *carver) orf(i int) string { return c.padded("YAL", i, 5, "C") }

// residues carves a random residue string: head followed by n residues
// drawn from rng.
func (c *carver) residues(rng *rand.Rand, head string, n int) string {
	c.begin(len(head) + n)
	c.b.WriteString(head)
	for j := 0; j < n; j++ {
		c.b.WriteByte(aminoAcids[rng.Intn(len(aminoAcids))])
	}
	return c.end()
}

// pair carves a two-string tuple.
func (c *carver) pair(a, b string) relation.Tuple {
	t := c.arena.Alloc(2)
	t[0], t[1] = relation.String(a), relation.String(b)
	return t
}

// sequencesSchema returns the protein_sequences schema.
func sequencesSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Table: "protein_sequences", Name: "ORF", Type: relation.TString},
		relation.Column{Table: "protein_sequences", Name: "sequence", Type: relation.TString},
	)
}

// interactionsSchema returns the protein_interactions schema.
func interactionsSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Table: "protein_interactions", Name: "ORF1", Type: relation.TString},
		relation.Column{Table: "protein_interactions", Name: "ORF2", Type: relation.TString},
	)
}

// sequencesGen returns the row generator behind ProteinSequences. Rows must
// be requested in index order (the RNG stream is sequential).
func sequencesGen(seed int64) func(i int) relation.Tuple {
	rng := rand.New(rand.NewSource(seed))
	var c carver
	return func(i int) relation.Tuple {
		orf := c.orf(i)
		// Real protein sequences start with methionine.
		return c.pair(orf, c.residues(rng, "M", SequenceLength-1))
	}
}

// interactionsGen returns the row generator behind ProteinInteractions.
func interactionsGen(seqCount int, seed int64) func(i int) relation.Tuple {
	rng := rand.New(rand.NewSource(seed + 1))
	var c carver
	return func(int) relation.Tuple {
		orf1 := c.orf(rng.Intn(seqCount))
		return c.pair(orf1, c.orf(rng.Intn(seqCount)))
	}
}

// materialize builds an in-memory table from a row generator.
func materialize(name string, schema *relation.Schema, n int, gen func(i int) relation.Tuple) *Table {
	tuples := make([]relation.Tuple, n)
	for i := 0; i < n; i++ {
		tuples[i] = gen(i)
	}
	return &Table{Name: name, Schema: schema, Tuples: tuples}
}

// ProteinSequences generates the protein_sequences table with n tuples:
// (ORF VARCHAR, sequence VARCHAR). Generation is deterministic in (n, seed).
func ProteinSequences(n int, seed int64) *Table {
	return materialize("protein_sequences", sequencesSchema(), n, sequencesGen(seed))
}

// ProteinInteractions generates the protein_interactions table with n tuples
// (ORF1 VARCHAR, ORF2 VARCHAR). ORF1 values are drawn from the first
// seqCount sequence ORFs so that the Q2 equi-join on i.ORF1 = p.ORF matches;
// ORF2 is an arbitrary partner. Deterministic in (n, seqCount, seed).
func ProteinInteractions(n, seqCount int, seed int64) *Table {
	return materialize("protein_interactions", interactionsSchema(), n, interactionsGen(seqCount, seed))
}

// interactionsZipfGen returns the row generator behind
// ProteinInteractionsZipf. Rows must be requested in index order.
func interactionsZipfGen(seqCount int, s float64, seed int64) func(i int) relation.Tuple {
	rng := rand.New(rand.NewSource(seed + 2))
	zipf := rand.NewZipf(rng, s, 1, uint64(seqCount-1))
	var c carver
	return func(int) relation.Tuple {
		orf1 := c.orf(int(zipf.Uint64()))
		return c.pair(orf1, c.orf(rng.Intn(seqCount)))
	}
}

// ProteinInteractionsZipf generates protein_interactions with a Zipf-skewed
// ORF1 distribution (exponent s > 1): a few hub proteins dominate the
// interaction list, as in real interaction networks. Skewed group sizes
// stress hash-partitioned aggregation and joins: the buckets holding hub
// keys carry far more state than the rest, so repartitioning them moves
// visibly more work. Deterministic in (n, seqCount, s, seed).
func ProteinInteractionsZipf(n, seqCount int, s float64, seed int64) *Table {
	return materialize("protein_interactions", interactionsSchema(), n, interactionsZipfGen(seqCount, s, seed))
}

// SyntheticSpec parameterises the generic synthetic generator: a (key, val,
// payload) table with a controllable key distribution — the knob set the
// grid performance-analysis literature tunes scan- and join-bound workloads
// with.
type SyntheticSpec struct {
	// Name is the table name ("synthetic" when empty).
	Name string
	// Rows is the cardinality.
	Rows int
	// KeyDomain is the number of distinct key values (defaults to Rows).
	KeyDomain int
	// ZipfS, when > 1, skews keys with a Zipf(s) distribution; otherwise
	// keys are drawn uniformly from the domain.
	ZipfS float64
	// PayloadBytes pads every row with a fixed-width random string
	// (defaults to 64), so table bytes scale independently of cardinality.
	PayloadBytes int
	// Seed makes generation deterministic in the whole spec.
	Seed int64
}

// syntheticSchema returns the schema for a SyntheticSpec table.
func syntheticSchema(name string) *relation.Schema {
	return relation.NewSchema(
		relation.Column{Table: name, Name: "key", Type: relation.TString},
		relation.Column{Table: name, Name: "val", Type: relation.TInt},
		relation.Column{Table: name, Name: "payload", Type: relation.TString},
	)
}

// withDefaults fills a SyntheticSpec's zero fields.
func (sp SyntheticSpec) withDefaults() SyntheticSpec {
	if sp.Name == "" {
		sp.Name = "synthetic"
	}
	if sp.KeyDomain <= 0 {
		sp.KeyDomain = sp.Rows
	}
	if sp.KeyDomain <= 0 {
		sp.KeyDomain = 1
	}
	if sp.PayloadBytes <= 0 {
		sp.PayloadBytes = 64
	}
	return sp
}

// syntheticGen returns the row generator for a (defaulted) SyntheticSpec.
// Rows must be requested in index order (the RNG stream is sequential).
func syntheticGen(sp SyntheticSpec) func(i int) relation.Tuple {
	rng := rand.New(rand.NewSource(sp.Seed))
	var zipf *rand.Zipf
	if sp.ZipfS > 1 && sp.KeyDomain > 1 {
		zipf = rand.NewZipf(rng, sp.ZipfS, 1, uint64(sp.KeyDomain-1))
	}
	var c carver
	return func(i int) relation.Tuple {
		k := 0
		if zipf != nil {
			k = int(zipf.Uint64())
		} else if sp.KeyDomain > 0 {
			k = rng.Intn(sp.KeyDomain)
		}
		t := c.arena.Alloc(3)
		t[0] = relation.String(c.padded("k", k, 8, ""))
		t[1] = relation.Int(int64(i))
		t[2] = relation.String(c.residues(rng, "", sp.PayloadBytes))
		return t
	}
}

// Synthetic materialises a synthetic table in memory. Deterministic in the
// spec. Use WriteSynthetic for tables that should not fit in memory.
func Synthetic(sp SyntheticSpec) *Table {
	sp = sp.withDefaults()
	return materialize(sp.Name, syntheticSchema(sp.Name), sp.Rows, syntheticGen(sp))
}

// Demo builds the standard demo database at the paper's cardinalities.
func Demo() *Store { return DemoSized(DefaultSequences, DefaultInteractions) }

// DemoSized builds the demo database with custom cardinalities; the paper's
// "varying the dataset size" experiment doubles the Q1 input to 6000.
func DemoSized(sequences, interactions int) *Store {
	s := NewStore()
	s.Add(ProteinSequences(sequences, 1))
	s.Add(ProteinInteractions(interactions, sequences, 1))
	return s
}

// Store is a named collection of tables: the data a Grid Data Service
// exposes on one data node. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// Add registers a table, replacing any previous table with the same name.
func (s *Store) Add(t *Table) {
	s.mu.Lock()
	s.tables[strings.ToLower(t.Name)] = t
	s.mu.Unlock()
}

// Table returns the named table (case-insensitive) or an error.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("dataset: no table %q", name)
	}
	return t, nil
}

// Names returns the sorted table names.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
