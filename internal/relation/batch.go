package relation

import "sync"

// DefaultBatchSize is the tuple capacity of pooled batches. 256 tuples keeps
// a batch comfortably inside the L2 cache for the narrow tuples of the
// paper's workload while amortizing per-batch overheads (interface dispatch,
// mutex acquisitions, meter charges) over enough tuples that they vanish
// from profiles.
const DefaultBatchSize = 256

// Batch is a reusable container of tuples flowing between vectorized
// operators. Ownership rules (see DESIGN.md, "Batch execution model"):
//
//   - The batch CONTAINER (the Tuples slice header and its backing array of
//     slice headers) is owned by whoever allocated or Get()-ed it, is reused
//     across NextBatch calls, and must never be retained by a callee past
//     the call that received it.
//   - The TUPLES inside a batch are immutable once published: operators
//     build new tuples instead of mutating received ones, so a tuple handed
//     to a recovery log, an operator's hash-table state, or an in-flight
//     wire buffer may be retained indefinitely without copying.
//
// This split is what lets the exchange producer log and resend tuples from
// batched sends with zero copies while batch containers recycle through the
// pool.
type Batch struct {
	// Tuples holds the batch contents; len is the fill level.
	Tuples []Tuple
	// limit, when > 0, caps the fill level below cap(Tuples). The fragment
	// driver uses it to clamp batches to the remaining M1 monitoring window
	// without reallocating the container.
	limit int
}

// NewBatch returns an unpooled batch with the given tuple capacity.
func NewBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	return &Batch{Tuples: make([]Tuple, 0, capacity)}
}

// batchPool recycles DefaultBatchSize containers.
var batchPool = sync.Pool{
	New: func() any { return NewBatch(DefaultBatchSize) },
}

// GetBatch returns an empty pooled batch of DefaultBatchSize capacity.
// Release it when done; a batch that is never released is merely garbage.
func GetBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.Reset()
	b.limit = 0
	return b
}

// Release clears the container and returns it to the pool. The caller must
// not touch the batch afterwards. Tuples referenced by the batch are NOT
// invalidated: only the container recycles.
func (b *Batch) Release() {
	b.Reset()
	b.limit = 0
	batchPool.Put(b)
}

// Reset empties the batch, dropping tuple references so the container does
// not pin memory while pooled.
func (b *Batch) Reset() {
	for i := range b.Tuples {
		b.Tuples[i] = nil
	}
	b.Tuples = b.Tuples[:0]
}

// Rewind empties the batch WITHOUT dropping tuple references. This is the
// cheap truncation operators use between successive fills, where the stale
// entries are about to be overwritten anyway; the leftover references pin
// tuples only until the next fill or Reset. Use Reset before pooling or
// parking a batch.
func (b *Batch) Rewind() { b.Tuples = b.Tuples[:0] }

// Append adds one tuple. Appending past Cap grows the container (the batch
// stays usable, it just stops being capacity-bounded), so producers filling
// a batch should check Full first.
func (b *Batch) Append(t Tuple) { b.Tuples = append(b.Tuples, t) }

// AppendAll adds a run of tuples with one bulk copy of the slice headers —
// measurably cheaper than per-tuple Append for reference-forwarding sources
// (one growth check and one write-barrier sweep instead of len(ts)).
func (b *Batch) AppendAll(ts []Tuple) { b.Tuples = append(b.Tuples, ts...) }

// Len reports the fill level.
func (b *Batch) Len() int { return len(b.Tuples) }

// Cap reports the effective capacity: the container capacity, or the
// explicit limit when one is set.
func (b *Batch) Cap() int {
	if b.limit > 0 && b.limit < cap(b.Tuples) {
		return b.limit
	}
	return cap(b.Tuples)
}

// Full reports whether the batch reached its effective capacity.
func (b *Batch) Full() bool { return len(b.Tuples) >= b.Cap() }

// SetLimit clamps the effective capacity to n tuples (0 removes the clamp).
func (b *Batch) SetLimit(n int) { b.limit = n }

// Arena amortizes output-tuple allocation for operators that construct new
// tuples (projections, joins, operation calls, decoders): instead of one make
// per tuple it carves tuples out of chunked []Value blocks. An arena that is
// never Reset is a keeper: carved tuples are ordinary immutable tuples and may
// outlive the arena, which never reuses handed-out memory, it only batches
// the allocations. An arena its owner Resets is transient: every Reset hands
// its one kept chunk out again, so a reader that copies what it keeps
// decodes without allocating.
type Arena struct {
	buf []Value
	// round is a transient arena's kept chunk, which each Reset makes the
	// current chunk again.
	round []Value
}

// arenaChunk is the Values per allocation block: large enough to amortize,
// small enough not to strand much memory when mostly unused, and — at 32
// bytes per Value, 20KiB a chunk — under the runtime's 32KiB small-object
// threshold, so chunk allocation takes the malloc fast path instead of the
// large-object path (block scans allocate a chunk every few hundred tuples;
// the difference is visible in their profiles).
const arenaChunk = 640

// Alloc returns a zeroed tuple of n values carved from the arena (on a
// transient arena, the values hold the fill of its last Reset).
func (a *Arena) Alloc(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	if len(a.buf) < n {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]Value, size)
	}
	t := Tuple(a.buf[:n:n])
	a.buf = a.buf[n:]
	return t
}

// Reset makes the arena transient and takes back every Value carved from
// its kept chunk since the previous Reset, overwriting each with fill: Null
// clears them, so the released slots pin no strings, and a test passes a
// poison value to catch a reader that kept a tuple without copying it. No
// tuple carved before a Reset may be read after it. A round that outgrew
// the kept chunk carved the rest from fresh chunks, which Reset leaves to
// the garbage collector; it doubles the kept chunk instead, so rounds of a
// steady size stop allocating.
func (a *Arena) Reset(fill Value) {
	k := len(a.round) - len(a.buf)
	fits := len(a.buf) > 0 && k >= 0 && &a.buf[0] == &a.round[k]
	used := a.round
	if fits {
		used = a.round[:k]
	}
	if fill == Null {
		clear(used)
	} else {
		for i := range used {
			used[i] = fill
		}
	}
	if !fits {
		a.round = make([]Value, max(arenaChunk, 2*len(a.round)))
	}
	a.buf = a.round
}
