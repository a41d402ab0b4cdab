package engine

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/qerr"
	"repro/internal/relation"
	"repro/internal/storage"
)

// Streaming stored-table scans (DESIGN.md §5k). A stored table is scanned
// batch-at-a-time: whole length-prefixed blocks are fetched, decoded into the
// scan's arena, and appended to the caller's pooled batch. There is one
// decoder (blockScan), for stored tables and spill runs (openRun) alike, with
// one block source, the claim step: take the next index off a claim counter,
// reserve the block's bytes against the query's memory budget, read it, and
// release the reservation once it is decoded.
// A serial scan counts on its own; the worker clones of a morsel pool share
// one counter, so each block goes to the clone that claims it and is decoded
// on that clone's arena (see parallel.go). Serial scans decode blocks
// strictly in run order, so R1 replay of a scan-rooted fragment regenerates
// a byte-identical stream; the scan's watermark is the block index.

// blockString aliases a block buffer as a string without copying. Safe only
// because block scans read every block into a fresh buffer that is never
// written again: the decoder reads the bytes — through the string for value
// payloads, through the slice for frame headers — but nothing mutates them,
// so the usual string-immutability guarantee holds. Decoded string values
// share this backing, which removes both the per-block conversion memmove
// and the per-value copies from the scan's hot path.
func blockString(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(data), len(data))
}

// blockScan is the one run decoder: block-granular fetch by the claim step
// over next, plus incremental decode. A stored scan reserves each block
// against the query's budget and counts it in scan_blocks_read; a spill
// reload has neither (both nil-safe), as the operator reloading the run
// accounts what it keeps. It is a single-goroutine object.
type blockScan struct {
	mem        *storage.Budget
	br         storage.BlockReader
	blocksRead *obs.Counter

	// next is the claim counter: the scan's own, or the one it shares with
	// its sibling worker clones.
	next *atomic.Int64
	own  atomic.Int64

	// Decode state of the current block. base is the block payload's
	// string aliasing (blockString); every string value decoded from the
	// block is a substring of it, so the block costs no string allocations
	// beyond its own read buffer.
	rest    []byte
	base    string
	left    uint64
	arena   relation.Arena
	curSize int64 // reservation held for the current block

	// batch and pos serve nextTuple's one-record-at-a-time reads. scratch,
	// set on a transient run reader, is the arena it decodes into instead of
	// arena, reset at every refill.
	batch   *relation.Batch
	pos     int
	scratch *relation.Arena
}

// arenaPoison holds nil in production. A test that stores a value in it
// makes a transient run reader fill the Values its arena takes back at a
// refill with that value instead of clearing them, so a caller that kept a
// decoded record without copying it reads the poison. It is atomic, as
// slotPoison is, for the goroutines earlier tests leave behind.
var arenaPoison atomic.Pointer[relation.Value]

// newBlockScan wraps a block reader for one scan. mem and blocksRead are a
// stored scan's budget and scan_blocks_read counter. claim is the block
// counter the scan shares with its sibling worker clones; nil makes a serial
// scan, which counts on its own.
func newBlockScan(mem *storage.Budget, blocksRead *obs.Counter, br storage.BlockReader, claim *atomic.Int64) *blockScan {
	b := &blockScan{mem: mem, br: br, blocksRead: blocksRead, next: claim}
	if claim == nil {
		b.next = &b.own
	}
	return b
}

// openRun opens a sealed spill run for a keeper, a reader that holds on to
// the records it reads (a build reload, a sort merge): a serial block scan
// with no budget and no blocks-read counter, read through nextTuple.
// Reloaded tuples follow the scan's lifetime rule: their strings alias a
// block never written again.
func openRun(backend storage.Backend, name string) (*blockScan, error) {
	br, err := backend.OpenBlocks(name)
	if err != nil {
		return nil, err
	}
	return newBlockScan(nil, nil, br, nil), nil
}

// openScratchRun opens a sealed spill run for a transient reader, which
// copies what it keeps: records decode into the operator's scratch arena,
// and each is valid only until the refill after it resets the arena.
func openScratchRun(backend storage.Backend, name string, scratch *relation.Arena) (*blockScan, error) {
	b, err := openRun(backend, name)
	if err != nil {
		return nil, err
	}
	b.scratch = scratch
	return b, nil
}

// finishBlock releases the reservation of the fully decoded current block.
func (b *blockScan) finishBlock() {
	if b.curSize > 0 {
		b.mem.Release(b.curSize)
		b.curSize = 0
	}
}

// advance fetches the next block and primes the decode state; ok is false
// at end of table. The fetch is the claim step: take the next index off the
// claim counter, reserve the block's bytes against the budget, then read it.
// Every block gets a fresh buffer: the string aliasing of the decode state
// and the decoded values sharing it depend on the buffer never being written
// again.
func (b *blockScan) advance() (ok bool, err error) {
	b.finishBlock()
	i := int(b.next.Add(1) - 1)
	if i >= b.br.Blocks() {
		return false, nil
	}
	size := int64(b.br.BlockSize(i))
	b.mem.Reserve(size)
	data, err := b.br.ReadBlock(i, nil)
	b.blocksRead.Inc()
	if err != nil {
		b.mem.Release(size)
		return false, err
	}
	n, rest, err := relation.TupleCount(data)
	if err != nil {
		b.mem.Release(size)
		return false, qerr.Storage("scan block", err)
	}
	b.curSize = size
	b.left, b.rest = n, rest
	b.base = blockString(data)
	return true, nil
}

// fill appends decoded tuples to dst until it is full or the table ends,
// crossing block boundaries as needed, decoding each block's run of tuples
// with one fused relation.DecodeTuplesShared call. Decoded tuples carve their
// value slots from the scan's arena and their strings from the block's
// immutable buffer — blocks are never overwritten, so tuples stay valid
// indefinitely, unless a transient reader's scratch arena carved them.
func (b *blockScan) fill(dst *relation.Batch) (int, error) {
	dst.Rewind()
	arena := &b.arena
	if b.scratch != nil {
		arena = b.scratch
	}
	for !dst.Full() {
		if b.left == 0 {
			ok, err := b.advance()
			if err != nil {
				return dst.Len(), err
			}
			if !ok {
				break
			}
			continue
		}
		var err error
		b.rest, b.left, _, err = relation.DecodeTuplesShared(arena, b.base, b.rest, b.left, dst, nil)
		if err != nil {
			return dst.Len(), qerr.Storage("scan tuple", err)
		}
	}
	return dst.Len(), nil
}

// nextTuple returns the next tuple in run order, refilling the scan's own
// pooled batch through fill; ok is false at end of run. A transient reader's
// refill first resets its scratch arena (see openScratchRun).
func (b *blockScan) nextTuple() (t relation.Tuple, ok bool, err error) {
	if b.batch == nil {
		b.batch = relation.GetBatch()
	}
	if b.pos == b.batch.Len() {
		if b.scratch != nil {
			fill := relation.Null
			if p := arenaPoison.Load(); p != nil {
				fill = *p
			}
			b.scratch.Reset(fill)
		}
		if n, err := b.fill(b.batch); n == 0 || err != nil {
			return nil, false, err
		}
		b.pos = 0
	}
	b.pos++
	return b.batch.Tuples[b.pos-1], true, nil
}

// close releases the current block's reservation and nextTuple's batch
// and closes the reader; afterwards the scan holds no reservations.
func (b *blockScan) close() error {
	b.finishBlock()
	if b.batch != nil {
		b.batch.Release()
		b.batch = nil
	}
	return b.br.Close()
}

// chargeScanBatch charges the scan cost of one chunk against ctx: one
// bundled charge when the byte-dependent component is off, a per-tuple cost
// vector of Tuple.ByteSize otherwise, so a stored table and an in-memory one
// holding the same rows cost the same. costs is a reusable scratch buffer
// threaded by the caller.
func chargeScanBatch(ctx *ExecContext, chunk []relation.Tuple, costs *[]float64) {
	n := len(chunk)
	if n == 0 {
		return
	}
	if ctx.Costs.ScanByteMs == 0 {
		ctx.chargeN(ctx.Costs.ScanMs, n)
		return
	}
	if cap(*costs) < n {
		*costs = make([]float64, n)
	}
	cs := (*costs)[:n]
	for i, t := range chunk {
		cs[i] = ctx.Costs.ScanMs + ctx.Costs.ScanByteMs*float64(t.ByteSize())
	}
	ctx.chargeEach(cs)
}
