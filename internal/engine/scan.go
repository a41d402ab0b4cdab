package engine

import (
	"sync"
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
// decoder (blockScan) with two block sources; either way a block's bytes are
// reserved against the query's memory budget before it is read, and
// released once it is decoded.
//
// A serial scan reads ahead: an async producer goroutine fetches up to
// Readahead blocks (default 2 — double buffering) in front of the decoder.
// Under budget pressure the producer shrinks to one block in flight — it
// waits for the decoder to drain everything already fetched before reading
// on — so a scan never amplifies a breach, and the transition lands on the
// adaptation timeline. Ownership of a reservation moves with the block: the
// producer reserves, whoever ends up holding the fetch (decoder, drain loop,
// or the producer itself on a teardown race) releases, so
// cancel-mid-readahead zeroes mem_inflight_bytes.
//
// Otherwise the decoder claims blocks itself: it takes the next index off a
// claim counter, reserves the block and reads it. A serial scan with
// Readahead < 0 counts on its own; the worker clones of a morsel pool share
// one counter, so each block goes to the clone that claims it and is
// decoded on that clone's arena against its own budget stripe (see
// parallel.go). Serial scans decode blocks strictly in run order, so R1
// replay of a scan-rooted fragment regenerates a byte-identical stream; the
// scan's watermark is the block index.

// defaultReadahead is the in-flight block cap of a serial stored scan when
// ExecContext.Readahead is 0: one block being decoded, one being fetched.
const defaultReadahead = 2

// scanMetrics bundles the process-wide stored-scan counters.
type scanMetrics struct {
	blocksRead     *obs.Counter
	readaheadBytes *obs.Counter
}

func newScanMetrics() scanMetrics {
	o := obs.Default()
	return scanMetrics{
		blocksRead:     o.Counter(obs.MScanBlocksRead),
		readaheadBytes: o.Counter(obs.MScanReadaheadBytes),
	}
}

// recordScanEvent puts one readahead transition on the adaptation timeline.
func recordScanEvent(ctx *ExecContext, detail string) {
	obs.Default().Record(obs.Event{
		AtMs:     ctx.Clock.NowMs(),
		Kind:     obs.KindScan,
		Fragment: ctx.Fragment,
		Detail:   detail,
	})
}

// blockFetch is one block read for the decoder. size is the budget
// reservation travelling with it; whoever consumes the fetch releases it.
type blockFetch struct {
	data []byte
	size int64
	err  error
}

// blockString aliases a block buffer as a string without copying. Safe only
// because stored scans read every block into a fresh buffer that is never
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

// blockScan is the one stored-block decoder: block-granular fetch — from the
// readahead producer, or by the claim step over next — plus incremental
// decode. It is a single-goroutine object except for the producer it may
// own.
type blockScan struct {
	ctx   *ExecContext
	br    storage.BlockReader
	acct  *storage.BudgetAcct
	depth int // in-flight block cap; <= 0 claims blocks synchronously
	met   scanMetrics

	// next is the claim counter of the synchronous fetch: the scan's own, or
	// the one it shares with its sibling worker clones.
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
	sizes   []int // encoded sizes of the last fill's tuples (see fill)

	// Readahead state (depth > 0), created on the first fetch. slots is the
	// in-flight token pool: the producer takes one per fetch, the decoder
	// returns one per finished block, and under pressure the producer
	// reclaims them all to drain the pipeline.
	out    chan blockFetch
	slots  chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// newBlockScan wraps a block reader for one scan under ctx. claim is the
// block counter the scan shares with its sibling worker clones, which claim
// blocks synchronously; nil makes a serial scan, which counts on its own and
// reads ahead ctx.Readahead blocks.
func newBlockScan(ctx *ExecContext, br storage.BlockReader, claim *atomic.Int64) *blockScan {
	b := &blockScan{ctx: ctx, br: br, acct: ctx.memAcct(), depth: -1, met: newScanMetrics(), next: claim}
	if claim == nil {
		b.next = &b.own
		b.depth = ctx.Readahead
		if b.depth == 0 {
			b.depth = defaultReadahead
		}
	}
	return b
}

// start launches the readahead producer. Lazy — called on the first fetch —
// so a scan closed before its first read never spawns it.
func (b *blockScan) start() {
	b.out = make(chan blockFetch, b.depth)
	b.slots = make(chan struct{}, b.depth)
	for i := 0; i < b.depth; i++ {
		b.slots <- struct{}{}
	}
	b.stop = make(chan struct{})
	b.wg.Add(1)
	go b.produce()
}

// produce is the readahead goroutine: fetch blocks in order, at most depth
// in flight — shrinking to one while the budget is breached.
func (b *blockScan) produce() {
	defer b.wg.Done()
	defer close(b.out)
	shrunk := false
	for i := 0; i < b.br.Blocks(); i++ {
		select {
		case <-b.slots:
		case <-b.stop:
			return
		}
		if b.acct.Over() && b.depth > 1 {
			// Reclaim every other token: blocks until the decoder has
			// finished everything already fetched, leaving one in flight
			// at a time until pressure clears.
			for reclaimed := 0; reclaimed < b.depth-1; reclaimed++ {
				select {
				case <-b.slots:
				case <-b.stop:
					return
				}
			}
			for j := 0; j < b.depth-1; j++ {
				b.slots <- struct{}{}
			}
			if !shrunk {
				shrunk = true
				recordScanEvent(b.ctx, "readahead shrunk to one in-flight block: memory budget breached")
			}
		} else if shrunk && !b.acct.Over() {
			shrunk = false
			recordScanEvent(b.ctx, "readahead restored: memory pressure cleared")
		}
		f := b.read(i)
		b.met.readaheadBytes.Add(f.size)
		select {
		case b.out <- f:
		case <-b.stop:
			b.acct.Release(f.size)
			return
		}
		if f.err != nil {
			return
		}
	}
}

// read reserves block i's bytes against the budget, then reads the block.
// Every block gets a fresh buffer: the string aliasing of the decode state
// and the decoded values sharing it depend on the buffer never being written
// again.
func (b *blockScan) read(i int) blockFetch {
	size := int64(b.br.BlockSize(i))
	b.acct.Reserve(size)
	data, err := b.br.ReadBlock(i, nil)
	b.met.blocksRead.Inc()
	return blockFetch{data: data, size: size, err: err}
}

// finishBlock releases the reservation of the fully decoded current block
// and, in readahead mode, returns its in-flight token.
func (b *blockScan) finishBlock() {
	if b.curSize > 0 {
		b.acct.Release(b.curSize)
		b.curSize = 0
		if b.out != nil {
			b.slots <- struct{}{}
		}
	}
}

// advance fetches the next block and primes the decode state; ok is false
// at end of table. Without readahead the fetch is the claim step: take the
// next index off the claim counter, reserve the block and read it.
func (b *blockScan) advance() (ok bool, err error) {
	b.finishBlock()
	var f blockFetch
	if b.depth > 0 {
		if b.out == nil {
			b.start()
		}
		var live bool
		if f, live = <-b.out; !live {
			return false, nil
		}
	} else {
		i := int(b.next.Add(1) - 1)
		if i >= b.br.Blocks() {
			return false, nil
		}
		f = b.read(i)
	}
	if f.err != nil {
		b.acct.Release(f.size)
		return false, f.err
	}
	n, rest, err := relation.TupleCount(f.data)
	if err != nil {
		b.acct.Release(f.size)
		return false, qerr.Storage("scan block", err)
	}
	b.curSize = f.size
	b.left, b.rest = n, rest
	b.base = blockString(f.data)
	return true, nil
}

// fill appends decoded tuples to dst until it is full or the table ends,
// crossing block boundaries as needed, decoding each block's run of tuples
// with one fused relation.DecodeTuplesShared call. Decoded tuples carve their
// value slots from the scan's arena and their strings from the block's
// immutable buffer — blocks are never overwritten, so tuples stay valid
// indefinitely. When the cost model has a
// byte-dependent component, sizes[:n] afterwards holds the encoded byte size
// of each appended tuple — measured by the decode's pointer advance, the
// input chargeScanBatch would otherwise recompute by walking every value;
// with a flat scan cost the bookkeeping is skipped entirely.
func (b *blockScan) fill(dst *relation.Batch) (int, error) {
	dst.Rewind()
	b.sizes = b.sizes[:0]
	needSizes := b.ctx.Costs.ScanByteMs != 0
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
		var sizes []int
		if needSizes {
			if b.sizes == nil {
				b.sizes = make([]int, 0, dst.Cap())
			}
			sizes = b.sizes
		}
		var err error
		b.rest, b.left, sizes, err = relation.DecodeTuplesShared(&b.arena, b.base, b.rest, b.left, dst, sizes)
		if err != nil {
			return dst.Len(), qerr.Storage("scan tuple", err)
		}
		if needSizes {
			b.sizes = sizes
		}
	}
	return dst.Len(), nil
}

// close tears the scan down: stop the producer, drain its in-flight fetches
// (releasing the reservation travelling with each), release the current
// block, and close the reader. Idempotent, and safe mid-readahead — after
// it returns, the scan holds no reservations and no goroutine.
func (b *blockScan) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.out != nil {
		close(b.stop)
		for f := range b.out {
			b.acct.Release(f.size)
		}
		b.wg.Wait()
	}
	if b.curSize > 0 {
		b.acct.Release(b.curSize)
		b.curSize = 0
	}
	b.rest, b.left = nil, 0
	return b.br.Close()
}

// chargeScanBatch charges the scan cost of one decoded chunk against ctx:
// one bundled charge when the byte-dependent component is off, a per-tuple
// cost vector otherwise. sizes, when non-nil, carries the chunk's encoded
// tuple sizes as measured by the decoder's pointer advance — exactly
// Tuple.ByteSize without re-walking every value; a nil sizes falls back to
// the walk. costs is a reusable scratch buffer threaded by the caller.
func chargeScanBatch(ctx *ExecContext, chunk []relation.Tuple, sizes []int, costs *[]float64) {
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
	if sizes != nil {
		for i, sz := range sizes[:n] {
			cs[i] = ctx.Costs.ScanMs + ctx.Costs.ScanByteMs*float64(sz)
		}
	} else {
		for i, t := range chunk {
			cs[i] = ctx.Costs.ScanMs + ctx.Costs.ScanByteMs*float64(t.ByteSize())
		}
	}
	ctx.chargeEach(cs)
}
