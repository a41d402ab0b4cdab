package engine

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// seqQueue is the exchange's one FIFO: entries are appended under consecutive
// sequence numbers, removed from the front, and addressable by sequence in
// O(1). The exchange keeps one entry per buffer, never per tuple. A full
// backing slice slides down instead of growing once half of it is popped,
// so a steady stream allocates nothing.
type seqQueue[T any] struct {
	s    []T
	head int   // index of the front entry in s
	base int64 // sequence of the front entry
}

func (q *seqQueue[T]) len() int { return len(q.s) - q.head }

// next is the sequence the next push will be stored under.
func (q *seqQueue[T]) next() int64 { return q.base + int64(q.len()) }

// front returns the front entry; the queue must be non-empty.
func (q *seqQueue[T]) front() *T { return &q.s[q.head] }

func (q *seqQueue[T]) push(v T) {
	if len(q.s) == cap(q.s) && q.head > 0 && 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

// at returns the entry stored under seq, or nil if seq is not held.
func (q *seqQueue[T]) at(seq int64) *T {
	if seq < q.base || seq >= q.next() {
		return nil
	}
	return &q.s[q.head+int(seq-q.base)]
}

// popFront zeroes and removes the front entry; the queue must be non-empty.
func (q *seqQueue[T]) popFront() {
	clear(q.s[q.head : q.head+1])
	q.head++
	q.base++
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
}

// slotChunk stores the tuples, and their routing buckets, of consecutive
// buffers: a buffer is a contiguous run of slots inside one chunk.
type slotChunk struct {
	tuples  []relation.Tuple
	buckets []int32
}

// Fresh chunks start at seqChunk slots, since every stream pays for one,
// and double up to maxSlotChunk while a backlog grows: B backlogged tuples
// cost O(log B + B/maxSlotChunk) chunks, none ever copied.
const seqChunk, maxSlotChunk = 64, 4096

// slotStore hands out the slot runs of one recovery log. The chunk the
// log's front leaves becomes the spare, or is rewound in place when the log
// drained, so a steady stream allocates nothing. A run, once sent, is read
// in place by its consumer (see Consumer.Deliver), so a chunk is rewound or
// recycled only after every buffer in it was released.
type slotStore struct {
	tail, spare *slotChunk
	used        int // slots of tail handed out
	size        int // capacity of the last fresh chunk
	// noRecycle leaves every chunk the log's front leaves to the garbage
	// collector. A stateful log sets it: its tuples are released only by a
	// replay, which takes them whether or not their consumer still holds
	// them queued.
	noRecycle bool
}

// slotPoison holds nil in production. A test that stores a tuple in it
// makes drop, and a send buffer's release, fill released slots with that
// tuple instead of clearing them, so a reader that outlives a slot's
// lifetime sees the poison. It is atomic because acknowledgement
// goroutines of earlier tests may still release.
var slotPoison atomic.Pointer[relation.Tuple]

// reserve returns n contiguous free slots.
func (s *slotStore) reserve(n int) (*slotChunk, int) {
	if s.tail == nil || s.used+n > len(s.tail.tuples) {
		c := s.spare
		if c != nil && len(c.tuples) >= n {
			s.spare = nil
		} else {
			s.size = max(n, seqChunk, min(2*s.size, maxSlotChunk))
			c = &slotChunk{tuples: make([]relation.Tuple, s.size), buckets: make([]int32, s.size)}
		}
		s.tail, s.used = c, 0
	}
	s.used += n
	return s.tail, s.used - n
}

// drop retires chunk c once the log's front has moved from it to next (nil:
// the log is empty).
func (s *slotStore) drop(c, next *slotChunk) {
	switch {
	case c == next:
	case s.noRecycle:
		if c == s.tail {
			s.tail = nil
		}
	case c == s.tail:
		releaseSlots(c.tuples[:s.used])
		s.used = 0
	default:
		releaseSlots(c.tuples)
		if s.spare == nil || len(c.tuples) > len(s.spare.tuples) {
			s.spare = c
		}
	}
}

// poisoned reports whether t is the tuple a test stored in slotPoison.
func poisoned(t relation.Tuple) bool {
	p := slotPoison.Load()
	return p != nil && len(t) > 0 && len(*p) > 0 && &t[0] == &(*p)[0]
}

// releaseSlots clears released slots, or poisons them under a test.
func releaseSlots(ts []relation.Tuple) {
	p := slotPoison.Load()
	if p == nil {
		clear(ts)
		return
	}
	for i := range ts {
		ts[i] = *p
	}
}

// sendBuf is an unlogged stream's buffer: slots for one buffer's tuples,
// filled by the producer, handed over with the data message as its Slots,
// and released by whoever reads them last (see transport.Message.Slots).
type sendBuf struct {
	tuples []relation.Tuple
	first  int64 // sequence of tuples[0]
	pool   *sendBufPool
	inPool bool
}

// Release implements transport.Releaser: it clears the slots, or poisons
// them under a test, and returns the buffer to its pool. A second release
// is a bug in the handover and panics.
func (b *sendBuf) Release() {
	if b.inPool {
		panic("engine: send buffer released twice")
	}
	b.inPool = true
	releaseSlots(b.tuples)
	b.tuples = b.tuples[:0]
	b.pool.p.Put(b)
}

// sendBufSlab is how many buffers a pool miss allocates at once: sync.Pool
// empties at every garbage collection, so refilling it one buffer per miss
// would cost an allocation per buffer.
const sendBufSlab = 32

// sendBufPool recycles the send buffers of one size, process-wide.
type sendBufPool struct {
	size int
	p    sync.Pool
}

// sendBufPools maps a buffer size to its *sendBufPool.
var sendBufPools sync.Map

// sendBufPoolFor returns the pool of size-slot send buffers.
func sendBufPoolFor(size int) *sendBufPool {
	if p, ok := sendBufPools.Load(size); ok {
		return p.(*sendBufPool)
	}
	p, _ := sendBufPools.LoadOrStore(size, &sendBufPool{size: size})
	return p.(*sendBufPool)
}

// get returns an empty buffer holding up to size tuples; a miss carves a
// fresh slab and pools all but the first of its buffers.
func (p *sendBufPool) get() *sendBuf {
	if b, _ := p.p.Get().(*sendBuf); b != nil {
		b.inPool = false
		return b
	}
	bufs := make([]sendBuf, sendBufSlab)
	slots := make([]relation.Tuple, sendBufSlab*p.size)
	for i := range bufs {
		lo := i * p.size
		bufs[i] = sendBuf{tuples: slots[lo : lo : lo+p.size], pool: p, inPool: i > 0}
		if i > 0 {
			p.p.Put(&bufs[i])
		}
	}
	return &bufs[0]
}

// deadSet marks which of a buffer's n tuples are gone: released by an ack
// or taken by a resend or replay in a recovery log, discarded by a recall in
// the consumer's queue. The bitmap is allocated only when one splits the
// buffer.
type deadSet struct {
	n, live int32 // tuples, and tuples not dead
	dead    []uint64
}

func (d *deadSet) isDead(i int) bool {
	return d.live == 0 || d.dead != nil && d.dead[i/64]&(1<<(i%64)) != 0
}

// kill marks tuple i dead and reports whether it was live.
func (d *deadSet) kill(i int) bool {
	if d.isDead(i) {
		return false
	}
	if d.dead == nil {
		d.dead = make([]uint64, (d.n+63)/64)
	}
	d.dead[i/64] |= 1 << (i % 64)
	d.live--
	return true
}

// bufRun is one buffer of one stream: n tuples from sequence first, in slots
// [off, off+n) of c.
type bufRun struct {
	first int64
	c     *slotChunk
	off   int32
	deadSet
}

func (b *bufRun) tuples() []relation.Tuple { return b.c.tuples[b.off : b.off+b.n] }
func (b *bufRun) buckets() []int32         { return b.c.buckets[b.off : b.off+b.n] }

// recoveryLog is one consumer stream's recovery log and sequence counter:
// one bufRun per buffer from the oldest holding an unreleased tuple, the
// tail being the open buffer while one is being filled.
type recoveryLog struct {
	bufs  seqQueue[bufRun]
	store slotStore
	open  bool  // the tail is the open buffer
	seq   int64 // next sequence to hand out; sequences start at 1
	live  int   // tuples not yet released
}

// newRecoveryLog returns an empty log whose sequences start at 1; a
// stateful exchange's log never recycles its slots.
func newRecoveryLog(stateful bool) recoveryLog {
	return recoveryLog{seq: 1, store: slotStore{noRecycle: stateful}}
}

// openBuf returns the open buffer, or nil.
func (l *recoveryLog) openBuf() *bufRun {
	if !l.open {
		return nil
	}
	return l.bufs.at(l.bufs.next() - 1)
}

// append logs a tuple into the open buffer under the stream's next sequence
// and returns it.
func (l *recoveryLog) append(t relation.Tuple, bucket int32) int64 {
	b, s := l.openBuf(), &l.store
	switch {
	case b == nil:
		c, off := s.reserve(1)
		l.bufs.push(bufRun{first: l.seq, c: c, off: int32(off)})
		l.open = true
		b = l.openBuf()
	case b.c == s.tail && s.used == int(b.off+b.n) && s.used < len(b.c.tuples):
		s.used++ // grow in place
	default: // the chunk is full: move the open buffer to a fresh run
		c, off := s.reserve(int(b.n) + 1)
		copy(c.tuples[off:], b.tuples())
		copy(c.buckets[off:], b.buckets())
		b.c, b.off = c, int32(off)
	}
	b.c.tuples[b.off+b.n], b.c.buckets[b.off+b.n] = t, bucket
	b.n++
	b.live++
	l.live++
	l.seq++
	return l.seq - 1
}

// take removes and returns the tuple logged under seq.
func (l *recoveryLog) take(seq int64) (relation.Tuple, int32, bool) {
	i := sort.Search(l.bufs.len(), func(i int) bool { return l.bufs.at(l.bufs.base+int64(i)).first > seq })
	b := l.bufs.at(l.bufs.base + int64(i) - 1)
	if b == nil || seq-b.first >= int64(b.n) || !b.kill(int(seq-b.first)) {
		return nil, 0, false
	}
	l.live--
	k := b.off + int32(seq-b.first)
	t, bucket := b.c.tuples[k], b.c.buckets[k]
	l.trim()
	return t, bucket, true
}

// release drops every tuple at or below checkpoint ck except the ascending
// sequences in keep, whole buffers at once unless a kept sequence, a split
// or a mid-buffer ck cuts one. Only buffers pinned by kept tuples are ever
// walked twice.
func (l *recoveryLog) release(ck int64, keep []int64) {
	for ord := l.bufs.base; ord < l.bufs.next(); ord++ {
		b := l.bufs.at(ord)
		if b.first > ck || l.open && ord == l.bufs.next()-1 {
			break
		}
		last := b.first + int64(b.n) - 1
		k, _ := slices.BinarySearch(keep, b.first)
		if ck >= last && b.dead == nil && (k == len(keep) || keep[k] > last) {
			l.live -= int(b.live)
			b.live = 0
			continue
		}
		for seq := b.first; seq <= min(ck, last); seq++ {
			for k < len(keep) && keep[k] < seq {
				k++
			}
			if (k == len(keep) || keep[k] != seq) && b.kill(int(seq-b.first)) {
				l.live--
			}
		}
	}
	l.trim()
}

// trim pops released buffers off the front.
func (l *recoveryLog) trim() {
	for l.bufs.len() > 0 && l.bufs.front().live == 0 && !(l.open && l.bufs.len() == 1) {
		c := l.bufs.front().c
		l.bufs.popFront()
		var next *slotChunk
		if l.bufs.len() > 0 {
			next = l.bufs.front().c
		}
		l.store.drop(c, next)
	}
}

// each calls fn for every live tuple in sequence order.
func (l *recoveryLog) each(fn func(seq int64, t relation.Tuple, bucket int32)) {
	for ord := l.bufs.base; ord < l.bufs.next(); ord++ {
		b := l.bufs.at(ord)
		for i, t := range b.tuples() {
			if !b.isDead(i) {
				fn(b.first+int64(i), t, b.buckets()[i])
			}
		}
	}
}

// reset drops every tuple, leaving its slots to the garbage collector; the
// sequence counter carries on.
func (l *recoveryLog) reset() {
	*l = recoveryLog{seq: l.seq, store: slotStore{noRecycle: l.store.noRecycle}}
}

// winBuf is a received buffer: its first sequence and how many of its
// tuples are neither processed nor discarded.
type winBuf struct {
	first int64
	left  int32
}

// seqWindow tracks, by arrival ordinal, the received buffers of one stream
// that still hold unprocessed tuples. Finished buffers are trimmed off the
// front, so its first sequence is the low-water mark; checkpoints fall on
// buffer ends, so "is checkpoint ck complete?" is one comparison. Sequences
// the stream skipped (replay buffers) are never added: they count as done.
type seqWindow struct {
	q seqQueue[winBuf]
}

// add records a received buffer of n tuples and returns its ordinal.
func (w *seqWindow) add(first int64, n int) int64 {
	w.q.push(winBuf{first, int32(n)})
	return w.q.next() - 1
}

// finish marks k tuples of buffer ord processed (or discarded). Workers
// finish out of order, so the mark advances only over a finished prefix.
func (w *seqWindow) finish(ord int64, k int) {
	w.q.at(ord).left -= int32(k)
	for w.q.len() > 0 && w.q.front().left == 0 {
		w.q.popFront()
	}
}

// anyAtOrBelow reports whether a buffer starting at or below ck is
// outstanding.
func (w *seqWindow) anyAtOrBelow(ck int64) bool {
	return w.q.len() > 0 && w.q.front().first <= ck
}

// upTo returns the prefix of the ascending seqs that is at or below ck.
func upTo(seqs []int64, ck int64) []int64 {
	k, found := slices.BinarySearch(seqs, ck)
	if found {
		k++
	}
	return seqs[:k]
}
