package engine

import "repro/internal/relation"

// seqChunk is the number of entries per seqQueue chunk. Every stream pays
// for one chunk of each queue however few tuples it carries, so the size is
// set by the small end: at 64 a point query's exchange allocates 3KiB for
// its widest queue (queueEntry, 48 bytes), where 256 made the serving
// workloads allocate more per query than the maps did. Per-entry chunk
// bookkeeping is already negligible at this size.
const seqChunk = 64

// seqQueue is the exchange's one FIFO: entries are appended under consecutive
// sequence numbers and removed from the front, and any entry still held is
// addressable by its sequence in O(1). Per-stream sequence numbers are
// monotone (paper §3.1), which is what makes the recovery log a queue, an
// acknowledgement a prefix truncation, and the consumer's "anything
// outstanding at or below this checkpoint?" a comparison against the front
// sequence. Storage is fixed-size chunks; the chunk the head leaves is kept
// for the tail to reuse, so a steady stream allocates no entry storage and a
// backlog of B entries costs B slots, never a regrowth copy.
type seqQueue[T any] struct {
	chunks []*[seqChunk]T
	spare  *[seqChunk]T
	head   int   // offset of the front entry from the start of chunks[0]
	n      int   // entries held
	base   int64 // sequence of the front entry
}

func (q *seqQueue[T]) len() int { return q.n }

// next is the sequence the next push will be stored under.
func (q *seqQueue[T]) next() int64 { return q.base + int64(q.n) }

func (q *seqQueue[T]) push(v T) {
	i := q.head + q.n
	if i/seqChunk == len(q.chunks) {
		c := q.spare
		if c == nil {
			c = new([seqChunk]T)
		}
		q.spare = nil
		q.chunks = append(q.chunks, c)
	}
	q.chunks[i/seqChunk][i%seqChunk] = v
	q.n++
}

// at returns the slot holding sequence seq, or nil if seq is not held.
func (q *seqQueue[T]) at(seq int64) *T {
	if seq < q.base || seq >= q.next() {
		return nil
	}
	i := q.head + int(seq-q.base)
	return &q.chunks[i/seqChunk][i%seqChunk]
}

// popFront removes and returns the front entry; the queue must be non-empty.
// The slot is zeroed so a recycled chunk pins no tuple.
func (q *seqQueue[T]) popFront() T {
	var zero T
	slot := &q.chunks[q.head/seqChunk][q.head%seqChunk]
	v := *slot
	*slot = zero
	q.head++
	q.n--
	q.base++
	if q.head%seqChunk == 0 {
		// The chunk just left is drained: keep it for the tail. Drained
		// chunks are cut from the slice once they are half of it, so the
		// shift costs O(1) per chunk, amortised.
		k := q.head / seqChunk
		q.spare, q.chunks[k-1] = q.chunks[k-1], nil
		if 2*k >= len(q.chunks) {
			live := copy(q.chunks, q.chunks[k:])
			clear(q.chunks[live:])
			q.chunks = q.chunks[:live]
			q.head = 0
		}
	}
	return v
}

// reset drops every entry and restarts the queue at sequence base.
func (q *seqQueue[T]) reset(base int64) {
	if q.n > 0 {
		*q = seqQueue[T]{}
	}
	q.base = base
}

// logEntry is one recovery-log record: a tuple that has been sent but has
// not finished processing at its consumer (or constitutes operator state).
// A released record stays in place as a tombstone (live false, tuple
// dropped) until the released prefix reaches it.
type logEntry struct {
	tuple  relation.Tuple
	bucket int32
	live   bool
}

// recoveryLog is one consumer stream's recovery log and its sequence
// counter: entry i is sequence base+i, so the log is dense from its oldest
// unreleased record to the last sequence handed out.
type recoveryLog struct {
	q    seqQueue[logEntry]
	live int // records not yet released
}

func newRecoveryLog() recoveryLog {
	return recoveryLog{q: seqQueue[logEntry]{base: 1}}
}

// next is the stream's next sequence number (sequences start at 1).
func (l *recoveryLog) next() int64 { return l.q.next() }

// append logs a tuple under the stream's next sequence and returns it.
func (l *recoveryLog) append(t relation.Tuple, bucket int32) int64 {
	seq := l.q.next()
	l.q.push(logEntry{tuple: t, bucket: bucket, live: true})
	l.live++
	return seq
}

// take removes and returns the record logged under seq.
func (l *recoveryLog) take(seq int64) (logEntry, bool) {
	e := l.q.at(seq)
	if e == nil || !e.live {
		return logEntry{}, false
	}
	out := *e
	*e = logEntry{}
	l.live--
	l.trim()
	return out, true
}

// release drops every record at or below checkpoint ck except the sequences
// in keep. A late, smaller ack finds its range already trimmed and does
// nothing; the scan restarts at the log's front each time, which stays
// amortised O(1) per record because the released prefix is trimmed — only
// kept records (a recall awaiting its resend) are ever looked at twice.
func (l *recoveryLog) release(ck int64, keep map[int64]bool) {
	if end := l.q.next() - 1; ck > end {
		ck = end
	}
	for seq := l.q.base; seq <= ck; seq++ {
		if e := l.q.at(seq); e.live && !keep[seq] {
			*e = logEntry{}
			l.live--
		}
	}
	l.trim()
}

func (l *recoveryLog) trim() {
	for l.q.len() > 0 && !l.q.at(l.q.base).live {
		l.q.popFront()
	}
}

// each calls fn for every live record in sequence order.
func (l *recoveryLog) each(fn func(seq int64, e logEntry)) {
	for seq := l.q.base; seq < l.q.next(); seq++ {
		if e := l.q.at(seq); e.live {
			fn(seq, *e)
		}
	}
}

// reset drops every record; the sequence counter carries on.
func (l *recoveryLog) reset() {
	l.q.reset(l.q.next())
	l.live = 0
}

// seqWindow tracks which received sequences of one stream are still
// unprocessed. It holds one finished flag per sequence from the oldest
// outstanding one to the newest received; the finished prefix is trimmed as
// it forms, so the front of the window is the stream's low-water mark.
type seqWindow struct {
	q seqQueue[bool] // true: finished (processed, discarded, or never received)
}

// add marks seq received and outstanding. Sequences a stream skips — replay
// buffers draw from the same counter but bypass the queue — count as
// finished. Streams deliver in sequence order; a sequence below the
// low-water mark has by definition nothing outstanding at or below it and is
// not tracked.
func (w *seqWindow) add(seq int64) {
	if w.q.len() == 0 {
		w.q.reset(seq)
	}
	for w.q.next() < seq {
		w.q.push(true)
	}
	if seq == w.q.next() {
		w.q.push(false)
	} else if f := w.q.at(seq); f != nil {
		*f = false
	}
}

// finish marks seq processed (or discarded). Workers finish out of order, so
// the low-water mark advances only over a contiguous finished prefix.
func (w *seqWindow) finish(seq int64) {
	if f := w.q.at(seq); f != nil {
		*f = true
	}
	for w.q.len() > 0 && *w.q.at(w.q.base) {
		w.q.popFront()
	}
}

// anyAtOrBelow reports whether any sequence at or below ck is outstanding.
func (w *seqWindow) anyAtOrBelow(ck int64) bool {
	return w.q.len() > 0 && w.q.base <= ck
}
